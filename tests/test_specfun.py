"""Special-function primitives behind the measure path and the series checks.

The library keeps one q-Pochhammer primitive, ``families._log_qpoch_prefix``
(the q-Hahn measure's x-dependent factors, its q-binomial included, are
sums of its entries), and the polynomial tests check the recurrence against
the exact terminating series in ``oracles``.  Both are pinned here against
hand values and exact rational products, the prefix also where its factors
come near 0 as q -> 1.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askeychain.errors import DomainError
from askeychain.families import _log_qpoch_prefix

import oracles


def _log_q_binomial(n, k, q):
    """ln [n k]_q as the q-Hahn measure forms it from (q;q)_k prefixes."""
    lqf = _log_qpoch_prefix(q, q, n)
    return lqf[n] - lqf[k] - lqf[n - k]


class TestQPochhammer:
    def test_empty_product(self):
        assert math.exp(_log_qpoch_prefix(0.77, 0.5, 0)[0]) == 1.0

    def test_zero_first_factor(self):
        # (1; 1/2)_2 = 0: the log-space prefix accepts positive factors only
        with pytest.raises(DomainError):
            _log_qpoch_prefix(1.0, 0.5, 2)

    def test_small_product(self):
        got = math.exp(_log_qpoch_prefix(0.3, 0.5, 2)[2])
        assert got == pytest.approx(0.7 * 0.85, rel=1e-14)

    @given(
        st.fractions(min_value=-3, max_value=3).filter(lambda f: f.denominator <= 6),
        st.integers(0, 20),
    )
    @settings(max_examples=150)
    def test_matches_exact_rational(self, a, n):
        q = Fraction(1, 2)
        exact = oracles.qpoch_frac(a, q, n)
        if any(1 - a * q**k <= 0 for k in range(n)):
            with pytest.raises(DomainError):
                _log_qpoch_prefix(float(a), 0.5, n)
            return
        got = math.exp(_log_qpoch_prefix(float(a), 0.5, n)[n])
        assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("w,q,n", [(0.999999, 0.999999, 10), (0.9999993, 0.999999, 20)])
    def test_factors_near_zero(self, w, q, n):
        # every factor 1 - w q^k is below 3e-5: formed by subtraction, each
        # would carry ~eps / (1 - w q^k) of relative error
        exact = oracles.qpoch_frac(Fraction(w), Fraction(q), n)
        got = math.exp(_log_qpoch_prefix(w, q, n)[n])
        assert abs(got / float(exact) - 1.0) <= 1e-12


class TestQBinomial:
    def test_edge(self):
        assert math.exp(_log_q_binomial(9, 0, 0.3)) == 1.0

    @given(st.floats(0.05, 0.95))
    def test_classic_identity(self, q):
        assert math.exp(_log_q_binomial(2, 1, q)) == pytest.approx(1 + q, rel=1e-13)

    def test_product_formula(self):
        # [4 2]_q at q = 1/2 from the exact (q;q)_n products
        q = Fraction(1, 2)
        exact = oracles.qpoch_frac(q, q, 4) / (
            oracles.qpoch_frac(q, q, 2) ** 2
        )
        got = math.exp(_log_q_binomial(4, 2, 0.5))
        assert got == pytest.approx(float(exact), rel=1e-13)


class TestHypergeometricTerminating:
    def test_single_term(self):
        got = oracles.hyper_frac(
            [Fraction(0), Fraction(33, 10)], [Fraction(11, 10)], Fraction(7), nterms=0
        )
        assert got == 1

    def test_two_term_krawtchouk_value(self):
        # 1 + (-1)(-1)/(-2) * 2 = 0
        got = oracles.hyper_frac(
            [Fraction(-1), Fraction(-1)], [Fraction(-2)], Fraction(2), nterms=1
        )
        assert got == 0

    def test_three_term_rational_oracle(self):
        # 1 + (-2)(3)(-1) / ((1)(-2)) * 1 = -2
        a = b = 1
        got = oracles.hyper_frac(
            [Fraction(-2), Fraction(2 + a + b - 1), Fraction(-1)],
            [Fraction(a), Fraction(-2)],
            Fraction(1),
            nterms=1,
        )
        assert got == -2

    def test_denominator_past_termination_is_safe(self):
        # -N in the denominator is fine because -2 terminates the sum first:
        # 1 - 7/10 + 7/60 = 5/12
        got = oracles.hyper_frac(
            [Fraction(-2), Fraction(-7)], [Fraction(-10)], Fraction(1, 2), 2
        )
        assert got == Fraction(5, 12)


class TestBasicHypergeometric3phi2:
    def test_single_term(self):
        # (1;q)_k = 0 for k >= 1 cuts the sum after its first term
        q = Fraction(1, 2)
        got = oracles.q_3phi2_frac(
            [Fraction(1), Fraction(3, 10), q**-4], [Fraction(1, 5), q**-9], q, q, nterms=4
        )
        assert got == 1

    def test_x_zero_is_one(self):
        q = Fraction(1, 2)
        got = oracles.q_3phi2_frac(
            [q**-3, Fraction(3, 20), Fraction(1)], [Fraction(3, 10), q**-8], q, q, nterms=3
        )
        assert got == 1
