import ast
import dataclasses
import errno
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import parse_matrix_csv

import askeychain as ak
from askeychain import export
from askeychain.cli import main, parse_recipe
from askeychain.errors import DomainError
from askeychain.families import ConvType


def bench_module(name):
    """A module of bench/, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


#: the fault the verify tests inject in process: entry (x, y) of the
#: ``FAULT_RECIPE`` kernel moved by delta
FAULT_RECIPE = "krawtchouk type=i a=0.3 b=0.5 N=5"
FAULT = (2, 3, 1e-6)


def faulty(kernel):
    x, y, delta = FAULT
    matrix = kernel.matrix.copy()
    matrix[x, y] += delta
    return dataclasses.replace(kernel, matrix=matrix)


def inject_fault(monkeypatch):
    """Make the CLI build every kernel with ``FAULT`` applied."""
    def build(*args, **kwargs):
        return faulty(ak.build_kernel(*args, **kwargs))

    monkeypatch.setattr("askeychain.cli.build_kernel", build)


class TestRecipeParsing:
    def test_round_trips_to_canonical_form(self):
        texts = [
            "krawtchouk type=i a=0.3 b=0.5 N=5",
            "hahn type=iii a=1.0 b=2.0 c=1.0 N=8",
            "qhahn type=i a=0.3 b=0.5 c=0.4 q=0.5 N=6",
            "charlier type=iii a=1.0 b=0.4",
            "meixner type=ii a=1.0 b=6.0 c=0.2",
        ]
        for text in texts:
            recipe, N = parse_recipe(text)
            canon = recipe.to_string(N)
            recipe2, N2 = parse_recipe(canon)
            assert (recipe2, N2) == (recipe, N)
            assert recipe2.to_string(N2) == canon

    def test_meixner_type_ii_canonicalizes_to_i(self):
        recipe, _ = parse_recipe("meixner type=ii a=1.0 b=6.0 c=0.2")
        assert recipe.conv_type is ConvType.I

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            parse_recipe("krawtchouk type=i a=0.3 b=0.5 N=5 zz=1")

    def test_missing_and_malformed(self):
        with pytest.raises(DomainError):
            parse_recipe("krawtchouk type=i a=0.3 N=5")
        with pytest.raises(DomainError):
            parse_recipe("krawtchouk a=0.3 b=0.5 N=5")
        with pytest.raises(DomainError):
            parse_recipe("krawtchouk type=i a 0.3 b=0.5")
        with pytest.raises(DomainError):
            parse_recipe("wat type=i a=0.3 b=0.5")

    @pytest.mark.parametrize("text, message", [
        ("", "empty recipe"),
        ("   ", "empty recipe"),
        ("krawtchouk type=i a=0.3 a=0.4 b=0.5 N=5", "duplicate key 'a'"),
        ("krawtchouk type=iv a=0.3 b=0.5 N=5", "unknown convolution type 'iv'"),
        ("krawtchouk type=i a=x b=0.5 N=5", "bad numeric value in recipe: could not convert"),
        ("krawtchouk type=i a=0.3 b=0.5 N=2.5", "bad numeric value in recipe: invalid literal"),
    ])
    def test_refusals_name_the_fault(self, text, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            parse_recipe(text)

    def test_recipe_arity_is_checked(self):
        with pytest.raises(DomainError, match=re.escape(
                "hahn recipes take parameters ('a', 'b', 'c'), got (1.0, 2.0)")):
            ak.ConvolutionRecipe(ak.Family.HAHN, ConvType.I, (1.0, 2.0))

    def test_finite_needs_n_semi_infinite_rejects_it(self):
        with pytest.raises(DomainError, match="krawtchouk needs a lattice size N"):
            parse_recipe("krawtchouk type=i a=0.3 b=0.5")
        with pytest.raises(DomainError, match="krawtchouk needs a lattice size N >= 0, got -1"):
            parse_recipe("krawtchouk type=i a=0.3 b=0.5 N=-1")
        with pytest.raises(DomainError, match="charlier .*takes --eps, not N"):
            parse_recipe("charlier type=i a=0.4 b=0.8 N=7")


class TestKernelCommand:
    def test_csv_columns_sum_to_one(self, tmp_path):
        code, text = run(
            tmp_path, "kernel", "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5"
        )
        assert code == 0
        mat = parse_matrix_csv(text)
        assert mat.shape == (6, 6)
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)

    def test_unsupported_combination_exits_2(self, tmp_path, capsys):
        for recipe, message in [
            ("qhahn type=ii a=0.3 b=0.5 c=0.4 q=0.5 N=5", "type ii convolution does not exist"),
            ("charlier type=ii a=0.5 b=1.0", "charlier kernels are constructed only for types i "),
        ]:
            code, _ = run(tmp_path, "kernel", "--recipe", recipe)
            assert code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out.dat").exists()

    def test_library_misuse_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # only a DomainError is a refusal (exit 2); any other ValueError is a
        # fault in the program and must stay a traceback
        def misuse(recipe, N, tail_eps):
            raise ValueError("a library precondition does not hold")

        monkeypatch.setattr("askeychain.cli.build_kernel", misuse)
        with pytest.raises(ValueError, match="a library precondition does not hold"):
            run(tmp_path, "spectrum", "--recipe", "krawtchouk type=ii a=0.2 b=0.6 N=6")
        assert not (tmp_path / "out.dat").exists()

    def test_truncated_kernel_with_certified_tail(self, tmp_path):
        code, text = run(
            tmp_path,
            "kernel",
            "--recipe",
            "charlier type=i a=0.5 b=1.0",
            "--eps",
            "1e-12",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["lattice"]["kind"] == "truncated"
        assert payload["lattice"]["tail_bound"] <= 1e-12
        assert payload["lattice"]["col_deficiency"] <= 1e-10
        mat = np.array(payload["matrix"])
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-10)

    def test_bad_parameters_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "kernel", "--recipe", "krawtchouk type=i a=1.3 b=0.5 N=5")
        assert code == 2
        # --eps is refused on a finite recipe and range-checked on the others
        for recipe in ("hahn type=i a=1 b=2 c=3 N=10", "charlier type=i a=0.5 b=1.0"):
            for eps in ("1e-3", "0", "-1e-12", "nan"):
                code, text = run(tmp_path, "kernel", "--recipe", recipe, f"--eps={eps}")
                assert (code, text) == (2, ""), (recipe, eps)

    @pytest.mark.parametrize(
        "recipe",
        [
            "hahn type=i a=1 b=1 c=inf N=5",
            "charlier type=i a=0.5 b=inf",
            "meixner type=i a=nan b=1 c=0.2",
            "krawtchouk type=i a=0.3 b=0.5 N=-3",
            "charlier type=i a=0.5 b=1e308",  # lambda3 = b / (1 - a) overflows
            "charlier type=iii a=1e308 b=0.9",  # lambda3 = a b / (1 - b) overflows
        ],
    )
    def test_non_finite_or_negative_size_exits_2(self, tmp_path, capsys, recipe):
        code, text = run(tmp_path, "kernel", "--recipe", recipe)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, recipe", [
        ("kernel", "krawtchouk type=i a=0.3 b=0.5 N=2000"),
        ("kernel", "krawtchouk type=i a=0.3 b=0.5 N=1000000000"),
        ("spectrum", "hahn type=ii a=1.0 b=0.5 c=1.0 N=2000"),
        ("spectrum", "hahn type=ii a=1.0 b=0.5 c=1.0 N=1000000000"),
        ("kernel", "charlier type=i a=0.5 b=1000.0"),  # certified window: 2324 points
        ("kernel", "charlier type=i a=0.5 b=1e11"),
        ("kernel", "charlier type=i a=0.5 b=1e300"),
        # lambda3 = 1 (a small window), but the z sum over the Charlier(a)
        # factor would need ~1e300 points, and 2674 points for a=2000
        ("kernel", "charlier type=iii a=1e300 b=1e-300"),
        ("kernel", "charlier type=iii a=2000 b=0.0004"),
    ])
    def test_lattice_above_window_cap_exits_2(self, tmp_path, capsys, command, recipe):
        t0 = time.perf_counter()
        code, text = run(tmp_path, command, "--recipe", recipe)
        assert time.perf_counter() - t0 < 5.0  # refused before any window scan
        assert code == 2
        assert text == ""
        assert "exceeds the 2000-point cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eigvecs", "verify"])
    @pytest.mark.parametrize("recipe", [
        "qhahn type=iii a=0.5 b=0.5 c=0.95 q=0.1 N=400",  # q^(-N) overflows
        "qhahn type=iii a=0.5 b=0.5 c=0.95 q=0.1 N=300",  # A_n C_{n+1} overflows
        "qhahn type=iii a=0.3 b=0.5 c=0.4 q=0.5 N=600",
    ])
    def test_basis_outside_double_range_exits_2(self, tmp_path, capsys, command, recipe):
        code, text = run(tmp_path, command, "--recipe", recipe)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("basis leaves the double range\n")

    @pytest.mark.parametrize("command", ["spectrum", "hamiltonian"])
    def test_unread_basis_is_not_built(self, tmp_path, capsys, command):
        # neither command reads phi, so the basis refusal above cannot reach them
        text = "qhahn type=iii a=0.3 b=0.5 c=0.4 q=0.5 N=600"
        code, out = run(tmp_path, command, "--recipe", text, "--format", "json")
        assert code == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out)
        values = np.array(payload["kappas" if command == "spectrum" else "matrix"])
        assert values.shape == ((601,) if command == "spectrum" else (601, 601))
        assert np.all(np.isfinite(values))
        if command == "spectrum":
            recipe, N = parse_recipe(text)
            assert values.tobytes() == ak.kappa_vector(recipe, N).tobytes()

    @pytest.mark.parametrize("command", ["hamiltonian", "spectrum", "eigvecs", "correlation",
                                         "entropy", "verify"])
    def test_underflowed_pi_exits_2(self, tmp_path, capsys, command):
        # defect pinned as it stands: pi underflows to 0 at N=400, and every
        # command that reads the spectral system refuses it up front
        text = "qhahn type=i a=0.3 b=0.5 c=0.4 q=0.5 N=400"
        code, out = run(tmp_path, command, "--recipe", text)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: stationary distribution must be strictly positive\n"

    def test_underflowed_pi_still_writes_the_kernel(self, tmp_path):
        # ``kernel`` reads no fact of the system, so the refusal above misses it
        code, out = run(tmp_path, "kernel", "--recipe", "qhahn type=i a=0.3 b=0.5 c=0.4 q=0.5 N=400")
        assert code == 0
        assert len(out.splitlines()) == 401

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "k.csv"
        code = main(["kernel", "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5", "--out", str(out)])
        assert code == 2
        assert not out.parent.exists()
        assert capsys.readouterr().err.startswith("error: cannot write --out ")

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "k.csv"
        out.write_text("old\n")

        def refuse(src, dst):
            raise OSError(errno.EACCES, "refused")

        monkeypatch.setattr(os, "replace", refuse)
        code = main(["kernel", "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5", "--out", str(out)])
        assert code == 2
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["k.csv"]
        assert capsys.readouterr().err == f"error: cannot write --out {str(out)!r}: refused\n"

    @pytest.mark.parametrize("command", ["kernel", "spectrum"])
    def test_default_out_is_stdout(self, tmp_path, capsys, command):
        argv = [command, "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5"]
        assert main(argv) == 0
        written = capsys.readouterr().out
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert written == text != ""

    def test_out_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            code, _ = run(tmp_path, "kernel", "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5")
        finally:
            os.umask(old)
        assert code == 0
        assert (tmp_path / "out.dat").stat().st_mode & 0o777 == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["out.dat"]

    @pytest.mark.parametrize("command", ["kernel", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, command, tol):
        code, text = run(
            tmp_path, command, "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5", f"--tol={tol}"
        )
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: --tol must be finite and > 0")


COMMANDS = ["kernel", "hamiltonian", "spectrum", "eigvecs", "correlation", "entropy", "verify"]


@pytest.mark.parametrize("command", COMMANDS)
class TestExitContract:
    """One rule for every command: the output is written, and the exit code
    is 1 when the kernel checks at --tol fail (the whole suite for verify);
    a refused flag exits 2 and writes nothing."""

    TRUNCATED = "charlier type=iii a=1.0 b=0.4"
    FINITE = "hahn type=i a=1 b=2 c=3 N=10"

    def test_tolerance_gates_exit_code_not_output(self, tmp_path, command):
        code, text = run(tmp_path, command, "--recipe", self.TRUNCATED, "--format", "json")
        assert code == 0
        code, failing = run(tmp_path, command, "--recipe", self.TRUNCATED, "--tol", "1e-300",
                            "--format", "json")
        assert code == 1
        payload = json.loads(failing)
        if command == "verify":
            assert payload["passed"] is False
            failed = {c["name"] for c in payload["checks"] if not c["passed"]}
            assert "column-stochasticity" in failed
        else:
            assert failing == text

    def test_eps_above_largest_accepted_exits_2(self, tmp_path, capsys, command, monkeypatch):
        def refuse(*args):
            raise AssertionError("matrix built for a refused --eps")

        monkeypatch.setattr("askeychain.markov._build_matrix", refuse)
        code, _ = run(tmp_path, command, "--recipe", self.TRUNCATED, "--eps", "2e-11")
        assert code == 2
        assert not (tmp_path / "out.dat").exists()
        assert "tail_eps must lie in (0, 1e-11]" in capsys.readouterr().err

    def test_eps_on_finite_recipe_exits_2(self, tmp_path, capsys, command):
        code, _ = run(tmp_path, command, "--recipe", self.FINITE, "--eps", "1e-12")
        assert code == 2
        assert not (tmp_path / "out.dat").exists()
        assert "take N, not --eps" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_pass_report(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--recipe", "hahn type=i a=1.0 b=2.0 c=3.0 N=20"
        )
        assert code == 0
        assert "ALL PASS" in text
        assert "spectral-gap" in text

    def test_verify_truncated_recipe(self, tmp_path):
        code, text = run(tmp_path, "verify", "--recipe", "charlier type=iii a=1.0 b=0.4")
        assert code == 0, text
        assert "ALL PASS" in text

    def test_hahn_type_ii_with_cancelling_first_step(self, tmp_path):
        # a + 2b + c = 2 makes the n = 0 step of the kappa recurrence 0/0
        code, text = run(tmp_path, "verify", "--recipe", "hahn type=ii a=0.5 b=0.5 c=0.5 N=20")
        assert code == 0, text
        assert "ALL PASS" in text

    @pytest.mark.parametrize("conv_type", ["i", "iii"])
    def test_qhahn_near_q_one(self, tmp_path, conv_type):
        # each factor 1 - w q^k sits ~1e-6 above 0 here
        recipe = f"qhahn type={conv_type} a=0.3 b=0.5 c=0.4 q=0.999999 N=10"
        code, text = run(tmp_path, "verify", "--recipe", recipe)
        assert code == 0, text
        assert "ALL PASS" in text

    def test_injected_fault_yields_exit_1(self, tmp_path, monkeypatch):
        inject_fault(monkeypatch)
        code, text = run(tmp_path, "verify", "--recipe", FAULT_RECIPE)
        assert code == 1
        assert "FAIL column-stochasticity" in text
        assert "FAILURES PRESENT" in text

    def test_perturb_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "verify", "--recipe", FAULT_RECIPE, "--perturb", "2,3,1e-6")
        assert exc.value.code == 2
        assert "--perturb" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "recipe, perturb",
        [
            ("hahn type=iii a=1.0 b=2.0 c=1.0 N=12", None),
            ("meixner type=iii a=6.0 b=0.2 c=1.0", None),
            (FAULT_RECIPE, FAULT),
        ],
    )
    def test_library_report_matches_cli(self, tmp_path, monkeypatch, recipe, perturb):
        rec, N = ak.parse_recipe(recipe)
        kernel = ak.build_kernel(rec, N=N)
        if perturb is not None:
            kernel = faulty(kernel)
            inject_fault(monkeypatch)
        checks = ak.verification_report(ak.SpectralSystem(kernel))
        code, text = run(tmp_path, "verify", "--recipe", recipe, "--format", "json")
        payload = json.loads(text)
        assert [(c.name, c.measured, c.passed) for c in checks] == [
            (c["name"], c["measured"], c["passed"]) for c in payload["checks"]
        ]
        failed = {c.name for c in checks if not c.passed}
        if perturb is None:
            assert code == 0 and not failed
        else:
            assert code == 1 and "column-stochasticity" in failed

    def test_json_report(self, tmp_path):
        code, text = run(
            tmp_path,
            "verify",
            "--recipe",
            "krawtchouk type=ii a=0.2 b=0.6 N=10",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"column-stochasticity", "detailed-balance", "spectrum-match"} <= names


class TestCommandTable:
    """Every command in both formats: the JSON envelope keys and, bit for
    bit, the same numbers in CSV and JSON."""

    FIELDS = {
        "kernel": ["matrix", "pi"],
        "hamiltonian": ["matrix", "pi"],
        "spectrum": ["kappas"],
        "eigvecs": ["phi"],
        "correlation": ["mu", "filled_modes", "matrix"],
        "entropy": ["mu", "rows"],
    }

    @pytest.mark.parametrize(
        "recipe", ["krawtchouk type=ii a=0.2 b=0.6 N=6", "charlier type=iii a=1.0 b=0.4"]
    )
    @pytest.mark.parametrize("command", COMMANDS)
    def test_csv_and_json_agree(self, tmp_path, command, recipe):
        code_csv, text = run(tmp_path, command, "--recipe", recipe)
        code_json, payload = run(tmp_path, command, "--recipe", recipe, "--format", "json")
        assert code_csv == code_json == 0
        payload = json.loads(payload)
        if command == "verify":
            assert list(payload) == ["recipe", "stationary", "lattice", "checks", "passed"]
            _, kernel_text = run(tmp_path, "kernel", "--recipe", recipe, "--format", "json")
            kernel_payload = json.loads(kernel_text)
            for key in ("recipe", "stationary", "lattice"):
                assert payload[key] == kernel_payload[key]
            lines = [
                f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
                f"measured={c['measured']:.3e} tol={c['tol']:.1e}"
                for c in payload["checks"]
            ]
            assert text.splitlines() == lines + ["ALL PASS"]
            return
        assert list(payload) == ["recipe", "stationary", "lattice"] + self.FIELDS[command]
        if command in ("spectrum", "entropy"):
            rows = [line.split(",") for line in text.splitlines()[1:]]
            csv_rows = [[int(k), float(v)] for k, v in rows]
            json_rows = payload["rows"] if command == "entropy" else list(
                enumerate(payload["kappas"]))
            assert csv_rows == [list(r) for r in json_rows]
        else:
            key = "phi" if command == "eigvecs" else "matrix"
            np.testing.assert_array_equal(parse_matrix_csv(text), np.array(payload[key]))


class TestSpectrumAndEigvecs:
    def test_spectrum_contains_closed_form_values(self, tmp_path):
        code, text = run(
            tmp_path, "spectrum", "--recipe", "krawtchouk type=ii a=0.2 b=0.6 N=6"
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "n,kappa"
        kappas = np.array([float(line.split(",")[1]) for line in lines[1:]])
        want = np.array([(-0.4) ** n for n in range(7)])
        np.testing.assert_allclose(kappas, want, rtol=1e-12)
        assert (kappas < 0).sum() == 3

    def test_eigvecs_orthonormal_on_reread(self, tmp_path):
        code, text = run(
            tmp_path, "eigvecs", "--recipe", "hahn type=i a=1.0 b=2.0 c=3.0 N=12"
        )
        assert code == 0
        phi = parse_matrix_csv(text)
        assert np.max(np.abs(phi.T @ phi - np.eye(13))) <= 1e-9

    def test_hamiltonian_symmetric(self, tmp_path):
        code, text = run(
            tmp_path, "hamiltonian", "--recipe", "qhahn type=iii a=0.3 b=0.5 c=0.4 q=0.5 N=8"
        )
        assert code == 0
        h = parse_matrix_csv(text)
        np.testing.assert_allclose(h, h.T, atol=1e-15)


class TestFermionCommands:
    def test_correlation_trace_counts_filled_modes(self, tmp_path):
        code, text = run(
            tmp_path,
            "correlation",
            "--recipe",
            "krawtchouk type=ii a=0.2 b=0.6 N=7",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["filled_modes"] == [1, 3, 5, 7]
        c = np.array(payload["matrix"])
        assert np.trace(c) == pytest.approx(4.0, abs=1e-10)

    def test_entropy_sweep_endpoints_zero(self, tmp_path):
        code, text = run(
            tmp_path,
            "entropy",
            "--recipe",
            "hahn type=i a=1.0 b=2.0 c=3.0 N=19",
            "--mu",
            "0.5",
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "block_size,entropy"
        prof = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert prof.size == 21
        assert prof[0] == 0.0 and prof[-1] <= 1e-8
        assert prof.max() > 0.1

    @pytest.mark.parametrize("mu, bound", [("0", 0.0), ("2", 1e-11)])
    def test_product_state_entropy_is_zero(self, tmp_path, mu, bound):
        # Krawtchouk i has no negative kappa: mu = 0 leaves the vacuum and
        # mu = 2 fills every mode, and both are product states
        recipe = "krawtchouk type=i a=0.3 b=0.5 N=40"
        code, text = run(tmp_path, "entropy", "--recipe", recipe, "--mu", mu)
        assert code == 0
        rows = text.strip().splitlines()[1:]
        assert len(rows) == 42
        assert not any(",-" in row for row in rows)
        prof = np.array([float(row.split(",")[1]) for row in rows])
        assert np.all(prof >= 0.0) and prof.max() <= bound

    def test_single_block_flag(self, tmp_path):
        code, text = run(
            tmp_path,
            "entropy",
            "--recipe",
            "krawtchouk type=ii a=0.2 b=0.6 N=7",
            "--block",
            "2:5",
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("3,")

    def test_explicit_filled_set_override(self, tmp_path):
        code, text = run(
            tmp_path,
            "correlation",
            "--recipe",
            "krawtchouk type=i a=0.3 b=0.5 N=5",
            "--filled",
            "0,2",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["filled_modes"] == [0, 2]
        assert np.trace(np.array(payload["matrix"])) == pytest.approx(2.0, abs=1e-12)

    def test_bad_filled_exits_2(self, tmp_path):
        code, _ = run(
            tmp_path,
            "correlation",
            "--recipe",
            "krawtchouk type=i a=0.3 b=0.5 N=5",
            "--filled",
            "0,x",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["correlation", "entropy"])
    @pytest.mark.parametrize("extra", [["--mu=inf"], ["--mu=-inf"], ["--mu=nan"],
                                       ["--mu=inf", "--filled=0,1"]])
    def test_non_finite_mu_exits_2(self, tmp_path, capsys, command, extra):
        code, text = run(
            tmp_path, command, "--recipe", "krawtchouk type=ii a=0.2 b=0.6 N=7",
            "--format", "json", *extra,
        )
        assert code == 2
        assert text == ""
        assert "mu must be finite" in capsys.readouterr().err

    def test_bad_block_exits_2(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "entropy",
            "--recipe",
            "krawtchouk type=ii a=0.2 b=0.6 N=7",
            "--block",
            "5:99",
        )
        assert code == 2
        assert "outside lattice of 8 sites" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["5", "a:b"])
    def test_malformed_block_exits_2(self, tmp_path, capsys, block):
        code, _ = run(tmp_path, "entropy", "--recipe", "krawtchouk type=ii a=0.2 b=0.6 N=7",
                      "--block", block)
        assert code == 2
        assert not (tmp_path / "out.dat").exists()
        err = capsys.readouterr().err
        assert err == f"error: bad block spec {block!r}, expected start:stop\n"


class TestRoundTrips:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_csv_float_format_roundtrips(self, v):
        assert float(export.FLOAT_FORMAT % v) == v

    def test_matrix_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((9, 9)) * np.exp(rng.uniform(-30, 30, (9, 9)))
        text = export.matrix_csv(mat)
        back = parse_matrix_csv(text)
        np.testing.assert_array_equal(back, mat)

    def test_json_envelope_roundtrip_exact(self, tmp_path):
        code, text = run(
            tmp_path,
            "kernel",
            "--recipe",
            "hahn type=ii a=1.0 b=0.5 c=1.0 N=9",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(text)
        again = json.loads(export.envelope_json(payload))
        assert again == payload
        assert payload["recipe"] == "hahn type=ii a=1.0 b=0.5 c=1.0 N=9"

    def test_kernel_csv_matches_library_exactly(self, tmp_path):
        from askeychain import build_kernel
        from askeychain.cli import parse_recipe as pr

        recipe, N = pr("krawtchouk type=iii a=0.4 b=0.5 N=7")
        kern = build_kernel(recipe, N=N)
        code, text = run(
            tmp_path, "kernel", "--recipe", "krawtchouk type=iii a=0.4 b=0.5 N=7"
        )
        assert code == 0
        np.testing.assert_array_equal(parse_matrix_csv(text), kern.matrix)


class TestLibraryBoundary:
    def test_cli_import_leaves_out_scipy_sparse(self):
        src = str(Path(ak.__file__).resolve().parents[1])
        code = "import sys, askeychain.cli; print('scipy.sparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("module", ["askeychain", "askeychain.cli"])
    def test_import_leaves_out_scipy(self, module):
        # scipy is a test dependency only (the Jordan-Wigner referee)
        src = str(Path(ak.__file__).resolve().parents[1])
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "[]"

    def test_oracles_import_nothing_from_the_package(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [str(n.module) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert "numpy" in modules
        assert not [m for m in modules if m.split(".")[0] == "askeychain"]

    def test_every_top_level_definition_is_used(self):
        # a function or class of the package that nothing in src/ uses and
        # __all__ does not export is test-only code living in the library
        pkg = Path(ak.__file__).parent
        trees = {path.name: ast.parse(path.read_text()) for path in pkg.glob("*.py")}
        orphans = []
        for name, tree in trees.items():
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                used = any(
                    id(n) not in inside
                    and node.name in (getattr(n, "id", None), getattr(n, "attr", None))
                    for t in trees.values() for n in ast.walk(t)
                )
                if not used and node.name not in ak.__all__:
                    orphans.append(f"{name}:{node.name}")
        assert not orphans

    def test_names_the_benchmark_binds_resolve(self):
        # bench/ wraps these (module, attribute) pairs and reads these fields;
        # without this test only the benchmark's own self-test sees a rename
        spans = bench_module("spans")
        missing = [f"{module}.{attr}" for module, attr, _ in spans.SPAN_TARGETS
                   if not hasattr(importlib.import_module(module), attr)]
        assert not missing
        from askeychain import cli, markov

        assert cli.verify_kernel is markov.verify_kernel
        recipe, N = ak.parse_recipe("krawtchouk type=ii a=0.2 b=0.6 N=6")
        system = ak.analytic_eigensystem(recipe, N=N)
        for name in ("sqrt_pi", "hamiltonian", "phi", "kappas", "size"):
            assert hasattr(system, name), name
        report = ak.verify_kernel(system.kernel)
        for name in ("max_stochastic_violation", "max_reversibility_violation", "tol"):
            assert hasattr(report, name), name

    def test_the_benchmarks_selftest_passes(self):
        # -B: the harness's modules are read, and no bytecode is written beside them
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-B", "bench/selftest.py"], cwd=root,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_the_benchmarks_tracer_counts_the_written_text(self, tmp_path):
        # the tracer counts export.bytes_out off the str that atomic_write
        # receives: the builders return the whole text, not chunks
        tracer = bench_module("spans").Tracer()
        out = tmp_path / "kernel.json"
        tracer.install()
        try:
            tracer.enabled = True
            code = main(["kernel", "--recipe", "hahn type=iii a=1.0 b=2.0 c=1.0 N=40",
                         "--format", "json", "--out", str(out)])
        finally:
            tracer.enabled = False
            tracer.uninstall()
        assert code == 0
        assert tracer.counters["export.bytes_out"] == out.stat().st_size > 0
        names = {span[0] for span in tracer.spans}
        assert {"export.envelope_json", "export.atomic_write"} <= names

    def test_the_benchmarks_library_calls_run(self):
        # the entropy workload's op and the export workload's references,
        # run once: a library change that would fail a benchmark run fails here
        ops, checks = bench_module("ops"), bench_module("checks")
        for spec, fill_div in ((["hahn", "i", [1.0, 2.0, 3.0], 12], 2),
                               (["charlier", "iii", [1.0, 0.4], None], 4)):
            op = {"spec": spec, "fill_div": fill_div}
            _, out, error = ops.run_entropy_op(op)
            assert checks.check_entropy(op, out, error) == (None, None)
        recipe, N = ak.parse_recipe("hahn type=ii a=0.7 b=1.0 c=0.4 N=8")
        spec = ["hahn", "ii", [0.7, 1.0, 0.4], 8]
        refs = checks.References()
        got = refs.expected({"spec": spec, "command": "spectrum"})
        kappas = ak.kappa_vector(recipe, N).tobytes()
        assert got["kappa"].tobytes() == got["kappas"].tobytes() == kappas
        got = refs.expected({"spec": spec, "command": "hamiltonian"})
        system = ak.analytic_eigensystem(recipe, N=N)
        assert got["matrix"].tobytes() == system.hamiltonian.tobytes()
        np.testing.assert_allclose(got["pi"], ak.build_kernel(recipe, N=N).pi, rtol=1e-15)
        # the references read phi lazily, off the same system
        phi = ak.orthonormal_columns(recipe.stationary_spec(N), npoints=N + 1)
        got = refs.expected({"spec": spec, "command": "eigvecs"})
        assert got["matrix"].tobytes() == got["phi"].tobytes() == phi.tobytes()
        filled = phi[:, np.flatnonzero(ak.kappa_vector(recipe, N) < 0.0)]
        assert filled.shape[1] > 0
        got = refs.expected({"spec": spec, "command": "correlation"})
        assert got["matrix"].tobytes() == (filled @ filled.T).tobytes()

    def test_no_nonsymmetric_eigensolver_in_the_library(self):
        # K is similar to the symmetric H: the one eigensolver is eigvalsh;
        # the eig/eigvals referees live in tests/oracles.py
        pkg = Path(ak.__file__).parent
        found = []
        for path in pkg.glob("*.py"):
            for n in ast.walk(ast.parse(path.read_text())):
                names = [getattr(n, "attr", None)]
                if isinstance(n, ast.ImportFrom):
                    names += [a.name for a in n.names]
                found += [f"{path.name}:{n.lineno}" for v in names if v in ("eig", "eigvals")]
        assert not found

    def test_verify_runs_without_nonsymmetric_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nonsymmetric eigensolver called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for text in ("hahn type=ii a=0.7 b=1.0 c=0.4 N=20", "charlier type=iii a=1.0 b=0.4"):
            recipe, N = ak.parse_recipe(text)
            kernel = ak.build_kernel(recipe, N=N)
            checks = ak.verification_report(ak.SpectralSystem(kernel))
            assert all(c.passed for c in checks), text
