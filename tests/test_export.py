"""The export builders write the bytes of their one-call referees
(``oracles.matrix_csv_per_float``, ``oracles.envelope_json_dumps``,
``oracles.rows_csv_per_value``): every float, special value, dtype and
shape the envelopes can hold, and the real output of every command."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import envelope_json_dumps, matrix_csv_per_float, rows_csv_per_value

from askeychain import export
from askeychain.cli import main

EDGE_VALUES = np.array([
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-320, 1e-5, 1e-4, 1e16,
    np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0 / 3.0, -2.5,
])

ARRAYS = {
    "edges": EDGE_VALUES.reshape(3, 5),
    "edges-1d": EDGE_VALUES,
    "finite": np.array([[0.1, -0.0, 5e-324], [1e16, 1e-5, 1e-4]]),
    "int": np.arange(-3, 9, dtype=np.int64).reshape(3, 4),
    "uint8": np.arange(6, dtype=np.uint8),
    "bool": np.array([[True, False], [False, True]]),
    "float32": np.array([[0.1, np.nan], [1e-40, 3.0]], dtype=np.float32),
    "0-d": np.array(0.1),
    "0-d-int": np.array(7),
    "(0,)": np.zeros(0),
    "(0, 3)": np.zeros((0, 3)),
    "(3, 0)": np.zeros((3, 0)),
    "(1, 1)": np.full((1, 1), 0.1),
    "(1, n)": np.linspace(-1.0, 1.0, 7)[None, :],
    "(n, 1)": np.linspace(-1.0, 1.0, 7)[:, None],
    "(2, 2, 3)": np.arange(12.0).reshape(2, 2, 3) / 7.0,
}


@pytest.mark.parametrize("name", list(ARRAYS))
def test_matrix_csv_bytes(name):
    a = ARRAYS[name]
    if a.ndim > 2:
        with pytest.raises(TypeError):
            matrix_csv_per_float(a)
        with pytest.raises(TypeError):
            export.matrix_csv(a)
        return
    assert export.matrix_csv(a) == matrix_csv_per_float(a)


@pytest.mark.parametrize("name", list(ARRAYS))
def test_envelope_json_bytes(name):
    payload = {"recipe": "hahn type=i a=1.0 b=2.0 c=3.0 N=2", "matrix": ARRAYS[name],
               "pi": EDGE_VALUES[3:8], "passed": True}
    if ARRAYS[name].ndim == 0:
        # no command emits a 0-d array: it is refused, not written as its item
        with pytest.raises(TypeError):
            export.envelope_json(payload)
        return
    assert export.envelope_json(payload) == envelope_json_dumps(payload)


def test_empty_shapes_keep_their_lines():
    # a matrix without rows is one empty line; empty rows stay indented []
    assert export.matrix_csv(np.zeros((0, 3))) == "\n"
    assert export.matrix_csv(np.zeros((3, 0))) == "\n\n\n"
    text = export.envelope_json({"matrix": np.zeros((3, 0))})
    assert text == '{\n "matrix": [\n  [],\n  [],\n  []\n ]\n}\n'


@pytest.mark.parametrize("payload", [
    {},
    {"only": np.zeros(0)},
    {"mu": np.float64(0.1), "n": 3, "x": 1e-40, "flag": False},
    {"lattice": {"kind": "truncated", "tail_eps": np.float64(1e-12), "points": 41}},
    {"rows": [[0, 0.0], [1, np.float64(0.6931471805599453)]], "filled_modes": [0, 2]},
    {"checks": [{"name": "a", "measured": np.float64(np.nan), "tol": 1e-12, "passed": False}]},
    {"text": "quote \" and \\ and \n and é", "none": None, "empty": [], "nested": {}},
], ids=lambda p: ",".join(p) or "empty")
def test_envelope_json_bytes_of_non_array_fields(payload):
    # np.float64 is a float, so json writes it as one
    assert export.envelope_json(payload) == envelope_json_dumps(payload)


@pytest.mark.parametrize("payload", [
    {"n": np.int64(3)},
    {"x": np.float32(1e-40)},
    {"lattice": {"points": np.int32(41)}},
    {"lattice": {"window": np.arange(3)}},
], ids=["int64", "float32", "nested-int32", "nested-array"])
def test_envelope_json_refuses_numpy_scalars_and_nested_arrays(payload):
    # only top-level array fields are converted; every other value is json's
    with pytest.raises(TypeError):
        export.envelope_json(payload)


def test_envelope_json_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        export.envelope_json({"z": np.array([1 + 2j])})
    with pytest.raises(TypeError):
        envelope_json_dumps({"z": np.array([1 + 2j])})


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_builders_match_referees_on_any_float_array(a):
    assert export.matrix_csv(a) == matrix_csv_per_float(a)
    payload = {"recipe": "r", "matrix": a, "pi": a.ravel()}
    assert export.envelope_json(payload) == envelope_json_dumps(payload)


@pytest.mark.parametrize("argv", [
    ["kernel", "--recipe", "hahn type=iii a=1.0 b=2.0 c=1.0 N=30"],
    ["kernel", "--recipe", "charlier type=iii a=1.0 b=0.4"],
    ["hamiltonian", "--recipe", "krawtchouk type=ii a=0.2 b=0.6 N=25"],
    ["eigvecs", "--recipe", "meixner type=i a=1.0 b=6.0 c=0.2"],
    ["correlation", "--recipe", "hahn type=ii a=1.0 b=0.5 c=1.0 N=20", "--mu", "-0.3"],
    ["correlation", "--recipe", "krawtchouk type=i a=0.3 b=0.5 N=5", "--filled", "0,2"],
    ["entropy", "--recipe", "hahn type=i a=1.0 b=2.0 c=3.0 N=12", "--mu", "-0.4"],
    ["entropy", "--recipe", "krawtchouk type=ii a=0.2 b=0.6 N=9", "--block", "2:7"],
    ["entropy", "--recipe", "charlier type=i a=0.4 b=0.8"],
    ["spectrum", "--recipe", "qhahn type=i a=0.3 b=0.5 c=0.4 q=0.5 N=15"],
    ["verify", "--recipe", "hahn type=ii a=1.0 b=0.5 c=1.0 N=20"],
    ["verify", "--recipe", "charlier type=i a=0.4 b=0.8"],
], ids=lambda argv: f"{argv[0]}:{argv[2].split()[0]}")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_real_envelopes_match_referees(argv, fmt, tmp_path, monkeypatch):
    # the CLI's own payloads, matrices and tables, captured on their way to the builders
    seen = []

    def capture(builder, referee):
        def checked(*args):
            text = builder(*args)
            seen.append((text, referee(*args)))
            return text
        return checked

    for name, referee in [("envelope_json", envelope_json_dumps),
                          ("matrix_csv", matrix_csv_per_float),
                          ("rows_csv", rows_csv_per_value)]:
        monkeypatch.setattr(export, name, capture(getattr(export, name), referee))
    out = tmp_path / "out"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    if fmt == "csv" and argv[0] == "verify":
        assert seen == []  # the CLI formats the verify lines itself
        return
    assert len(seen) == 1
    text, want = seen[0]
    assert text == want
    assert out.read_text() == text
