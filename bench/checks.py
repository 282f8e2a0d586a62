"""Output checks, run outside the timed region.

Each check returns ``(failure, wrong)``: ``failure`` is the reason an op
counts as failed (nonzero exit, exception, or a wrong output), ``wrong`` is
set only when an output disagrees with what the library computes in
process, i.e. the program produced an incorrect result rather than
reporting a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: ENTROPY_CLAMP = 1e-12 biases each block eigenvalue's entropy term by up to
#: h(1e-12) ~ 2.9e-11, and S([0,k)) and S([k,n)) together hold n eigenvalues;
#: the rest covers eigensolver rounding near 0 and 1.  Holds unchanged when
#: the clamp is retired, since the bias then vanishes.
COMPLEMENT_TOL_PER_SITE = 5e-11


class References:
    """In-process library results the CLI outputs must reproduce bit for bit."""

    def __init__(self) -> None:
        self._cache: dict[tuple, object] = {}

    def _get(self, spec, name: str):
        key = (spec[0], spec[1], tuple(spec[2]), spec[3], name)
        if key not in self._cache:
            import askeychain as ak

            family, conv_type, params, N = spec
            recipe = ak.ConvolutionRecipe(ak.Family(family), ak.ConvType(conv_type), tuple(params))
            if name == "kernel":
                value = ak.build_kernel(recipe, N=N)
            elif name == "system":
                value = ak.analytic_eigensystem(recipe, N=N)
            else:  # the CLI's default filling, mu = 0
                model = ak.FreeFermionModel(self._get(spec, "system"), mu=0.0)
                value = ak.correlation_matrix(model).matrix
            self._cache[key] = value
        return self._cache[key]

    def expected(self, op: dict) -> dict[str, np.ndarray]:
        spec, command = op["spec"], op["command"]
        if command == "kernel":
            kernel = self._get(spec, "kernel")
            return {"matrix": kernel.matrix, "pi": kernel.pi}
        if command == "correlation":
            return {"matrix": self._get(spec, "corr")}
        system = self._get(spec, "system")
        if command == "hamiltonian":
            return {"matrix": system.hamiltonian, "pi": system.sqrt_pi**2}
        if command == "eigvecs":
            return {"matrix": system.phi, "phi": system.phi}
        if command == "spectrum":
            return {"kappa": system.kappas, "kappas": system.kappas}
        raise ValueError(f"no reference for {command}")

    def kernel_violation(self, op: dict) -> str:
        import askeychain as ak

        rep = ak.verify_kernel(self._get(op["spec"], "kernel"))
        return (
            f"column sums {rep.max_stochastic_violation:.3g}, detailed balance "
            f"{rep.max_reversibility_violation:.3g} against tol {rep.tol:g}"
        )


def parse_csv_output(text: str, command: str) -> dict[str, np.ndarray]:
    lines = [line for line in text.splitlines() if line.strip()]
    if command == "spectrum":
        if lines[0] != "n,kappa":
            raise ValueError(f"unexpected header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if [int(n) for n, _ in rows] != list(range(len(rows))):
            raise ValueError("mode index column is not 0..n-1")
        return {"kappa": np.array([float(k) for _, k in rows])}
    return {"matrix": np.array([[float(v) for v in line.split(",")] for line in lines])}


def parse_json_output(text: str, keys) -> dict[str, np.ndarray]:
    payload = json.loads(text)
    return {k: np.array(payload[k], dtype=float) for k in keys if k in payload}


def first_difference(got: dict, want: dict) -> str | None:
    """None when every array in ``got`` equals its reference bit for bit."""
    if not got:
        return "no numeric payload found"
    for key, a in got.items():
        b = np.ascontiguousarray(want[key], dtype=np.float64)
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.shape != b.shape:
            return f"{key}: shape {a.shape} != {b.shape}"
        if a.tobytes() != b.tobytes():
            idx = np.unravel_index(int(np.argmax(a.view(np.uint64) != b.view(np.uint64))), a.shape)
            return f"{key}{list(idx)}: {a[idx]!r} != {b[idx]!r}"
    return None


def check_export(op: dict, exit_code, out_path: Path, stderr: str, refs: References):
    if exit_code not in (0, 1):
        return f"exit {exit_code}: {_last_line(stderr)}", None
    try:
        text = out_path.read_text()
        if op["format"] == "csv":
            got = parse_csv_output(text, op["command"])
        else:
            got = parse_json_output(text, ("matrix", "pi", "phi", "kappas"))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        wrong = f"unreadable {op['format']} output: {type(exc).__name__}: {exc}"
        return wrong, wrong
    diff = first_difference(got, refs.expected(op))
    if diff is not None:
        wrong = f"round trip differs from in-process result at {diff}"
        return wrong, wrong
    if exit_code == 1:
        return f"exit 1: {refs.kernel_violation(op)}", None
    return None, None


def check_verify(exit_code, stdout: bytes, stderr: str):
    lines = [line for line in stdout.decode(errors="replace").splitlines() if line.strip()]
    last = lines[-1] if lines else ""
    if exit_code == 0:
        if last == "ALL PASS":
            return None, None
        wrong = f"exit 0 but report ends {last!r}"
        return wrong, wrong
    if exit_code == 1:
        if last != "FAILURES PRESENT":
            wrong = f"exit 1 but report ends {last!r}"
            return wrong, wrong
        fails = "; ".join(line[5:] for line in lines if line.startswith("FAIL "))
        return f"exit 1: {fails}", None
    return f"exit {exit_code}: {_last_line(stderr)}", None


def check_entropy(op: dict, out: dict | None, error: str | None):
    if error is not None:
        return f"raised {error}", None
    profile, mid, corr = out["profile"], out["mid"], out["corr"]
    n = corr.size
    if profile.shape != (n + 1,) or profile[0] != 0.0:
        wrong = f"profile of shape {profile.shape} starting at {profile[0]!r}"
        return wrong, wrong
    if not (np.all(np.isfinite(profile)) and np.all(profile >= 0.0)):
        wrong = "profile has a negative or non-finite entropy"
        return wrong, wrong
    if not (math.isfinite(mid) and mid >= 0.0):
        wrong = f"mid-lattice block entropy {mid!r}"
        return wrong, wrong
    if op["spec"][3] is not None:
        # a filled-mode ground state on the full finite lattice is pure
        import askeychain as ak

        tol = COMPLEMENT_TOL_PER_SITE * n
        for k in (n // 5, n // 2, 4 * n // 5, n):
            dev = abs(profile[k] - ak.block_entropy(corr, (k, n)))
            if dev > tol:
                wrong = f"S([0,{k})) - S([{k},{n})) = {dev:.3g} exceeds {tol:.3g}"
                return wrong, wrong
    return None, None


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else "(no stderr)"


def output_digest(exit_code, data: bytes) -> dict:
    return {"exit": exit_code, "sha256": hashlib.sha256(data).hexdigest()}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["outputs"]


def golden_mismatches(digests: dict[str, dict], golden: dict) -> tuple[list[str], list[str]]:
    """Keys of CLI outputs whose exit code or bytes differ from the manifest,
    and keys the manifest does not hold."""
    mismatched = [key for key, d in digests.items() if key in golden and golden[key] != d]
    missing = [key for key in digests if key not in golden]
    return mismatched, missing
