"""Command-line front end: build, verify and export kernels, Hamiltonians,
spectra, eigenvectors and fermion observables.

A run is specified by a one-line recipe, e.g.

    askeychain kernel --recipe "krawtchouk type=i a=0.3 b=0.5 N=5"
    askeychain verify --recipe "hahn type=ii a=1.0 b=0.5 c=1.0 N=20"
    askeychain entropy --recipe "charlier type=i a=0.5 b=1.0" --eps 1e-12

Exit codes: 0 success, 1 tolerance failure, 2 usage or domain error.

The default filling for the fermion commands is mu = 0 (occupy exactly the
negative-eigenvalue modes); this is a convention of this tool, not of the
underlying construction, and can be overridden with --mu.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import export
from .errors import DomainError, SizeCapExceeded, UnsupportedCombination
from .families import ConvolutionRecipe, ConvType, Family, RECIPE_PARAM_NAMES
from .fermion import FreeFermionModel, block_entropy, correlation_matrix, entropy_profile
from .markov import (
    DEFAULT_KERNEL_TOL,
    ConvolutionKernel,
    LatticeKind,
    build_kernel,
    eigenvalue_moduli_excess,
    perron_frobenius_residual,
    verify_kernel,
)
from .spectral import (
    SpectralSystem,
    analytic_eigensystem,
    completeness_defect,
    eigen_residuals,
    orthonormality_defect,
    spectrum_comparison,
)

_USAGE_ERROR = 2
_TOLERANCE_ERROR = 1

#: window-spill threshold past which a truncated mode is excluded from the
#: eigenvector checks (see spectral.mode_norm_defects)
_RELIABLE_MODE_DEFECT = 1e-10


def parse_recipe(text: str) -> tuple[ConvolutionRecipe, int | None]:
    """Parse 'family type=t a=.. b=.. [c=..] [q=..] [N=..]' to a recipe.

    Unknown keys are rejected, not ignored; the parsed recipe round-trips
    through its canonical form.
    """
    tokens = text.split()
    if not tokens:
        raise DomainError("empty recipe")
    try:
        family = Family(tokens[0].lower())
    except ValueError:
        raise DomainError(f"unknown family {tokens[0]!r}") from None
    kv: dict[str, str] = {}
    for tok in tokens[1:]:
        key, sep, value = tok.partition("=")
        if not sep:
            raise DomainError(f"malformed token {tok!r} (expected key=value)")
        if key in kv:
            raise DomainError(f"duplicate key {key!r}")
        kv[key] = value
    names = RECIPE_PARAM_NAMES[family]
    allowed = set(names) | {"type", "N"}
    unknown = sorted(set(kv) - allowed)
    if unknown:
        raise DomainError(f"unknown keys {unknown} for {family.value}")
    if "type" not in kv:
        raise DomainError("recipe needs type=i|ii|iii")
    try:
        conv_type = ConvType(kv["type"].lower())
    except ValueError:
        raise DomainError(f"unknown convolution type {kv['type']!r}") from None
    missing = sorted(set(names) - set(kv))
    if missing:
        raise DomainError(f"missing keys {missing} for {family.value}")
    try:
        params = tuple(float(kv[name]) for name in names)
        N = int(kv["N"]) if "N" in kv else None
    except ValueError as exc:
        raise DomainError(f"bad numeric value in recipe: {exc}") from None
    if not all(math.isfinite(v) for v in params):
        raise DomainError(f"recipe parameters must be finite, got {params}")
    if N is not None and N < 0:
        raise DomainError(f"lattice size must be N >= 0, got N={N}")
    recipe = ConvolutionRecipe(family, conv_type, params)
    if recipe.is_finite and N is None:
        raise DomainError(f"{family.value} recipes need N=<lattice size>")
    if not recipe.is_finite and N is not None:
        raise DomainError(f"{family.value} recipes take --eps, not N")
    return recipe, N


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tol: float
    passed: bool

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: measured={self.measured:.3e} tol={self.tol:.1e}"


def _reliable_modes(system: SpectralSystem) -> np.ndarray:
    if system.lattice.kind is LatticeKind.FINITE:
        return np.arange(system.size)
    return np.flatnonzero(system.mode_norm_defects() <= _RELIABLE_MODE_DEFECT)


def verification_report(
    kernel: ConvolutionKernel, system: SpectralSystem, kernel_tol: float | None = None
) -> list[CheckResult]:
    """Run the full invariant suite for one recipe.

    On truncated lattices the eigenvector checks are restricted to the
    modes that fit in the window (norm defect <= 1e-10): the spilling top
    modes of a finite window cannot satisfy the closed-form eigensystem of
    the infinite chain.
    """
    if kernel_tol is None:
        kernel_tol = DEFAULT_KERNEL_TOL[kernel.lattice.kind]
    rep = verify_kernel(kernel, kernel_tol)
    n_lat = kernel.lattice.N
    pf = perron_frobenius_residual(kernel)
    moduli = eigenvalue_moduli_excess(kernel)
    checks = [
        CheckResult("column-stochasticity", rep.max_stochastic_violation, kernel_tol,
                    rep.max_stochastic_violation <= kernel_tol),
        CheckResult("detailed-balance", rep.max_reversibility_violation, kernel_tol,
                    rep.max_reversibility_violation <= kernel_tol),
        CheckResult("positivity", 0.0 if rep.positivity else 1.0, 0.5, rep.positivity),
        CheckResult("perron-frobenius-match", pf, 1e-10, pf <= 1e-10),
        CheckResult("eigenvalue-moduli-excess", moduli, 1e-12, moduli <= 1e-12),
        CheckResult("hamiltonian-asymmetry", system.presym_asymmetry, 1e-13,
                    system.presym_asymmetry <= 1e-13),
    ]
    spec_tol = 1e-8
    spec_diff = spectrum_comparison(system)
    checks.append(CheckResult("spectrum-match", spec_diff, spec_tol, spec_diff <= spec_tol))
    modes = _reliable_modes(system)
    res_tol = 1e-9 * (1.0 + n_lat / 50.0)
    res = float(np.max(eigen_residuals(system)[modes])) if modes.size else 0.0
    checks.append(CheckResult("eigenvector-residual", res, res_tol, res <= res_tol))
    phi_r = system.phi[:, modes]
    ortho = orthonormality_defect(phi_r)
    checks.append(CheckResult("orthonormality", ortho, 1e-9, ortho <= 1e-9))
    if kernel.lattice.kind is LatticeKind.FINITE:
        comp = completeness_defect(system.phi)
        checks.append(CheckResult("completeness", comp, 1e-9, comp <= 1e-9))
    kap = system.kappas
    gap = 1.0 - float(np.max(np.abs(kap[1:]))) if kap.size > 1 else 1.0
    checks.append(CheckResult("spectral-gap", gap, 0.0, True))
    return checks


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--recipe", required=True, help="one-line family/type/parameter recipe")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--eps", type=float, default=1e-12,
                   help="tail mass bound for truncated semi-infinite lattices")
    p.add_argument("--tol", type=float, default=None,
                   help="kernel tolerance override (default 1e-12 finite, 1e-10 truncated)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askeychain",
        description="solvable reversible Markov kernels, Hamiltonians and free fermions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("kernel", "emit the stochastic kernel and stationary distribution"),
        ("hamiltonian", "emit the symmetric Hamiltonian"),
        ("spectrum", "emit the closed-form eigenvalues kappa(n)"),
        ("eigvecs", "emit the orthonormal eigenvector matrix"),
        ("correlation", "emit the ground-state correlation matrix"),
        ("entropy", "emit block entanglement entropies"),
        ("verify", "run the invariant suite and report violations"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name in ("correlation", "entropy"):
            p.add_argument("--mu", type=float, default=0.0,
                           help="chemical potential; fills modes with kappa(n) < mu")
            p.add_argument("--filled", default=None, metavar="N0,N1,...",
                           help="explicit filled-mode set (overrides --mu)")
        if name == "entropy":
            p.add_argument("--block", default=None,
                           help="single block start:stop instead of the full sweep")
        if name == "verify":
            p.add_argument("--perturb", default=None, metavar="X,Y,DELTA",
                           help="test hook: perturb one kernel entry before verifying")
    return parser


def _emit(args, text: str) -> None:
    export.atomic_write(args.out, text)


def _base_payload(recipe: ConvolutionRecipe, lattice, N: int | None) -> dict:
    return {
        "recipe": recipe.to_string(N),
        "stationary": recipe.stationary_spec(N if recipe.is_finite else None).to_string(),
        "lattice": lattice.to_dict(),
    }


def _cmd_kernel(args, recipe, N) -> int:
    kernel = build_kernel(recipe, N=N, tail_eps=args.eps)
    if args.format == "json":
        payload = _base_payload(recipe, kernel.lattice, N)
        payload.update(matrix=kernel.matrix, pi=kernel.pi)
        _emit(args, export.envelope_json(payload))
    else:
        _emit(args, export.matrix_csv(kernel.matrix))
    rep = verify_kernel(kernel, args.tol)
    return 0 if rep.passed else _TOLERANCE_ERROR


def _cmd_hamiltonian(args, recipe, N) -> int:
    system = analytic_eigensystem(recipe, N=N, tail_eps=args.eps)
    if args.format == "json":
        payload = _base_payload(recipe, system.lattice, N)
        payload.update(matrix=system.hamiltonian, pi=system.sqrt_pi**2)
        _emit(args, export.envelope_json(payload))
    else:
        _emit(args, export.matrix_csv(system.hamiltonian))
    return 0


def _cmd_spectrum(args, recipe, N) -> int:
    system = analytic_eigensystem(recipe, N=N, tail_eps=args.eps)
    if args.format == "json":
        payload = _base_payload(recipe, system.lattice, N)
        payload.update(kappas=system.kappas)
        _emit(args, export.envelope_json(payload))
    else:
        rows = [(n, float(k)) for n, k in enumerate(system.kappas)]
        _emit(args, export.rows_csv(("n", "kappa"), rows))
    return 0


def _cmd_eigvecs(args, recipe, N) -> int:
    system = analytic_eigensystem(recipe, N=N, tail_eps=args.eps)
    if args.format == "json":
        payload = _base_payload(recipe, system.lattice, N)
        payload.update(phi=system.phi)
        _emit(args, export.envelope_json(payload))
    else:
        _emit(args, export.matrix_csv(system.phi))
    return 0


def _parse_filled(text: str) -> frozenset[int]:
    try:
        return frozenset(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise DomainError(f"bad --filled {text!r}, expected comma-separated mode indices") from None


def _make_model(args, system) -> FreeFermionModel:
    if getattr(args, "filled", None) is not None:
        return FreeFermionModel(system, mu=args.mu, filled_modes=_parse_filled(args.filled))
    return FreeFermionModel(system, mu=args.mu)


def _cmd_correlation(args, recipe, N) -> int:
    system = analytic_eigensystem(recipe, N=N, tail_eps=args.eps)
    model = _make_model(args, system)
    corr = correlation_matrix(model)
    if args.format == "json":
        payload = _base_payload(recipe, system.lattice, N)
        payload.update(mu=args.mu, filled_modes=sorted(model.filled_modes),
                       matrix=corr.matrix)
        _emit(args, export.envelope_json(payload))
    else:
        _emit(args, export.matrix_csv(corr.matrix))
    return 0


def _parse_block(text: str, size: int) -> tuple[int, int]:
    try:
        start_s, _, stop_s = text.partition(":")
        start, stop = int(start_s), int(stop_s)
    except ValueError:
        raise DomainError(f"bad block spec {text!r}, expected start:stop") from None
    if not 0 <= start <= stop <= size:
        raise DomainError(f"block {text!r} outside lattice of {size} sites")
    return start, stop


def _cmd_entropy(args, recipe, N) -> int:
    system = analytic_eigensystem(recipe, N=N, tail_eps=args.eps)
    model = _make_model(args, system)
    corr = correlation_matrix(model)
    if args.block is not None:
        start, stop = _parse_block(args.block, corr.size)
        rows = [(stop - start, block_entropy(corr, (start, stop)))]
    else:
        rows = [(k, float(s)) for k, s in enumerate(entropy_profile(corr))]
    if args.format == "json":
        payload = _base_payload(recipe, system.lattice, N)
        payload.update(mu=args.mu, rows=[[int(k), float(s)] for k, s in rows])
        _emit(args, export.envelope_json(payload))
    else:
        _emit(args, export.rows_csv(("block_size", "entropy"), rows))
    return 0


def _cmd_verify(args, recipe, N) -> int:
    kernel = build_kernel(recipe, N=N, tail_eps=args.eps)
    if args.perturb is not None:
        try:
            xs, ys, ds = args.perturb.split(",")
            x, y, delta = int(xs), int(ys), float(ds)
        except ValueError:
            raise DomainError(f"bad --perturb {args.perturb!r}, expected x,y,delta") from None
        if not (0 <= x < kernel.size and 0 <= y < kernel.size):
            raise DomainError(
                f"--perturb entry ({x},{y}) outside the {kernel.size}x{kernel.size} kernel"
            )
        matrix = kernel.matrix.copy()
        matrix[x, y] += delta
        kernel = ConvolutionKernel(matrix, kernel.pi, kernel.recipe, kernel.lattice)
    system = analytic_eigensystem(recipe, kernel=kernel)
    checks = verification_report(kernel, system, kernel_tol=args.tol)
    passed = all(c.passed for c in checks)
    if args.format == "json":
        payload = {"recipe": recipe.to_string(N),
                   "checks": [c.__dict__ for c in checks], "passed": passed}
        _emit(args, export.envelope_json(payload))
    else:
        lines = [c.line() for c in checks]
        lines.append("ALL PASS" if passed else "FAILURES PRESENT")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if passed else _TOLERANCE_ERROR


_HANDLERS = {
    "kernel": _cmd_kernel,
    "hamiltonian": _cmd_hamiltonian,
    "spectrum": _cmd_spectrum,
    "eigvecs": _cmd_eigvecs,
    "correlation": _cmd_correlation,
    "entropy": _cmd_entropy,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        recipe, N = parse_recipe(args.recipe)
        return _HANDLERS[args.command](args, recipe, N)
    except (DomainError, UnsupportedCombination, SizeCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
