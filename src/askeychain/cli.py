"""Command-line front end: build, verify and export kernels, Hamiltonians,
spectra, eigenvectors and fermion observables.

A run is specified by a one-line recipe, e.g.

    askeychain kernel --recipe "krawtchouk type=i a=0.3 b=0.5 N=5"
    askeychain verify --recipe "hahn type=ii a=1.0 b=0.5 c=1.0 N=20"
    askeychain entropy --recipe "charlier type=i a=0.5 b=1.0" --eps 1e-12

This module only parses flags, dispatches and formats: the recipe grammar
is ``families.parse_recipe``, and ``verify`` formats the invariant suite of
``spectral.verification_report``.  Every command is one row of
``_COMMANDS``, so every JSON envelope has one shape:
``recipe, stationary, lattice`` and then the command's own fields.

Every command writes its output and exits by one rule: 0 when its checks
pass, 1 when they fail (the output is still written).  The checks are
``verify_kernel`` at --tol for every command but ``verify``, whose
exit code is its whole suite, kernel checks included.  Exit 2 is a usage
or domain error, with nothing written: an unusable --tol, an --eps outside
(0, 1e-11] or on a finite recipe, a non-finite --mu, a --block outside the
lattice, or an --out path that cannot be written.

The default filling for the fermion commands is mu = 0 (occupy exactly the
negative-eigenvalue modes); this is a convention of this tool, not of the
underlying construction, and can be overridden with --mu.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from . import export, markov
from .errors import DomainError
from .families import ConvolutionRecipe, parse_recipe
from .fermion import FreeFermionModel, block_entropy, correlation_matrix, entropy_profile
from .markov import build_kernel, verify_kernel
from .spectral import CheckResult, analytic_eigensystem, verification_report

_USAGE_ERROR = 2
_TOLERANCE_ERROR = 1


def _parse_filled(text: str) -> frozenset[int]:
    try:
        return frozenset(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise DomainError(f"bad --filled {text!r}, expected comma-separated mode indices") from None


def _parse_block(text: str) -> tuple[int, int]:
    try:
        start_s, _, stop_s = text.partition(":")
        return int(start_s), int(stop_s)
    except ValueError:
        raise DomainError(f"bad block spec {text!r}, expected start:stop") from None


def _model(args, system) -> FreeFermionModel:
    filled = None if args.filled is None else _parse_filled(args.filled)
    return FreeFermionModel(system, mu=args.mu, filled_modes=filled)


def _correlation_fields(args, system) -> dict:
    model = _model(args, system)
    return {"mu": args.mu, "filled_modes": sorted(model.filled_modes),
            "matrix": correlation_matrix(model).matrix}


def _entropy_fields(args, system) -> dict:
    corr = correlation_matrix(_model(args, system))
    if args.block is not None:
        start, stop = _parse_block(args.block)
        rows = [[stop - start, float(block_entropy(corr, (start, stop)))]]
    else:
        rows = [[k, float(s)] for k, s in enumerate(entropy_profile(corr))]
    return {"mu": args.mu, "rows": rows}


def _spectrum_csv(fields: dict) -> str:
    return export.rows_csv(("n", "kappa"), [(n, float(k)) for n, k in enumerate(fields["kappas"])])


def _verify_fields(args, system) -> dict:
    checks = verification_report(system, kernel_tol=args.tol)
    return {"checks": [c.__dict__ for c in checks], "passed": all(c.passed for c in checks)}


def _verify_text(fields: dict) -> str:
    lines = [CheckResult(**c).line() for c in fields["checks"]]
    lines.append("ALL PASS" if fields["passed"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def _matrix_csv(fields: dict) -> str:
    return export.matrix_csv(fields["matrix"])


#: command -> (help, JSON fields taken from the built kernel (``kernel``) or
#: spectral system (the rest), text form of those fields for --format csv)
_COMMANDS: dict[str, tuple[str, Callable, Callable]] = {
    "kernel": ("emit the stochastic kernel and stationary distribution",
               lambda args, k: {"matrix": k.matrix, "pi": k.pi}, _matrix_csv),
    "hamiltonian": ("emit the symmetric Hamiltonian",
                    lambda args, s: {"matrix": s.hamiltonian, "pi": s.sqrt_pi**2}, _matrix_csv),
    "spectrum": ("emit the closed-form eigenvalues kappa(n)",
                 lambda args, s: {"kappas": s.kappas}, _spectrum_csv),
    "eigvecs": ("emit the orthonormal eigenvector matrix",
                lambda args, s: {"phi": s.phi}, lambda f: export.matrix_csv(f["phi"])),
    "correlation": ("emit the ground-state correlation matrix", _correlation_fields, _matrix_csv),
    "entropy": ("emit block entanglement entropies", _entropy_fields,
                lambda f: export.rows_csv(("block_size", "entropy"), f["rows"])),
    "verify": ("run the invariant suite and report violations", _verify_fields, _verify_text),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askeychain",
        description="solvable reversible Markov kernels, Hamiltonians and free fermions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--recipe", required=True, help="one-line family/type/parameter recipe")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--eps", type=float, default=None,
                       help=f"tail mass bound in (0, {markov.MAX_TAIL_EPS:g}] for truncated "
                            f"semi-infinite lattices (default {markov.DEFAULT_TAIL_EPS:g})")
        p.add_argument("--tol", type=float, default=None,
                       help=f"kernel tolerance override (default {markov.FINITE_KERNEL_TOL:g} "
                            f"finite, {markov.TRUNCATED_KERNEL_TOL:g} truncated)")
        if name in ("correlation", "entropy"):
            p.add_argument("--mu", type=float, default=0.0,
                           help="chemical potential; fills modes with kappa(n) < mu")
            p.add_argument("--filled", default=None, metavar="N0,N1,...",
                           help="explicit filled-mode set (overrides --mu)")
        if name == "entropy":
            p.add_argument("--block", default=None,
                           help="single block start:stop instead of the full sweep")
    return parser


def _emit(path: str, text: str) -> None:
    try:
        export.atomic_write(path, text)
    except OSError as exc:
        if path == "-":
            raise  # a closed stdout is not a usage error
        raise DomainError(f"cannot write --out {path!r}: {exc.strerror or exc}") from None


def _run(args, recipe: ConvolutionRecipe, N: int | None) -> tuple[str, bool]:
    """Build, take the command's fields and render only the requested format;
    returns the text and whether the checks passed: the suite for ``verify``
    (it holds the kernel checks), the kernel checks at --tol for the rest."""
    _, fields_of, text_of = _COMMANDS[args.command]
    kernel = build_kernel(recipe, N=N, tail_eps=args.eps)
    # check the kernel before building the system, and drop the system once its
    # fields are taken: held, it raised a 401-point hamiltonian JSON's RSS 13 MB
    passed = args.command == "verify" or verify_kernel(kernel, args.tol).passed
    fields = fields_of(args, kernel if args.command == "kernel"
                       else analytic_eigensystem(recipe, kernel=kernel))
    passed = passed and fields.get("passed", True)
    if args.format == "csv":
        return text_of(fields), passed
    payload = {"recipe": recipe.to_string(N), "stationary": recipe.stationary_spec(N).to_string(),
               "lattice": kernel.lattice_dict(), **fields}
    return export.envelope_json(payload), passed


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
            raise DomainError(f"--tol must be finite and > 0, got {args.tol}")
        recipe, N = parse_recipe(args.recipe)
        text, passed = _run(args, recipe, N)
        _emit(args.out, text)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    return 0 if passed else _TOLERANCE_ERROR


if __name__ == "__main__":
    sys.exit(main())
