"""Per-layer tracing from outside the library.

The traced run replaces the public functions of each ``askeychain`` module
(and the ``numpy.linalg`` eigensolvers the library calls) with wrappers
that record spans in memory.  ``cli`` and ``spectral`` bind imported names
at import time, so a function is replaced under every module global that
holds it.  A layer's self time is its span minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); several attributes may share a span name
SPAN_TARGETS = [
    ("askeychain.cli", "main", "cli.main"),
    ("askeychain.cli", "parse_recipe", "cli.parse_recipe"),
    ("askeychain.cli", "verification_report", "cli.verification_report"),
    ("askeychain.families", "log_measure_grid", "families.log_measure_grid"),
    ("askeychain.families", "orthonormal_columns", "families.orthonormal_columns"),
    ("askeychain.families", "kappa_vector", "families.kappa_vector"),
    ("askeychain.markov", "build_kernel", "markov.build_kernel"),
    ("askeychain.markov", "verify_kernel", "markov.verify_kernel"),
    ("askeychain.markov", "perron_frobenius_residual", "markov.perron_frobenius"),
    ("askeychain.markov", "eigenvalue_moduli_excess", "markov.moduli_excess"),
    ("askeychain.spectral", "analytic_eigensystem", "spectral.analytic_eigensystem"),
    ("askeychain.spectral", "spectrum_comparison", "spectral.spectrum_comparison"),
    ("askeychain.spectral", "eigen_residuals", "spectral.eigen_residuals"),
    ("askeychain.spectral", "orthonormality_defect", "spectral.orthonormality_defect"),
    ("askeychain.spectral", "completeness_defect", "spectral.completeness_defect"),
    ("askeychain.fermion", "correlation_matrix", "fermion.correlation_matrix"),
    ("askeychain.fermion", "entropy_profile", "fermion.entropy_profile"),
    ("askeychain.fermion", "block_entropy", "fermion.block_entropy"),
    ("askeychain.export", "matrix_csv", "export.matrix_csv"),
    ("askeychain.export", "envelope_json", "export.envelope_json"),
    ("askeychain.export", "rows_csv", "export.rows_csv"),
    ("askeychain.export", "atomic_write", "export.atomic_write"),
    ("numpy.linalg", "eig", "linalg.eig"),
    ("numpy.linalg", "eigvals", "linalg.eig"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
]


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    A span is ``[name, parent index, start, end]``; wrappers pass straight
    through while ``enabled`` is false, so output checks stay untraced.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._count(name, args)
            idx = len(tracer.spans)
            span = [name, tracer._stack[-1] if tracer._stack else None, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args: tuple) -> None:
        if name == "linalg.eig":
            self.counters["linalg.eig_n3"] += float(len(args[0])) ** 3
        elif name == "export.atomic_write":
            self.counters["export.bytes_out"] += len(args[1].encode())

    def _count_window_build(self, fn):
        tracer = self

        def counted(recipe, size):
            if tracer.enabled:
                tracer.counters["markov.window_builds"] += 1
                tracer.counters["markov.window_points"] += size
            return fn(recipe, size)

        return counted

    def install(self) -> None:
        """Replace every target under each module global that holds it."""
        import askeychain  # noqa: F401  (loads the modules to patch)
        import askeychain.cli  # noqa: F401
        import askeychain.markov as markov

        holders = [m for n, m in sys.modules.items() if n == "askeychain" or n.startswith("askeychain.")]
        for modname, attr, name in SPAN_TARGETS:
            module = sys.modules[modname]
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in holders + [module]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        # window growth is internal to build_kernel: count matrix builds only
        self._restore.append((markov, "_build_matrix", markov._build_matrix))
        markov._build_matrix = self._count_window_build(markov._build_matrix)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its direct children's
    intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = []
    for idx, (name, parent, t0, t1) in enumerate(spans):
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, float]:
    """``<span>_s`` (self time) and ``<span>_calls`` summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span[0]}_s"] += own
        totals[f"{span[0]}_calls"] += 1
    return totals


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of askeychain and of scipy from
    ``python -X importtime`` output (children print before their parent)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"startup.import_askeychain_s": 0.0, "startup.import_scipy_s": 0.0}
    ancestors: list[str] = []
    for depth, name, seconds in reversed(entries):  # parents now precede children
        del ancestors[depth:]
        top = name.split(".")[0]
        if top == "askeychain" and depth == 0:
            totals["startup.import_askeychain_s"] += seconds
        if top == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            totals["startup.import_scipy_s"] += seconds
        ancestors.append(name)
    return totals
