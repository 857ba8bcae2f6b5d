"""Spans around calls into the dgtwolevel modules, recorded from outside.

``Tracer.install`` replaces the public functions of every library module
with timing wrappers, in every module namespace that holds them, so the
calls the library makes between its own modules are seen too.  Spans are
kept in memory (layer, function, start, end, parent span, case id,
thread, thread CPU time, optional work count) and written out when the
run ends.

Per-layer times use the thread CPU time of a span, not its wall time:
the CLI runs sweeps on a thread pool, and a span's wall time there also
holds the time its thread waited for the interpreter lock or the core
while other threads ran.
``Tracer.remove`` restores the original functions, so untraced rounds
run the library exactly as shipped.
"""

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LIBRARY = "dgtwolevel"

# Public functions traced per layer (one layer per module).  ``Class.method``
# names wrap a method on the class itself.
TRACED = {
    "assembly": (
        "assemble_operator", "assemble_smoother", "assemble_transfer",
        "assemble_coarse", "smoother_partition", "symmetry_defect",
    ),
    "twolevel": (
        "two_level_components", "apply_preconditioner", "build_iteration_matrix",
        "spectral_radius_dense", "stationary_solve", "convergence_factor",
        "TwoLevelComponents.smooth", "TwoLevelComponents.coarse_solve",
    ),
    "fourier": (
        "symbols_at_ck", "symbol_blocks", "two_grid_eigenvalues",
        "fourier_basis", "block_circulant", "verify_block_diagonalization",
    ),
    "closed_forms": (
        "eigenvalue_pair", "eigs_closed_form", "rho_on_ck_values", "lfa_spectral_radius",
    ),
    "rd_coefficients": ("point_coefficients", "cell_coefficients"),
    "optimal": (
        "alpha_opt", "alpha_opt_poisson", "alpha_opt_rd", "alpha_opt_numeric",
        "crossover_check", "thresholds",
    ),
    "validate": ("run_validation",),
    "cli": ("main",),
}

# Work counted at the boundary: iterations of a solve, c_k values of a pair.
COUNTS = {
    "twolevel.stationary_solve": lambda args, result: result.iterations,
    "closed_forms.eigenvalue_pair": lambda args, result: int(np.size(args[0])),
}

SPAN_FIELDS = (
    "id", "parent", "layer", "function", "case", "start", "end", "thread", "cpu", "count",
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, qualname, fn):
        name = f"{layer}.{qualname}"
        count = COUNTS.get(name)
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A span opened on a pool thread belongs to the outermost span
            # open on the main thread (the cli.main call that made the pool).
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            outermost = not stack and threading.current_thread() is main
            if outermost:
                self._root = sid
            stack.append(sid)
            result = None
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - cpu
                end = time.perf_counter()
                stack.pop()
                if outermost:
                    self._root = None
                n = count(args, result) if count is not None and result is not None else None
                self.spans.append(
                    (sid, parent, layer, name, self.case, start, end, threading.get_ident(), cpu, n)
                )

        return traced

    def install(self):
        """Wrap every traced function wherever the library binds it."""
        modules = [m for n, m in sys.modules.items() if n == LIBRARY or n.startswith(LIBRARY + ".")]
        for layer, names in TRACED.items():
            home = sys.modules[f"{LIBRARY}.{layer}"]
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(layer, qualname, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(layer, qualname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self):
        """Restore every function ``install`` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans):
    """Span id -> its CPU time minus that of its children on the same
    thread (a child on a pool thread does not use the parent's CPU)."""
    thread_of = {s[0]: s[7] for s in spans}
    child_cpu = defaultdict(float)
    for span in spans:
        if span[1] is not None and thread_of.get(span[1]) == span[7]:
            child_cpu[span[1]] += span[8]
    return {span[0]: span[8] - child_cpu[span[0]] for span in spans}


def _median(values):
    return statistics.median(values) if values else None


# Per-layer metrics: name -> (unit, function computing it from a SpanView).
def _per_call(function):
    return lambda v: _median([s[8] for s in v.by_function[function]])


def _per_call_self(function):
    return lambda v: _median([v.self[s[0]] for s in v.by_function[function]])


def _layer_self_per_case(layer):
    def metric(v):
        spans = [s for s in v.spans if s[2] == layer]
        return sum(v.self[s[0]] for s in spans) / v.cases if spans else None

    return metric


def _iterations(v):
    counts = [s[9] for s in v.by_function["twolevel.stationary_solve"]]
    return statistics.fmean(counts) if counts else None


def _ck_per_s(v):
    spans = v.by_function["closed_forms.eigenvalue_pair"]
    busy = sum(s[8] for s in spans)
    return sum(s[9] for s in spans) / busy if spans else None


def _tables(v):
    spans = v.by_function["rd_coefficients.point_coefficients"] + v.by_function[
        "rd_coefficients.cell_coefficients"
    ]
    return _median([s[8] for s in spans])


def _block_fallbacks(v):
    # Noise-band re-evaluations: symbols_at_ck reached from closed_forms.
    if not v.by_function["closed_forms.eigenvalue_pair"]:
        return None
    layer_of = {s[0]: s[2] for s in v.spans}
    hits = sum(
        1 for s in v.by_function["fourier.symbols_at_ck"] if layer_of.get(s[1]) == "closed_forms"
    )
    return hits / v.rounds


PER_LAYER = {
    "assembly.operator_s": ("s", _per_call("assembly.assemble_operator")),
    "assembly.smoother_s": ("s", _per_call("assembly.assemble_smoother")),
    "assembly.coarse_s": ("s", _per_call("assembly.assemble_coarse")),
    "twolevel.components_self_s": ("s", _per_call_self("twolevel.two_level_components")),
    "twolevel.precond_s": ("s", _per_call("twolevel.apply_preconditioner")),
    "twolevel.smooth_s": ("s", _per_call("twolevel.TwoLevelComponents.smooth")),
    "twolevel.coarse_solve_s": ("s", _per_call("twolevel.TwoLevelComponents.coarse_solve")),
    "twolevel.solve_s": ("s", _per_call("twolevel.stationary_solve")),
    "twolevel.iterations": ("count", _iterations),
    "twolevel.iteration_matrix_s": ("s", _per_call("twolevel.build_iteration_matrix")),
    "twolevel.eig_s": ("s", _per_call("twolevel.spectral_radius_dense")),
    "closed_forms.pair_s": ("s", _per_call("closed_forms.eigenvalue_pair")),
    "closed_forms.ck_per_s": ("1/s", _ck_per_s),
    "closed_forms.block_fallbacks": ("count", _block_fallbacks),
    "rd_coefficients.tables_s": ("s", _tables),
    "optimal.alpha_opt_s": ("s", _per_call("optimal.alpha_opt")),
    "optimal.numeric_s": ("s", _per_call("optimal.alpha_opt_numeric")),
    "optimal.crossover_s": ("s", _per_call("optimal.crossover_check")),
    "validate.run_s": ("s", _per_call("validate.run_validation")),
    "cli.self_s": ("s", _per_call_self("cli.main")),
}
PER_LAYER.update(
    {f"{layer}.self_per_case_s": ("s", _layer_self_per_case(layer)) for layer in TRACED}
)


class SpanView:
    """Spans of one set of cases, indexed for the metric functions.

    ``by_function`` leaves out calls made inside ``run_validation``: its
    fixed tiny meshes would otherwise outnumber, and so set the median of,
    the calls a workload makes at its own size.  Layer self times keep them.
    """

    def __init__(self, spans, self_time, cases, rounds):
        self.spans = spans
        self.self = self_time
        self.cases = cases
        self.rounds = rounds
        self.by_function = defaultdict(list)
        function_of = {s[0]: s[3] for s in spans}
        parent_of = {s[0]: s[1] for s in spans}
        for span in spans:
            if not _inside(span[1], "validate.run_validation", function_of, parent_of):
                self.by_function[span[3]].append(span)


def _inside(sid, function, function_of, parent_of):
    while sid is not None:
        if function_of.get(sid) == function:
            return True
        sid = parent_of.get(sid)
    return False


def layer_metrics(tracer, is_probe, cases, rounds):
    """Per-layer metrics over the workload's traced cases.

    A metric whose functions the workload never calls is taken from the
    probe case instead (``is_probe(case_id)`` picks its spans), so every
    metric is measured in every traced run.  Returns ``(metrics, source)``
    with ``source[name]`` either ``"cases"`` or ``"probe"``.
    """
    self_time = self_times(tracer.spans)
    own = SpanView([s for s in tracer.spans if not is_probe(s[4])], self_time, cases, rounds)
    probe = SpanView([s for s in tracer.spans if is_probe(s[4])], self_time, 1, 1)
    metrics, source = {}, {}
    for name, (unit, fn) in PER_LAYER.items():
        value, where = fn(own), "cases"
        if value is None:
            value, where = fn(probe), "probe"
        if value is None:
            raise RuntimeError(f"per-layer metric {name} has no spans, not even in the probe")
        metrics[name] = {"value": value, "unit": unit}
        source[name] = where
    return metrics, source
