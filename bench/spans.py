"""Span tracing of surro's layers, installed from outside the package.

`instrument(tracer)` replaces each traced function at every place a loaded
`surro` module binds it (and traced methods on their classes), so calls made
inside the package are seen too; `Instrumentation.restore()` puts the
originals back.  Nothing under `src/` is edited.

Self time is a span's duration minus the union of its children's intervals.
A span opened in a thread that has no open span of its own (a sweep worker)
takes the innermost open span of the installing thread as its parent.  Such
spans overlap one another, so the self times of their subtrees are scaled by
(union of their intervals) / (sum of their durations) when the parent closes;
the per-layer table then adds up to wall time.  Call counts are not scaled.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


class _Totals:
    """Self seconds and call counts per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        # spans from other threads parented here: their intervals and summed durations
        self.intervals: list[tuple[float, float]] = []
        self.durations = 0.0


class _Frame:
    __slots__ = ("start", "children", "sink", "foreign", "parent", "crosses", "shared")

    def __init__(self, start, sink, parent, crosses, shared):
        self.start = start
        self.children: list[tuple[float, float]] = []
        self.sink = sink  # _Totals that receives this span's self time
        self.foreign = None  # _Totals of spans opened under this one by other threads
        self.parent = parent
        self.crosses = crosses  # the parent was opened by another thread
        self.shared = shared  # opened outside the installing thread: record under the lock


class Tracer:
    """Collects per-name self time, call counts and counters across threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals = _Totals()
        self.counters = Counter()
        self.lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()
        self._home = threading.get_ident()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, name: str, n=1) -> None:
        with self.lock:
            self.counters[name] += n

    def open(self) -> _Frame:
        stack = self._stack()
        shared = threading.get_ident() != self._home
        if stack:
            parent = stack[-1]
            frame = _Frame(self.clock(), parent.sink, parent, False, shared)
        elif shared and self._home_stack:
            parent = self._home_stack[-1]
            with self.lock:
                if parent.foreign is None:
                    parent.foreign = _Totals()
            frame = _Frame(self.clock(), parent.foreign, parent, True, shared)
        else:
            frame = _Frame(self.clock(), self.totals, None, False, shared)
        stack.append(frame)
        return frame

    def close(self, name: str, frame: _Frame) -> None:
        end = self.clock()
        self._stack().pop()
        own = end - frame.start - covered_length(frame.children, frame.start, end)
        if frame.foreign is not None:
            self._merge_foreign(frame.foreign, frame.sink)
        if frame.shared:
            with self.lock:
                self._record(name, frame, own, end)
        else:
            self._record(name, frame, own, end)

    @staticmethod
    def _record(name: str, frame: _Frame, own: float, end: float) -> None:
        frame.sink.self_s[name] += own
        frame.sink.calls[name] += 1
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))
        if frame.crosses:
            frame.sink.intervals.append((frame.start, end))
            frame.sink.durations += end - frame.start

    def _merge_foreign(self, foreign: _Totals, sink: _Totals) -> None:
        union = covered_length(foreign.intervals, float("-inf"), float("inf"))
        scale = union / foreign.durations if foreign.durations > 0 else 0.0
        for name, seconds in foreign.self_s.items():
            sink.self_s[name] += scale * seconds
        for name, calls in foreign.calls.items():
            sink.calls[name] += calls

    def wrap(self, name: str, fn, observe=None, on_error=None):
        """Return fn traced as span `name`; observe(tracer, args, kwargs, result)
        may return a replacement result, on_error(tracer, exc) sees exceptions."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.close(name, frame)
            if observe is not None:
                replaced = observe(tracer, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        traced.__bench_traced__ = True
        return traced


# --- what is traced ---------------------------------------------------------

LEMMA_SUITES = (
    "rate_identity",
    "domination",
    "norm_perturbation",
    "rate_perturbation",
    "eigh_reconstruction",
)
_MAP_CLASSES = ("QuadraticMap", "NegEntropyMap", "BallMap")
_LATENT_CALLBACKS = ("eval_q", "grad2", "closed_form_step")
# spans opened on callables made at run time rather than found at an import site
_RUNTIME_SPANS = ("latent.callback", "latent.lyapunov")


def _count_outer_steps(tracer, args, kwargs, trace):
    steps = len(trace) - 1
    tracer.count("surrogate.outer_steps", steps)
    if args[0].label.startswith("mirror_prox"):
        tracer.count("descent.prox_outer_steps", steps)


def _count_inner_failure(tracer, exc):
    if isinstance(exc, sys.modules["surro.surrogate"].InnerSolveFailed):
        tracer.count("surrogate.inner_failures")


def _count_fd(tracer, args, kwargs, frame):
    problem = args[0]
    analytic = kwargs.get("prefer_analytic", args[3] if len(args) > 3 else True)
    if not analytic or problem.hess22 is None or problem.hess12 is None:
        tracer.count("rates.curvature_at.fd_calls")


def _count_draws(tracer, args, kwargs, result):
    tracer.count("rng.gaussian.draws", len(result))


def _count_extrapolation(tracer, args, kwargs, refined):
    trace = args[1]
    if len(trace) >= 2 and not np.array_equal(refined, trace.iterates[-1]):
        tracer.count("runner.extrapolation_accepted")


def _count_bytes(tracer, args, kwargs, path):
    tracer.count("report.bytes_written", len(args[1].encode()))


def _count_sweep(tracer, args, kwargs, table):
    sweep = sys.modules["surro.sweep"]
    tracer.count("sweep.cells", len(table.rows))
    workers = kwargs.get("max_workers") or sweep.worker_count()
    tracer.count("sweep.workers", workers)


def _trace_callbacks(tracer, args, kwargs, problem):
    """Replace a latent problem's model callbacks with traced copies."""
    changes = {}
    for field_name in _LATENT_CALLBACKS:
        fn = getattr(problem, field_name)
        if fn is not None and not hasattr(fn, "__bench_traced__"):
            changes[field_name] = tracer.wrap("latent.callback", fn)
    if problem.lyapunov is not None and not hasattr(problem.lyapunov, "__bench_traced__"):
        changes["lyapunov"] = tracer.wrap("latent.lyapunov", problem.lyapunov)
    return dataclasses.replace(problem, **changes) if changes else problem


def _memo_counter(tracer, original):
    """Count half-step solves (memo misses) without opening a span."""

    @functools.wraps(original)
    def call(self, theta):
        if np.atleast_1d(np.asarray(theta, dtype=float)).tobytes() not in self.cache:
            tracer.count("descent.half_step_solves")
        return original(self, theta)

    return call


def _targets():
    """(module, attribute, span name, observe, on_error); 'Class.method' patches a class."""
    out = []
    for fn in ("eigh", "generalized_rate_pair", "inv_sqrt", "spectral_norm"):
        out.append(("surro.linalg", fn, f"linalg.{fn}", None, None))
    for suite in LEMMA_SUITES:
        out.append(("surro.lemmas", f"check_{suite}", f"lemmas.{suite}", None, None))
    out.append(("surro.lemmas", "_ratio_ascent", "lemmas.ratio_ascent", None, None))
    out += [
        ("surro.surrogate", "iterate", "surrogate.iterate", _count_outer_steps, None),
        ("surro.surrogate", "inner_minimize", "surrogate.inner_minimize", None,
         _count_inner_failure),
        ("surro.surrogate", "minimize_smooth", "surrogate.minimize_smooth", None, None),
        ("surro.mirror_maps", "bregman", "mirror_maps.bregman", None, None),
        ("surro.mirror_maps", "bregman_project", "mirror_maps.bregman_project", None, None),
    ]
    for cls in _MAP_CLASSES:
        for method in ("value", "grad", "hess"):
            out.append(("surro.mirror_maps", f"{cls}.{method}", "mirror_maps.map", None, None))
    out += [
        ("surro.latent", "em_population_problem", "latent.build_problem", _trace_callbacks, None),
        ("surro.latent", "em_sample_problem", "latent.build_problem", _trace_callbacks, None),
        ("surro.latent", "TwoComponentMixture.sample_problem", "latent.build_problem",
         _trace_callbacks, None),
        ("surro.latent", "alpha_em_problem", "latent.alpha_em_problem", _trace_callbacks, None),
        ("surro.rates", "curvature_at", "rates.curvature_at", _count_fd, None),
        ("surro.rates", "verdicts", "rates.verdicts", None, None),
        ("surro.rates", "decay_estimate", "rates.decay_estimate", None, None),
        ("surro.rng", "CounterRNG.gaussian", "rng.gaussian", _count_draws, None),
        ("surro.runner", "run_experiment", "runner.run_experiment", None, None),
        ("surro.runner", "locate_fixed_point", "runner.locate_fixed_point",
         _count_extrapolation, None),
        ("surro.config", "assemble", "config.assemble", None, None),
        ("surro.report", "dumps", "report", None, None),
        ("surro.report", "write_text", "report", _count_bytes, None),
        ("surro.report", "write_csv", "report", None, None),
        ("surro.sweep", "sample_rate_sweep", "sweep.sample_rate_sweep", _count_sweep, None),
        ("surro.sweep", "_run_cell", "sweep.cell", None, None),
        ("surro.suite", "run_experiment", "suite.experiment", None, None),
        ("surro.cli", "main", "cli.main", None, None),
    ]
    return out


def span_names() -> list[str]:
    """Every span name instrument() can record."""
    return sorted({target[2] for target in _targets()} | set(_RUNTIME_SPANS))


class Instrumentation:
    """The set of replaced bindings; restore() undoes them in reverse order."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _surro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "surro" or name.startswith("surro."))]


def instrument(tracer: Tracer) -> Instrumentation:
    """Trace every target at every binding a loaded surro module holds."""
    inst = Instrumentation()
    modules = _surro_modules()
    for module_name, attr, span_name, observe, on_error in _targets():
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            inst.set(cls, method, tracer.wrap(span_name, cls.__dict__[method], observe, on_error))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(span_name, original, observe, on_error)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    inst.set(mod, name, traced)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    # registries such as lemmas.ALL_SUITES hold the function itself
                    inst.set(mod, name, tuple(traced if v is original else v for v in value))
    descent = sys.modules["surro.descent"]
    memo = descent._MemoStep
    inst.set(memo, "__call__", _memo_counter(tracer, memo.__dict__["__call__"]))
    return inst
