"""Per-layer call tracing from outside the package.

``Tracer.install`` rebinds the public entry points of each layer
(``linalg``, ``models``, ``continuation``, ``analysis``, ``cli``) to thin
wrappers that record one span per call: name, start, end and parent.  A
function bound by name in several modules (``from .linalg import lu_factor``)
is rebound in every one of them, and model methods are wrapped on every class
of ``models`` that defines them.  Leaving the ``with`` block restores every
original binding.

A hook whose target no longer exists is recorded in ``Tracer.absent``; the
metrics that need it are then reported as absent instead of failing the run.

Only calls made inside a span opened with ``Tracer.span`` are recorded, so
work the benchmark itself does between runs (such as checking the output)
stays out of the trace.  Spans stay in memory.  ``layer_metrics`` turns them
into per-layer counts and self times (a span's duration minus the durations
of its child spans).  The wrappers assume one thread, which holds because the
benchmark unsets ``PHASE_BIFURCATE_THREADS``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "phase_bifurcate"


@dataclass(frozen=True)
class Hook:
    module: str  # submodule of the package that defines the target
    attr: str
    span: str
    # A transparent call is recorded but does not become the parent of the
    # calls it makes, and its time stays in its caller's self time.
    transparent: bool = False
    # Wrap the method ``attr`` on every class ``module`` defines.
    methods: bool = False


HOOKS = (
    Hook("linalg", "lu_factor", "linalg.lu_factor"),
    Hook("linalg", "lu_solve", "linalg.lu_solve"),
    Hook("linalg", "det_sign", "linalg.det_sign"),
    Hook("linalg", "null_vector", "linalg.null_vector"),
    Hook("models", "residual", "models.residual", methods=True),
    Hook("models", "jacobian", "models.jacobian", methods=True),
    Hook("models", "param_derivative", "models.param_derivative", methods=True),
    Hook("models", "green_operator", "models.green_operator"),
    Hook("continuation", "compute_diagram", "continuation.diagram"),
    Hook("continuation", "detect_bifurcations_on_trivial", "continuation.detect"),
    Hook("continuation", "branch_switch", "continuation.switch"),
    Hook("continuation", "trace_branch", "continuation.trace"),
    Hook("continuation", "_dedupe_branches", "continuation.dedupe"),
    Hook("continuation", "solutions_at", "continuation.slice"),
    Hook("continuation", "_newton", "continuation.newton", transparent=True),
    Hook("continuation", "_arclength_correct", "continuation.arclength_correct", transparent=True),
    Hook("continuation", "newton_correct", "continuation.newton_correct", transparent=True),
    Hook("cli", "_emit_json", "cli.emit"),
    Hook("cli", "_emit", "cli.write", transparent=True),
)


def analysis_hooks() -> tuple[Hook, ...]:
    """One hook per public function of ``analysis`` (its ``__all__``)."""
    mod = sys.modules.get(f"{PACKAGE}.analysis")
    names = getattr(mod, "__all__", ())
    return tuple(Hook("analysis", n, f"analysis.{n}") for n in names if inspect.isfunction(getattr(mod, n, None)))


class Span:
    __slots__ = ("name", "start", "end", "parent", "transparent", "raised", "info")

    def __init__(self, name: str, parent: int, transparent: bool = False):
        self.name = name
        self.parent = parent
        self.transparent = transparent
        self.start = self.end = 0.0
        self.raised = False
        self.info: Optional[dict] = None


class Patches:
    """Attribute rebindings that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.broken: set[str] = set()  # spans whose per-call info could not be read
        self._stack: list[int] = []
        # Factorizations alive, by id: [weak reference, reached lu_solve].
        self._live: dict[int, list] = {}
        self.factors_used = 0
        self.factors_tracked = True

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        spans, stack = self.spans, self._stack
        info = INFO.get(hook.span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside every span opened with Tracer.span
                return fn(*args, **kwargs)
            s = Span(hook.span, stack[-1], hook.transparent)
            spans.append(s)
            if not hook.transparent:
                stack.append(len(spans) - 1)
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.raised = True
                raise
            finally:
                s.end = perf_counter()
                if not hook.transparent:
                    stack.pop()
            if info is not None:
                try:
                    s.info = info(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.broken.add(hook.span)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self, hooks: Optional[tuple[Hook, ...]] = None):
        """Wrap every hook target for the duration of the block."""
        hooks = (HOOKS + analysis_hooks()) if hooks is None else hooks
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        patches = Patches()
        try:
            for hook in hooks:
                mod = sys.modules.get(f"{PACKAGE}.{hook.module}")
                if hook.methods:
                    classes = [c for c in vars(mod).values()
                               if inspect.isclass(c) and c.__module__ == mod.__name__
                               and inspect.isfunction(vars(c).get(hook.attr))] if mod else []
                    if not classes:
                        self.absent.add(hook.span)
                    for cls in classes:
                        patches.set(cls, hook.attr, self._wrap(vars(cls)[hook.attr], hook))
                    continue
                original = getattr(mod, hook.attr, None) if mod else None
                if not callable(original):
                    self.absent.add(hook.span)
                    continue
                wrapper = self._wrap(original, hook)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            patches.set(m, name, wrapper)
            yield self
        finally:
            patches.restore()

    # -- factorization reuse -------------------------------------------------

    def _note_factor(self, fact) -> None:
        key = id(fact)
        try:
            ref = weakref.ref(fact, lambda _ref, key=key: self._retire(key))
        except TypeError:  # a result type without weak references
            self.factors_tracked = False
            return
        self._live[key] = [ref, False]

    def _note_solve(self, fact) -> None:
        entry = self._live.get(id(fact))
        if entry is not None and entry[0]() is fact:
            entry[1] = True

    def _retire(self, key: int) -> None:
        entry = self._live.pop(key, None)
        if entry is not None and entry[1]:
            self.factors_used += 1

    def finish(self) -> None:
        """Settle the factorizations still alive; call after the traced run."""
        for key in list(self._live):
            self._retire(key)


def _n3_flops(tracer, args, kwargs, result) -> dict:
    tracer._note_factor(result)
    n = len(kwargs["matrix"] if "matrix" in kwargs else args[0])
    return {"flops": 2.0 / 3.0 * n**3}


def _solve(tracer, args, kwargs, result) -> None:
    tracer._note_solve(kwargs["fact"] if "fact" in kwargs else args[0])


def _branch_stats(tracer, args, kwargs, branch) -> dict:
    return {"points": len(branch.points), "newton_iters": sum(p.newton_iters_used for p in branch.points)}


# Per-call data read from a wrapped call's arguments and result.
INFO = {
    "linalg.lu_factor": _n3_flops,
    "linalg.lu_solve": _solve,
    "models.jacobian": lambda t, a, k, r: {"bytes": int(r.nbytes)},
    "continuation.detect": lambda t, a, k, r: {"events": len(r)},
    "continuation.switch": lambda t, a, k, r: {"sides_dropped": 2 - len(r)},
    "continuation.trace": _branch_stats,
    "continuation.dedupe": lambda t, a, k, r: {"dropped": len(a[0]) - len(r)},
    "cli.write": lambda t, a, k, r: {"bytes": len(a[1].encode())},
}


class _Index:
    """Aggregates over the recorded spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            # A transparent call's time stays in its caller's self time.
            if s.parent >= 0 and not s.transparent:
                child_time[s.parent] += s.end - s.start
        self.self_time = [s.end - s.start - c for s, c in zip(spans, child_time)]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.tracer.spans if s.name == name)

    def self_s(self, prefix: str) -> float:
        return sum(t for s, t in zip(self.tracer.spans, self.self_time)
                   if s.name == prefix or s.name.startswith(prefix + "."))

    def info(self, name: str, key: str, parent: Optional[str] = None) -> float:
        spans = self.tracer.spans
        return sum(s.info[key] for s in spans
                   if s.name == name and s.info
                   and (parent is None or (s.parent >= 0 and spans[s.parent].name == parent)))

    def children(self, parent: str, name: str, raised: Optional[bool] = None) -> int:
        spans = self.tracer.spans
        return sum(1 for s in spans if s.name == name and s.parent >= 0 and spans[s.parent].name == parent
                   and (raised is None or s.raised == raised))

    def descendants(self, ancestor: str, name: str) -> int:
        spans = self.tracer.spans
        count = 0
        for s in spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and spans[p].name != ancestor:
                p = spans[p].parent
            count += p >= 0
        return count


LF, LS, DS, NV = "linalg.lu_factor", "linalg.lu_solve", "linalg.det_sign", "linalg.null_vector"
RES, JAC, DER, GREEN = "models.residual", "models.jacobian", "models.param_derivative", "models.green_operator"
DET, SW, TR, DD, SL = ("continuation.detect", "continuation.switch", "continuation.trace",
                       "continuation.dedupe", "continuation.slice")
NEWTON, ARC, CORRECT = "continuation.newton", "continuation.arclength_correct", "continuation.newton_correct"
EIG, EMIT, WRITE = "analysis.eigenmode", "cli.emit", "cli.write"


def _rejected(ix: _Index) -> int:
    return ix.children(TR, NEWTON, raised=True) + ix.children(TR, ARC, raised=True)


def _factor_per_point(ix: _Index) -> float:
    # 0 for a run that traces no branch (detection only).
    points = ix.info(TR, "points")
    return ix.descendants(TR, LF) / points if points else 0.0


def _factor_use_ratio(ix: _Index) -> Optional[float]:
    return ix.tracer.factors_used / ix.calls(LF) if ix.tracer.factors_tracked else None


# (metric, unit, spans it needs, value).  ``.s`` metrics are self times; a
# value of None means the metric could not be measured.
METRICS = (
    ("linalg.lu_factor.calls", "count", (LF,), lambda ix: ix.calls(LF)),
    ("linalg.lu_factor.s", "s", (LF,), lambda ix: ix.self_s(LF)),
    ("linalg.lu_factor.flops", "flop", (LF,), lambda ix: ix.info(LF, "flops")),
    ("linalg.lu_factor.gflops", "GFLOP/s", (LF,), lambda ix: ix.info(LF, "flops") / ix.self_s(LF) / 1e9),
    ("linalg.lu_solve.calls", "count", (LS,), lambda ix: ix.calls(LS)),
    ("linalg.lu_solve.s", "s", (LS,), lambda ix: ix.self_s(LS)),
    ("linalg.det_sign.calls", "count", (DS,), lambda ix: ix.calls(DS)),
    ("linalg.null_vector.calls", "count", (NV,), lambda ix: ix.calls(NV)),
    ("linalg.null_vector.iters", "count", (NV, LS), lambda ix: ix.children(NV, LS)),
    ("linalg.null_vector.s", "s", (NV,), lambda ix: ix.self_s(NV)),
    ("linalg.factor_use_ratio", "ratio", (LF, LS), _factor_use_ratio),
    ("models.residual.calls", "count", (RES,), lambda ix: ix.calls(RES)),
    ("models.residual.s", "s", (RES,), lambda ix: ix.self_s(RES)),
    ("models.jacobian.calls", "count", (JAC,), lambda ix: ix.calls(JAC)),
    ("models.jacobian.s", "s", (JAC,), lambda ix: ix.self_s(JAC)),
    ("models.jacobian.bytes", "B", (JAC,), lambda ix: ix.info(JAC, "bytes")),
    ("models.param_derivative.calls", "count", (DER,), lambda ix: ix.calls(DER)),
    ("models.param_derivative.s", "s", (DER,), lambda ix: ix.self_s(DER)),
    ("models.green_operator.s", "s", (GREEN,), lambda ix: ix.self_s(GREEN)),
    ("continuation.detect.s", "s", (DET,), lambda ix: ix.self_s(DET)),
    ("continuation.detect.probes", "count", (DET, DS), lambda ix: ix.children(DET, DS)),
    ("continuation.detect.events", "count", (DET,), lambda ix: ix.info(DET, "events")),
    ("continuation.switch.s", "s", (SW,), lambda ix: ix.self_s(SW)),
    ("continuation.switch.sides_dropped", "count", (SW,), lambda ix: ix.info(SW, "sides_dropped")),
    ("continuation.trace.s", "s", (TR,), lambda ix: ix.self_s(TR)),
    ("continuation.trace.points", "count", (TR,), lambda ix: ix.info(TR, "points")),
    ("continuation.trace.newton_iters", "count", (TR,), lambda ix: ix.info(TR, "newton_iters")),
    ("continuation.trace.rejected_steps", "count", (TR, NEWTON), _rejected),
    ("continuation.trace.factor_per_point", "ratio", (TR, LF), _factor_per_point),
    ("continuation.dedupe.s", "s", (DD,), lambda ix: ix.self_s(DD)),
    ("continuation.dedupe.dropped", "count", (DD,), lambda ix: ix.info(DD, "dropped")),
    ("continuation.slice.s", "s", (SL,), lambda ix: ix.self_s(SL)),
    ("continuation.slice.corrections", "count", (SL, CORRECT), lambda ix: ix.children(SL, CORRECT)),
    ("analysis.s", "s", (EIG,), lambda ix: ix.self_s("analysis")),
    ("analysis.eigenmode.calls", "count", (EIG,), lambda ix: ix.calls(EIG)),
    ("cli.emit.s", "s", (EMIT,), lambda ix: ix.self_s(EMIT)),
    ("cli.emit.bytes", "B", (EMIT, WRITE), lambda ix: ix.info(WRITE, "bytes", parent=EMIT)),
)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from a finished trace: ({name: (value, unit)}, absent names)."""
    ix = _Index(tracer)
    missing = tracer.absent | tracer.broken
    out, absent = {}, []
    for name, unit, needs, value in METRICS:
        if missing.intersection(needs):
            absent.append(name)
            continue
        try:
            v = value(ix)
        except ZeroDivisionError:
            v = None
        if v is None or not math.isfinite(v):
            absent.append(name)
        else:
            out[name] = (v, unit)
    return out, absent
