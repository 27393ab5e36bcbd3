"""Stage timing, spans and per-layer counters for the pipeline benchmark.

A :class:`Recorder` times the named stages of every op (and of every
set-up repetition).  A traced scope also keeps one span per stage in
memory and runs with wrappers installed around the public functions
listed in :data:`LAYERS`.  Each wrapper aggregates calls, ``busy_s``
(wall time inside the call) and ``self_s`` (``busy_s`` minus wrapped
children) per layer.  Hot functions (called per simulated block or per
verdict) only count; the others also record a span per call.

Wrappers are installed by replacing the function object under the same
name in every loaded module that bound it, and removed again when the
scope ends, so untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

_now = time.perf_counter


def _lines(args, kwargs, result):
    return {"lines": int(args[1].shape[0]), "llc_misses": int(result.llc_misses)}


def _windows(args, kwargs, result):
    return {"windows": len(result.window_columns)}


def _streamed(args, kwargs, result):
    return {"samples": int(result.stats.samples)}


def _verdicts(args, kwargs, result):
    return {"items": len(result.verdicts), "outliers": len(result.outliers)}


def _pushed(args, kwargs, result):
    return {"sent": result.sent, "resent": result.resent, "acked": result.acked}


def _shipped(args, kwargs, result):
    return {"containers_shipped": result.containers_shipped}


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the layer it is counted under."""

    module: str
    qualname: str
    name: str
    hot: bool = False
    observe: object = None


#: The wrapped functions.  ``TraceReader.__init__`` opens a container and
#: validates its header; chunk reads made while streaming count toward
#: ``core.streaming``'s self time.
LAYERS = (
    Layer("repro.machine.core", "SimCore.execute", "machine.core", hot=True),
    Layer("repro.machine.pmu", "PMU.process_block", "machine.pmu", hot=True),
    Layer("repro.machine.pebs", "PEBSUnit.on_overflows", "machine.pebs", hot=True),
    Layer(
        "repro.machine.cache", "CacheHierarchy.access_lines", "machine.cache",
        hot=True, observe=_lines,
    ),
    Layer("repro.runtime.scheduler", "Scheduler.run", "runtime.scheduler"),
    Layer("repro.core.hybrid", "integrate", "core.hybrid", observe=_windows),
    Layer("repro.core.tracefile", "save_trace", "core.tracefile.save"),
    Layer("repro.core.tracefile", "load_trace", "core.tracefile.load"),
    Layer("repro.core.tracefile", "TraceReader.__init__", "core.tracefile.load"),
    Layer("repro.core.streaming", "ingest_trace", "core.streaming", observe=_streamed),
    Layer(
        "repro.analysis.diagnose", "diagnose_trace", "analysis.diagnose",
        observe=_verdicts,
    ),
    Layer("repro.analysis.differential", "diff_traces", "analysis.differential"),
    Layer("repro.analysis.depgraph", "blocked_by_chain", "analysis.depgraph", hot=True),
    Layer("repro.service.sources", "journal_from_container", "service.sources"),
    Layer("repro.service.client", "push_segments", "service.push", observe=_pushed),
    Layer("repro.service.replica", "scrub_local", "service.replica", observe=_shipped),
    Layer("repro.acl.trie", "MultiTrieClassifier.__init__", "acl.build"),
)


@dataclass
class Scope:
    """Everything recorded inside one op or one set-up repetition."""

    label: str
    stages: dict = field(default_factory=lambda: defaultdict(float))
    #: layer name -> [calls, busy_s, self_s]
    layers: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    #: "<layer>.<counter>" -> value
    counts: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


class Recorder:
    """Times the stages of every scope; a traced scope also keeps spans
    and runs with the :data:`LAYERS` wrappers installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._scope: Scope | None = None
        self._traced = False
        self._open_spans: list[int] = []
        self._frames: list[list] = []
        self._active: set[str] = set()
        self._t0 = _now()

    # -- scopes and stages -------------------------------------------------
    @contextlib.contextmanager
    def scope(self, label: str, *, traced: bool = False):
        """One op or set-up repetition; its stages and layer totals."""
        self._scope = Scope(label)
        self._traced = traced
        try:
            with self._layers(), self._span(label):
                yield self._scope
        finally:
            self._scope = None
            self._traced = False

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time one stage of the current scope (accumulates by name)."""
        t0 = _now()
        try:
            with self._span(name):
                yield
        finally:
            self._scope.stages[name] += _now() - t0

    def count(self, name: str, value: int) -> None:
        """Add a count the benchmark knows directly (not from a wrapper)."""
        self._scope.counts[name] += value

    @contextlib.contextmanager
    def _span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> dict | None:
        if not self._traced:
            return None
        parent = self._open_spans[-1] if self._open_spans else None
        span = {
            "name": name, "id": len(self.spans), "parent": parent,
            "scope": self._scope.label, "ts": _now() - self._t0,
        }
        self.spans.append(span)
        self._open_spans.append(span["id"])
        return span

    def _close(self, span: dict | None) -> None:
        if span is not None:
            span["dur"] = _now() - self._t0 - span["ts"]
            self._open_spans.pop()

    # -- layer wrappers ------------------------------------------------------
    @contextlib.contextmanager
    def _layers(self):
        if not self._traced:
            yield
            return
        undo = []
        try:
            for layer in LAYERS:
                undo.extend(self._install(layer))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, layer: Layer):
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = self._wrap(layer, original)
        if owner_name:
            setattr(owner, attr, wrapper)
            return [(owner, attr, original)]
        # A module function may also be bound by name in importers
        # (``from repro.core.hybrid import integrate``): rebind it there.
        patched = []
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(attr) is original:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, original))
        return patched

    def _wrap(self, layer: Layer, fn):
        enter, leave = self._enter, self._leave
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                frame = enter(layer)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(frame, layer, args, kwargs, result)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(layer)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(frame, layer, args, kwargs, result)

        return wrapper

    def _enter(self, layer: Layer):
        # Re-entry into a layer already on the stack (load_trace opening a
        # TraceReader) is part of the outer call, not a second one.
        if layer.name in self._active:
            return None
        self._active.add(layer.name)
        span = None if layer.hot else self._open(layer.name)
        frame = [layer.name, 0.0, span, _now()]
        self._frames.append(frame)
        return frame

    def _leave(self, frame, layer: Layer, args, kwargs, result) -> None:
        if frame is None:
            return
        busy = _now() - frame[3]
        self._frames.pop()
        self._active.discard(layer.name)
        self._close(frame[2])
        if self._frames:
            self._frames[-1][1] += busy
        scope = self._scope
        agg = scope.layers[layer.name]
        agg[0] += 1
        agg[1] += busy
        agg[2] += busy - frame[1]
        if layer.observe is not None and result is not None:
            for key, value in layer.observe(args, kwargs, result).items():
                scope.counts[f"{layer.name}.{key}"] += value

    # -- output --------------------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """The spans as trace-event ``X`` records (one row per scope)."""
        rows: dict[str, int] = {}
        events = []
        for s in self.spans:
            tid = rows.setdefault(s["scope"], len(rows) + 1)
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                "ts": s["ts"] * 1e6, "dur": s["dur"] * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], "scope": s["scope"]},
            })
        return events
