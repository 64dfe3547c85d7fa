"""Timing the program from outside: a wall-time side channel and layer-edge spans.

Nothing here edits the program. Both recorders replace public functions
at class (or module) level with timing wrappers, before the scenarios
are built, so every call through the layer's public surface passes a
wrapper:

* :class:`SideChannel` (timed runs) appends one line per sweep point
  and per ``Scenario.run`` to a file opened in append mode, optionally
  timing a reference kernel just before and after each run. Forked sweep
  workers inherit the descriptor, so their walls reach the benchmark
  too. ``perf_counter`` is the system-wide monotonic clock, which lets
  the reader cut the records by time window.
* :class:`LayerTracer` (the traced run) opens a span at every layer
  edge and one per event the loop fires, billed to the module of the
  event's callback. Self time = span length minus the time of its child
  spans, so work a layer calls into (MAC -> routing ``deliver`` inside a
  PHY frame end) is billed to the layer that did it. The time of
  ``Scenario.run`` that no span covers is reported as unattributed.
"""

from __future__ import annotations

import functools
import itertools
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class SideChannel:
    """Walls of every sweep point (build + run) and every ``Scenario.run``.

    With a *calibrate* function, every ``Scenario.run`` is timed between
    two passes of that reference kernel, and its record carries the mean
    kernel time and the time the two passes took.
    """

    def __init__(self, path: str):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND | os.O_TRUNC, 0o644)

    def install(self, calibrate: Optional[Callable[[], float]] = None) -> None:
        import repro.scenario.executor as executor
        from repro.scenario.build import Scenario

        fd = self.fd
        point = executor.run_scenario
        run = Scenario.run

        @functools.wraps(point)
        def timed_point(*args, **kwargs):
            t0 = perf_counter()
            try:
                return point(*args, **kwargs)
            finally:
                os.write(fd, f"point {t0!r} {perf_counter()!r} 0 0\n".encode())

        @functools.wraps(run)
        def timed_run(self):
            k0 = perf_counter()
            c0 = calibrate() if calibrate else 0.0
            t0 = perf_counter()
            try:
                return run(self)
            finally:
                t1 = perf_counter()
                c1 = calibrate() if calibrate else 0.0
                k1 = perf_counter()
                os.write(fd, f"run {t0!r} {t1!r} {(c0 + c1) / 2!r} "
                             f"{(t0 - k0) + (k1 - t1)!r}\n".encode())

        executor.run_scenario = timed_point
        Scenario.run = timed_run

    def records(self, kind: str, t0: float, t1: float) -> List[Tuple[float, float, float]]:
        """(duration, mean kernel time, kernel passes' time) of the *kind*
        records that started inside ``[t0, t1]``."""
        out = []
        with open(self.path) as fh:
            for line in fh:
                k, start, end, calib, overhead = line.split()
                if k == kind and t0 <= float(start) <= t1:
                    out.append((float(end) - float(start), float(calib), float(overhead)))
        return out

    def close(self) -> None:
        os.close(self.fd)


#: Event-callback module prefix -> layer (first match wins). ``repro.net``
#: is the traffic layer's entry (``Node.send``).
_MODULE_LAYERS = (
    ("repro.core", "core"),
    ("repro.phy", "phy"),
    ("repro.mac", "mac"),
    ("repro.routing", "routing"),
    ("repro.mobility", "mobility"),
    ("repro.traffic", "traffic"),
    ("repro.net", "traffic"),
    ("repro.stats", "stats"),
)

#: (layer, edge-name prefix, module, class, public methods) wrapped as
#: edge spans. Every subclass that defines one of the methods gets its
#: own wrapper.
_CLASS_EDGES = (
    ("traffic", "traffic", "repro.net.node", "Node", ("send",)),
    ("routing", "routing", "repro.routing.base", "RoutingProtocol",
     ("originate", "deliver", "link_failed", "send_control", "send_data")),
    ("mac", "mac", "repro.mac.base", "MacLayer",
     ("send", "on_frame_received", "on_transmit_done", "medium_changed",
      "medium_edge", "overhear_nav")),
    ("mac", "mac.arena", "repro.mac.arena", "ContentionArena",
     ("busy_edges", "prepare_end_edges")),
    ("phy", "phy.channel", "repro.phy.channel", "Channel", ("transmit",)),
    ("phy", "phy.radio", "repro.phy.radio", "Radio", ("transmit",)),
    ("mobility", "mobility", "repro.mobility.manager", "MobilityManager", ("positions",)),
    ("stats", "stats", "repro.stats.metrics", "MetricsCollector", ("finish",)),
    ("store.get", "store", "repro.fabric.store", "ResultStore", ("get",)),
    ("store.put", "store", "repro.fabric.store", "ResultStore", ("put",)),
    ("executor", "executor", "repro.scenario.executor", "SweepExecutor", ("run",)),
)


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class LayerTracer:
    """Edge spans with per-layer self time, call counts and an in-memory log."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[start, child seconds, name id,
        #: layer, parent span, span id]``.
        self.stack: List[list] = []
        #: Closed spans, kept in memory until :meth:`write`.
        self.log = _SpanLog()
        #: Self seconds per layer, split by whether ``Scenario.run`` was open.
        self.self_in_run: Dict[str, float] = defaultdict(float)
        self.self_outside: Dict[str, float] = defaultdict(float)
        self._self = self.self_outside
        #: Calls per edge name (exact for a seed).
        self.calls: Counter = Counter()
        #: Total wall of the traced ``Scenario.run`` calls.
        self.run_wall = 0.0
        #: Program-side counters gathered from each traced scenario.
        self.mac_stats: Counter = Counter()
        self.perf: Counter = Counter()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._event = None
        self._layer_of: Dict[object, str] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, t: float, nid: int, layer: str) -> list:
        stack = self.stack
        span = [t, 0.0, nid, layer, stack[-1] if stack else None, self.log.next_id()]
        stack.append(span)
        return span

    def _close(self, t: float) -> None:
        span = self.stack.pop()
        dur = t - span[0]
        self._self[span[3]] += dur - span[1]
        parent = span[4]
        if parent is not None:
            parent[1] += dur
        self.log.add(span, t)

    def _call(self, nid: int, layer: str, fn, args, kwargs):
        """``fn(*args, **kwargs)`` inside a span."""
        self._open(perf_counter(), nid, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(perf_counter())

    def _edge(self, name: str, layer: str, fn):
        nid = self._name_id(name)
        calls = self.calls
        stack = self.stack
        call = self._call

        @functools.wraps(fn)
        def edge(*args, **kwargs):
            if stack and stack[-1][2] == nid:
                # A subclass override chaining to super(): one call.
                return fn(*args, **kwargs)
            calls[name] += 1
            return call(nid, layer, fn, args, kwargs)

        return edge

    def _classify(self, fn) -> str:
        key = getattr(fn, "__func__", fn)
        layer = self._layer_of.get(key)
        if layer is None:
            module = getattr(fn, "__module__", "") or ""
            layer = "other"
            for prefix, name in _MODULE_LAYERS:
                if module.startswith(prefix):
                    layer = name
                    break
            self._layer_of[key] = layer
        return layer

    # --------------------------------------------------------- install

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every edge at class level. Call before building scenarios."""
        import importlib

        import repro.scenario as scenario_pkg
        import repro.scenario.build as build
        import repro.scenario.executor as executor
        import repro.scenario.run as run_mod
        from repro.core.events import EventQueue, WheelTimer

        for layer, prefix, module, cls_name, methods in _CLASS_EDGES:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _subclasses(base):
                for meth in methods:
                    if meth in vars(cls):
                        edge = self._edge(f"{prefix}.{meth}", layer, vars(cls)[meth])
                        self._patch(cls, meth, edge)

        build_fn = self._edge("scenario.build", "scenario.build", build.build_scenario)
        for mod in (build, run_mod, scenario_pkg):
            self._patch(mod, "build_scenario", build_fn)
        self._patch(executor, "config_cache_key",
                    self._edge("scenario.key", "scenario.key", executor.config_cache_key))

        calls = self.calls

        def counted(name, fn):
            @functools.wraps(fn)
            def count(*args):
                calls[name] += 1
                return fn(*args)
            return count

        self._patch(EventQueue, "push", counted("core.push", vars(EventQueue)["push"]))
        self._patch(EventQueue, "push_at_seq",
                    counted("core.push", vars(EventQueue)["push_at_seq"]))
        self._patch(EventQueue, "pop_due", self._pop_due(vars(EventQueue)["pop_due"]))
        self._patch(WheelTimer, "fn", self._wheel_fn(WheelTimer))
        self._patch(build.Scenario, "run", self._root(vars(build.Scenario)["run"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _pop_due(self, pop_due):
        """Close the running event's span, time the pop as core, open the next."""
        nid_core = self._name_id("core.pop_due")
        calls = self.calls
        opened = self._open
        close = self._close
        classify = self._classify
        event_names: Dict[str, int] = {}

        @functools.wraps(pop_due)
        def traced_pop_due(queue, until):
            t0 = perf_counter()
            if self._event is not None:
                close(t0)
                self._event = None
            opened(t0, nid_core, "core")
            ev = pop_due(queue, until)
            t1 = perf_counter()
            close(t1)
            if ev is not None:
                calls["core.events_fired"] += 1
                layer = classify(ev.fn)
                nid = event_names.get(layer)
                if nid is None:
                    nid = event_names[layer] = self._name_id(f"event.{layer}")
                self._event = opened(t1, nid, layer)
            return ev

        return traced_pop_due

    def _wheel_fn(self, cls):
        """``WheelTimer.fn`` as a property whose reads return the callback
        wrapped in a span billed to the callback's module.

        The timer wheel drains every coalesced timer of one deadline
        inside a single heap event (billed to core); reading ``fn``
        through this property bills each drained timer like an event.
        """
        slot = vars(cls)["fn"]
        call = self._call
        classify = self._classify
        names: Dict[str, int] = {}
        no_kwargs: dict = {}

        def get(timer):
            fn = slot.__get__(timer, cls)
            if fn is None:
                return None
            layer = classify(fn)
            nid = names.get(layer)
            if nid is None:
                nid = names[layer] = self._name_id(f"timer.{layer}")
            return lambda *args: call(nid, layer, fn, args, no_kwargs)

        return property(get, slot.__set__)

    def _root(self, run):
        """``Scenario.run``: the root whose uncovered time is unattributed."""
        nid = self._name_id("scenario.run")
        opened = self._open

        @functools.wraps(run)
        def traced_run(scenario):
            outer = self._self
            self._self = self.self_in_run
            t0 = perf_counter()
            opened(t0, nid, "unattributed")
            try:
                summary = run(scenario)
            finally:
                if self._event is not None:
                    self._close(perf_counter())
                    self._event = None
                t1 = perf_counter()
                self._close(t1)
                self._self = outer
                self.run_wall += t1 - t0
            for node in scenario.network.nodes:
                st = node.mac.stats
                for field in ("data_sent", "rts_sent", "retries"):
                    self.mac_stats[field] += getattr(st, field)
            self.perf.update(summary.perf)
            return summary

        return traced_run

    # ---------------------------------------------------------- output

    def write(self, path: str) -> None:
        self.log.write(path, self.names)


class _SpanLog:
    """Closed spans as flat arrays (about 30 bytes a span)."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self.next_id = self._ids.__next__
        self.id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")

    def add(self, span: list, end: float) -> None:
        parent = span[4]
        self.id.append(span[5])
        self.parent.append(parent[5] if parent is not None else -1)
        self.name.append(span[2])
        self.start.append(span[0])
        self.end.append(end)

    def write(self, path: str, names: List[str]) -> None:
        """One row per span: id, parent id (-1 at the top), name id into
        ``names``, start and end (``perf_counter`` seconds)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(names),
            **{k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
               for k in ("id", "parent", "name", "start", "end")},
        )
