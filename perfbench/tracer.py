"""In-memory span tracer installed around the program's layer boundaries.

The benchmark measures each layer from outside the program: it replaces
a module's public functions and methods with thin wrappers at run time,
and each call through a wrapper becomes one span (name, start, end,
parent).  The program itself is never edited.

For every span the tracer accumulates, per ``(phase, name)``:

* ``self_ns``  -- the span's duration minus the part its child spans
  cover (a layer's own time);
* ``calls``    -- spans recorded;
* ``units``    -- work units (``units(args, kwargs)`` when given, for
  example packets in a batched transmit; else one per call);
* ``cpu_ns``   -- thread CPU time inside the span, for spans declared
  with ``cpu=True`` (the live control plane, whose spans also wait on
  sockets).

``covered_ns[phase]`` is the wall time during which at least one span
was open on any thread; the rest of a phase's wall time is the ledger
residual.  The first ``keep`` spans are also kept as records and
written out as a Chrome trace when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

_clock = time.perf_counter_ns
_thread_cpu = time.thread_time_ns


class _ThreadState:
    __slots__ = ("stack", "agg", "tid")

    def __init__(self, tid: int):
        self.stack = []   # frames: [child_ns, span_id]
        self.agg = {}     # (phase, name) -> [self_ns, calls, units, cpu_ns]
        self.tid = tid


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans = []   # (span_id, parent_id, name, start_ns, end_ns, tid)
        self.phase = "idle"
        self.covered_ns = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._active = 0
        self._cover_start = 0

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _root_enter(self) -> None:
        with self._lock:
            if self._active == 0:
                self._cover_start = _clock()
            self._active += 1

    def _root_exit(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0:
                phase = self.phase
                self.covered_ns[phase] = (self.covered_ns.get(phase, 0)
                                          + _clock() - self._cover_start)

    def wrap(self, name: str, fn, units=None, cpu: bool = False):
        """Return ``fn`` wrapped so each call records one span."""
        tracer = self
        ids = self._ids
        spans = self.spans
        keep = self.keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1][1]
            else:
                parent = 0
                tracer._root_enter()
            frame = [0, next(ids)]
            stack.append(frame)
            cpu_start = _thread_cpu() if cpu else 0
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                cpu_ns = _thread_cpu() - cpu_start if cpu else 0
                stack.pop()
                duration = end - start
                key = (tracer.phase, name)
                row = state.agg.get(key)
                if row is None:
                    row = state.agg[key] = [0, 0, 0, 0]
                row[0] += duration - frame[0]
                row[1] += 1
                row[2] += units(args, kwargs) if units is not None else 1
                row[3] += cpu_ns
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer._root_exit()
                if len(spans) < keep:
                    spans.append((frame[1], parent, name, start, end,
                                  state.tid))

        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function: each ``next()`` step is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._steps(name, fn(*args, **kwargs))

        return traced

    def _steps(self, name, inner):
        step = self.wrap(name, inner.__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    # -- installation ----------------------------------------------------

    def install(self, plan) -> None:
        """Wrap every target of ``plan``.

        Each entry is ``(target, span_name, options)`` where ``target`` is
        ``"module:function"`` or ``"module:Class.method"`` and options
        may hold ``generator``, ``units`` and ``cpu``.  A module-level
        function is replaced in every loaded ``repro`` module that
        imported it by name, so ``from .x import f`` callers see the
        wrapper too.
        """
        for target, span_name, options in plan:
            module_name, _, attr_path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                self._wrap_method(getattr(module, owner_name), attr,
                                  span_name, options)
            else:
                self._wrap_function(module, attr, span_name, options)

    def _make(self, span_name, fn, options):
        if options.get("generator"):
            return self.wrap_generator(span_name, fn)
        return self.wrap(span_name, fn, units=options.get("units"),
                         cpu=options.get("cpu", False))

    def _wrap_method(self, owner, attr, span_name, options) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._make(span_name, original.__func__, options))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(
                self._make(span_name, original.__func__, options))
        else:
            replacement = self._make(span_name, original, options)
        setattr(owner, attr, replacement)

    def _wrap_function(self, module, attr, span_name, options) -> None:
        original = getattr(module, attr)
        replacement = self._make(span_name, original, options)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            namespace = vars(loaded)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, replacement)

    # -- results ---------------------------------------------------------

    def totals(self, phase: str) -> dict:
        """``name -> {self_ns, calls, units, cpu_ns}`` summed over threads."""
        merged = {}
        for state in list(self._states):
            for (row_phase, name), row in list(state.agg.items()):
                if row_phase != phase:
                    continue
                total = merged.setdefault(name, [0, 0, 0, 0])
                for index in range(4):
                    total[index] += row[index]
        return {name: {"self_ns": row[0], "calls": row[1],
                       "units": row[2], "cpu_ns": row[3]}
                for name, row in merged.items()}

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans in Chrome trace-event format."""
        events = []
        origin = self.spans[0][3] if self.spans else 0
        for span_id, parent, name, start, end, tid in self.spans:
            events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": (start - origin) / 1000.0,
                           "dur": (end - start) / 1000.0,
                           "args": {"id": span_id, "parent": parent}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
