"""Per-layer tracing installed from the benchmark's own files.

:func:`install` replaces the public methods of each layer's classes
with timing wrappers and returns a function that puts the originals
back; nothing under ``src/`` changes. A wrapper records one span per
call (layer, start, duration, parent) on a per-thread stack, so a
layer's *self* time is its span minus the spans of wrapped calls made
inside it. Spans are kept in memory and written out by
:meth:`Recorder.chrome_trace` when the run ends.

The device layer (``Nanowire``, ``FaultInjector``) is deliberately not
wrapped: the DBC calls it once per track per row operation (512 calls
for one lockstep step at paper geometry), so a wrapper there would cost
more than the work it times. Its host time is inside the ``dbc.*``
operation that loops over the tracks; the device layer is measured by
its simulated counts instead (``device.*_per_op``).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: DomainBlockCluster methods grouped into the ``dbc.*`` sub-layers.
DBC_GROUPS = {
    "poke_row": "dbc.peek_poke",
    "peek_row": "dbc.peek_poke",
    "poke_window_slot": "dbc.peek_poke",
    "peek_window_slot": "dbc.peek_poke",
    "shift": "dbc.shift",
    "align": "dbc.shift",
    "realign": "dbc.shift",
    "transverse_read_all": "dbc.tr",
    "transverse_read_track": "dbc.tr",
    "transverse_read_tracks": "dbc.tr",
    "position_error_check": "dbc.tr",
    "transverse_write_row": "dbc.tw",
    "read_row": "dbc.rw",
    "write_row": "dbc.rw",
    "write_bit": "dbc.rw",
    "snapshot": "dbc.snapshot",
    "restore": "dbc.snapshot",
}
DBC_LAYERS = (
    "dbc.peek_poke", "dbc.shift", "dbc.tr", "dbc.tw", "dbc.rw",
    "dbc.snapshot", "dbc.other",
)

#: (module, class) pairs whose public methods form each wrapped layer.
CLASS_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.arch.controller", "MemoryController", "controller"),
    ("repro.core.addition", "MultiOperandAdder", "core"),
    ("repro.core.multiplication", "Multiplier", "core"),
    ("repro.core.reduction", "CarrySaveReducer", "core"),
    ("repro.core.maxpool", "MaxUnit", "core"),
    ("repro.core.popcount", "PopcountUnit", "core"),
    ("repro.core.bulk_bitwise", "BulkBitwiseUnit", "core"),
    ("repro.core.nmr", "ModularRedundancy", "core"),
    ("repro.sim.system", "CoruscantSystem", "sim"),
    ("repro.resilience.executor", "ResilientExecutor", "resilience"),
)

#: Every layer a fold reports, in print order.
LAYERS = (
    DBC_LAYERS
    + ("controller", "core", "sim", "resilience", "reliability")
    + ("service.kernels", "service.dispatch", "service.gateway")
)


class _ThreadState:
    __slots__ = ("self_s", "calls", "frames", "spans", "tid", "next_id")

    def __init__(self, n: int, tid: int) -> None:
        self.self_s = [0.0] * n
        self.calls = [0] * n
        # One [child_seconds, span_id] pair per open wrapped call.
        self.frames: List[list] = []
        self.spans: List[tuple] = []
        self.tid = tid
        self.next_id = 0


class Recorder:
    """Per-thread span stacks plus the spans kept for the trace file."""

    def __init__(self) -> None:
        self.layers: List[str] = list(LAYERS)
        self.index = {name: i for i, name in enumerate(self.layers)}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.epoch = time.perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self.layers), len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(
        self,
        fn: Callable,
        layer: str,
        on_root: Optional[Callable[[tuple, dict, float, float], None]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` charged to ``layer``.

        ``on_root`` is called with the arguments and the span's start
        and end when the call is the outermost wrapped call on its
        thread.
        """
        index = self.index[layer]
        local = self._local
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None)
            if state is None:
                state = recorder._state()
            frames = state.frames
            parent = frames[-1][1] if frames else 0
            state.next_id += 1
            span_id = state.next_id
            frames.append([0.0, span_id])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                child, _ = frames.pop()
                duration = end - start
                state.self_s[index] += duration - child
                state.calls[index] += 1
                if frames:
                    frames[-1][0] += duration
                elif on_root is not None:
                    on_root(args, kwargs, start, end)
                state.spans.append((span_id, index, start, duration, parent))

        return wrapper

    def totals(self) -> Dict[str, Any]:
        """Self seconds and calls per layer, and the span count."""
        self_s = {name: 0.0 for name in self.layers}
        calls = {name: 0 for name in self.layers}
        for state in self._states:
            for i, name in enumerate(self.layers):
                self_s[name] += state.self_s[i]
                calls[name] += state.calls[i]
        return {
            "self_s": self_s,
            "calls": calls,
            "spans": sum(s.next_id for s in self._states),
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """Every span as a Chrome trace-event document."""
        events = []
        for state in self._states:
            for span_id, index, start, duration, parent in state.spans:
                events.append(
                    {
                        "name": self.layers[index],
                        "ph": "X",
                        "ts": round((start - self.epoch) * 1e6, 3),
                        "dur": round(duration * 1e6, 3),
                        "pid": 1,
                        "tid": state.tid,
                        "args": {"id": span_id, "parent": parent},
                    }
                )
        return {"traceEvents": events}


def _public_functions(cls: type) -> List[Tuple[str, Callable]]:
    """Plain public methods defined on ``cls`` itself."""
    found = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        found.append((name, value))
    return found


def install(
    recorder: Recorder,
    extra: Sequence[Tuple[Any, str, str, Optional[Callable]]] = (),
) -> Callable[[], None]:
    """Wrap every layer's public methods; returns the undo function.

    ``extra`` adds ``(owner, attribute, layer, on_root)`` patches, used
    for module-level functions such as ``run_add_campaign``.
    """
    import importlib

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, layer: str, on_root=None) -> None:
        original = getattr(owner, name)
        patches.append((owner, name, original))
        setattr(owner, name, recorder.wrap(original, layer, on_root))

    from repro.arch.dbc import DomainBlockCluster

    for name, _fn in _public_functions(DomainBlockCluster):
        patch(DomainBlockCluster, name, DBC_GROUPS.get(name, "dbc.other"))
    for module_name, class_name, layer in CLASS_LAYERS:
        # A missing class fails the traced run: skipping it would move
        # its time into the parent layer and look like a gain.
        cls = getattr(importlib.import_module(module_name), class_name)
        for name, _fn in _public_functions(cls):
            patch(cls, name, layer)
    for owner, name, layer, on_root in extra:
        patch(owner, name, layer, on_root)

    def undo() -> None:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)

    return undo


@contextlib.contextmanager
def installed(
    recorder: Recorder,
    extra: Sequence[Tuple[Any, str, str, Optional[Callable]]] = (),
):
    """:func:`install` for the duration of a ``with`` block."""
    undo = install(recorder, extra)
    try:
        yield
    finally:
        undo()


#: Layers timed outside the wrappers, by the service workload.
SERVICE_EXTRA = ("service.queue_wait_ms_per_req", "http.self_ms_per_req")


def summands() -> List[str]:
    """The per-layer metrics that, with ``other``, add up to the wall."""
    names = [f"{name}.self_ms_per_op" for name in DBC_LAYERS]
    names += [
        f"{name}.self_ms_per_op"
        for name in ("controller", "core", "sim", "resilience", "reliability")
    ]
    names += [
        f"{name}.self_ms_per_req"
        for name in ("service.kernels", "service.dispatch", "service.gateway")
    ]
    return names + list(SERVICE_EXTRA) + ["other.self_ms_per_op"]


def fold(
    totals: Dict[str, Any],
    ops: int,
    wall_s: float,
    extra_s: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-op layer self times (ms) and call counts, with ``other``.

    ``totals`` is :meth:`Recorder.totals`. ``wall_s`` is the traced
    interval the layers must add up to; ``other`` is the part of it no
    layer accounts for. ``extra_s`` gives the seconds of the
    :data:`SERVICE_EXTRA` layers, which the service workload times from
    request events rather than wrappers.
    """
    self_s, calls = totals["self_s"], totals["calls"]
    extra = {name: 0.0 for name in SERVICE_EXTRA}
    extra.update(extra_s or {})
    per_op: Dict[str, float] = {}
    per_op["dbc.self_ms_per_op"] = (
        sum(self_s[name] for name in DBC_LAYERS) * 1e3 / ops
    )
    per_op["dbc.calls_per_op"] = (
        sum(calls[name] for name in DBC_LAYERS) / ops
    )
    per_op["dbc.peek_poke.calls_per_op"] = calls["dbc.peek_poke"] / ops
    for name in DBC_LAYERS:
        per_op[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / ops
    for name in ("controller", "core", "sim", "resilience", "reliability"):
        per_op[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / ops
    for name in ("service.kernels", "service.dispatch", "service.gateway"):
        per_op[f"{name}.self_ms_per_req"] = self_s[name] * 1e3 / ops
    for name, seconds in extra.items():
        per_op[name] = seconds * 1e3 / ops
    accounted = sum(self_s.values()) + sum(extra.values())
    per_op["other.self_ms_per_op"] = (wall_s - accounted) * 1e3 / ops
    per_op["trace.wall_ms_per_op"] = wall_s * 1e3 / ops
    per_op["trace.spans_per_op"] = totals["spans"] / ops
    return per_op


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if "_ms_per_" in name:
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"
