"""Low-overhead sampling profiler (schema ``coruscant-profile/1``).

The profiler answers the question the span tree cannot: *where does
host wall-time actually go* inside the per-domain Python loops the
ROADMAP wants vectorized. A :class:`SamplingProfiler` wakes a daemon
thread every ``interval_s`` seconds, snapshots every thread's Python
stack with ``sys._current_frames()``, and aggregates the stacks into
per-thread *folded* form (``a;b;c <weight>`` — the collapsed-stack
format flamegraph tooling consumes). Two exporters ship with it:

* :func:`render_collapsed` — collapsed-stack text, one sorted line per
  unique stack, byte-stable for a given sample multiset;
* :func:`speedscope_document` — the speedscope JSON file format
  (https://www.speedscope.app), ``type: "sampled"``.

Every sample is also *attributed*:

* to a **device phase** (``shift`` / ``tr`` / ``write`` / ``compute``)
  by scanning the stack innermost-out for the first frame whose
  function name matches a device-phase rule (:func:`classify_phase`);
* to a **worker tag** when the sampled thread runs inside
  :func:`tag_thread` — the dispatcher tags kernel execution with the
  worker's device-profile name, so hotspots split per profile;
* to a **request** when the sampled thread has an open span carrying a
  :class:`~repro.telemetry.context.TraceContext` — the per-request
  cost ledger (samples now, simulated cycles/energy joined from the
  finished span tree by :func:`ledger_from_tracer`).

Determinism: wall sampling is inherently host-dependent, so the
profiler also has a *virtual-clock* mode with two faces. For tests,
:meth:`SamplingProfiler.sample_once` accepts injected frames — N calls
produce exactly N samples, independent of wall time. For whole
commands, :func:`fold_tracer` derives folded stacks from the
deterministic span tree (self-weighted by the simulated ``cycles``
attribute) plus the ``device.<op>.cycles`` counters, so two identical
invocations yield bit-identical folded output.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

PROFILE_SCHEMA = "coruscant-profile/1"

PHASE_SHIFT = "shift"
PHASE_TR = "tr"
PHASE_WRITE = "write"
PHASE_COMPUTE = "compute"

PHASES = (PHASE_SHIFT, PHASE_TR, PHASE_WRITE, PHASE_COMPUTE)

#: device op name -> phase, for the metric-derived attribution path.
#: ``read`` is an access-port sense, so it lands with the transverse
#: reads; everything unrecognised is compute.
OP_PHASES = {
    "shift": PHASE_SHIFT,
    "read": PHASE_TR,
    "transverse_read": PHASE_TR,
    "write": PHASE_WRITE,
    "transverse_write": PHASE_WRITE,
}


def classify_phase(function: str) -> Optional[str]:
    """The device phase a function name belongs to, or None.

    Order matters: ``transverse_read_*`` must win before the generic
    ``read`` check, and ``transverse_write`` contains ``write`` so the
    write check is safe after the TR ones. ``_sense`` / ``_record_tr``
    are the nanowire TR internals.
    """
    name = function.lower()
    if "transverse_read" in name or "_sense" in name or "_record_tr" in name:
        return PHASE_TR
    if "write" in name:
        return PHASE_WRITE
    if "shift" in name or "align" in name:
        return PHASE_SHIFT
    return None


def phase_of_stack(functions: List[str]) -> str:
    """Innermost device-phase frame decides; otherwise compute."""
    for name in reversed(functions):
        phase = classify_phase(name)
        if phase is not None:
            return phase
    return PHASE_COMPUTE


# ----------------------------------------------------------------------
# worker tags (the dispatcher tags kernel threads per device profile)

_THREAD_TAGS: Dict[int, str] = {}
_TAGS_LOCK = threading.Lock()


@contextmanager
def tag_thread(tag: Optional[str]) -> Iterator[None]:
    """Tag the current thread for the duration (worker device profile)."""
    if tag is None:
        yield
        return
    ident = threading.get_ident()
    with _TAGS_LOCK:
        previous = _THREAD_TAGS.get(ident)
        _THREAD_TAGS[ident] = tag
    try:
        yield
    finally:
        with _TAGS_LOCK:
            if previous is None:
                _THREAD_TAGS.pop(ident, None)
            else:
                _THREAD_TAGS[ident] = previous


def thread_tag(ident: int) -> Optional[str]:
    """The tag of thread ``ident``, or None."""
    with _TAGS_LOCK:
        return _THREAD_TAGS.get(ident)


# ----------------------------------------------------------------------
# frame formatting

_FRAME_LIMIT = 64


def _frame_name(frame) -> str:
    """``repro/device/nanowire.py:shift`` — src-relative path + function."""
    code = frame.f_code
    path = code.co_filename.replace("\\", "/")
    marker = path.rfind("/src/")
    if marker >= 0:
        path = path[marker + len("/src/"):]
    else:
        path = "/".join(path.rsplit("/", 2)[-2:])
    return f"{path}:{code.co_name}"


def stack_of(frame, limit: int = _FRAME_LIMIT) -> List[str]:
    """Root-to-leaf formatted frames for one sampled thread."""
    frames: List[str] = []
    while frame is not None and len(frames) < limit:
        frames.append(_frame_name(frame))
        frame = frame.f_back
    frames.reverse()
    return frames


def _function_of(entry: str) -> str:
    return entry.rsplit(":", 1)[-1]


# ----------------------------------------------------------------------
# the sampler


class SamplingProfiler:
    """Fixed-interval stack sampler with folded-stack aggregation.

    ``start()`` spawns a daemon thread that calls :meth:`sample_once`
    every ``interval_s``; ``stop()`` joins it. Tests (and the
    deterministic virtual-clock mode) skip the thread entirely and call
    :meth:`sample_once` directly — optionally with injected ``frames``
    — so N calls yield exactly N sampling rounds regardless of wall
    time.

    ``tracer`` (when given) joins samples against open spans: a sampled
    thread whose innermost open span carries a trace context bills that
    request's ledger entry.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        tracer=None,
        frames_fn: Callable[[], Dict[int, Any]] = sys._current_frames,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.tracer = tracer
        self._frames_fn = frames_fn
        self._clock = clock
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._folded: Dict[str, int] = {}
        self._phases: Dict[str, int] = {phase: 0 for phase in PHASES}
        self._tags: Dict[str, int] = {}
        self._requests: Dict[str, Dict[str, Any]] = {}
        self.samples = 0
        self.rounds = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            raise RuntimeError("profiler is already running")
        self._stop.clear()
        self.started_at = self._clock()
        self._thread = threading.Thread(
            target=self._loop, name="coruscant-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.stopped_at = self._clock()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def sample_once(
        self, frames: Optional[Dict[int, Any]] = None
    ) -> int:
        """One sampling round over every foreign thread; returns samples.

        ``frames`` maps thread ident -> leaf frame (the
        ``sys._current_frames()`` shape); injecting it makes the round
        fully deterministic for tests. The profiler's own thread and
        the caller's thread (when sampling inline) are excluded.
        """
        own = {threading.get_ident()}
        sampler = self._thread
        if sampler is not None and sampler.ident is not None:
            own.add(sampler.ident)
        if frames is None:
            frames = self._frames_fn()
        active: Dict[int, Any] = {}
        if self.tracer is not None:
            snapshot = getattr(self.tracer, "active_snapshot", None)
            if snapshot is not None:
                active = snapshot()
        counted = 0
        with self._lock:
            self.rounds += 1
            for ident in sorted(frames):
                if ident in own:
                    continue
                functions = stack_of(frames[ident])
                if not functions:
                    continue
                tag = thread_tag(ident)
                key = ";".join(
                    ([f"profile:{tag}"] if tag else []) + functions
                )
                self._folded[key] = self._folded.get(key, 0) + 1
                phase = phase_of_stack(
                    [_function_of(entry) for entry in functions]
                )
                self._phases[phase] += 1
                if tag:
                    self._tags[tag] = self._tags.get(tag, 0) + 1
                span = active.get(ident)
                trace_id = getattr(span, "trace_id", None)
                if trace_id:
                    entry = self._requests.setdefault(
                        trace_id, {"samples": 0}
                    )
                    entry["samples"] += 1
                self.samples += 1
                counted += 1
        return counted

    # ------------------------------------------------------------------
    # exports

    def folded(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._folded)

    def phases(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._phases)

    def tags(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._tags)

    def document(self, mode: str = "wall") -> Dict[str, Any]:
        """The ``coruscant-profile/1`` record for this sampling run."""
        with self._lock:
            requests = {
                trace_id: dict(entry)
                for trace_id, entry in sorted(self._requests.items())
            }
        if self.tracer is not None:
            ledger = ledger_from_tracer(self.tracer)
            for trace_id, costs in ledger.items():
                entry = requests.setdefault(trace_id, {"samples": 0})
                entry.update(costs)
        return profile_document(
            self.folded(),
            mode=mode,
            interval_s=self.interval_s,
            samples=self.samples,
            phases=self.phases(),
            tags=self.tags(),
            requests=requests,
        )


# ----------------------------------------------------------------------
# deterministic (virtual-clock) attribution from the span tree


def _numeric_attr(span, name: str) -> float:
    value = span.attrs.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0.0
    return float(value)


def fold_tracer(tracer, metrics=None) -> Dict[str, int]:
    """Deterministic folded stacks: span self-cycles + device counters.

    Each span's *self* weight is its ``cycles`` attribute minus the
    cycles its children claim (clamped at zero — parents often carry
    the inclusive total). Device-phase pseudo-stacks
    (``phase:<phase>;device:<op>``) are added from the
    ``device.<op>.cycles`` counters, which fire even in code paths that
    open no spans. Both sources are simulated quantities, so the output
    is bit-identical across invocations.
    """
    folded: Dict[str, int] = {}

    def visit(span, path: Tuple[str, ...]) -> None:
        here = path + (span.name or "span",)
        own = _numeric_attr(span, "cycles") - sum(
            _numeric_attr(child, "cycles") for child in span.children
        )
        if own > 0:
            key = ";".join(here)
            folded[key] = folded.get(key, 0) + int(own)
        for child in span.children:
            visit(child, here)

    if tracer is not None:
        for root in tracer.roots:
            visit(root, ())

    if metrics is not None:
        counters = metrics.as_dict()["counters"]
        for name in sorted(counters):
            parts = name.split(".")
            if (
                len(parts) == 3
                and parts[0] == "device"
                and parts[2] == "cycles"
            ):
                op = parts[1]
                phase = OP_PHASES.get(op) or classify_phase(op) \
                    or PHASE_COMPUTE
                key = f"phase:{phase};device:{op}"
                folded[key] = folded.get(key, 0) + int(counters[name])
    return folded


def ledger_from_tracer(tracer) -> Dict[str, Dict[str, Any]]:
    """Per-trace simulated cost: cycles/energy/span count by trace_id.

    A span that carries a numeric ``cycles`` attribute is billed whole
    and its children are *not* descended for costing (parents carry the
    inclusive total — descending would double-count); children are
    still descended for span counting of traces that switch context
    mid-tree.
    """
    ledger: Dict[str, Dict[str, Any]] = {}

    def bill(trace_id: str) -> Dict[str, Any]:
        return ledger.setdefault(
            trace_id,
            {"spans": 0, "sim_cycles": 0, "sim_energy_pj": 0},
        )

    def visit(span, inherited: Optional[str], costed: bool) -> None:
        trace_id = span.trace_id or inherited
        if trace_id is not None:
            entry = bill(trace_id)
            entry["spans"] += 1
            if not costed:
                cycles = _numeric_attr(span, "cycles")
                if cycles > 0:
                    entry["sim_cycles"] += int(cycles)
                    # Summed in whole fJ, as the device ledgers are.
                    entry["sim_energy_pj"] += round(
                        _numeric_attr(span, "energy_pj") * 1000
                    )
                    costed = True
        for child in span.children:
            visit(child, trace_id, costed)

    if tracer is not None:
        for root in tracer.roots:
            visit(root, None, False)
    for entry in ledger.values():
        entry["sim_energy_pj"] /= 1000
    return ledger


# ----------------------------------------------------------------------
# exporters


def render_collapsed(folded: Dict[str, int]) -> str:
    """Collapsed-stack text: ``stack;frames weight``, sorted, stable."""
    return "".join(
        f"{stack} {folded[stack]}\n" for stack in sorted(folded)
    )


def self_weights(folded: Dict[str, int]) -> Dict[str, int]:
    """Per-frame self weight: each stack's weight bills its leaf frame."""
    weights: Dict[str, int] = {}
    for stack, weight in folded.items():
        leaf = stack.rsplit(";", 1)[-1]
        weights[leaf] = weights.get(leaf, 0) + weight
    return weights


def top_frames(
    folded: Dict[str, int], limit: int = 10
) -> List[Tuple[str, int]]:
    """The heaviest self-time frames, weight-descending then by name."""
    weights = self_weights(folded)
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:limit]


def speedscope_document(
    folded: Dict[str, int],
    name: str = "coruscant",
    interval_s: Optional[float] = None,
) -> Dict[str, Any]:
    """The folded stacks as a speedscope ``sampled`` profile.

    With ``interval_s`` the weights become seconds (count x interval);
    without it they stay unitless (simulated cycles in virtual mode).
    Frames are indexed in sorted-stack first-appearance order, so the
    document is deterministic for a given folded mapping.
    """
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for stack in sorted(folded):
        indices: List[int] = []
        for entry in stack.split(";"):
            index = frame_index.get(entry)
            if index is None:
                index = frame_index[entry] = len(frames)
                frames.append({"name": entry})
            indices.append(index)
        samples.append(indices)
        count = folded[stack]
        weights.append(
            count * interval_s if interval_s is not None else count
        )
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "coruscant-profiler",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds" if interval_s is not None else "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def profile_document(
    folded: Dict[str, int],
    mode: str,
    interval_s: Optional[float] = None,
    samples: Optional[int] = None,
    phases: Optional[Dict[str, int]] = None,
    tags: Optional[Dict[str, int]] = None,
    requests: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble one ``coruscant-profile/1`` record."""
    document: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "mode": mode,
        "samples": (
            samples if samples is not None else sum(folded.values())
        ),
        "folded": {stack: folded[stack] for stack in sorted(folded)},
        "top_frames": [
            {"frame": frame, "self_weight": weight}
            for frame, weight in top_frames(folded)
        ],
    }
    if interval_s is not None:
        document["interval_s"] = interval_s
    if phases is not None:
        document["phases"] = {
            phase: phases.get(phase, 0) for phase in PHASES
        }
    if tags:
        document["profiles"] = dict(sorted(tags.items()))
    if requests:
        document["requests"] = {
            trace_id: requests[trace_id]
            for trace_id in sorted(requests)
        }
    return document


__all__ = [
    "OP_PHASES",
    "PHASES",
    "PHASE_COMPUTE",
    "PHASE_SHIFT",
    "PHASE_TR",
    "PHASE_WRITE",
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "classify_phase",
    "fold_tracer",
    "ledger_from_tracer",
    "phase_of_stack",
    "profile_document",
    "render_collapsed",
    "self_weights",
    "speedscope_document",
    "stack_of",
    "tag_thread",
    "thread_tag",
    "top_frames",
]
