"""Start ``repro serve`` in this process, optionally traced.

Usage, from the root of a checkout::

    python3 perfbench/serve.py --port-file PATH --out PATH [--trace]

Runs the gateway exactly as ``python -m repro serve --port 0
--port-file PATH`` does (default profile, telemetry always on) until
SIGTERM drains it, then writes ``--out``: the exit code, this process's
peak RSS and, with ``--trace``, the per-layer totals. With ``--trace``
the span wrappers of :mod:`perfbench.layers` are installed first, plus
three service boundaries:

* ``Gateway.handle`` (a coroutine, so timed as a detached interval per
  request rather than on a thread's span stack);
* ``ProfileDispatcher.submit`` (admission, ``service.dispatch``);
* ``run_traced`` and each kernel runner (``service.kernels``), run on
  the executor threads.

The three are joined per request by the identity of the request's
payload dict, which the gateway hands unchanged from the parsed body to
the kernel runner. Per request, the gateway's self time is the part of
``handle`` before admission; the queue wait runs from admission to the
first kernel attempt; the dispatcher also owns the return path from the
last attempt back to ``handle`` and any backoff between attempts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RequestEvents:
    """Per-request boundary times, folded into seconds per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = {}
        self.requests = 0
        self.handle_s = 0.0
        self.gateway_s = 0.0
        self.dispatch_s = 0.0
        self.queue_wait_s = 0.0

    def begin(self, key) -> None:
        with self._lock:
            self._open[key] = {"exec": []}

    def mark(self, key, name: str, start: float, end: float) -> None:
        with self._lock:
            event = self._open.get(key)
            if event is None:
                return
            if name == "exec":
                event["exec"].append((start, end))
            else:
                event[name] = (start, end)

    def end(self, key, start: float, end: float) -> None:
        # Called on the event-loop thread only, after every attempt of
        # the request has reported.
        with self._lock:
            event = self._open.pop(key, None)
        self.requests += 1
        self.handle_s += end - start
        if event is None or "submit" not in event:
            # Refused before admission: all of it is the gateway's.
            self.gateway_s += end - start
            return
        sub_start, sub_end = event["submit"]
        self.gateway_s += sub_start - start
        runs = event["exec"]
        if not runs:
            self.dispatch_s += end - sub_end
            return
        first = min(s for s, _e in runs)
        last = max(e for _s, e in runs)
        busy = sum(e - s for s, e in runs)
        self.queue_wait_s += first - sub_end
        self.dispatch_s += (end - last) + (last - first - busy)

    def as_dict(self):
        return {
            "requests": self.requests,
            "handle_s": self.handle_s,
            "gateway_s": self.gateway_s,
            "dispatch_s": self.dispatch_s,
            "queue_wait_s": self.queue_wait_s,
        }


def install_service(recorder, events: RequestEvents) -> None:
    """Wrap the service boundaries on top of :func:`layers.install`.

    The wrappers stay for the life of the process.
    """
    from perfbench import layers
    from repro.service import dispatch, kernels
    from repro.service.dispatch import ProfileDispatcher
    from repro.service.gateway import Gateway

    clock = time.perf_counter

    def on_submit(args, kwargs, start, end):
        request = args[1] if len(args) > 1 else kwargs["request"]
        events.mark(id(request.payload), "submit", start, end)

    def on_exec(args, kwargs, start, end):
        payload = args[2] if len(args) > 2 else kwargs["payload"]
        events.mark(id(payload), "exec", start, end)

    # ``run_traced`` may re-enter itself through its module global; the
    # dispatcher's reference is always the outermost call, so only it
    # reports the attempt.
    extra = [
        (ProfileDispatcher, "submit", "service.dispatch", on_submit),
        (kernels, "run_traced", "service.kernels", None),
        (dispatch, "run_traced", "service.kernels", on_exec),
    ]
    layers.install(recorder, extra=extra)
    for name, fn in list(kernels.RUNNERS.items()):
        kernels.RUNNERS[name] = recorder.wrap(fn, "service.kernels")

    original_handle = Gateway.handle

    @functools.wraps(original_handle)
    async def handle(self, kernel, body, *args, **kwargs):
        key = id(body.get("payload")) if isinstance(body, dict) else None
        events.begin(key)
        start = clock()
        try:
            return await original_handle(self, kernel, body, *args, **kwargs)
        finally:
            events.end(key, start, clock())

    Gateway.handle = handle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, layers
    from repro import cli

    recorder = events = None
    report = {"exit": 1}
    try:
        if args.trace:
            recorder = layers.Recorder()
            events = RequestEvents()
            install_service(recorder, events)
        report["exit"] = cli.main(
            ["serve", "--port", "0", "--port-file", args.port_file]
        )
    finally:
        report["peak_rss_mb"] = common.peak_rss_mb()
        if recorder is not None:
            report["totals"] = recorder.totals()
            report["requests"] = events.as_dict()
            spans = Path(args.out).with_name("spans-service-http.json")
            spans.write_text(json.dumps(recorder.chrome_trace()))
            report["spans_file"] = str(spans)
        Path(args.out).write_text(json.dumps(report))
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
