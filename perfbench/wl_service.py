"""``service-http``: the kernel gateway over real HTTP.

``repro serve`` runs with its default profile (64 tracks, TRD 7,
resilience on, program telemetry always on) in its own process, started
through :mod:`perfbench.serve`. This process is the one client: it
sends the ``loadbench`` ``mixed`` schedule (``build_schedule``) on
``CONNECTIONS`` closed-loop connections, each sending its next request
only when the previous reply has arrived, and checks every reply
against Python arithmetic.

The first ``PREFIX_REQUESTS`` requests of the schedule run in every
run; the counters the server publishes on ``GET /metrics`` are read
before and after them, so the simulated counts cover a fixed request
set. The run then continues down the schedule until the time is up.
Requests go out in segments of ``SEGMENT_REQUESTS``, each its own
closed loop, with a host probe between segments (see
``common.timing_metrics``).
"""

from __future__ import annotations

import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import common, layers

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"

PROFILE = "mixed"
CONNECTIONS = 2
WARMUP_REQUESTS = 32
#: Requests per timing segment (see ``common.timing_metrics``).
SEGMENT_REQUESTS = 128
#: Requests every run completes, a whole number of segments.
PREFIX_REQUESTS = 16 * SEGMENT_REQUESTS
#: The schedule, whole segments, longer than any run gets through.
SCHEDULE_REQUESTS = 320 * SEGMENT_REQUESTS
#: Requests the traced run sends to one server before the other.
TRACE_BATCH = 64
#: Server starts timed before the run (the last one serves it) and after.
SPAWNS_BEFORE = 4
SPAWNS_AFTER = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0

#: Per-layer metrics this workload has nothing to report for.
ABSENT = ("reliability.uncorrected_frac",)

#: (schedule index, host seconds, HTTP status, reply)
Sample = Tuple[int, float, int, Dict[str, Any]]


class Server:
    """One gateway process, started and drained by the benchmark."""

    def __init__(self, tag: str, trace: bool = False) -> None:
        RUN_DIR.mkdir(exist_ok=True)
        self.port_file = RUN_DIR / f"port-{tag}.txt"
        self.out = RUN_DIR / f"server-{tag}.json"
        for path in (self.port_file, self.out):
            path.unlink(missing_ok=True)
        command = [
            sys.executable, str(ROOT / "perfbench" / "serve.py"),
            "--port-file", str(self.port_file), "--out", str(self.out),
        ] + (["--trace"] if trace else [])
        self._log = open(RUN_DIR / f"server-{tag}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.port = self._wait_ready(start + START_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    def _wait_ready(self, give_up: float) -> int:
        port = None
        while time.perf_counter() < give_up:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before ready"
                )
            if port is None:
                text = (
                    self.port_file.read_text().strip()
                    if self.port_file.exists() else ""
                )
                port = int(text) if text else None
            if port is not None:
                try:
                    status, _body = request(port, "GET", "/readyz")
                except OSError:
                    status = 0
                if status == 200:
                    return port
            time.sleep(0.005)
        raise RuntimeError("server not ready in time")

    def metrics(self) -> Dict[str, Any]:
        status, body = request(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return body

    def stop(self) -> Dict[str, Any]:
        """Drain with SIGTERM and return the launcher's report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain in time")
        finally:
            self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def request(
    port: int, method: str, path: str, body: Optional[dict] = None
) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
    )
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


_BULK = {
    "AND": lambda col: int(all(col)),
    "NAND": lambda col: 1 - int(all(col)),
    "OR": lambda col: int(any(col)),
    "NOR": lambda col: 1 - int(any(col)),
    "XOR": lambda col: sum(col) % 2,
    "XNOR": lambda col: 1 - sum(col) % 2,
}


def golden(kernel: str, payload: Dict[str, Any]) -> Tuple[str, Any]:
    """The result field a correct reply carries, and its value."""
    if kernel == "add":
        return "sum", sum(payload["words"])
    if kernel == "multiply":
        return "product", payload["a"] * payload["b"]
    if kernel == "popcount":
        return "count", sum(payload["bits"])
    if kernel == "bulk-op":
        rows = payload["operands"]
        width = max(len(r) for r in rows)
        padded = [r + [0] * (width - len(r)) for r in rows]
        op = _BULK[payload["op"].upper()]
        return "bits", [op([r[i] for r in padded]) for i in range(width)]
    raise ValueError(f"no golden model for kernel {kernel!r}")


def reply_ok(item, status: int, body: Dict[str, Any]) -> bool:
    if status != 200 or body.get("status") != "ok":
        return False
    field, want = golden(item.kernel, item.payload)
    return body.get("result", {}).get(field) == want


def closed_loop(
    port: int,
    schedule: Sequence[Any],
    first: int = 0,
    stop: Optional[int] = None,
) -> Tuple[List[Sample], float]:
    """Send ``schedule[first:stop]`` on CONNECTIONS closed-loop connections.

    Returns the samples, in schedule order and indexed into
    ``schedule``, and the wall time.
    """
    stop = len(schedule) if stop is None else stop
    lock = threading.Lock()
    cursor = [first]
    per_thread: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    clock = time.perf_counter

    def connection(slot: int) -> None:
        samples = per_thread[slot]
        while True:
            with lock:
                index = cursor[0]
                if index >= stop:
                    return
                cursor[0] += 1
            item = schedule[index]
            body = {"payload": item.payload, "priority": item.priority}
            start = clock()
            try:
                status, reply = request(
                    port, "POST", f"/v1/{item.kernel}", body
                )
            except (OSError, ValueError) as exc:
                status, reply = 0, {"error": repr(exc)}
            end = clock()
            samples.append((index, end - start, status, reply))

    threads = [
        threading.Thread(target=connection, args=(slot,))
        for slot in range(CONNECTIONS)
    ]
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - start
    samples = sorted(
        (s for group in per_thread for s in group), key=lambda s: s[0]
    )
    return samples, wall


def check_replies(
    result: common.RunResult, schedule: Sequence[Any], samples: List[Sample]
) -> int:
    """Golden-check every reply; returns how many failed."""
    failed = 0
    for index, _seconds, status, reply in samples:
        item = schedule[index]
        if not reply_ok(item, status, reply):
            failed += 1
            common.check(
                result, False,
                f"request {index} {item.kernel}: HTTP {status} {reply}",
            )
    return failed


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Counter and histogram sum/count deltas between two scrapes."""
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    hist = {}
    for name, h in after["histograms"].items():
        old = before["histograms"].get(name, {"sum": 0, "count": 0})
        hist[name] = {
            "sum": h["sum"] - old["sum"],
            "count": h["count"] - old["count"],
        }
    return {"counters": counters, "histograms": hist}


def _simulated(delta: Dict[str, Any]) -> Dict[str, Any]:
    """The exact-repeat part of a delta: device, cpim, pim, resilience.

    Energy counters are float sums fed by two worker threads in no fixed
    order, so their last bits vary; they are compared to 0.001 pJ.
    """
    keep = ("device.", "cpim.", "pim.", "resilience.")
    return {
        "counters": {
            k: round(v, 3) if isinstance(v, float) else v
            for k, v in sorted(delta["counters"].items())
            if k.startswith(keep) and v
        },
        "histograms": {
            k: v for k, v in sorted(delta["histograms"].items())
            if k.startswith(keep) and v["count"]
        },
    }


def _outputs(samples: List[Sample]) -> List[Any]:
    return [[sample[0], sample[3].get("result")] for sample in samples]


def schedules(seed: int, requests: int = SCHEDULE_REQUESTS):
    from repro.obs.loadgen import build_schedule

    warmup = build_schedule(PROFILE, WARMUP_REQUESTS, seed + 7919)
    return warmup, build_schedule(PROFILE, requests, seed)


def _server_split(delta, samples) -> Tuple[float, float]:
    """Server-side and HTTP ms per request from /metrics and the client."""
    hist = delta["histograms"]["service.request_seconds"]
    server_ms = hist["sum"] * 1e3 / hist["count"]
    client_ms = sum(s[1] for s in samples) * 1e3 / len(samples)
    return server_ms, client_ms - server_ms


def _spawn(tag: str) -> Tuple[Server, float]:
    """A ready server, and its start-up time scaled by the probes around it."""
    before = common.probe()
    server = Server(tag)
    return server, common.scaled(server.ready_s, (before + common.probe()) / 2)


def _timed_spawn() -> float:
    server, seconds = _spawn("setup")
    try:
        server.stop()
    finally:
        server.kill()
    return seconds


def run(seed: int, seconds: float, trace: bool) -> common.RunResult:
    result = common.RunResult(attempted=0, failed=0, correct=True)
    if trace:
        return _run_traced(seed, result)
    warmup, schedule = schedules(seed)
    setup = [_timed_spawn() for _ in range(SPAWNS_BEFORE - 1)]
    samples: List[Sample] = []
    segments: List[common.Segment] = []
    server, ready_s = _spawn("untraced")
    try:
        setup.append(ready_s)
        deadline = time.perf_counter() + seconds
        warm, _wall = closed_loop(server.port, warmup)
        failed = check_replies(result, warmup, warm)
        before = common.probe()
        scrapes = [server.metrics()]
        # One closed loop per segment, so that the probes between them
        # run while no request is in flight.
        for lo in range(0, len(schedule), SEGMENT_REQUESTS):
            if lo >= PREFIX_REQUESTS and time.perf_counter() >= deadline:
                break
            hi = lo + SEGMENT_REQUESTS
            batch, wall = closed_loop(server.port, schedule, lo, hi)
            if hi == PREFIX_REQUESTS:
                scrapes.append(server.metrics())
            after = common.probe()
            samples += batch
            segments.append((wall, lo, hi, (before + after) / 2))
            before = after
        report = server.stop()
    finally:
        server.kill()
    setup += [_timed_spawn() for _ in range(SPAWNS_AFTER)]
    failed += check_replies(result, schedule, samples)
    head = samples[:PREFIX_REQUESTS]
    delta = _delta(scrapes[1], scrapes[0])

    result.attempted, result.failed = len(samples), failed
    result.metric("setup_s", statistics.median(setup), "s")
    common.timing_metrics(result, segments, [s[1] for s in samples])
    counters = delta["counters"]
    result.metric(
        "sim_cycles_per_op",
        counters["device.cycles"] / PREFIX_REQUESTS, "cycles",
    )
    result.metric(
        "sim_energy_pj_per_op",
        round(counters["device.energy_pj"], 3) / PREFIX_REQUESTS, "pJ",
    )
    result.metric("peak_rss_mb", report["peak_rss_mb"], "MiB")
    server_ms, http_ms = _server_split(delta, head)
    result.report.update(
        digest=common.digest(
            {"outputs": _outputs(head), "metrics": _simulated(delta)}
        ),
        prefix_ops=PREFIX_REQUESTS,
        failed_frac=failed / len(samples),
        server_ms_per_req=server_ms,
        http_ms_per_req=http_ms,
        rejected_frac=counters.get("service.rejected", 0) / PREFIX_REQUESTS,
        retries_per_req=counters.get("service.retries", 0) / PREFIX_REQUESTS,
        device_per_op={
            name: count / PREFIX_REQUESTS
            for name, count in common.device_counts(
                counters_to_ops(counters)
            ).items()
        },
    )
    return result


def _run_traced(seed: int, result: common.RunResult) -> common.RunResult:
    """The prefix on an untraced and a traced server, batch by batch.

    Both servers run side by side. Each batch of TRACE_BATCH requests
    goes to the untraced server and then to the traced one, so each
    pair of requests sees the host in about the same state.
    """
    warmup, schedule = schedules(seed, PREFIX_REQUESTS)
    servers: List[Server] = []
    warm: List[List[Sample]] = [[], []]
    heads: List[List[Sample]] = [[], []]
    try:
        for tag, traced in (("untraced", False), ("traced", True)):
            servers.append(Server(tag, trace=traced))
        before = []
        for k, server in enumerate(servers):
            warm[k], _wall = closed_loop(server.port, warmup)
            before.append(server.metrics())
        for lo in range(0, PREFIX_REQUESTS, TRACE_BATCH):
            hi = min(lo + TRACE_BATCH, PREFIX_REQUESTS)
            for k, server in enumerate(servers):
                batch, _wall = closed_loop(server.port, schedule, lo, hi)
                heads[k] += batch
        delta_a, delta_b = (
            _delta(server.metrics(), before[k])
            for k, server in enumerate(servers)
        )
        reports = [server.stop() for server in servers]
    finally:
        for server in servers:
            server.kill()
    failed = sum(
        check_replies(result, warmup, warm[k])
        + check_replies(result, schedule, heads[k])
        for k in range(2)
    )
    head_a, head_b = heads
    warm_b, report_b = warm[1], reports[1]
    common.check(
        result,
        _outputs(head_a) == _outputs(head_b)
        and _simulated(delta_a) == _simulated(delta_b),
        "traced run changed simulated results",
    )
    result.attempted = 2 * PREFIX_REQUESTS
    result.failed = failed
    result.report.update(
        digest=common.digest(
            {"outputs": _outputs(head_b), "metrics": _simulated(delta_b)}
        ),
        prefix_ops=PREFIX_REQUESTS,
        spans_file=str(Path(report_b["spans_file"]).relative_to(ROOT)),
    )

    # Every request the traced server handled: warm-up and prefix.
    requests = report_b["requests"]
    ops = len(warm_b) + len(head_b)
    common.check(
        result, requests["requests"] == ops,
        f"traced server handled {requests['requests']} requests, sent {ops}",
    )
    wall = sum(s[1] for s in warm_b + head_b)
    totals = report_b["totals"]
    totals["self_s"]["service.gateway"] += requests["gateway_s"]
    totals["self_s"]["service.dispatch"] += requests["dispatch_s"]
    extra = {
        "service.queue_wait_ms_per_req": requests["queue_wait_s"],
        "http.self_ms_per_req": wall - requests["handle_s"],
    }
    for name, value in layers.fold(totals, ops, wall, extra).items():
        result.metric(name, value, layers.unit_of(name))

    counters = delta_b["counters"]
    common.device_layer_metrics(
        result, counters_to_ops(counters), 0, PREFIX_REQUESTS
    )
    depth = delta_b["histograms"].get("resilience.retry_depth", {"sum": 0})
    result.metric(
        "resilience.attempts_per_op", depth["sum"] / PREFIX_REQUESTS, "count"
    )
    ops_done = counters.get("resilience.ops", 0)
    useful = ops_done / depth["sum"] if depth["sum"] else 0.0
    result.metric("resilience.useful_frac", useful, "ratio")
    server_ms, _http_ms = _server_split(delta_a, head_a)
    result.metric("service.server_ms_per_req", server_ms, "ms")
    counters_a = delta_a["counters"]
    result.metric(
        "service.rejected_frac",
        counters_a.get("service.rejected", 0) / PREFIX_REQUESTS, "ratio",
    )
    result.metric(
        "service.retries_per_req",
        counters_a.get("service.retries", 0) / PREFIX_REQUESTS, "count",
    )
    result.metric(
        "trace.overhead_frac",
        common.overhead([s[1] for s in head_a], [s[1] for s in head_b]),
        "ratio",
    )
    for name in ABSENT:
        result.metric(name, 0.0, layers.unit_of(name))
    return result


def counters_to_ops(counters: Dict[str, Any]) -> Dict[str, int]:
    """``device.<op>.count`` counters as a DeviceStats-style op_counts."""
    return {
        name[len("device."):-len(".count")]: value
        for name, value in counters.items()
        if name.startswith("device.") and name.endswith(".count")
    }
