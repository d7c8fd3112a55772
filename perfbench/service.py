"""Client side of the ``service-mixed`` workload.

The server (``server.py``) runs in its own process; load comes from this
process over real sockets with at most ``CONNECTIONS`` requests in flight
(the machine's core count, and never more than two).

* Phase A — open loop at ``PHASE_A_RATE`` requests/s, about half of
  saturation.  Request ``i`` is due at ``start + i / rate``; its latency is
  timed from that due time, so a stall also charges the requests queued
  behind it, and the generator's own lateness is reported.  ``op_ms`` is
  the mean latency, ``service.p99_ms`` the 99th percentile.
* Phase B — closed loop on the same mix: each connection sends its next
  request as soon as the previous one completes; ``service.sat_rps`` is
  the completed requests per second.

Mix (``workloads.SERVICE_MIX``): 20% ``GET /healthz``, 10% ``GET /stats``,
50% fresh top-K-only ``POST /attack`` (new weights/top_k: similarity
combine -> top-k -> report record), 20% re-sent ``/attack`` bodies served
from the stored report.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchenv
from workloads import (
    _phase,
    _quantile,
    check_inputs,
    make_corpus,
    median,
    normalized,
    peak_rss_mb,
    pin_key,
    reference_service_digests,
    report_digest,
    service_schedule,
)

PHASE_A_RATE = 80.0
PHASE_A_SHARE = 0.65
CPUS = sorted(os.sched_getaffinity(0))
CONNECTIONS = max(1, min(2, len(CPUS)))
#: With two or more cores the server runs on one and the load generator on
#: another, so the two processes never trade cores mid-phase and the
#: server's set-up calibrations run on the core its set-ups ran on.
CLIENT_CPU, SERVER_CPU = (CPUS[0], CPUS[1]) if len(CPUS) > 1 else (None, None)
SHED_STATUSES = ("413", "429", "503", "504")
#: Fresh requests whose reference digests the pin file records per seed.
PINNED_FRESH = 50
READY_TIMEOUT_S = 150.0
#: Completions per phase-B rate sample.
RATE_CHUNK = 100

_ROUTES = {
    "healthz": ("GET", "/healthz"),
    "stats": ("GET", "/stats"),
    "fresh": ("POST", "/attack"),
    "stored": ("POST", "/attack"),
}


def _send(port: int, kind: str, body) -> tuple:
    method, path = _ROUTES[kind]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, repr(exc).encode()
    finally:
        conn.close()


def _phase_a(port: int, entries: list, rate: float) -> list:
    """Open loop: ``(kind, body, status, payload, latency_s, late_s)``."""
    records: list = [None] * len(entries)
    cursor = iter(range(len(entries)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            kind, body = entries[i]
            status, payload = _send(port, kind, body)
            records[i] = (kind, body, status, payload, time.perf_counter() - due, sent - due)

    _run_threads(sender)
    return records


def _phase_b(port: int, schedule, seconds: float) -> tuple:
    """Closed loop: records ``(kind, body, status, payload, latency_s)``.

    Also returns the completion rate of each run of ``RATE_CHUNK``
    consecutive completions; their median is ``sat_rps``, which a stall
    of a second or two cannot move.
    """
    records: list = []
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + seconds
    done_at: list = []  # completion times

    def sender():
        while time.perf_counter() < end:
            with lock:
                kind, body = next(schedule)
            sent = time.perf_counter()
            status, payload = _send(port, kind, body)
            done = time.perf_counter()
            with lock:
                records.append((kind, body, status, payload, done - sent))
                done_at.append(done - start)

    _run_threads(sender)
    done_at.sort()
    if len(done_at) <= RATE_CHUNK:
        return records, [len(done_at) / max(done_at[-1], 1e-9)] if done_at else []
    rates = [
        RATE_CHUNK / (done_at[i + RATE_CHUNK] - done_at[i])
        for i in range(0, len(done_at) - RATE_CHUNK, RATE_CHUNK)
    ]
    return records, rates


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class _Server:
    """The server subprocess; always stopped and waited for on exit."""

    def __init__(self, workdir: Path, corpus_path: Path, trace: bool, spans_path) -> None:
        spans = ["--spans", str(spans_path)] if spans_path is not None else []
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).with_name("server.py")),
                "--corpus", str(corpus_path),
                "--state-root", str(workdir / "state"),
                "--trace", str(int(trace)),
                *spans,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=benchenv.child_env(),
            text=True,
        )
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})

    def _line(self, timeout: float) -> dict:
        box: list = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout)
        if not box or not box[0]:
            raise RuntimeError("benchmark server exited or timed out")
        return json.loads(box[0])

    def ready(self) -> dict:
        return self._line(READY_TIMEOUT_S)

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        return self._line(60.0)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def run_service(
    seed: int,
    seconds: float,
    size: str,
    trace: bool,
    pins: dict,
    workdir: Path,
    spans_path=None,
) -> dict:
    from repro.api import AttackReport
    from repro.forum.store import save_dataset

    key = pin_key("service-mixed", size, seed)
    chosen_seed, dataset = make_corpus("service-mixed", size, seed)
    inputs = check_inputs(pins, key, chosen_seed, dataset)
    corpus_path = workdir / "corpus.jsonl"
    save_dataset(dataset, corpus_path)

    schedule = service_schedule(seed)
    seconds_a = seconds * PHASE_A_SHARE
    entries_a = [next(schedule) for _ in range(max(1, round(PHASE_A_RATE * seconds_a)))]

    server = _Server(workdir, corpus_path, trace, spans_path)
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    try:
        ready = server.ready()
        if ready["fingerprint"] != inputs["fingerprint"]:
            raise RuntimeError("server loaded a different corpus")
        port = ready["port"]
        records_a = _phase_a(port, entries_a, PHASE_A_RATE)
        records_b, rates_b = _phase_b(port, schedule, seconds - seconds_a)
        stats_status, stats_body = _send(port, "stats", None)
        final = server.stop()
    finally:
        server.close()
    stats = json.loads(stats_body) if stats_status == 200 else {}
    shed = sum((stats.get("overload") or {}).get("shed", {}).get(s, 0) for s in SHED_STATUSES)

    # correctness, untimed: every /attack answer against an in-process
    # reference (pinned digests for the first fresh requests of a pinned seed)
    bodies = sorted({r[1] for r in records_a + records_b if r[1] is not None})
    expected = reference_service_digests(dataset, bodies)
    pinned_bodies = fresh_bodies(seed, PINNED_FRESH)
    reference_pin = [expected.get(body) for body in pinned_bodies if body in expected]
    pinned = pins.get(key)
    if pinned is not None:
        for body, digest in zip(pinned_bodies, pinned["digests"]):
            expected[body] = digest

    def ok(record) -> bool:
        kind, body, status, payload = record[:4]
        if not 200 <= status < 300:
            return False
        if body is None:
            return True
        try:
            report = AttackReport.from_dict(json.loads(payload))
        except ValueError:
            return False
        return report_digest(report) == expected[body]

    failed_a = sum(not ok(r) for r in records_a)
    failed_b = sum(not ok(r) for r in records_b)
    failed_stats = stats_status != 200 or shed > 0

    latency_a = sorted(r[4] * 1e3 for r in records_a)

    def summary(setups: list) -> dict:
        return {
            # the mix is bimodal (fresh attacks vs cheap requests, half
            # each), so its median sits in the gap between the modes and
            # jumps between them from run to run; the mean does not
            "op_ms": sum(latency_a) / len(latency_a),
            "setup_s": median(setups),
            "peak_rss_mb": final["peak_rss_mb"],
        }

    attempted = len(records_a) + len(records_b) + 1
    result = {
        "attempted": attempted,
        "failed": failed_a + failed_b + int(failed_stats),
        "metrics": summary(normalized(ready["setup_s"], ready["setup_calibration_s"])),
        "raw_metrics": summary(ready["setup_s"]),
        # too noisy on a shared 2-core machine to bound (see README.md)
        "service": {
            "p99_ms": _quantile(latency_a, 0.99),
            "sat_rps": median(rates_b),
        },
        "inputs": {**inputs, "digests": reference_pin, "bodies_checked": len(bodies)},
        "phases": {
            "A": _phase_counts(records_a, failed_a),
            "B": _phase_counts(records_b, failed_b),
        },
        "samples": {
            "setup_s": ready["setup_s"],
            "setup_calibration_s": ready["setup_calibration_s"],
            "phase_b_rates": rates_b,
        },
        "client_peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result["layers"] = {
            **_service_layers(records_a, final, shed),
            "service.p99_ms": result["service"]["p99_ms"],
            "service.sat_rps": result["service"]["sat_rps"],
        }
    return result


def fresh_bodies(seed: int, count: int) -> list:
    """The first ``count`` fresh bodies of the schedule, in order."""
    out: list = []
    for kind, body in service_schedule(seed):
        if kind == "fresh":
            out.append(body)
            if len(out) == count:
                return out
    return out


def _phase_counts(records: list, failed: int) -> dict:
    by_kind: dict = {}
    for record in records:
        by_kind[record[0]] = by_kind.get(record[0], 0) + 1
    return {**_phase(len(records), failed), "by_kind": by_kind}


def _service_layers(records_a: list, final: dict, shed: int) -> dict:
    from workloads import counter_metrics, layer_means

    def route_ms(kind):
        return median([r[4] * 1e3 for r in records_a if r[0] == kind])

    trace = final["trace"]
    summary = {
        "per_op": {int(k): v for k, v in trace["per_op"].items()},
        "traced_ms": trace["traced_ms"],
        "untraced_ms": trace["untraced_ms"],
        "unaccounted_ms": trace["unaccounted_ms"],
    }
    layers = layer_means(summary, trace["traced_ids"])
    requests = max(1, trace["requests"])
    counters = final["counters"]
    pair_fraction, recall = trace.get("blocking") or (0.0, 0.0)
    return {
        **layers,
        **counter_metrics(counters, requests),
        "blocking.pair_fraction": pair_fraction,
        "blocking.true_match_recall": recall,
        "refined.user_ms_p50": 0.0,
        "refined.user_ms_p90": 0.0,
        "refined.users_classified": 0.0,
        "refined.post_matrix_entries": float(final["post_matrix_entries"]),
        "cache.bytes": float(final["cache_bytes"]),
        "service.healthz_ms": route_ms("healthz"),
        "service.stats_ms": route_ms("stats"),
        "service.attack_fresh_ms": route_ms("fresh"),
        "service.attack_stored_ms": route_ms("stored"),
        "service.gen_late_ms": median([r[5] * 1e3 for r in records_a]),
        "service.shed": float(shed),
        "store.statements_per_request": trace["statements"] / requests,
        "store.report_reuse_ratio": counters["report_reuses"] / max(1, counters["attacks"]),
    }
