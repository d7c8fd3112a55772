"""Server process of the ``service-mixed`` workload.

Run by ``service.py``; not a user entry point::

    python3 perfbench/server.py --corpus C.jsonl --state-root DIR --trace 0

Loads the corpus (untimed), then sets the service up
``SETUP_REPEATS["service-mixed"]`` times —
file-backed ``StateStore`` in a fresh state directory, ``Engine`` over it,
corpus registration, ``create_app`` + ``make_service_server`` and the fit
through one warm-up attack — and keeps the last one.  It prints one JSON
line ``{"port", "setup_s", "setup_calibration_s", "fingerprint"}`` and
serves until a line
arrives on stdin (or stdin closes); then it prints one JSON line with its
peak RSS, the engine's counters and, with ``--trace 1``, the per-request
trace summary, and exits.  The per-request access log goes to stderr,
which the caller sends to ``/dev/null``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchenv  # noqa: E402  (pins BLAS threads before numpy loads)

benchenv.setup()


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _traced_app(app, tracer):
    """WSGI middleware: one op per request, every other request traced.

    Alternating lets the traced and untraced request durations be compared
    in one process.  The op closes after the response body is produced,
    which wsgiref does before it writes a byte.
    """
    turn = iter(range(1 << 62))
    lock = threading.Lock()

    def middleware(environ, start_response):
        with lock:
            traced = next(turn) % 2 == 0
        label = f"{environ.get('REQUEST_METHOD')} {environ.get('PATH_INFO')}"
        with tracer.op(traced=traced, label=label):
            return list(app(environ, start_response))

    return middleware


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--state-root", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: write the spans here")
    args = parser.parse_args()

    from repro.api import AttackRequest, Engine, dataset_fingerprint
    from repro.forum.store import load_dataset
    from repro.service import create_app, make_service_server
    from repro.store import StateStore

    from workloads import (
        CORPUS,
        SETUP_REPEATS,
        base_service_request,
        cache_footprint,
        engine_counters,
        peak_rss_mb,
    )

    dataset = load_dataset(args.corpus)
    base = AttackRequest.from_dict(base_service_request())
    tracer = None
    make_store = StateStore
    if args.trace:
        from tracing import Instrumentation, Tracer, timed_state_store_class

        tracer = Tracer()
        make_store = functools.partial(timed_state_store_class(), tracer=tracer)

    setups = []
    calibrations = []
    app = httpd = None
    for i in range(SETUP_REPEATS["service-mixed"]):
        if httpd is not None:
            httpd.server_close()
            app.close(drain_s=0)
        app = httpd = None
        gc.collect()
        calibrations.append(benchenv.calibrate())
        started = time.perf_counter()
        state = make_store(Path(args.state_root) / f"setup-{i}" / "dehealth.sqlite3")
        engine = Engine(store=state)
        engine.register(CORPUS, dataset)
        app = create_app(engine)
        httpd = make_service_server(app=app, port=0)
        engine.attack(base)
        setups.append(time.perf_counter() - started)
    calibrations.append(benchenv.calibrate())
    if tracer is not None:
        httpd.set_app(_traced_app(app, tracer))
        instrumentation = Instrumentation(tracer).__enter__()
    before = engine_counters(app.engine)

    serving = threading.Thread(target=httpd.serve_forever, daemon=True)
    serving.start()
    _emit(
        {
            "port": httpd.server_address[1],
            "setup_s": setups,
            "setup_calibration_s": calibrations,
            "fingerprint": dataset_fingerprint(dataset),
        }
    )
    sys.stdin.readline()
    httpd.shutdown()
    serving.join(timeout=30)
    httpd.server_close()

    after = engine_counters(app.engine)
    final = {
        "counters": {key: after[key] - before[key] for key in after},
        "peak_rss_mb": peak_rss_mb(),
        **cache_footprint(app.engine),
    }
    if tracer is not None:
        from tracing import true_match_recall, write_spans

        instrumentation.__exit__(None, None, None)
        if args.spans:
            write_spans(tracer, args.spans)
        summary = tracer.summary()
        traced_ids = [op[0] for op in tracer.ops if op[1]]
        all_ids = [op[0] for op in tracer.ops]
        final["trace"] = {
            "per_op": {str(k): v for k, v in summary["per_op"].items()},
            "traced_ids": traced_ids,
            "traced_ms": summary["traced_ms"],
            "untraced_ms": summary["untraced_ms"],
            "unaccounted_ms": summary["unaccounted_ms"],
            "statements": sum(tracer.op_counts("store.statements", all_ids)),
            "requests": len(all_ids),
        }
        if instrumentation.last_mask is not None:
            truth = app.engine.session_for(base).split.truth.mapping
            final["trace"]["blocking"] = true_match_recall(
                instrumentation.last_mask, truth
            )
    app.close(drain_s=0)
    _emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
