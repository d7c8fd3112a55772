"""Self-test of the benchmark in its tiny mode (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that every named metric prints with its unit on every workload in
both modes, that the traced run predicts extraction (posts extracted > 0
per ``cold-attack`` op, exactly 0 per ``warm-refined`` and
``service-mixed`` op) and accounts for the whole traced op, that a
tampered pinned digest counts ops as failed and a tampered fingerprint
aborts the run, that self-time arithmetic is right on synthetic nested
spans, and that the benchmark fails without a result when the checkout
has no ``src/``.  The file name keeps it out of the repository's pytest
run; it writes only under ``.perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchenv  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import Span, layer_self_ms  # noqa: E402

SECONDS = "2"
SEED = 3


def _run(*args, cwd=benchenv.ROOT, script=HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _bench(workload: str, trace: int, *extra) -> tuple:
    done = _run(
        "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
        "--trace", str(trace), "--size", "tiny", *extra,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics() -> dict:
    reports = {}
    for workload in WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            report, result = _bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            metrics = result["metrics"]
            assert set(metrics) == {name for name, _ in wanted}, sorted(metrics)
            for name, unit in wanted:
                assert metrics[name]["unit"] == unit, (name, metrics[name])
                assert isinstance(metrics[name]["value"], float)
            if trace:
                posts = metrics["stylometry.posts_extracted"]["value"]
                assert (posts > 0) == (workload == "cold-attack"), (workload, posts)
                assert metrics["trace.unaccounted_ms"]["value"] <= 0.01
            else:
                for name, _ in wanted:
                    assert metrics[name]["value"] > 0, (workload, name)
            assert "cores" in report["env"] and "blas_threads" in report["env"]
            reports[workload] = report
    return reports


def check_pins(reports: dict, scratch: Path) -> None:
    inputs = reports["cold-attack"]["inputs"]
    key = f"cold-attack/tiny/{SEED}"
    pins_path = scratch / "pins.json"
    tampered = dict(inputs, digests=["0" * 16])
    pins_path.write_text(json.dumps({key: tampered}))
    _, result = _bench("cold-attack", 0, "--pins", str(pins_path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1, result

    pins_path.write_text(json.dumps({key: dict(inputs, fingerprint="0" * 16)}))
    done = _run(
        "--workload", "cold-attack", "--seed", str(SEED), "--seconds", SECONDS,
        "--size", "tiny", "--pins", str(pins_path),
    )
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout


def check_self_time() -> None:
    # nested, as one thread produces them: graph 1..6 holds an extraction
    # 2..5; the refined phase 6..9 holds candidate selection 6..6.5 and a
    # per-user span 7..8.5 that holds an extraction 7.5..8
    spans = [
        Span("op", 0.0, 10.0, None, 1, 1),
        Span("graph.build", 1.0, 6.0, 1, 1, 2),
        Span("stylometry.extract", 2.0, 5.0, 2, 1, 3),
        Span("refined.phase", 6.0, 9.0, 1, 1, 4),
        Span("topk.candidates", 6.0, 6.5, 4, 1, 5),
        Span("refined.user", 7.0, 8.5, 4, 1, 6),
        Span("stylometry.extract", 7.5, 8.0, 6, 1, 7),
    ]
    got = {k: round(v, 9) for k, v in layer_self_ms(spans)[1].items()}
    want = {"api": 2000.0, "graph": 2000.0, "stylometry": 3500.0, "topk": 500.0, "refined": 2000.0}
    assert got == want, got
    assert sum(got.values()) == 10000.0
    # overlapping children (two threads) count once; a child reaching past
    # its parent is clipped to it
    spans = [
        Span("op", 0.0, 4.0, None, 2, 10),
        Span("store.execute", 1.0, 3.0, 10, 2, 11),
        Span("store.execute", 2.0, 3.5, 10, 2, 12),
        Span("store.execute", 3.8, 5.0, 10, 2, 13),
    ]
    got = layer_self_ms(spans)[2]
    assert abs(got["api"] - 1300.0) < 1e-6, got


def check_missing_source(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run(
        "--workload", "cold-attack", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=bare, script=bare / "perfbench" / "run.py",
    )
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout


def main() -> int:
    out = benchenv.ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        check_self_time()
        reports = check_metrics()
        check_pins(reports, scratch)
        check_missing_source(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
