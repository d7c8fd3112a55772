"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-attack --seed 1 --seconds 20 --trace 0

Workloads: ``cold-attack``, ``warm-refined``, ``service-mixed`` (see
``workloads.py`` and ``service.py``).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs the same workload with span tracing and
prints the per-layer metrics.  ``--size tiny`` shrinks every corpus for
the self-test (``selftest.py``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the inputs (corpus fingerprint, sizes, report
digests) and the per-phase counts.  Exits non-zero without a result when
the checkout has no ``src/repro``, or when the generated corpus differs
from the one pinned for the seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchenv  # noqa: E402  (pins BLAS threads before numpy loads)

#: The workloads and metrics declared in ``BENCHMARK.json``.
_DECLARED = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
#: (name, unit) of every metric printed with ``--trace 0``.
END_TO_END = tuple((m["name"], m["unit"]) for m in _DECLARED["end_to_end"])
#: (name, unit) of every metric printed with ``--trace 1``.  A layer a
#: workload never calls reads 0 there.
PER_LAYER = tuple((m["name"], m["unit"]) for m in _DECLARED["per_layer"])

#: Traced ops must be fully accounted for by layer self times.
MAX_UNACCOUNTED_MS = 0.01


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--pins", type=Path, help="pin file (default: perfbench/pins.json)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args) -> dict:
    """Run one workload; returns the full record (result + report)."""
    import workloads

    pins = workloads.load_pins(args.pins)
    out_dir = benchenv.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    spans_path = out_dir / f"spans-{args.workload}-{args.size}-{args.seed}.jsonl"
    try:
        if args.workload == "service-mixed":
            from service import PHASE_A_RATE, run_service

            record = run_service(
                args.seed, args.seconds, args.size, bool(args.trace), pins,
                workdir, spans_path if args.trace else None,
            )
            extra = {"phase_a_rate_rps": PHASE_A_RATE}
        else:
            record = workloads.run_single_caller(
                args.workload, args.seed, args.seconds, args.size,
                bool(args.trace), pins, spans_path if args.trace else None,
            )
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = benchenv.describe(args.seed, args.workload, extra)
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The last output line: every metric of the mode, by name, with unit."""
    wanted = PER_LAYER if trace else END_TO_END
    values = record["layers"] if trace else record["metrics"]
    missing = [name for name, _ in wanted if name not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    correct = record["failed"] == 0
    if trace:
        correct = correct and values["trace.unaccounted_ms"] <= MAX_UNACCOUNTED_MS
    return {
        "correct": bool(correct),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in wanted
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchenv.setup()
    except benchenv.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    try:
        record = run(args)
    except workloads.PinMismatch as exc:
        print(f"perfbench: input pin mismatch, aborting: {exc}", file=sys.stderr)
        return 3
    result = result_line(record, bool(args.trace))
    report = {k: v for k, v in record.items() if k not in ("metrics", "layers")}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
