"""Regenerate ``pins.json``: the pinned inputs and report digests per seed.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 0-20

For each workload and seed it records the corpus seed, the corpus
fingerprint, user and post counts, and the digest of the
``canonical_report_json`` of each request (for ``service-mixed``, of the
first fresh requests of the schedule), computed in-process.  A benchmark
run on a pinned seed aborts if its corpus differs from the pin and counts
every op whose report digest differs as failed.  Rewrite the pins only
when a change is meant to alter the corpus or the reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchenv  # noqa: E402  (pins BLAS threads before numpy loads)


def _seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def pin(workload: str, size: str, seed: int) -> dict:
    import workloads
    from service import PINNED_FRESH, fresh_bodies

    chosen, dataset = workloads.make_corpus(workload, size, seed)
    entry = workloads.check_inputs({}, "", chosen, dataset)
    if workload == "service-mixed":
        bodies = fresh_bodies(seed, PINNED_FRESH)
        expected = workloads.reference_service_digests(dataset, bodies)
        entry["digests"] = [expected[body] for body in bodies]
    else:
        engine = workloads.fresh_engine(dataset)
        entry["digests"] = [
            workloads.report_digest(engine.attack(request))
            for request in workloads.attack_requests(workload)
        ]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    benchenv.setup()
    import workloads

    pins = workloads.load_pins()
    for workload in ("cold-attack", "warm-refined", "service-mixed"):
        for seed in _seeds(args.seeds):
            key = workloads.pin_key(workload, args.size, seed)
            pins[key] = pin(workload, args.size, seed)
            print(key, pins[key]["fingerprint"], file=sys.stderr)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
