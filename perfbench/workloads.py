"""The three benchmark workloads and their seeded inputs.

* ``cold-attack`` — one caller, closed loop.  Each op builds a fresh
  ``Engine``, registers the corpus and runs one refined attack, so feature
  extraction, UDA-graph construction and blocking run inside every op.
* ``warm-refined`` — one caller, closed loop over a fitted engine.  Each
  op is one refined SMO attack whose graphs, similarities and post
  matrices are cache hits, isolating ``core.refined`` + ``ml.svm_smo``.
* ``service-mixed`` — the JSON service in its own process over a real
  socket (see ``server.py``), driven by :func:`service_schedule` with an
  open-loop phase A and a closed-loop phase B (see ``service.py``).

Inputs are ``repro.datagen`` WebMD-like corpora made from the workload
seed, always outside timed regions.  Every report is reduced to a digest
of its ``canonical_report_json`` and checked against the pinned digest
(``pins.json``) or, for a seed without a pin, the reference run's digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import benchenv

PINS_PATH = Path(__file__).with_name("pins.json")

#: Corpus users per workload and size.  ``tiny`` is the self-test size.
USERS = {
    "full": {"cold-attack": 600, "warm-refined": 200, "service-mixed": 600},
    "tiny": {"cold-attack": 60, "warm-refined": 40, "service-mixed": 60},
}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = {"cold-attack": 25, "warm-refined": 3, "service-mixed": 3}

CORPUS = "bench"


class PinMismatch(RuntimeError):
    """The generated corpus is not the one pinned for this seed."""


#: Largest posts per user in each workload's corpus.  The WebMD preset
#: draws post budgets from a truncated Zipf law (exponent 2, up to 400
#: posts); ``warm-refined`` truncates the tail at 64 because one SMO fit
#: costs about the square of its candidates' posts, so a single 200-post
#: author made that workload's op time differ 1.8x between seeds.
MAX_POSTS = {"cold-attack": 400, "warm-refined": 64, "service-mixed": 400}

#: Typical (median over corpus seeds) statistics of the per-user post
#: budgets, with their relative tolerance, per (users, max posts).  A
#: workload seed maps to the first corpus seed whose budgets are typical,
#: so every seed does about the same amount of work on different content:
#: extraction scales with the total, an SMO fit with the square of its
#: candidates' posts.
TYPICAL_BUDGET = {
    (600, 400): {"total": (2380, 0.015), "largest": (232, 0.15)},
    (200, 64): {"total": (578, 0.015), "sum_sq": (7100, 0.05)},
}
_BUDGET_STATS = {
    "total": sum,
    "largest": max,
    "sum_sq": lambda budgets: sum(b * b for b in budgets),
}
SEEDS_PER_WORKLOAD_SEED = 10_000


def _post_budgets(users: int, max_posts: int, corpus_seed: int) -> list:
    """Per-user post budgets the WebMD preset will draw for ``corpus_seed``.

    Mirrors the generator's first use of its structure stream (names,
    styles and text use other streams), which is cheap: no text is made.
    """
    import numpy as np

    from repro.utils.rng import spawn_rngs
    from repro.utils.stats import truncated_zipf_pmf

    structure = spawn_rngs(corpus_seed, 4)[2]
    support = np.arange(1, max_posts + 1, dtype=int)
    pmf = truncated_zipf_pmf(len(support), 2.0)
    return [int(structure.choice(support, p=pmf)) for _ in range(users)]


def corpus_seed(users: int, max_posts: int, seed: int) -> int:
    """The corpus seed a workload seed maps to (see ``TYPICAL_BUDGET``)."""
    typical = TYPICAL_BUDGET.get((users, max_posts))
    if typical is None:
        return seed
    first = seed * SEEDS_PER_WORKLOAD_SEED
    for candidate in range(first, first + SEEDS_PER_WORKLOAD_SEED):
        budgets = _post_budgets(users, max_posts, candidate)
        if all(
            abs(_BUDGET_STATS[name](budgets) - value) <= tolerance * value
            for name, (value, tolerance) in typical.items()
        ):
            return candidate
    raise RuntimeError(f"no typical corpus seed for seed {seed}")


def make_corpus(workload: str, size: str, seed: int) -> tuple:
    """``(corpus seed, dataset)`` of a workload seed."""
    from repro.datagen import webmd_like

    users = USERS[size][workload]
    max_posts = MAX_POSTS[workload]
    chosen = corpus_seed(users, max_posts, seed)
    dataset = webmd_like(n_users=users, seed=chosen, max_posts_per_user=max_posts)
    return chosen, dataset.dataset


def report_digest(report) -> str:
    from repro.api import canonical_report_json

    return hashlib.sha256(canonical_report_json([report]).encode()).hexdigest()[:16]


def load_pins(path: "Path | None" = None) -> dict:
    path = path or PINS_PATH
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def pin_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def check_inputs(pins: dict, key: str, chosen_seed: int, dataset) -> dict:
    """Record the corpus identity; abort if it differs from the pin."""
    from repro.api import dataset_fingerprint

    inputs = {
        "corpus_seed": chosen_seed,
        "fingerprint": dataset_fingerprint(dataset),
        "users": dataset.n_users,
        "posts": dataset.n_posts,
    }
    pinned = pins.get(key)
    if pinned is not None:
        for field in inputs:
            if pinned[field] != inputs[field]:
                raise PinMismatch(
                    f"{key}: {field} {inputs[field]!r} != pinned {pinned[field]!r}"
                )
    return inputs


def expected_digests(pins: dict, key: str, reference: list) -> list:
    """Pinned per-request digests when the seed is pinned, else ``reference``."""
    pinned = pins.get(key)
    if pinned is None:
        return list(reference)
    return list(pinned["digests"])


def normalized(samples: list, calibrations: list) -> list:
    """Speed-normalized samples; ``samples[i]`` ran between calibrations
    ``i`` and ``i + 1`` (see :mod:`benchenv`)."""
    return [
        benchenv.normalize(value, (calibrations[i] + calibrations[i + 1]) / 2)
        for i, value in enumerate(samples)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# --- single-caller workloads -------------------------------------------------


def attack_requests(workload: str) -> list:
    from repro.api import AttackRequest

    if workload == "cold-attack":
        return [
            AttackRequest(
                corpus=CORPUS, blocking="lsh", classifier="centroid", refined=True
            )
        ]
    return [
        AttackRequest(corpus=CORPUS, classifier="smo", top_k=5, selection=selection)
        for selection in ("direct", "matching")
    ]


def fresh_engine(dataset):
    from repro.api import Engine

    engine = Engine()
    engine.register(CORPUS, dataset)
    return engine


def run_single_caller(
    workload: str,
    seed: int,
    seconds: float,
    size: str,
    trace: bool,
    pins: dict,
    spans_path=None,
) -> dict:
    """Drive ``cold-attack`` or ``warm-refined`` for ``seconds``."""
    cold = workload == "cold-attack"
    key = pin_key(workload, size, seed)
    # one core for the ops and the calibrations next to them
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    chosen_seed, dataset = make_corpus(workload, size, seed)
    inputs = check_inputs(pins, key, chosen_seed, dataset)
    requests = attack_requests(workload)

    # set-up: construction + registration (+ fit and one warm-up op on the
    # warm workload), repeated; the last engine serves the warm ops
    setups = []
    setup_calibrations = []
    reference = []
    engine = None
    for _ in range(SETUP_REPEATS[workload]):
        engine = None
        gc.collect()
        setup_calibrations.append(benchenv.calibrate())
        started = time.perf_counter()
        engine = fresh_engine(dataset)
        if not cold:
            first = engine.attack(requests[0])
        setups.append(time.perf_counter() - started)
        if not cold:
            reference = [report_digest(first)]
    setup_calibrations.append(benchenv.calibrate())
    # untimed warm-up: the remaining requests (warm) or one whole op (cold)
    if cold:
        reference = [report_digest(fresh_engine(dataset).attack(requests[0]))]
    else:
        reference += [report_digest(engine.attack(r)) for r in requests[1:]]
    expected = expected_digests(pins, key, reference)

    tracer = instrumentation = None
    if trace:
        from tracing import Instrumentation, Tracer

        tracer = Tracer()
        instrumentation = Instrumentation(tracer).__enter__()
    op_ms: list = []
    calibrations: list = []
    failed = 0
    layers = _LayerCounters()
    started = time.perf_counter()
    i = 0
    try:
        while time.perf_counter() - started < seconds or i < 2:
            which = i % len(requests)
            if cold:
                engine = None  # free the previous op's engine untimed
            gc.collect()
            calibrations.append(benchenv.calibrate())
            traced = trace and i % 2 == 0
            before = engine_counters(engine) if trace and not cold else None
            with tracer.op(traced=traced) if trace else nullcontext():
                t0 = time.perf_counter()
                if cold:
                    engine = fresh_engine(dataset)
                report = engine.attack(requests[which])
                op_ms.append((time.perf_counter() - t0) * 1e3)
            failed += report_digest(report) != expected[which]
            if trace:
                layers.after_op(engine, before, instrumentation, requests[which])
            i += 1
    finally:
        if instrumentation is not None:
            instrumentation.__exit__(None, None, None)
    calibrations.append(benchenv.calibrate())

    def summary(ops: list, setup: list) -> dict:
        return {
            "op_ms": median(ops),
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }

    result = {
        "attempted": len(op_ms),
        "failed": failed,
        "metrics": summary(
            normalized(op_ms, calibrations), normalized(setups, setup_calibrations)
        ),
        "raw_metrics": summary(op_ms, setups),
        "inputs": {**inputs, "digests": reference},
        "phases": {"ops": _phase(len(op_ms), failed)},
        "samples": {
            "setup_s": setups,
            "op_ms": op_ms,
            "setup_calibration_s": setup_calibrations,
            "calibration_s": calibrations,
        },
    }
    if trace:
        if spans_path is not None:
            from tracing import write_spans

            write_spans(tracer, spans_path)
        result["layers"] = {**NOT_CALLED_BY_SINGLE_CALLER, **layers.finish(tracer)}
    return result


#: Per-layer metrics of the service and store layers, which the
#: single-caller workloads never call.
NOT_CALLED_BY_SINGLE_CALLER = {
    name: 0.0
    for name in (
        "service.p99_ms",
        "service.sat_rps",
        "service.healthz_ms",
        "service.stats_ms",
        "service.attack_fresh_ms",
        "service.attack_stored_ms",
        "service.gen_late_ms",
        "service.shed",
        "store.statements_per_request",
        "store.ms_per_request",
        "store.report_reuse_ratio",
    )
}


def _phase(attempted: int, failed: int) -> dict:
    return {"attempted": attempted, "succeeded": attempted - failed, "failed": failed}


def engine_counters(engine) -> dict:
    """The ``Engine.stats()`` counters the per-layer metrics are deltas of."""
    stats = engine.stats()
    sessions = stats["sessions"]
    extraction = stats["extraction"]
    return {
        "posts_extracted": extraction["builds"],
        "extract_hits": extraction["hits"],
        "extract_lookups": extraction["hits"] + extraction["misses"],
        "attacks": stats["attacks"],
        "report_reuses": stats["report_reuses"],
        "session_hits": stats["session_hits"],
        "graph_builds": sum(s["graph_builds"] for s in sessions),
        "similarity_builds": sum(sum(s["similarity_builds"].values()) for s in sessions),
        "similarity_hits": sum(sum(s["similarity_hits"].values()) for s in sessions),
    }


def cache_footprint(engine) -> dict:
    """Bytes held by the engine's caches and its cached post matrices."""
    stats = engine.stats()
    sessions = stats["sessions"]
    return {
        "cache_bytes": stats["cache_bytes"]
        + stats["post_matrix_bytes"]
        + stats["extraction"]["bytes"],
        "post_matrix_entries": sum(s["post_matrix_entries"] for s in sessions),
    }


class _LayerCounters:
    """Per-op counters of the traced single-caller run."""

    def __init__(self) -> None:
        self.deltas: list = []
        self.footprints: list = []
        self.blocking = None

    def after_op(self, engine, before: "dict | None", instrumentation, request) -> None:
        after = engine_counters(engine)
        self.deltas.append({k: v - (before or {}).get(k, 0) for k, v in after.items()})
        self.footprints.append(cache_footprint(engine))
        if request.blocking == "none":
            self.blocking = (1.0, 1.0)  # dense scoring keeps every pair
        elif instrumentation.last_mask is not None and self.blocking is None:
            from tracing import true_match_recall

            # session_for after the counter snapshot: its hit is not counted
            truth = engine.session_for(request).split.truth.mapping
            self.blocking = true_match_recall(instrumentation.last_mask, truth)

    def finish(self, tracer) -> dict:
        summary = tracer.summary()
        traced_ids = [op[0] for op in tracer.ops if op[1]]
        users = [
            sum(1 for s in tracer.spans if s.op == op_id and s.name == "refined.user")
            for op_id in traced_ids
        ]
        user_ms = [
            (s.end - s.start) * 1e3 for s in tracer.spans if s.name == "refined.user"
        ]
        pair_fraction, recall = self.blocking or (0.0, 0.0)
        total = {k: sum(d[k] for d in self.deltas) for k in self.deltas[0]}
        return {
            **layer_means(summary, traced_ids),
            **counter_metrics(total, len(self.deltas)),
            "blocking.pair_fraction": pair_fraction,
            "blocking.true_match_recall": recall,
            "refined.user_ms_p50": _quantile(user_ms, 0.5),
            "refined.user_ms_p90": _quantile(user_ms, 0.9),
            "refined.users_classified": _mean(users),
            "refined.post_matrix_entries": _mean(
                [f["post_matrix_entries"] for f in self.footprints]
            ),
            "cache.bytes": _mean([f["cache_bytes"] for f in self.footprints]),
        }


def counter_metrics(total: dict, ops: int) -> dict:
    """Per-op counts and hit ratios from summed :func:`engine_counters` deltas."""
    ops = max(1, ops)
    return {
        "stylometry.posts_extracted": total["posts_extracted"] / ops,
        "stylometry.cache_hit_ratio": _ratio(
            total["extract_hits"], total["extract_lookups"]
        ),
        "similarity.cache_hit_ratio": _ratio(
            total["similarity_hits"],
            total["similarity_hits"] + total["similarity_builds"],
        ),
        "api.session_hits": total["session_hits"] / ops,
        "api.graph_builds": total["graph_builds"] / ops,
    }


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


#: Span layer -> per-layer metric name.
LAYER_METRICS = {
    "stylometry": "stylometry.extract_ms",
    "graph": "graph.build_ms",
    "blocking": "blocking.mask_ms",
    "similarity": "similarity.scores_ms",
    "topk": "topk.ms",
    "refined": "refined.ms",
    "store": "store.ms_per_request",
    "api": "api.overhead_ms",
}


def layer_means(summary: dict, op_ids) -> dict:
    """Mean self time per traced op of every layer, plus the overhead check."""
    per_op = summary["per_op"]
    out = {name: 0.0 for name in LAYER_METRICS.values()}
    for op_id in op_ids:
        for layer, ms in per_op.get(op_id, {}).items():
            out[LAYER_METRICS[layer]] += ms / len(op_ids)
    out["trace.traced_op_ms"] = median(summary["traced_ms"])
    out["trace.untraced_op_ms"] = median(summary["untraced_ms"])
    out["trace.mean_op_ms"] = _mean(summary["traced_ms"])
    out["trace.unaccounted_ms"] = summary["unaccounted_ms"]
    return out


# --- service schedule ----------------------------------------------------------

#: Request mix of ``service-mixed``: (kind, share).
SERVICE_MIX = (("healthz", 0.2), ("stats", 0.1), ("fresh", 0.5), ("stored", 0.2))
#: A stored request re-sends a fresh one issued at least this many requests
#: earlier; with at most two connections in flight it has long completed.
STORED_LAG = 25
WEIGHT_POOL = 64
TOPK_RANGE = 64


def base_service_request() -> dict:
    """The top-K-only request the server fits at set-up (default weights)."""
    return {"corpus": CORPUS, "blocking": "lsh", "refined": False}


def service_schedule(seed: int):
    """Endless deterministic request sequence: ``(kind, body or None)``.

    Fresh attacks walk a seeded permutation of (weights, top_k) pairs, so
    no fresh request repeats; weights come from a pool of 64 so the
    server's combined-similarity cache stays bounded.  Stored requests
    re-send an earlier fresh body byte for byte.
    """
    rng = random.Random(f"service-mixed:{seed}")
    pool = []
    for _ in range(WEIGHT_POOL):
        a = round(rng.uniform(0.0, 0.3), 4)
        b = round(rng.uniform(0.0, 0.3), 4)
        pool.append([a, b, round(1.0 - a - b, 4)])
    combos = [(w, k) for w in range(WEIGHT_POOL) for k in range(1, TOPK_RANGE + 1)]
    rng.shuffle(combos)
    fresh_sent: list = []  # (position, body)
    cuts = []
    total = 0.0
    for kind, share in SERVICE_MIX:
        total += share
        cuts.append((total, kind))
    position = 0
    while True:
        draw = rng.random()
        kind = next(k for cut, k in cuts if draw < cut)
        if kind == "stored":
            eligible = [body for pos, body in fresh_sent if pos <= position - STORED_LAG]
            kind = "stored" if eligible else "fresh"
        if kind == "stored":
            yield "stored", eligible[rng.randrange(len(eligible))]
        elif kind == "fresh":
            if len(fresh_sent) == len(combos):
                raise RuntimeError("service schedule ran out of fresh requests")
            w, k = combos[len(fresh_sent)]
            body = json.dumps(
                {**base_service_request(), "weights": pool[w], "top_k": k},
                sort_keys=True,
            ).encode()
            fresh_sent.append((position, body))
            yield "fresh", body
        else:
            yield kind, None
        position += 1


def reference_service_digests(dataset, bodies) -> dict:
    """In-process digests of the given ``/attack`` bodies (no store, no HTTP)."""
    from repro.api import AttackRequest

    engine = fresh_engine(dataset)
    engine.attack(AttackRequest.from_dict(base_service_request()))
    return {
        body: report_digest(engine.attack(AttackRequest.from_dict(json.loads(body))))
        for body in bodies
    }
