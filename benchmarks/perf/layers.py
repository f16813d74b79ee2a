"""The traced run: where each workload's time goes, layer by layer.

Tracing is never on while the end-to-end numbers are taken.  This
separate run replays the first part of the same seeded inputs
**serially, from outside**, up ladders of public entry points and reads
the program's own counters at the same boundaries:

* request ladder — ``engine`` → ``query`` → ``serving.service`` →
  ``serving.cluster`` / ``serving.shards``;
* commit ladder — the same batches onto fresh networks with,
  cumulatively, nothing attached (``networks``), warm served paths
  (``engine``), watches (``watch``), a sharded service
  (``serving.shards``), a replicated cluster (``serving.cluster``);
* ingest ladder — parse alone → bare ingest → ingest with a warm engine
  and watches.

A metric whose layer is not on a workload's path reads 0 there.
"""

from __future__ import annotations

import statistics
import threading
import time
from itertools import islice
from pathlib import Path

from repro.ingest import StreamIngestor, iter_dblp_records
from repro.networks.stats import type_row_weights
from repro.serving import ClusterService, load_snapshot, save_snapshot
from repro.serving.shm import attach_generation, publish_generation

from . import harness, oracle
from .harness import (
    DEEP_PATHS,
    HOT_PATHS,
    REQUEST_TIMEOUT_S,
    WATCH_PATHS,
    closed_loop,
    percentile,
    query_service,
    sharded_service,
    submit_to,
)
from .trace import Tracer, ladder_self_times

# (name, unit, better) — BENCHMARK.json's ``per_layer`` list, in order.
PER_LAYER = [
    ("engine.busy_s", "s", "lower"),
    ("engine.share", "ratio", "lower"),
    ("engine.topk_p50_ms", "ms", "lower"),
    ("engine.first_touch_p50_ms", "ms", "lower"),
    ("engine.materialize_s", "s", "lower"),
    ("engine.kernel_fused", "count", "lower"),
    ("engine.kernel_materialize", "count", "lower"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("engine.cache_evictions", "count", "lower"),
    ("engine.planner_plan_p50_ms", "ms", "lower"),
    ("engine.planner_seeded_spans", "count", "higher"),
    ("engine.maintain_p50_ms", "ms", "lower"),
    ("query.self_s", "s", "lower"),
    ("query.share", "ratio", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.share", "ratio", "lower"),
    ("service.coalesce_ratio", "ratio", "higher"),
    ("service.mean_batch", "count", "higher"),
    ("service.largest_batch", "count", "higher"),
    ("service.wait_share", "ratio", "lower"),
    ("service.capacity_qps", "ops/s", "higher"),
    ("cluster.capacity_qps", "ops/s", "higher"),
    ("shards.capacity_qps", "ops/s", "higher"),
    ("cluster.self_s", "s", "lower"),
    ("shards.self_s", "s", "lower"),
    ("shards.share", "ratio", "lower"),
    ("shards.scatters", "count", "higher"),
    ("shards.fallbacks", "count", "lower"),
    ("shards.balance", "ratio", "lower"),
    ("shards.republish_p50_ms", "ms", "lower"),
    ("shards.republished_ratio", "ratio", "lower"),
    ("cluster.republish_p50_ms", "ms", "lower"),
    ("cluster.worker_rss_mb", "MiB", "lower"),
    ("cluster.payload_mb", "MiB", "lower"),
    ("shards.worker_rss_mb", "MiB", "lower"),
    ("shards.payload_mb", "MiB", "lower"),
    ("cluster.start_s", "s", "lower"),
    ("shards.start_s", "s", "lower"),
    ("shm.publish_p50_ms", "ms", "lower"),
    ("shm.attach_p50_ms", "ms", "lower"),
    ("shm.leaked_segments", "count", "lower"),
    ("snapshot.save_s", "s", "lower"),
    ("snapshot.load_mmap_s", "s", "lower"),
    ("snapshot.mb", "MiB", "lower"),
    ("networks.commit_p50_ms", "ms", "lower"),
    ("networks.commit_share", "ratio", "lower"),
    ("watch.register_p50_ms", "ms", "lower"),
    ("watch.maintain_p50_ms", "ms", "lower"),
    ("watch.incremental_ratio", "ratio", "higher"),
    ("watch.pushes", "count", "higher"),
    ("ingest.parse_rps", "records/s", "higher"),
    ("ingest.parse_share", "ratio", "lower"),
    ("ingest.commit_share", "ratio", "lower"),
    ("ingest.skipped", "count", "lower"),
    ("ingest.epochs", "count", "lower"),
    ("locks.read_slowdown", "ratio", "lower"),
    ("client.similar_p95_ms", "ms", "lower"),
    ("client.similar_p99_ms", "ms", "lower"),
    ("client.commit_p95_ms", "ms", "lower"),
    ("client.open_p50_ms", "ms", "lower"),
    ("client.open_p95_ms", "ms", "lower"),
    ("client.late_p95_ms", "ms", "lower"),
    ("client.backlog_max", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("datasets.generate_s", "s", "lower"),
    # user-visible numbers that could not be end-to-end metrics (README,
    # "What was demoted"): too unsteady to bound, or one workload's only
    ("restart_s", "s", "lower"),
    ("connected_p50_ms", "ms", "lower"),
    ("rank_p50_ms", "ms", "lower"),
    ("ingest_rps", "records/s", "higher"),
]

OPEN_LOOP_RATE = 500.0
LADDER_SHARE = 0.2  # of the workload's op list
WARM_OPS = 40  # untimed ops that equalise cache state before a rung
COMMIT_LADDER = 30  # batches per commit-ladder rung


class Traced:
    """Accumulates one traced run's metrics, spans and failure counts."""

    def __init__(self, workload):
        self.workload = workload
        self.ctx = workload.ctx
        self.tracer = Tracer()
        self.metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
        self.attempted = 0
        self.failed = 0

    def put(self, values: dict) -> None:
        for name, value in values.items():
            if name not in self.metrics:  # a typo must not add a metric
                raise KeyError(name)
            self.metrics[name] = float(value)

    # ------------------------------------------------------------------
    # request ladder
    # ------------------------------------------------------------------
    def replay(self, name, parent, open_rung, ops, warm=()):
        """One serial pass of *ops*, one span each, through the ``call``
        that ``open_rung() -> (call, close)`` provides.  Returns ``(total
        ns, spans, answers)``; the caller decides which pass's spans stay."""
        call, close = open_rung()
        tracer, answers = Tracer(), []
        try:
            for op in warm:
                call(op)
            for request, op in enumerate(ops):
                try:
                    answers.append(
                        tracer.call(name, request, lambda: call(op), parent)
                    )
                except Exception:
                    answers.append(None)
                    self.failed += 1
        finally:
            close()
        self.attempted += len(ops)
        total = sum(end - start for _n, start, end, _p, _r in tracer.spans)
        return total, tracer.spans, answers

    def agree(self, reference, answers) -> None:
        """Every rung must give the same answers (a rung's own errors
        are already counted where they happened)."""
        self.failed += sum(
            a is not None and b is not None and list(a) != list(b)
            for a, b in zip(reference, answers)
        )

    def request_ladder(self, ops, make_network, *, cold=False, tiers=()):
        """engine → query → serving.service (→ *tiers*) over *ops*.

        ``make_network()`` returns a network in the workload's start
        state.  A warm ladder shares one network and equalises cache
        state with a warm-up pass before each rung.  A cold ladder takes
        a fresh network per pass (the engine's hot-path counters survive
        ``clear_cache()``) and makes every pass twice.  The service rung
        also runs without spans, before and after: the difference is what
        tracing costs.
        """
        warm = () if cold else ops[:WARM_OPS]
        shared = None if cold else make_network()
        probe = {}  # the engine rung's latest engine and its counters before

        def network():
            return make_network() if cold else shared

        def nothing():
            return None

        def open_engine():
            # (one slot, overwritten: a deep engine holds ~1 GiB of products)
            engine = probe["engine"] = network().engine()
            probe["cache"] = engine.cache_info()
            probe["kernels"] = dict(engine.planner_info()["kernels"])

            def call(op):
                verb, obj, path, k = op
                if verb == "similar":
                    return engine.pathsim_top_k(path, obj, k)
                if verb == "connected":
                    return engine.top_k_connectivity(path, obj, k)
                return None  # rank lives in the session; the engine adds nothing

            return call, nothing

        def open_query():
            session = network().query()
            return (lambda op: oracle.answer(session, op)), nothing

        def open_tier(build):
            def open_rung():
                tier = build(network())
                submit = submit_to(tier)
                return (lambda op: submit(op).result(REQUEST_TIMEOUT_S)), tier.close

            return open_rung

        def untraced_service():
            call, close = open_tier(query_service)()
            try:
                for op in warm:
                    call(op)
                start = time.perf_counter()
                for op in ops:
                    call(op)
                return time.perf_counter() - start
            finally:
                close()

        # In a cold ladder the first pass also pays the process's own
        # first-use costs (page faults, allocator growth): not counted.
        first = untraced_service()
        untraced = [] if cold else [first]

        # A cold ladder sweeps the rungs up and then down again and keeps
        # each rung's faster pass: other tenants only ever slow a pass, and
        # so does coming first (the allocator is still growing).
        core = [
            ("engine", "query", open_engine),
            ("query", "serving.service", open_query),
            ("serving.service", None, open_tier(query_service)),
        ]
        best: dict[str, tuple] = {}
        for name, parent, open_rung in core + (core[::-1] if cold else []):
            done = self.replay(name, parent, open_rung, ops, warm)
            if name not in best or done[0] < best[name][0]:
                best[name] = done
            if name == "engine":
                engine, cache0 = probe.pop("engine"), probe.pop("cache")
                kernels0, kernels1 = probe.pop("kernels"), engine.planner_info()["kernels"]
                cache1 = engine.cache_info()
                lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses)
                self.put({
                    "engine.cache_hit_ratio": (cache1.hits - cache0.hits) / max(1, lookups),
                    "engine.cache_evictions": cache1.evictions - cache0.evictions,
                    "engine.kernel_fused": kernels1["fused"] - kernels0["fused"],
                    "engine.kernel_materialize": (
                        kernels1["materialize"] - kernels0["materialize"]
                    ),
                })
                del engine
        for _total, spans, _answers in best.values():
            self.tracer.spans.extend(spans)
        bottom, reference, served = (best[name][2] for name, _p, _o in core)
        engine_served = [i for i, op in enumerate(ops) if op[0] != "rank"]
        self.agree(
            [reference[i] for i in engine_served], [bottom[i] for i in engine_served]
        )
        self.agree(reference, served)
        untraced.append(untraced_service())

        for name, build in tiers:
            short = name.split(".")[1]
            started, memory = [], []

            def open_rung(build=build):
                start = time.perf_counter()
                tier = build(network())
                started.append(time.perf_counter() - start)
                submit = submit_to(tier)

                def close():
                    memory.extend(tier.worker_memory())
                    tier.close()

                return (lambda op: submit(op).result(REQUEST_TIMEOUT_S)), close

            _total, spans, answers = self.replay(name, None, open_rung, ops, warm)
            self.tracer.spans.extend(spans)
            self.agree(reference, answers)
            above_service = ladder_self_times(self.tracer, ["serving.service", name])
            self.put({
                f"{short}.self_s": above_service["self_s"][name],
                f"{short}.start_s": started[0],
                f"{short}.worker_rss_mb": sum(m["rss_bytes"] for m in memory) / 2**20,
                f"{short}.payload_mb": sum(m["payload_bytes"] for m in memory) / 2**20,
            })

        own = ["engine", "query", "serving.service"]
        if self.workload.name == "scaleout_read":
            own.append("serving.shards")
        ladder = ladder_self_times(self.tracer, own)
        top = ladder["top_s"] or 1.0
        similar = [i for i, op in enumerate(ops) if op[0] == "similar"]
        engine_spans = self.tracer.durations("engine")
        service_spans = self.tracer.durations("serving.service")
        self.serial_similar_p50_ms = percentile(
            [service_spans[i] for i in similar], 50
        ) * 1e3
        self.put({
            "engine.busy_s": ladder["busy_s"]["engine"],
            "engine.share": ladder["self_s"]["engine"] / top,
            "engine.topk_p50_ms": percentile(
                [engine_spans[i] for i in similar], 50
            ) * 1e3,
            "query.self_s": ladder["self_s"]["query"],
            "query.share": ladder["self_s"]["query"] / top,
            "service.self_s": ladder["self_s"]["serving.service"],
            "service.share": ladder["self_s"]["serving.service"] / top,
            "trace.unaccounted_share": ladder["unaccounted_share"],
            "trace.overhead_share": (
                ladder["busy_s"]["serving.service"] / statistics.mean(untraced) - 1
            ),
        })
        if own[-1] == "serving.shards":
            self.put({
                "shards.share": ladder["self_s"]["serving.shards"] / top,
            })

    def waiting(self, tier, ops) -> None:
        """Two clients, one request in flight each, against *tier*: the p99
        a closed loop hides, and how much of the median is waiting — for
        the queue, the lock and the interpreter — beyond the serial time
        of the same ops through the same tier."""
        load = closed_loop(submit_to(tier), ops, clients=2, inflight=1)
        self.attempted += len(ops)
        self.failed += load.errors
        similar = load.latencies_ms["similar"]
        self.put({
            "client.similar_p95_ms": percentile(similar, 95),
            "client.similar_p99_ms": percentile(similar, 99),
            "service.wait_share": max(
                0.0, 1 - self.serial_similar_p50_ms / percentile(similar, 50)
            ),
        })

    # ------------------------------------------------------------------
    # capacity phase against a tier, with the program's own counters
    # ------------------------------------------------------------------
    def capacity(self, short, tier, ops) -> dict:
        submit = submit_to(tier)
        closed_loop(submit, ops[: len(ops) // 5], clients=2, inflight=16)
        before = tier.stats()
        load = closed_loop(submit, ops, clients=2, inflight=16)
        after = tier.stats()
        self.attempted += len(ops)
        self.failed += load.errors
        self.put({
            f"{short}.capacity_qps": len(ops) / load.wall_s,
        })
        return {
            k: after[k] - before[k]
            for k in ("submitted", "coalesced", "batches", "batched_requests",
                      "scatters", "fallbacks")
            if k in after
        } | {"largest_batch": after["largest_batch"]}

    def crossover(self, hin, ops, latency_ops) -> None:
        """The same capacity phase against each tier over *hin* — the
        crossover the ROADMAP asks for — with each tier's own counters."""
        for short, build in (
            ("service", query_service),
            ("cluster", self.replicated),
            ("shards", self.sharded),
        ):
            tier = build(hin)
            try:
                delta = self.capacity(short, tier, ops)
                if short == "service":
                    self.service_counters(delta)
                    self.waiting(tier, latency_ops)
                if short == "shards":
                    self.put({
                        "shards.scatters": delta["scatters"],
                        "shards.fallbacks": delta["fallbacks"],
                        "shards.balance": _shard_balance(
                            hin, tier.stats()["plan"]
                        ),
                    })
            finally:
                tier.close()

    def service_counters(self, delta) -> None:
        requests = delta["submitted"] + delta["coalesced"]
        self.put({
            "service.coalesce_ratio": delta["coalesced"] / max(1, requests),
            "service.mean_batch": delta["batched_requests"] / max(1, delta["batches"]),
            "service.largest_batch": delta["largest_batch"],
        })

    def watch_counters(self, hin) -> None:
        stats = hin.watches().stats()
        outcomes = stats["incremental"] + stats["fallback"] + stats["recomputed"]
        self.put({
            "watch.incremental_ratio": stats["incremental"] / max(1, outcomes),
            "watch.pushes": stats["pushes"],
        })

    # ------------------------------------------------------------------
    # engine first touches, planning and materialization
    # ------------------------------------------------------------------
    def engine_cold_costs(self, paths) -> None:
        hin = self.ctx.fresh()
        engine = hin.engine()
        touches, plans = [], []
        for path in paths:
            start = time.perf_counter()
            engine.explain(path)
            plans.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            engine.pathsim_top_k(path, 0, 10, mode="fused")
            touches.append((time.perf_counter() - start) * 1e3)
        seeded0 = engine.planner_info()["seeded_spans"]
        start = time.perf_counter()
        engine.prewarm(paths)
        self.put({
            "engine.first_touch_p50_ms": percentile(touches, 50),
            "engine.planner_plan_p50_ms": percentile(plans, 50),
            "engine.materialize_s": time.perf_counter() - start,
            "engine.planner_seeded_spans": (
                engine.planner_info()["seeded_spans"] - seeded0
            ),
        })

    # ------------------------------------------------------------------
    # commit ladder
    # ------------------------------------------------------------------
    def commit_ladder(self, batches, rungs) -> dict:
        """Apply *batches* to a fresh network per rung; ``rungs`` is
        ``[(name, attach)]`` bottom first, each ``attach(hin)`` adding to
        what the rungs below attached and returning a closer (or None).
        Returns per-rung ``{request: seconds}``."""
        batches = batches[:COMMIT_LADDER]
        names = [f"commit.{name}" for name, _attach in rungs]
        for i, name in enumerate(names):
            hin = self.ctx.fresh()
            closers = [attach(hin) for _name, attach in rungs[: i + 1]]
            parent = names[i + 1] if i + 1 < len(names) else None
            try:
                for request, batch in enumerate(batches):
                    self.tracer.call(
                        name, request, lambda b=batch: hin.apply(b), parent
                    )
                if rungs[i][0] == "watch":
                    self.watch_counters(hin)
                if rungs[i][0] == "serving.shards":
                    republished = sum(closers[-1].republications)
                    self.put({
                        "shards.republished_ratio": republished / (
                        len(closers[-1].republications) * len(batches)
                    ),
                    })
            finally:
                for closer in closers:
                    if closer is not None:
                        closer.close()
            self.attempted += len(batches)
        return {name: self.tracer.durations(name) for name in names}

    def networks_layer(self, spans, top) -> None:
        """The bottom commit rung (nothing attached) against rung *top*."""
        bare = spans["commit.networks"]
        self.put({
            "client.commit_p95_ms": percentile(
                spans[f"commit.{top}"].values(), 95
            ) * 1e3,
            "networks.commit_p50_ms": percentile(bare.values(), 50) * 1e3,
            "networks.commit_share": sum(bare.values())
            / (sum(spans[f"commit.{top}"].values()) or 1.0),
        })

    def step_p50_ms(self, spans, upper, lower) -> float:
        """Median over requests of rung *upper* minus rung *lower*."""
        up, low = spans[f"commit.{upper}"], spans[f"commit.{lower}"]
        return percentile([max(up[r] - low[r], 0.0) for r in up], 50) * 1e3

    def attach_engine(self, paths):
        def attach(hin):
            hin.engine().prewarm(paths)

        return attach

    def attach_watches(self, watches):
        def attach(hin):
            times = []
            for obj, path in watches:
                start = time.perf_counter()
                hin.watches().watch(path, obj, k=10)
                times.append((time.perf_counter() - start) * 1e3)
            self.put({
                "watch.register_p50_ms": percentile(times, 50),
            })

        return attach

    def sharded(self, hin):
        return sharded_service(self.ctx, hin)

    def replicated(self, hin):
        return ClusterService(
            hin, processes=2, directory=self.ctx.directory("cluster")
        )

    # ------------------------------------------------------------------
    # snapshots and shared-memory generations, timed directly
    # ------------------------------------------------------------------
    def snapshot_costs(self, hin) -> None:
        directory = self.ctx.directory("snapshot")
        start = time.perf_counter()
        save_snapshot(hin, directory)
        saved = time.perf_counter() - start
        loads = []
        for _ in range(3):
            start = time.perf_counter()
            load_snapshot(directory, mmap=True)
            loads.append(time.perf_counter() - start)
        size = sum(f.stat().st_size for f in Path(directory).iterdir())
        self.put({
            "snapshot.save_s": saved,
            "snapshot.load_mmap_s": statistics.median(loads),
            "snapshot.mb": size / 2**20,
        })

    def shm_costs(self, hin) -> None:
        directory = self.ctx.directory("generations")
        publishes, attaches = [], []
        for generation in range(5):
            start = time.perf_counter()
            published = publish_generation(
                hin, hin.engine(), directory=directory, generation=generation
            )
            publishes.append((time.perf_counter() - start) * 1e3)
            try:
                start = time.perf_counter()
                attached = attach_generation(published.path)
                attaches.append((time.perf_counter() - start) * 1e3)
                attached.close()
            finally:
                published.dispose()
        self.put({
            "shm.publish_p50_ms": percentile(publishes, 50),
            "shm.attach_p50_ms": percentile(attaches, 50),
        })

    # ------------------------------------------------------------------
    # open loop: requests sent on a schedule, timed from when they were due
    # ------------------------------------------------------------------
    def open_loop(self, service, ops, seconds) -> None:
        count = min(len(ops), int(OPEN_LOOP_RATE * seconds))
        due = [i / OPEN_LOOP_RATE for i in range(count)]
        finished = [0.0] * count
        late, backlog, completed = [], 0, [0]
        lock = threading.Lock()
        submit = submit_to(service)
        start = time.perf_counter()

        def stamp(index):
            def done(_future):
                finished[index] = time.perf_counter() - start
                with lock:
                    completed[0] += 1

            return done

        futures = []
        for index in range(count):
            delay = due[index] - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            late.append((time.perf_counter() - start - due[index]) * 1e3)
            future = submit(ops[index])
            future.add_done_callback(stamp(index))
            futures.append(future)
            backlog = max(backlog, index + 1 - completed[0])
        for future in futures:
            try:
                future.result(REQUEST_TIMEOUT_S)
            except Exception:
                self.failed += 1
        self.attempted += count
        waits = [(f - d) * 1e3 for f, d in zip(finished, due)]
        self.put({
            "client.open_p50_ms": percentile(waits, 50),
            "client.open_p95_ms": percentile(waits, 95),
            "client.late_p95_ms": percentile(late, 95),
            "client.backlog_max": backlog,
        })


# ----------------------------------------------------------------------
# One traced plan per workload
# ----------------------------------------------------------------------
def _warm_network(ctx, paths):
    def make():
        hin = ctx.fresh()
        hin.engine().prewarm(paths)
        return hin

    return make


def trace_hot_read(t: Traced) -> None:
    w, ctx = t.workload, t.ctx
    make = _warm_network(ctx, HOT_PATHS)
    t.request_ladder(
        w.ops[: int(len(w.ops) * LADDER_SHARE)], make,
        tiers=[("serving.cluster", t.replicated), ("serving.shards", t.sharded)],
    )
    t.engine_cold_costs(HOT_PATHS)
    hin = make()
    t.crossover(hin, w.ops, w.ops[: w.scale.hot_latency_ops])
    service = query_service(hin)
    try:
        t.open_loop(service, w.ops, min(3.0, ctx.seconds / 3))
    finally:
        service.close()
    spans = t.commit_ladder(w.batches, [
        ("networks", lambda hin: None), ("engine", t.attach_engine(HOT_PATHS)),
    ])
    t.networks_layer(spans, "engine")
    t.put({
        "engine.maintain_p50_ms": t.step_p50_ms(spans, "engine", "networks"),
    })
    t.snapshot_costs(hin)


def trace_deep_path(t: Traced) -> None:
    w, ctx = t.workload, t.ctx
    # the whole cold list: its hand-offs are what the workload is about
    t.request_ladder(w.cold_ops, ctx.fresh, cold=True)
    t.engine_cold_costs(DEEP_PATHS)
    # hand-off time inside the op list itself: the slowest op of each path
    slowest: dict[str, float] = {}
    for request, seconds in t.tracer.durations("engine").items():
        path = w.cold_ops[request][2]
        slowest[path] = max(slowest.get(path, 0.0), seconds)
    t.put({
        "engine.materialize_s": sum(slowest.values()),
    })
    service = query_service(ctx.fresh())
    try:
        t.service_counters(
            t.capacity("service", service, w.cold_ops + w.warm_ops)
        )
    finally:
        service.close()
    t.networks_layer(
        t.commit_ladder(w.batches, [("networks", lambda hin: None)]), "networks"
    )
    t.snapshot_costs(ctx.fresh())


def _shard_balance(hin, plan) -> float:
    worst = 1.0
    for node_type, ranges in plan.items():
        weights = type_row_weights(hin, node_type)
        loads = [float(weights[lo:hi].sum()) for lo, hi in ranges]
        if sum(loads):
            worst = max(worst, max(loads) / (sum(loads) / len(loads)))
    return worst


def trace_scaleout_read(t: Traced) -> None:
    w, ctx = t.workload, t.ctx
    make = _warm_network(ctx, HOT_PATHS)
    t.request_ladder(
        w.ops[: int(len(w.ops) * LADDER_SHARE)], make,
        tiers=[("serving.cluster", t.replicated), ("serving.shards", t.sharded)],
    )
    t.engine_cold_costs(HOT_PATHS)
    hin = make()
    t.crossover(hin, w.ops, w.ops[: w.scale.scaleout_latency_ops])
    spans = t.commit_ladder(w.batches, [
        ("networks", lambda hin: None),
        ("engine", t.attach_engine(HOT_PATHS)),
        ("serving.shards", t.sharded),
    ])
    t.put({
        "engine.maintain_p50_ms": t.step_p50_ms(spans, "engine", "networks"),
        "shards.republish_p50_ms": t.step_p50_ms(spans, "serving.shards", "engine"),
    })
    # the replicated cluster republishes beside the engine, not on top of
    # the shards: its own two-rung ladder
    cluster = t.commit_ladder(w.batches, [
        ("cluster-base", t.attach_engine(HOT_PATHS)),
        ("serving.cluster", t.replicated),
    ])
    t.put({
        "cluster.republish_p50_ms": t.step_p50_ms(
        cluster, "serving.cluster", "cluster-base"
    ),
    })
    t.networks_layer(spans, "serving.shards")
    t.shm_costs(hin)
    t.snapshot_costs(hin)


def trace_live_update(t: Traced) -> None:
    w, ctx = t.workload, t.ctx
    # half the list, not a fifth: one reader's list is short, and the
    # rank ops in it are few and slow
    ops = w.ops[: len(w.ops) // 2]
    make = _warm_network(ctx, HOT_PATHS)
    t.request_ladder(ops, make)
    t.engine_cold_costs(HOT_PATHS)
    spans = t.commit_ladder(w.batches, [
        ("networks", lambda hin: None),
        ("engine", t.attach_engine(HOT_PATHS)),
        ("watch", t.attach_watches(w.watches)),
    ])
    t.networks_layer(spans, "watch")
    t.put({
        "engine.maintain_p50_ms": t.step_p50_ms(spans, "engine", "networks"),
        "watch.maintain_p50_ms": t.step_p50_ms(spans, "watch", "engine"),
    })
    # the reader alone, then the same reader beside the writer
    def reader(rate):
        hin = make()
        service = query_service(hin)
        for obj, path in w.watches:
            service.watch(obj, path, 10).result(REQUEST_TIMEOUT_S)
        writer = harness.PacedWriter(hin, w.batches, rate)
        try:
            if rate:
                writer.start()
            load = closed_loop(submit_to(service), w.ops, clients=1, inflight=1)
        finally:
            writer.stop()
            service.close()
        t.attempted += len(w.ops)
        t.failed += load.errors + writer.failed
        return hin, load.latencies_ms, writer.latencies_ms

    _hin, quiet, _none = reader(0)
    hin, busy, commits = reader(w.scale.live_commit_rate)
    t.put({
        "locks.read_slowdown": (
            percentile(busy["similar"], 50) / percentile(quiet["similar"], 50)
        ),
        "connected_p50_ms": percentile(busy["connected"], 50),
        "rank_p50_ms": percentile(busy["rank"], 50),
        "client.similar_p95_ms": percentile(busy["similar"], 95),
        "client.similar_p99_ms": percentile(busy["similar"], 99),
        "client.commit_p95_ms": percentile(commits, 95),
    })
    t.snapshot_costs(hin)


def trace_bulk_ingest(t: Traced) -> None:
    w, s = t.workload, t.workload.scale
    tracer = t.tracer

    # rung 1: the parser alone, one span per chunk's worth of records
    records = iter_dblp_records(w.xml)
    start = time.perf_counter()
    for chunk in range(w.chunks):
        tracer.call(
            "ingest.parse", chunk,
            lambda: list(islice(records, s.ingest_chunk)),
            "ingest.bare",
        )
    parse_s = time.perf_counter() - start

    def ingest(name, parent, prepare=None):
        ingestor = StreamIngestor(chunk_size=s.ingest_chunk)
        chunks = ingestor.ingest_iter(w.xml)
        begin = time.perf_counter()
        for chunk in range(w.chunks):
            tracer.call(name, chunk, lambda: next(chunks), parent)
            if chunk == 0 and prepare:
                prepare(ingestor.hin)
        return ingestor, time.perf_counter() - begin

    bare, bare_s = ingest("ingest.bare", "ingest.warm")

    def prepare(hin):
        hin.engine().prewarm(WATCH_PATHS)
        for obj, path in w.watches:
            hin.watches().watch(path, obj, k=10)

    warm, warm_s = ingest("ingest.warm", None, prepare)
    t.attempted += 3 * len(w.records)
    t.failed += oracle.check_ingested(w.records, bare.hin)
    t.failed += oracle.check_ingested(w.records, warm.hin)
    ladder = ladder_self_times(
        tracer, ["ingest.parse", "ingest.bare", "ingest.warm"]
    )
    top = ladder["top_s"] or 1.0
    stats = warm.ingest_stats()
    t.watch_counters(warm.hin)
    parse, bare_spans, warm_spans = (
        tracer.durations(n) for n in ("ingest.parse", "ingest.bare", "ingest.warm")
    )
    t.put({
        "ingest.parse_rps": len(w.records) / parse_s,
        "ingest.parse_share": ladder["self_s"]["ingest.parse"] / top,
        "ingest.commit_share": ladder["self_s"]["ingest.bare"] / top,
        "ingest.skipped": sum(stats["skipped"].values()),
        "ingest.epochs": stats["epochs"],
        "ingest_rps": len(w.records) / warm_s,
        "networks.commit_p50_ms": percentile(
            [max(bare_spans[c] - parse[c], 0.0) for c in bare_spans], 50
        ) * 1e3,
        "networks.commit_share": ladder["self_s"]["ingest.bare"] / top,
        "engine.maintain_p50_ms": percentile(
            [max(warm_spans[c] - bare_spans[c], 0.0) for c in warm_spans if c], 50
        ) * 1e3,
        "engine.share": ladder["self_s"]["ingest.warm"] / top,
        "client.commit_p95_ms": percentile(warm_spans.values(), 95) * 1e3,
        "trace.unaccounted_share": ladder["unaccounted_share"],
    })
    # tracing's cost: the bare ingest once more with no spans
    start = time.perf_counter()
    StreamIngestor(chunk_size=s.ingest_chunk).ingest(w.xml)
    untraced = time.perf_counter() - start
    t.put({
        "trace.overhead_share": (bare_s - untraced) / untraced,
    })
    t.snapshot_costs(warm.hin)


PLANS = {
    "hot_read": trace_hot_read,
    "deep_path": trace_deep_path,
    "scaleout_read": trace_scaleout_read,
    "live_update": trace_live_update,
    "bulk_ingest": trace_bulk_ingest,
}


def run_traced(workload, span_path) -> dict:
    traced = Traced(workload)
    PLANS[workload.name](traced)
    # the operator's number: a small round leaves the tier's state behind,
    # its snapshot is restarted from
    restart_s, wrong = workload.measure_restart(workload.round(warmup=True))
    traced.attempted += workload.scale.restarts
    traced.failed += wrong
    traced.put({
        "restart_s": restart_s,
        "datasets.generate_s": workload.ctx.generate_s,
    })
    spans = traced.tracer.dump(span_path)
    return {
        "metrics": traced.metrics,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "digest": workload.digest,
        "spans": spans,
        "span_file": str(span_path),
    }
