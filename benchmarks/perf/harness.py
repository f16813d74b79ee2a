"""Datasets, seeded inputs, load generators and the five end-to-end workloads.

Everything here drives the **unmodified** public API of ``repro``: the
benchmark builds its inputs from ``--seed``, hands the program only the
generated ops, and times what a client, a writer or an operator would
see.  One *round* is a fixed, frozen amount of work against a freshly
set-up instance of the tier under test; a run repeats rounds until
``--seconds`` of measured time have passed and reports medians, so a
stall in one round cannot move a number.  See README.md for why each
workload exists and how the metrics are defined.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import resource
import statistics
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.datasets import make_dblp_four_area
from repro.ingest import StreamIngestor, write_dblp_xml
from repro.networks import HIN, UpdateBatch
from repro.serving import (
    QueryService,
    ShardedClusterService,
    load_snapshot,
    save_snapshot,
)

from . import oracle

# The popularity order of entities and the dataset are properties of the
# benchmarked world, not of a run: ``--seed`` draws requests *from* them.
DATASET_SEED = 7
HOT_PATHS = ["A-P-A", "A-P-V-P-A", "A-P-T-P-A", "A-P-A-P-A"]
WATCH_PATHS = HOT_PATHS[:3]
# Long paths whose hand-off to materialization fits a round.  Two of the
# issue's catalogue are left out: ``T-P-A-P-A-P-T`` (one hand-off: 3.2 s)
# and ``A-P-A-P-A-P-A`` (1.4 s, and 1.2 GiB resident) each cost more than
# a whole round may when a run must set up, measure and check in ~20 s.
DEEP_PATHS = [
    "A-P-T-P-A",
    "A-P-A-P-A",
    "V-P-A-P-A-P-V",
    "V-P-T-P-T-P-V",
    "T-P-A-P-T",
    "P-A-P-A-P",
]
CONNECTED_PATHS = ["A-P-V", "A-P-T", "A-P-A"]
RANK_TARGETS = ["author", "venue", "A-P-V"]
_TYPE_OF = {"A": "author", "P": "paper", "V": "venue", "T": "term"}
COMMUNITY_BLOCK = 75
COMMUNITY_SIZE = 30
REQUEST_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Scale:
    """The frozen size of every workload (op counts never follow the clock)."""

    dataset: dict
    hot_latency_ops: int
    hot_capacity_ops: int
    serial_commits: int
    deep_cold_per_path: int
    deep_warm_ops: int
    scaleout_latency_ops: int
    scaleout_capacity_ops: int
    scaleout_commit_rate: float
    live_ops: int
    live_commit_rate: float
    live_watches: int
    ingest_records: int
    ingest_chunk: int
    ingest_reads_per_chunk: int
    ingest_watches: int
    restarts: int
    verify_reads: int
    yardstick_samples: int  # each side of a round; ~7 ms a sample


FULL = Scale(
    dataset=dict(
        authors_per_area=1500,
        papers_per_area=9000,
        terms_per_area=800,
        shared_terms=200,
        seed=DATASET_SEED,
    ),
    hot_latency_ops=1200,
    hot_capacity_ops=6000,
    serial_commits=30,
    deep_cold_per_path=16,
    deep_warm_ops=200,
    scaleout_latency_ops=300,
    scaleout_capacity_ops=1200,
    scaleout_commit_rate=10.0,
    live_ops=3600,
    live_commit_rate=10.0,
    live_watches=200,
    ingest_records=12000,
    ingest_chunk=500,
    ingest_reads_per_chunk=40,
    ingest_watches=50,
    restarts=9,
    verify_reads=200,
    yardstick_samples=12,
)

# The harness self-test's size: same code paths, a network of 240 authors.
SMOKE = Scale(
    dataset=dict(
        authors_per_area=60,
        papers_per_area=240,
        terms_per_area=40,
        shared_terms=20,
        seed=DATASET_SEED,
    ),
    hot_latency_ops=40,
    hot_capacity_ops=80,
    serial_commits=5,
    deep_cold_per_path=6,
    deep_warm_ops=30,
    scaleout_latency_ops=30,
    scaleout_capacity_ops=60,
    scaleout_commit_rate=40.0,
    live_ops=100,
    live_commit_rate=60.0,
    live_watches=12,
    ingest_records=600,
    ingest_chunk=100,
    ingest_reads_per_chunk=6,
    ingest_watches=6,
    restarts=1,
    verify_reads=30,
    yardstick_samples=2,
)


class Yardstick:
    """How slow the box is this minute, against the minute the reference
    times below were taken.

    The box is a shared virtual machine whose speed drifts by a fifth over
    half an hour (README, "How steady it is"): the same seeds, the same
    code, a set of runs 20 % slower than the set before it.  So every
    round is bracketed by a fixed piece of work that no change to the
    program can touch — an interpreter-bound loop and a sparse product of
    two seeded random matrices, the two kinds of work the program is made
    of — and what the round measured is divided by how much longer than
    the reference that work took.  A number reported by a run is thus
    "at reference speed"; the detail file keeps it as measured, too.
    """

    REFERENCE_S = 0.00325  # geometric mean of the two, a quiet minute

    def __init__(self, samples: int):
        self.samples = samples
        rng = np.random.default_rng(DATASET_SEED)
        self.left = sparse.random(
            1500, 36000, density=5e-4, format="csr", random_state=rng
        )
        self.right = sparse.random(
            36000, 6000, density=5e-4, format="csr", random_state=rng
        )

    def read(self) -> list[tuple[float, float]]:
        """``samples`` × (seconds for the loop, seconds for the product)."""
        pairs = []
        for _ in range(self.samples):
            start = time.perf_counter()
            table = {i: i for i in range(2000)}
            total = 0
            for _ in range(30):
                for i in range(2000):
                    total += table[i]
            middle = time.perf_counter()
            (self.left @ self.right).sum()
            pairs.append((middle - start, time.perf_counter() - middle))
        return pairs

    @classmethod
    def slowdown(cls, pairs) -> float:
        """Geometric mean of the two kinds' median times, over the reference."""
        loop = statistics.median(p[0] for p in pairs)
        product = statistics.median(p[1] for p in pairs)
        return (loop * product) ** 0.5 / cls.REFERENCE_S


class Context:
    """One run's world: the dataset, the seed, and a private work directory."""

    def __init__(self, scale: Scale, seed: int, seconds: float, workdir):
        self.scale = scale
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = Path(workdir)
        start = time.perf_counter()
        self.dataset = make_dblp_four_area(**scale.dataset)
        self.generate_s = time.perf_counter() - start
        self.base = self.dataset.hin
        self.yardstick = Yardstick(scale.yardstick_samples)
        self._popularity: dict[str, np.ndarray] = {}
        self._dirs = 0

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    def fresh(self) -> HIN:
        """A new, independent network holding the generated dataset — what
        the program builds from its input at the start of every round."""
        base = self.base
        return HIN(
            base.schema,
            {t: base.node_count(t) for t in base.node_types},
            {
                rel.name: base.relation_matrix(rel.name).copy()
                for rel in base.schema.relations
            },
            node_names={t: base.names(t) for t in base.node_types},
        )

    def popularity(self, node_type: str) -> np.ndarray:
        """Entity at each popularity rank (fixed by the dataset seed)."""
        if node_type not in self._popularity:
            self._popularity[node_type] = np.random.default_rng(
                [DATASET_SEED, len(self._popularity)]
            ).permutation(self.base.node_count(node_type))
        return self._popularity[node_type]

    def directory(self, label: str) -> Path:
        """A new empty directory inside the run's work directory."""
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def zipf_entities(ctx, node_type, s, size, rng, limit=None) -> np.ndarray:
    """*size* entities of *node_type* drawn Zipf(*s*) over popularity rank."""
    order = ctx.popularity(node_type)
    if limit is not None:
        order = order[order < limit]
    weights = 1.0 / np.arange(1, len(order) + 1) ** s
    return order[rng.choice(len(order), size=size, p=weights / weights.sum())]


def similar_ops(ctx, rng, n, paths, k, zipf_s=None, limit=None) -> list[tuple]:
    """*n* ``similar`` ops over *paths*; uniform entities unless *zipf_s*."""
    picks = rng.integers(0, len(paths), size=n)
    if zipf_s is not None:
        entities = zipf_entities(ctx, "author", zipf_s, n, rng, limit)
        return [
            ("similar", int(e), paths[p], k) for e, p in zip(entities, picks)
        ]
    ops = []
    for p in picks:
        count = ctx.base.node_count(_TYPE_OF[paths[p][0]])
        ops.append(("similar", int(rng.integers(0, count)), paths[p], k))
    return ops


def mixed_ops(ctx, rng, n, zipf_s) -> list[tuple]:
    """The live reader's mix: 75 % similar, 15 % connected, 10 % rank."""
    verbs = rng.choice(3, size=n, p=[0.75, 0.15, 0.10])
    entities = zipf_entities(ctx, "author", zipf_s, n, rng)
    ops = []
    for verb, entity in zip(verbs, entities):
        if verb == 0:
            path = HOT_PATHS[int(rng.integers(0, len(HOT_PATHS)))]
            ops.append(("similar", int(entity), path, 10))
        elif verb == 1:
            path = CONNECTED_PATHS[int(rng.integers(0, len(CONNECTED_PATHS)))]
            ops.append(("connected", int(entity), path, 10))
        else:
            target = RANK_TARGETS[int(rng.integers(0, len(RANK_TARGETS)))]
            ops.append(("rank", None, target, 0))
    return ops


def localized_batches(ctx, rng, n, *, grow_every=0) -> list[dict]:
    """*n* update-batch descriptions, each 10–40 edge inserts/deletes/upserts
    inside one author community; every *grow_every*-th also adds three papers.

    Built against the base network only (deleting an already-deleted
    cell is a no-op), so the same list replays onto any fresh copy.
    Plain data, so it can be digested; :func:`build_batch` makes the
    ``UpdateBatch``.
    """
    base = ctx.base
    writes = base.relation_matrix("writes")
    n_blocks = max(1, base.node_count("author") // COMMUNITY_BLOCK)
    block_weights = 1.0 / np.arange(1, n_blocks + 1) ** 1.2
    block_weights /= block_weights.sum()
    # Which communities are hot, and how big each batch is, belong to the
    # world; the seed draws the authors, papers and edits inside each one.
    world = np.random.default_rng([DATASET_SEED, n_blocks])
    blocks = world.choice(n_blocks, size=n, p=block_weights)
    sizes = world.integers(10, 41, size=n)
    next_paper = base.node_count("paper")
    specs = []
    for i in range(n):
        block = int(blocks[i])
        community = block * COMMUNITY_BLOCK + rng.choice(
            COMMUNITY_BLOCK, size=COMMUNITY_SIZE, replace=False
        )
        rows = {
            int(a): writes.indices[writes.indptr[a] : writes.indptr[a + 1]]
            for a in community
        }
        papers = np.unique(np.concatenate(list(rows.values())))
        prolific = [a for a, row in rows.items() if row.size]
        spec = {
            "papers": [], "published_in": [], "mentions": [],
            "deletes": [], "inserts": [], "upserts": [],
        }
        for _ in range(int(sizes[i])):
            kind = int(rng.integers(0, 4))
            if kind <= 1:
                paper = int(rng.choice(papers)) if papers.size else 0
                spec["inserts"].append((int(rng.choice(community)), paper))
            elif prolific:
                author = int(rng.choice(prolific))
                paper = int(rng.choice(rows[author]))
                if kind == 2:
                    spec["deletes"].append((author, paper))
                else:
                    weight = float(rng.integers(1, 4))
                    spec["upserts"].append((author, paper, weight))
        if grow_every and (i + 1) % grow_every == 0:
            venue = int(rng.integers(0, base.node_count("venue")))
            terms = rng.choice(base.node_count("term"), size=5, replace=False)
            for paper in range(next_paper, next_paper + 3):
                spec["papers"].append(f"stream_{paper}")
                spec["inserts"].append((int(rng.choice(community)), paper))
                spec["published_in"].append((paper, venue))
                spec["mentions"].extend((paper, int(t)) for t in terms)
            next_paper += 3
        specs.append(spec)
    return specs


def build_batch(spec: dict) -> UpdateBatch:
    batch = UpdateBatch()
    if spec["papers"]:
        batch.add_nodes("paper", spec["papers"])
        batch.add_edges("published_in", spec["published_in"])
        batch.add_edges("mentions", spec["mentions"])
    batch.remove_edges("writes", spec["deletes"])
    batch.add_edges("writes", spec["inserts"])
    batch.set_weights("writes", spec["upserts"])
    return batch


def watch_specs(ctx, n, limit=None) -> list[tuple]:
    """*n* distinct Zipf-placed ``(author, path)`` standing queries.

    Subscriptions exist before the traffic does: like entity popularity
    they belong to the world, not to the seed.
    """
    rng = np.random.default_rng([DATASET_SEED, n])
    order = ctx.popularity("author")
    if limit is not None:
        order = order[order < limit]
    weights = 1.0 / np.arange(1, len(order) + 1) ** 0.8
    chosen = rng.choice(
        len(order), size=min(n, len(order)), replace=False,
        p=weights / weights.sum(),
    )
    return [
        (int(order[c]), WATCH_PATHS[i % len(WATCH_PATHS)])
        for i, c in enumerate(chosen)
    ]


def digest_of(*parts) -> str:
    """SHA-256 of the generated inputs (ops, batch descriptions, watches)."""
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
def submit_to(service):
    """``op -> Future`` against any ``ServingAPI`` service."""

    def submit(op):
        verb, obj, path, k = op
        if verb == "similar":
            return service.similar(obj, path, k)
        if verb == "connected":
            return service.connected(obj, path, k)
        return service.rank(path)

    return submit


@dataclass
class LoadResult:
    wall_s: float
    latencies_ms: dict  # verb -> [ms], only for one-in-flight loops
    answers: list  # aligned with the op list; None where the op failed
    errors: int


def closed_loop(submit, ops, *, clients, inflight) -> LoadResult:
    """Replay *ops* from *clients* threads, each keeping *inflight* requests
    outstanding and sending the next only when the oldest has answered.
    With one request in flight every op is timed submit→result."""
    answers = [None] * len(ops)
    per_client = [defaultdict(list) for _ in range(clients)]
    errors = [0] * clients

    def collect(c, index, future):
        try:
            answers[index] = future.result(timeout=REQUEST_TIMEOUT_S)
        except Exception:
            errors[c] += 1

    def client(c):
        pending: deque = deque()
        latencies = per_client[c]
        for index in range(c, len(ops), clients):
            op = ops[index]
            if inflight == 1:
                start = time.perf_counter()
                collect(c, index, submit(op))
                latencies[op[0]].append((time.perf_counter() - start) * 1e3)
            else:
                if len(pending) >= inflight:
                    collect(c, *pending.popleft())
                pending.append((index, submit(op)))
        while pending:
            collect(c, *pending.popleft())

    threads = [
        threading.Thread(target=client, args=(c,), name=f"perf-client-{c}")
        for c in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    merged: dict[str, list] = defaultdict(list)
    for latencies in per_client:
        for verb, values in latencies.items():
            merged[verb].extend(values)
    return LoadResult(wall, dict(merged), answers, sum(errors))


class PacedWriter(threading.Thread):
    """Commits *batches* on a fixed schedule; each commit is timed from the
    instant it was *due*, so a stall is charged to every commit it delays."""

    def __init__(self, hin, batches, rate: float):
        super().__init__(name="perf-writer", daemon=True)
        self.hin = hin
        self.batches = batches
        self.rate = float(rate)
        self.latencies_ms: list[float] = []
        self.failed = 0  # a commit that raised ends the schedule
        self._halt = threading.Event()

    @property
    def applied(self) -> int:
        return len(self.latencies_ms)

    def run(self) -> None:
        start = time.perf_counter()
        for i, batch in enumerate(self.batches):
            due = start + i / self.rate
            delay = due - time.perf_counter()
            if self._halt.wait(delay) if delay > 0 else self._halt.is_set():
                return
            try:
                self.hin.apply(batch)
            except Exception:
                self.failed = 1
                return
            self.latencies_ms.append((time.perf_counter() - due) * 1e3)

    def stop(self) -> None:
        """Idempotent; safe on a writer that never started."""
        self._halt.set()
        if self.ident is not None:
            self.join()


def serial_commits(hin, batches) -> list[float]:
    """Apply *batches* back to back; per-commit call→return in ms."""
    out = []
    for batch in batches:
        start = time.perf_counter()
        hin.apply(batch)
        out.append((time.perf_counter() - start) * 1e3)
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of *values* (which need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(p / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def signature(answer):
    """A cheap in-process identity of one answer (names and exact scores)."""
    return None if answer is None else hash(tuple(answer))


# ----------------------------------------------------------------------
# Rounds and workloads
# ----------------------------------------------------------------------
def query_service(hin) -> QueryService:
    return QueryService(hin, workers=2)


def sharded_service(ctx, hin) -> ShardedClusterService:
    return ShardedClusterService(
        hin, HOT_PATHS, shards=2, directory=ctx.directory("shards")
    )


@dataclass
class Round:
    """What one round measured, and (measured rounds only) what the oracle
    needs to check it: the network, ``[(op, answer)]``, the commits applied."""

    setup_s: float
    measured_s: float
    qps: float
    similar_ms: list
    commit_ms: list
    attempted: int
    errors: int
    slowdown: float = 1.0  # the yardstick's reading around this round
    extra: dict = field(default_factory=dict)  # per-round numbers for the detail file
    hin: object = None
    reads: list = field(default_factory=list)
    batches: list = field(default_factory=list)
    pushes: list = field(default_factory=list)  # [((obj, path), [(epoch, result)])]
    must_check: tuple = ()  # indices into ``reads`` the oracle may not skip


class Workload:
    """One named workload: its inputs, its round, its checks."""

    name = ""
    reads_see_one_epoch = False  # then every round must give the same answers
    check_every_read = False
    # What one round measures on the box the op counts were frozen on; a
    # run makes ``--seconds / round_s`` rounds, so its work is fixed too.
    round_s = 2.0
    probe_path = HOT_PATHS[0]

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.scale = ctx.scale
        self.prepare()

    def prepare(self) -> None:
        """Generate the inputs from the seed; set ``self.digest``."""
        raise NotImplementedError

    def round(self, warmup: bool) -> Round:
        """Set the tier up afresh and run the round's fixed work (a fifth
        of it when *warmup*)."""
        raise NotImplementedError

    def set_batches(self, specs) -> None:
        self.specs = specs
        self.batches = [build_batch(spec) for spec in specs]

    @staticmethod
    def sized(items, warmup: bool):
        return items[: max(4, len(items) // 5)] if warmup else items

    def tier(self, hin):
        """The tier under test, started on *hin* (also what restarts)."""
        return query_service(hin)

    def verify(self, last: Round) -> tuple[int, int]:
        """``(checked, wrong)`` for the last round, against the cold oracle."""
        sample = len(last.reads) if self.check_every_read else self.scale.verify_reads
        checked, wrong = oracle.check_reads(
            self.ctx, last.batches, last.reads, sample, self.ctx.rng(91),
            pushes=last.pushes, include=last.must_check,
        )
        return checked + 1, wrong + oracle.check_network(
            self.ctx, last.batches, last.hin
        )

    # -- the restart probe (traced run) every workload shares -----------
    def restart_snapshot(self, last: Round):
        """The network whose snapshot the restart probe loads."""
        return last.hin

    def probe_op(self) -> tuple:
        """The first question after a restart: the most popular author's
        peers (the same whatever the seed)."""
        return ("similar", int(self.ctx.popularity("author")[0]),
                self.probe_path, 10)

    def measure_restart(self, last: Round) -> tuple[float, int]:
        """Median of ``restarts`` × (load the snapshot memory-mapped →
        start the workload's tier on it → first answer), and how many of
        those first answers differ from the pre-snapshot answer."""
        hin = self.restart_snapshot(last)
        directory = self.ctx.directory("snapshot")
        save_snapshot(hin, directory)
        _verb, obj, path, k = op = self.probe_op()
        expected = list(oracle.answer(hin.query(), op))
        times, wrong = [], 0
        for _ in range(self.scale.restarts + 1):
            start = time.perf_counter()
            service = self.tier(load_snapshot(directory, mmap=True))
            try:
                got = service.similar(obj, path, k).result(REQUEST_TIMEOUT_S)
                times.append(time.perf_counter() - start)
            finally:
                service.close()
            wrong += list(got) != expected
        # the first load also pulls the files into the page cache
        return statistics.median(times[1:]), wrong


class HotRead(Workload):
    name = "hot_read"
    reads_see_one_epoch = True

    def prepare(self):
        s, rng = self.scale, self.ctx.rng(1)
        self.ops = similar_ops(
            self.ctx, rng, s.hot_capacity_ops, HOT_PATHS, 10, zipf_s=1.8
        )
        self.set_batches(localized_batches(self.ctx, rng, s.serial_commits))
        # untimed reads after the commits: the maintained cache's answers
        self.after_ops = similar_ops(
            self.ctx, rng, s.verify_reads // 4, HOT_PATHS, 10, zipf_s=1.2
        )
        self.digest = digest_of(self.ops, self.specs, self.after_ops)

    def round(self, warmup):
        start = time.perf_counter()
        hin = self.ctx.fresh()
        service = self.tier(hin).prewarm(*HOT_PATHS)
        setup_s = time.perf_counter() - start
        try:
            submit = submit_to(service)
            ops = self.sized(self.ops, warmup)
            timed = ops[: self.scale.hot_latency_ops]
            latency = closed_loop(submit, timed, clients=2, inflight=1)
            capacity = closed_loop(submit, ops, clients=2, inflight=16)
            batches = self.sized(self.batches, warmup)
            commit_ms = serial_commits(hin, batches)
            after = closed_loop(submit, self.after_ops, clients=1, inflight=1)
        finally:
            service.close()
        reads = list(zip(
            timed + ops + self.after_ops,
            latency.answers + capacity.answers + after.answers,
        ))
        return Round(
            setup_s=setup_s,
            measured_s=latency.wall_s + capacity.wall_s + sum(commit_ms) / 1e3,
            qps=len(ops) / capacity.wall_s,
            similar_ms=latency.latencies_ms["similar"],
            commit_ms=commit_ms,
            attempted=len(reads) + len(batches),
            errors=latency.errors + capacity.errors + after.errors,
            hin=hin, reads=reads, batches=batches,
            must_check=tuple(range(len(timed) + len(ops), len(reads))),
        )


class DeepPath(Workload):
    name = "deep_path"
    reads_see_one_epoch = True
    check_every_read = True  # there are only a few hundred
    round_s = 1.6
    probe_path = "A-P-A-P-A"

    def prepare(self):
        s, rng = self.scale, self.ctx.rng(2)
        # Path after path in catalogue order, never shuffled: what a first
        # touch costs depends on which products earlier paths left in the
        # cache (the planner seeds from them), so the order is part of the
        # workload; the seed picks the entities.
        self.cold_ops = [
            op
            for path in DEEP_PATHS
            for op in similar_ops(
                self.ctx, rng, s.deep_cold_per_path, [path], 50
            )
        ]
        self.warm_ops = similar_ops(
            self.ctx, rng, s.deep_warm_ops, DEEP_PATHS, 50
        )
        self.set_batches(localized_batches(self.ctx, rng, s.serial_commits))
        self.digest = digest_of(self.cold_ops, self.warm_ops, self.specs)

    def restart_snapshot(self, last):
        # deep_path starts cold, so its restart is a cold one too: the
        # snapshot holds the network and an empty engine cache.
        hin = self.ctx.fresh()
        for batch in last.batches:
            hin.apply(batch)
        return hin

    def round(self, warmup):
        start = time.perf_counter()
        hin = self.ctx.fresh()
        service = self.tier(hin)  # engine cache empty
        setup_s = time.perf_counter() - start
        try:
            submit = submit_to(service)
            batches = self.sized(self.batches, warmup)
            commit_ms = serial_commits(hin, batches)  # nothing cached yet
            warm_ops = self.sized(self.warm_ops, warmup)
            cold = closed_loop(submit, self.cold_ops, clients=1, inflight=1)
            warm = closed_loop(submit, warm_ops, clients=2, inflight=16)
        finally:
            service.close()
        reads = list(zip(self.cold_ops + warm_ops, cold.answers + warm.answers))
        return Round(
            setup_s=setup_s,
            measured_s=cold.wall_s + warm.wall_s + sum(commit_ms) / 1e3,
            qps=len(reads) / (cold.wall_s + warm.wall_s),
            similar_ms=cold.latencies_ms["similar"],
            commit_ms=commit_ms,
            attempted=len(reads) + len(batches),
            errors=cold.errors + warm.errors,
            hin=hin, reads=reads, batches=batches,
        )


class ScaleoutRead(Workload):
    name = "scaleout_read"

    def prepare(self):
        s, rng = self.scale, self.ctx.rng(3)
        self.ops = similar_ops(
            self.ctx, rng, s.scaleout_capacity_ops, HOT_PATHS, 50, zipf_s=1.2
        )
        self.set_batches(
            localized_batches(
                self.ctx, rng, int(s.scaleout_commit_rate * 12) + 8
            )
        )
        self.digest = digest_of(self.ops, self.specs)

    def tier(self, hin):
        return sharded_service(self.ctx, hin)

    def round(self, warmup):
        s = self.scale
        start = time.perf_counter()
        hin = self.ctx.fresh()
        service = self.tier(hin)
        setup_s = time.perf_counter() - start
        writer = PacedWriter(hin, self.batches, s.scaleout_commit_rate)
        try:
            submit = submit_to(service)
            ops = self.sized(self.ops, warmup)
            timed = ops[: s.scaleout_latency_ops]
            writer.start()
            latency = closed_loop(submit, timed, clients=2, inflight=1)
            capacity = closed_loop(submit, ops, clients=2, inflight=16)
            writer.stop()
            workers = service.worker_memory()
        finally:
            writer.stop()
            service.close()
        reads = list(zip(timed + ops, latency.answers + capacity.answers))
        return Round(
            setup_s=setup_s,
            measured_s=latency.wall_s + capacity.wall_s,
            qps=len(ops) / capacity.wall_s,
            similar_ms=latency.latencies_ms["similar"],
            commit_ms=writer.latencies_ms,
            attempted=len(reads) + writer.applied,
            errors=latency.errors + capacity.errors + writer.failed,
            extra={
                "worker_rss_mb": sum(w["rss_bytes"] for w in workers) / 2**20,
            },
            hin=hin, reads=reads, batches=self.batches[: writer.applied],
        )


class LiveUpdate(Workload):
    name = "live_update"

    def prepare(self):
        s, rng = self.scale, self.ctx.rng(4)
        self.ops = mixed_ops(self.ctx, rng, s.live_ops, 1.8)
        self.set_batches(
            localized_batches(
                self.ctx, rng, int(s.live_commit_rate * 8) + 8, grow_every=10
            )
        )
        self.watches = watch_specs(self.ctx, s.live_watches)
        self.digest = digest_of(self.ops, self.specs, self.watches)

    def round(self, warmup):
        start = time.perf_counter()
        hin = self.ctx.fresh()
        service = self.tier(hin).prewarm(*HOT_PATHS)
        subscriptions = [
            service.watch(obj, path, 10).result(REQUEST_TIMEOUT_S)
            for obj, path in self.watches
        ]
        setup_s = time.perf_counter() - start
        writer = PacedWriter(hin, self.batches, self.scale.live_commit_rate)
        try:
            ops = self.sized(self.ops, warmup)
            writer.start()
            load = closed_loop(submit_to(service), ops, clients=1, inflight=1)
            writer.stop()
        finally:
            writer.stop()
            service.close()
        return Round(
            setup_s=setup_s,
            measured_s=load.wall_s,
            qps=len(ops) / load.wall_s,
            similar_ms=load.latencies_ms["similar"],
            commit_ms=writer.latencies_ms,
            attempted=len(ops) + writer.applied,
            errors=load.errors + writer.failed,
            extra={
                f"{verb}_p50_ms": percentile(load.latencies_ms[verb], 50)
                for verb in ("connected", "rank")
                if verb in load.latencies_ms
            },
            hin=hin,
            reads=list(zip(ops, load.answers)),
            batches=self.batches[: writer.applied],
            pushes=[
                (spec, sub.drain())
                for spec, sub in zip(self.watches, subscriptions)
            ],
        )


class BulkIngest(Workload):
    name = "bulk_ingest"

    def prepare(self):
        s, rng = self.scale, self.ctx.rng(5)
        start = time.perf_counter()
        self.xml = self.ctx.directory("xml") / "dblp.xml"
        # The seed picks which records the file holds and in what order,
        # so it decides which entities exist after the first chunk and
        # how the network grows.
        order = rng.permutation(self.ctx.base.node_count("paper"))
        self.records: list = []

        def select(records):
            self.records = [records[i] for i in order[: s.ingest_records]]
            return self.records

        write_dblp_xml(self.ctx.dataset, self.xml, mutate=select)
        self.ctx.generate_s += time.perf_counter() - start
        # entity indices follow first appearance: reads and watches ask
        # only about authors the first chunk already brought in
        first_chunk = self.records[: s.ingest_chunk]
        known = len({a for r in first_chunk for a in r.authors})
        self.chunks = -(-len(self.records) // s.ingest_chunk)
        self.ops = similar_ops(
            self.ctx, rng, self.chunks * s.ingest_reads_per_chunk, WATCH_PATHS, 10,
            zipf_s=1.8, limit=known,
        )
        self.watches = watch_specs(self.ctx, s.ingest_watches, limit=known)
        self.digest = digest_of(
            self.ops, self.watches, [r.key for r in self.records]
        )

    def probe_op(self):
        return self.ops[0][:2] + (self.probe_path, 10)

    def round(self, warmup):
        s = self.scale
        start = time.perf_counter()
        ingestor = StreamIngestor(chunk_size=s.ingest_chunk)
        chunks = ingestor.ingest_iter(self.xml)
        first = next(chunks)
        hin = ingestor.hin
        service = self.tier(hin).prewarm(*WATCH_PATHS)
        for obj, path in self.watches:
            service.watch(obj, path, 10).result(REQUEST_TIMEOUT_S)
        setup_s = time.perf_counter() - start
        submit = submit_to(service)
        chunk_ms, read_ms, answers, errors = [], [], [], 0
        try:
            # One thread, strictly alternating: a chunk commits, then the
            # served network answers a slice of the reader's list.  (Two
            # threads sharing the interpreter settle into either a fast
            # reader or a fast writer from run to run; live_update is
            # where reads and commits contend.)
            for _ in range(3 if warmup else self.chunks):
                mark = time.perf_counter()
                if next(chunks, None) is None:
                    break
                chunk_ms.append((time.perf_counter() - mark) * 1e3)
                done = len(answers)
                for op in self.ops[done : done + s.ingest_reads_per_chunk]:
                    mark = time.perf_counter()
                    try:
                        answers.append(submit(op).result(REQUEST_TIMEOUT_S))
                    except Exception:
                        answers.append(None)
                        errors += 1
                    read_ms.append((time.perf_counter() - mark) * 1e3)
        finally:
            service.close()
        ingested = ingestor.ingest_stats()["ingested"] - first.ingested
        return Round(
            setup_s=setup_s,
            measured_s=(sum(chunk_ms) + sum(read_ms)) / 1e3,
            qps=len(read_ms) / (sum(read_ms) / 1e3),
            similar_ms=read_ms,
            commit_ms=chunk_ms,
            attempted=len(read_ms) + len(chunk_ms),
            errors=errors,
            extra={"ingest_rps": ingested / (sum(chunk_ms) / 1e3)},
            hin=hin,
            reads=list(zip(self.ops, answers)),
        )

    def verify(self, last):
        checked, wrong = oracle.check_ingest_reads(
            self.xml, self.scale.ingest_chunk, last.reads,
            self.scale.verify_reads, self.ctx.rng(91), include=last.must_check,
        )
        return checked + 1, wrong + oracle.check_ingested(self.records, last.hin)


WORKLOADS = {
    cls.name: cls
    for cls in (HotRead, DeepPath, ScaleoutRead, LiveUpdate, BulkIngest)
}


def reset_peak_rss() -> None:
    """Start a new high-water mark for this process's resident memory
    (where the kernel will not, the mark stays the process's own peak)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's resident high-water mark since the last reset."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(workload: Workload, *, inject_wrong: bool = False) -> dict:
    """Warm up, run ``--seconds / round_s`` rounds, check the answers;
    returns metrics, counts and per-round detail."""
    ctx = workload.ctx
    workload.round(warmup=True)  # imports, allocator, page cache
    rounds: list[Round] = []
    signatures: list[list] = []
    for _ in range(max(2, round(ctx.seconds / workload.round_s))):
        if rounds:  # only the last round is kept whole
            rounds[-1].hin, rounds[-1].reads, rounds[-1].pushes = None, [], []
        gc.collect()  # a closed tier's cycles go now, not whenever they go
        reset_peak_rss()
        before = ctx.yardstick.read()
        rounds.append(workload.round(warmup=False))
        rounds[-1].extra["rss_mb"] = peak_rss_mb()
        rounds[-1].slowdown = Yardstick.slowdown(before + ctx.yardstick.read())
        signatures.append([signature(a) for _op, a in rounds[-1].reads])
    last = rounds[-1]
    if inject_wrong:  # the self-test's proof that the oracle bites
        op, good = last.reads[0]
        bad = copy.copy(good)
        bad.append(("injected", -1.0))
        last.reads[0] = (op, bad)
        last.must_check += (0,)

    failed = sum(r.errors for r in rounds)
    if workload.reads_see_one_epoch:
        failed += sum(
            a != b for earlier in signatures[:-1]
            for a, b in zip(earlier, signatures[-1])
        )
    checked, wrong = workload.verify(last)
    failed += wrong

    def timings(at_reference_speed: bool) -> dict:
        """Median over rounds; each round's numbers first brought to
        reference speed by its own yardstick reading, or left as measured."""

        def median(value_of, rate=False):
            return statistics.median(
                value_of(r)
                * ((r.slowdown if rate else 1 / r.slowdown)
                   if at_reference_speed else 1.0)
                for r in rounds
            )

        return {
            "setup_s": median(lambda r: r.setup_s),
            "qps": median(lambda r: r.qps, rate=True),
            "similar_p50_ms": median(lambda r: percentile(r.similar_ms, 50)),
            "commit_p50_ms": median(lambda r: percentile(r.commit_ms, 50)),
        }

    similar = [x for r in rounds for x in r.similar_ms]
    commits = [x for r in rounds for x in r.commit_ms]
    return {
        "metrics": {
            **timings(at_reference_speed=True),
            # One round's high-water mark, its workers' resident pages
            # added; of the leanest round, because the allocator ratchets
            # from round to round by amounts that differ from run to run.
            "peak_rss_mb": min(
                r.extra["rss_mb"] + r.extra.get("worker_rss_mb", 0.0)
                for r in rounds
            ),
        },
        # Tails are printed beside the medians but carry no bound: no p95
        # held still from run to run on this box (README, "What was demoted").
        "tails": {
            "similar_p95_ms": percentile(similar, 95),
            "commit_p95_ms": percentile(commits, 95),
        },
        "as_measured": timings(at_reference_speed=False),
        "slowdown": statistics.median(r.slowdown for r in rounds),
        "samples": {"similar": len(similar), "commit": len(commits),
                    "rounds": len(rounds)},
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "checked": checked,
        "digest": workload.digest,
        "generate_s": ctx.generate_s,
        "rounds": [
            {
                "setup_s": r.setup_s,
                "measured_s": r.measured_s,
                "qps": r.qps,
                "similar_p50_ms": percentile(r.similar_ms, 50),
                "similar_p95_ms": percentile(r.similar_ms, 95),
                "commit_p50_ms": percentile(r.commit_ms, 50),
                "commits": len(r.commit_ms),
                "slowdown": r.slowdown,
                **r.extra,
            }
            for r in rounds
        ],
    }
