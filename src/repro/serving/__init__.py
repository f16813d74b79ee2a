"""Concurrent query serving: worker pools, process clusters, snapshots.

The production-facing layer above the query facade.  Every deployment
shape *is* a :class:`QueryService` — the verbs ``similar`` /
``connected`` / ``rank`` / ``watch``, the request queue and its
coalescing and batching are one class's, and a process tier only
overrides where a job runs (:meth:`QueryService.run_group`) — so code
written against one service class runs unchanged against the others;
only construction differs.  Five pieces:

* thread-safe engine serving — the engine's read–write lock
  (:attr:`repro.engine.MetaPathEngine.lock`) lets any number of query
  threads share one cache while ``hin.apply()`` commits update batches
  atomically between them;
* :class:`QueryService` — a worker pool that accepts the verbs as
  futures, coalesces duplicate in-flight requests, and batches
  same-meta-path top-k queries into single block products;
* :class:`ClusterService` — the same surface over N worker *processes*,
  each attaching the **whole** network's canonical-CSR matrices and
  warm cache zero-copy by mapping one image file per generation
  (:mod:`repro.serving.shm`); updates commit centrally in the parent
  and publish immutable epoch-stamped generations that workers swap
  atomically — real multi-core throughput past the GIL;
* :class:`ShardedClusterService` — the same surface over N workers that
  each hold ~1/N of the served paths' state
  (:mod:`repro.serving.shards`): top-k runs as scatter → per-shard
  partial top-k → exact tie-stable merge, bit-identical to the
  single-process answer, and updates republish only the shards they
  touch (both process tiers share one generation container, worker
  loop and QueryService subclass: :mod:`repro.serving.shm`,
  :mod:`repro.serving.workers`);
* snapshots — :func:`save_snapshot` / :func:`load_snapshot` persist the
  network plus its materialized commuting matrices so a new process
  starts warm (optionally memory-mapped, zero-copy).  They are the one
  way to disk and the one way back: a snapshot returns as the network
  it was taken from, with content hashes guarding the files.

See ``docs/GUIDE.md`` for the task-oriented walkthrough (§8 covers
replicated → sharded migration), ``docs/ARCHITECTURE.md`` → "Serving &
concurrency" and "Sharded serving" for the design, and
``benchmarks/perf/README.md`` for the measured throughput and memory of
each tier.
"""

from repro.serving.cluster import ClusterService
from repro.serving.service import QueryService
from repro.serving.shards import ShardedClusterService, ShardPlan
from repro.serving.snapshot import load_snapshot, network_fingerprint, save_snapshot

__all__ = [
    "QueryService",
    "ClusterService",
    "ShardedClusterService",
    "ShardPlan",
    "save_snapshot",
    "load_snapshot",
    "network_fingerprint",
]
