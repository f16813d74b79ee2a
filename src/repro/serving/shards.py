"""Sharded cluster serving: row-partitioned scatter/merge top-k.

:class:`~repro.serving.ClusterService` replicates the *entire* network
into every worker — per-worker memory and publish time scale with
N x network, which is exactly backwards for the "millions of users"
regime the ROADMAP targets.  This module is the partitioned
alternative: each served meta-path's half product ``W`` is split
**row-wise** into contiguous node ranges (one per shard, balanced by
incident nnz), each shard's slice is packed into its own generation
(one image file), and a top-k query executes as

::

    parent                          shard workers (one process each)
    ------                          --------------------------------
    extract W[q] rows + diag[q]  →  scatter (same payload to all)
                                    score own rows:  2·(W_s · w_q)
                                                     ─────────────
                                                     diag_q + diag_s
                                    partial top-k over [lo, hi)
    exact k-way merge            ←  (global indices, scores)
    tie-stable TopKResult

**Bit-identity.**  The distributed answer equals the single-process
engine's, bit for bit, by construction rather than by tolerance:

* A shard job calls the engine's own kernels
  (:mod:`repro.engine.kernels`) on its slice.  CSR row slicing
  preserves each row's stored entries and their order, so
  ``W_s.dot(w_q)`` runs the identical per-row summation as rows
  ``[lo, hi)`` of the full ``W.dot(w_q)``.
* The query-side operands a shard cannot derive from its slice — the
  query's ``W`` rows and its PathSim diagonal entry — are extracted
  from the *parent-held* half product
  (:meth:`~repro.engine.MetaPathEngine.pathsim_query_rows`, the same
  planner-aware materialization every entry point uses) and shipped
  with the job, so each denominator ``diag[q] + diag[j]`` is the same
  two floats added in the same order.
* Each shard surfaces its top ``k`` (``k+1`` under self-exclusion) in
  the engine's ``(-score, index)`` order; a global winner ranks at
  least as high within its own shard, so the per-shard cut never drops
  one, and :func:`~repro.engine.topk.merge_top_k` re-sorts the union
  under the identical stable key.

**Updates.**  The single-writer ``hin.apply()`` path is unchanged.  The
commit hook classifies each :class:`~repro.networks.updates.AppliedUpdate`
per shard — backward reachability over each served path's half steps
(:func:`~repro.watch.analysis.touched_chain_rows`, an exact superset)
intersected with the shard's row range — and republishes **only the
touched shards**: a localized batch moves one shard's generation while
the others keep serving their still-bit-valid slices.  Node growth
recomputes the :class:`ShardPlan` and republishes everything.  A shard
whose publish raises keeps its last published generation and is
*stale*: later commits retry it, and until one succeeds top-k groups
run parent-side rather than scatter.

**Who owns what.**  This module owns the row partition
(:class:`ShardPlan`), which rows of which half products a shard packs,
and the scatter/merge.  How those entries become flat arrays and a
descriptor is not decided here: a shard generation is packed by the
state codec and published and attached by the generation container
(both :mod:`repro.serving.shm`), the same functions a replicated
generation goes through.

Standing queries are maintained in the parent, on the engine that
holds the full half products anyway (the scatter extracts its query
rows from them): the :class:`~repro.watch.WatchManager`'s commit hook
re-scores touched candidates in process, independent of the workers.

``tests/serving/test_shards.py`` asserts the bit-identity, the ≤1/2
per-worker payload against a replicated generation and the
touched-shards-only republication; ``tests/serving/test_api.py::TestEpochRule``
the epoch consistency under a live writer; the benchmark's
``scaleout_read`` workload measures the tier.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.engine import kernels
from repro.engine.topk import finalize_top_k, merge_top_k, shard_top_k
from repro.exceptions import ReproError
from repro.networks.stats import balanced_ranges, type_row_weights
from repro.serving.service import _pathsim_fields
from repro.serving.shm import PublishedGeneration, _publish
from repro.serving.workers import _JOB_TIMEOUT_S, _ProcessTier
from repro.watch.analysis import touched_chain_rows

__all__ = ["ShardPlan", "ShardedClusterService", "publish_shard_generation"]

# What makes the scatter step aside for the parent-side job, which then
# reports the engine's own error per request: a typed library error
# (asymmetric path, unknown object) or an unhashable/unorderable query
# object.  Anything else is a bug and surfaces through the futures.
_DECLINED = (ReproError, TypeError)


# ----------------------------------------------------------------------
# Shard assignment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Row-range assignment of each partitioned node type to shards.

    Every node type that sources a served meta-path is split into
    ``shards`` contiguous ``[lo, hi)`` ranges, balanced by each row's
    incident link count (:func:`~repro.networks.stats.type_row_weights`
    through :func:`~repro.networks.stats.balanced_ranges`) — a row's
    serving cost is proportional to its nnz, not its existence.  Ranges
    are contiguous and ascending by construction, which is what makes
    the scatter/merge order exact.  A type with fewer rows than shards
    simply yields empty trailing ranges, which every consumer (packing,
    scoring, merging) tolerates.
    """

    shards: int
    ranges: dict  # node_type -> tuple of (lo, hi) per shard

    @classmethod
    def compute(cls, hin, node_types, shards: int) -> "ShardPlan":
        """Balance *node_types* of *hin* across *shards* by incident nnz."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        ranges = {
            t: tuple(balanced_ranges(type_row_weights(hin, t), shards))
            for t in node_types
        }
        return cls(int(shards), ranges)

    def range_of(self, node_type: str, shard: int) -> tuple[int, int]:
        """The ``[lo, hi)`` row range of *node_type* owned by *shard*."""
        return self.ranges[node_type][shard]

    def shards_touching(self, node_type: str, rows) -> set[int]:
        """Which shards own at least one of *rows* (sorted indices)."""
        rows = np.asarray(rows, dtype=np.int64)
        out: set[int] = set()
        if rows.size == 0 or node_type not in self.ranges:
            return out
        for shard, (lo, hi) in enumerate(self.ranges[node_type]):
            if lo == hi:
                continue
            a = int(np.searchsorted(rows, lo, side="left"))
            b = int(np.searchsorted(rows, hi, side="left"))
            if b > a:
                out.add(shard)
        return out

    def __repr__(self) -> str:
        return f"ShardPlan(shards={self.shards}, types={sorted(self.ranges)})"


class _ServedPath:
    """Per-served-path state staged once at registration time."""

    __slots__ = ("mp", "token", "half_steps", "relations")

    def __init__(self, mp):
        self.mp = mp
        # The canonical key is the path's identity across every
        # spelling; it names the path in job payloads and descriptors.
        self.token = mp.canonical_key()
        steps = tuple(mp.steps())
        self.half_steps = steps[: len(steps) // 2]
        self.relations = frozenset(rel.name for rel, _ in self.half_steps)

    @property
    def source_type(self) -> str:
        """Node type of the meta-path's source (and, symmetric, target)."""
        return self.mp.source_type


# ----------------------------------------------------------------------
# Per-shard generations and the shard job executor
# ----------------------------------------------------------------------
def publish_shard_generation(
    hin, engine, served, plan: ShardPlan, shard: int, *, directory, generation: int
) -> PublishedGeneration:
    """Pack one shard's slice of every served path into a generation.

    For each served path, the shard's rows ``[lo, hi)`` of the half
    product ``W`` plus the matching diagonal slice are captured under
    one engine read-lock hold — the same planner-aware
    ``_pathsim_parts`` materialization the single-process entry points
    use, so the packed values are bitwise the ones a replicated worker
    would compute — then written once into the generation's image
    file, beside its compact-JSON descriptor.  The rows are *views* of
    ``W``'s own arrays (``data[a:b]``, ``indices[a:b]``, and
    ``indptr[lo:hi+1] - a`` where ``a, b = indptr[lo], indptr[hi]``):
    the bytes ``w[lo:hi]`` would pack, without its copy.  ``W`` is
    replaced on update, never written, so the views stay valid after
    the lock is released.
    The result is an ordinary generation
    (:mod:`repro.serving.shm`) whose PathSim entries carry their
    ``lo``/``hi`` row range and which has no network section: a shard
    worker holds ~1/N of each served path's index, not the network.

    Parameters
    ----------
    hin / engine:
        The live network and its shared engine.
    served:
        Iterable of :class:`_ServedPath` (stable iteration order).
    plan / shard:
        The row assignment and which shard to pack.
    directory / generation:
        Where the descriptor lives and the shard-local monotonic
        counter naming it (``shard<s>-gen-<n>.json``).
    """
    entries, ranges = [], []
    with engine.lock.read():
        epoch = getattr(hin, "version", 0)
        for spath in served:
            w, diag = engine._pathsim_parts(spath.mp)
            lo, hi = plan.range_of(spath.source_type, shard)
            a, b = w.indptr[lo], w.indptr[hi]
            # Rows [lo, hi) as views of W's own arrays: ``w[lo:hi]`` and
            # the (data, indices, indptr) constructor, which prunes a
            # view of a larger array, would both copy them first.
            rows = sp.csr_matrix((hi - lo, w.shape[1]))
            rows.data, rows.indices = w.data[a:b], w.indices[a:b]
            rows.indptr = w.indptr[lo : hi + 1] - a
            entries.append((("pathsim", spath.token), (rows, diag[lo:hi])))
            ranges.append({"lo": int(lo), "hi": int(hi)})
    stem = f"shard{int(shard)}-gen"
    return _publish(directory, stem, generation, {"epoch": int(epoch)}, [], entries, ranges)


def _pack_queries(q_rows: sp.csr_matrix, q_diag: np.ndarray) -> tuple:
    """The scattered query payload ``(W[q] rows, diag[q])`` as bare
    arrays (cheaper to pickle than the matrix object)."""
    return q_rows.data, q_rows.indices, q_rows.indptr, q_rows.shape, q_diag


def _unpack_queries(packed) -> tuple[sp.csr_matrix, np.ndarray]:
    """Rebuild :func:`_pack_queries`' payload."""
    data, indices, indptr, shape, q_diag = packed
    rows = sp.csr_matrix((data, indices, indptr), shape=tuple(shape), copy=False)
    rows.has_canonical_format = True
    return rows, np.asarray(q_diag, dtype=np.float64)


def _execute_shard_job(state, kind, payload):
    """One shard job -> aligned ``("ok", value) | ("err", error)`` statuses.

    The one job kind, ``block``, answers a scattered top-k with the
    engine's own block kernel (:func:`repro.engine.kernels.pathsim_block`,
    which scores a block of one query by its mat-vec) applied to the
    attached slice ``w[lo:hi], diag[lo:hi]``: one status per query,
    each carrying the shard's partial ``(global indices, scores)`` list.
    """
    if kind != "block":
        raise ValueError(f"unknown shard job kind {kind!r}")
    token, need, packed = payload
    w_s, diag_s, lo = state.slices[token]
    q_rows, q_diag = _unpack_queries(packed)
    scores = kernels.pathsim_block(w_s, diag_s, q_rows, q_diag)
    return [("ok", shard_top_k(row, need, offset=lo)) for row in scores]


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class ShardedClusterService(_ProcessTier):
    """Multi-process serving with row-sharded state and scatter/merge top-k.

    Parameters
    ----------
    hin:
        The network to serve.  The parent keeps the only mutable copy
        (and the full half products); updates flow through
        ``hin.apply()`` and republish only the touched shards.
    paths:
        The symmetric meta-paths to shard-serve.  Top-k PathSim over
        these scatters across the workers; everything else — other
        paths, other measures, connectivity, rankings — executes
        parent-side, at the same epoch guarantees.  More paths can be
        added later with :meth:`prewarm`.
    shards:
        Worker-process count = partition count.  Defaults to the
        usable CPU count capped at 4.
    directory:
        Where shard generation descriptors live (a private temp
        directory by default).

    The client surface is the inherited
    :class:`~repro.serving.QueryService` one; swapping a replicated
    ``ClusterService`` for this class changes construction only (see
    GUIDE §8).  Use as a context manager, or call :meth:`close`.
    """

    _label = "shards"

    def __init__(
        self,
        hin,
        paths,
        *,
        shards: int | None = None,
        directory=None,
    ):
        if hin is None:
            raise ValueError("ShardedClusterService needs a live hin")
        paths = list(paths)
        if not paths:
            raise ValueError(
                "ShardedClusterService needs at least one served meta-path"
            )
        engine = hin.engine()
        self._served: dict[tuple, _ServedPath] = {}
        for p in paths:
            spath = _ServedPath(engine.symmetric_path(p))
            self._served.setdefault(spath.token, spath)
        # One mutex for anything that uses the shard channels (scatter,
        # worker_memory) — channels carry one outstanding job each; one
        # for republication bookkeeping.
        self._scatter_mutex = threading.Lock()
        self._publish_mutex = threading.Lock()
        self._stats_mutex = threading.Lock()
        self._scatters = 0
        self._fallbacks = 0
        self._start(hin, shards, directory)

    def _prepare(self, shards: int) -> None:
        """Plan the row ranges and publish every shard's generation 0."""
        self._plan = self._replan(shards)
        self._shard_gens = [0] * shards
        self._shard_epochs = [0] * shards
        # Shards whose last publish failed: every later commit retries
        # them, and no top-k group scatters while one is left.
        self._stale: set[int] = set()
        self._published_epoch = self.epoch
        for s in range(shards):
            self._publish_shard(s, 0)

    def _replan(self, shards: int) -> ShardPlan:
        """A fresh :class:`ShardPlan` over the served paths' source types."""
        return ShardPlan.compute(
            self.hin, sorted({s.source_type for s in self._served.values()}), shards
        )

    def _worker_spec(self, shard: int) -> tuple:
        """Worker *shard* follows its own ``shard<s>-gen-<n>.json``
        series; jobs pin the generation, so there is no shared counter."""
        return None, f"shard{shard}-gen", _execute_shard_job

    def _fence(self, shard: int) -> tuple:
        """Every shard job pins an **exact generation**: a scattered
        query's per-shard partials must all come from the same epoch as
        the parent-extracted query rows, and the parent guarantees (by
        dispatching under the engine read lock, which excludes commits,
        hence republications) that the pinned generation is current
        and stays attachable for the job's duration."""
        return 0, self._shard_gens[shard]

    def _exclusive(self):
        """The scatter mutex grants every channel at once."""
        return self._scatter_mutex

    def prewarm(self, *paths) -> "ShardedClusterService":
        """Add *paths* to the shard-served set and republish every shard.

        New source types extend the :class:`ShardPlan`; already-served
        paths are no-ops.  Runs under both mutexes, so it excludes
        in-flight scatters and concurrent republication.
        """
        engine = self.hin.engine()
        new = [_ServedPath(engine.symmetric_path(p)) for p in paths]
        with self._scatter_mutex, self._publish_mutex:
            for spath in new:
                self._served.setdefault(spath.token, spath)
            if {s.source_type for s in new} - set(self._plan.ranges):
                self._plan = self._replan(self._plan.shards)
            self._republish(range(len(self._channels)))
        return self

    # ------------------------------------------------------------------
    # Generation lifecycle
    # ------------------------------------------------------------------
    @property
    def republications(self) -> list[int]:
        """Per-shard republication counters (initial publish excluded) —
        the observable touched-shards-only maintenance is asserted on.
        They are the shards' generation numbers: a generation advances
        only when its publish succeeds."""
        return list(self._shard_gens)

    def _publish_shard(self, shard: int, generation: int) -> None:
        """Export *shard*'s current slice as *generation*.  Jobs pin it
        from their next fence on — only once the publish has returned,
        so a fence never names a generation that was not published."""
        published = publish_shard_generation(
            self.hin,
            self.hin.engine(),
            list(self._served.values()),
            self._plan,
            shard,
            directory=self._directory,
            generation=generation,
        )
        self._retain(shard, published)
        self._shard_gens[shard] = generation
        self._shard_epochs[shard] = published.epoch

    def _republish(self, shards) -> None:
        """Export each of *shards*, and every stale shard, as its next
        generation.

        A shard is stale from before its publish until the publish
        returns, so one that raises keeps its last published generation
        (which workers can still attach) but takes no scatter until a
        later call republishes it.  Every shard is attempted; the first
        failure is re-raised afterwards, and ``hin.apply()`` reports it.
        """
        failed = None
        for shard in sorted({*shards, *self._stale}):
            self._stale.add(shard)
            try:
                self._publish_shard(shard, self._shard_gens[shard] + 1)
                self._stale.discard(shard)
            except Exception as exc:
                failed = failed or exc
        if failed is not None:
            raise failed

    def _classify(self, update) -> set[int] | None:
        """Which shards *update* can touch; ``None`` means replan + all.

        Per served path whose relations carry a delta, the changed
        source rows are the backward reachability of the delta over the
        half steps (:func:`touched_chain_rows` — an exact superset:
        rows outside it multiply only unchanged entries, so their
        ``W``/diagonal slices are bit-unchanged and the shards holding
        them keep serving their old generation *validly at the new
        epoch*).  Node growth changes row universes and matrix shapes,
        so the plan itself is recomputed.
        """
        if update.node_growth:
            return None
        touched: set[int] = set()
        reach_cache: dict = {}
        for spath in self._served.values():
            if not (spath.relations & set(update.deltas)):
                continue
            key = tuple((rel.name, fwd) for rel, fwd in spath.half_steps)
            if key not in reach_cache:
                reach_cache[key] = touched_chain_rows(
                    self.hin, spath.half_steps, update
                )
            touched |= self._plan.shards_touching(
                spath.source_type, reach_cache[key]
            )
        return touched

    def _on_commit(self, update) -> None:
        """Commit hook: republish exactly the shards the batch touched."""
        with self._publish_mutex:
            touched = self._classify(update)
            if touched is None:
                self._plan = self._replan(self._plan.shards)
                touched = set(range(len(self._channels)))
            try:
                self._republish(touched)
            finally:
                # Scatters await this stamp: untouched shards' generations
                # are bit-valid at the new epoch (see _classify), so the
                # epoch is fully served the moment the touched ones land;
                # a shard whose publish failed is stale by now, and the
                # scatter that passes the stamp sees it and steps aside.
                self._published_epoch = update.epoch

    def _await_publish(self) -> None:
        """Block until shard generations cover the current epoch.

        Called under the engine read lock: a commit's hooks run *after*
        the write lock releases, so a scatter that slipped in between
        commit and republication would otherwise pair new query rows
        with old shard slices.  The spin is bounded by the hook
        actually running (on the writer's thread, lock-free), so this
        resolves in publication time, not job time.
        """
        deadline = time.monotonic() + _JOB_TIMEOUT_S
        while self._published_epoch != self.epoch:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "shard republication did not catch up to the committed "
                    "epoch (commit hook stalled?)"
                )
            time.sleep(0.001)

    # ------------------------------------------------------------------
    # The QueryService backend hook
    # ------------------------------------------------------------------
    def _served_for(self, path):
        """The :class:`_ServedPath` answering *path*, or ``None``."""
        try:
            mp = self.hin.engine().symmetric_path(path)
        except _DECLINED:
            return None
        return self._served.get(mp.canonical_key())

    def run_group(self, shape: tuple, objs) -> list[tuple]:
        """Run one ``(shape, objs)`` job: scatter when shard-served, else
        execute parent-side.

        Top-k PathSim over a served path scatters across every worker.
        All other requests run through :meth:`QueryService.run_group`
        — the same job against the parent's live engine under its read
        lock: same epoch guarantees, no worker round trip — so the full
        verb surface works before any path was shard-served.
        """
        fields = _pathsim_fields(shape)
        if fields is not None:
            path, k, exclude = fields
            spath = self._served_for(path)
            if spath is not None:
                statuses = self._scatter_top_k(spath, objs, k, exclude)
                if statuses is not None:
                    return statuses
        with self._stats_mutex:
            self._fallbacks += 1
        return super().run_group(shape, objs)

    def _scatter_top_k(self, spath, objs, k, exclude) -> list[tuple] | None:
        """Scatter one top-k group; merge exact per-query results.

        Runs under the scatter mutex (exclusive use of the shard
        channels) and the engine read lock.  The read lock is the epoch
        pin: commits queue behind it, so between `_await_publish` and
        the last collected partial, neither ``hin.version`` nor any
        shard generation can move — every worker provably answers from
        the same epoch the query rows were extracted at.  (``k`` is
        already a non-negative ``int``: the verbs check it.)  Returns
        ``None`` while a shard is stale (its last publish failed), or
        when the query rows cannot be extracted
        (unknown object): the caller's parent-side job then
        gives each request its own answer or the engine's own error.
        Any other failure is not a decline and surfaces as itself.
        """
        engine = self.hin.engine()
        need = k + 1 if exclude else k
        with self._scatter_mutex:
            with engine.lock.read():
                self._await_publish()
                # After the stamp, so a failed publish cannot slip in
                # between: a stale shard holds an older epoch's slice.
                if self._stale:
                    return None
                epoch = self.epoch
                try:
                    idx, q_rows, q_diag = engine.pathsim_query_rows(
                        spath.mp, objs
                    )
                except _DECLINED:
                    return None
                with self._stats_mutex:
                    self._scatters += 1
                job = (spath.token, need, _pack_queries(q_rows, q_diag))
                for s, channel in enumerate(self._channels):
                    channel.post("block", job, len(objs), self._fence(s))
                per_shard = []
                for channel in self._channels:
                    try:
                        per_shard.append(channel.collect())
                    except BaseException as exc:  # noqa: BLE001
                        per_shard.append([("err", exc)] * len(objs))
                return self._merge_results(
                    spath, idx, per_shard, k, need, exclude, epoch
                )

    def _merge_results(
        self, spath, idx, per_shard, k, need, exclude, epoch
    ) -> list[tuple]:
        """Exact k-way merge of per-shard partials into TopKResults.

        The engine's ``_select``, distributed: the merged order is
        ``(-score, global index)`` (:func:`merge_top_k` over partials
        that each surfaced their own top ``need``), the query row is
        filtered under self-exclusion, and the engine's own result
        builder stamps the scatter's epoch.
        """
        node_type = spath.source_type
        engine = self.hin.engine()
        statuses = []
        for q_pos, q_index in enumerate(idx):
            answers = [shard_statuses[q_pos] for shard_statuses in per_shard]
            errors = [value for status, value in answers if status != "ok"]
            if errors:  # the first shard's error, as a one-shard job would
                statuses.append(("err", errors[0]))
                continue
            merged_idx, merged_scores = merge_top_k([value for _, value in answers], need)
            q_index = int(q_index)
            pairs = finalize_top_k(
                zip(merged_idx, merged_scores), k,
                q_index if exclude else None,
            )
            result = engine._top_k_result(
                spath.mp, node_type, q_index, pairs, "pathsim", epoch, "materialize"
            )
            statuses.append(("ok", result))
        return statuses

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def worker_memory(self) -> list[dict]:
        """One memory report per shard worker (see
        :meth:`ClusterService.worker_memory`; adds ``shard``).  The
        ``payload_bytes`` side is ~1/N of each served path's index —
        the sharded memory claim."""
        reports = super().worker_memory()
        for shard, report in enumerate(reports):
            report["shard"] = shard
        return reports

    def stats(self) -> dict:
        """The queue's counters (:meth:`QueryService.stats`) plus
        sharding ones: ``shards``, ``scatters``, ``fallbacks``,
        per-shard ``republications``/``shard_epochs``, and the current
        ``plan`` ranges."""
        out = super().stats()
        with self._stats_mutex:
            out.update(
                shards=len(self._channels),
                scatters=self._scatters,
                fallbacks=self._fallbacks,
            )
        with self._publish_mutex:
            out.update(
                republications=list(self._shard_gens),
                shard_epochs=list(self._shard_epochs),
                plan={t: list(r) for t, r in self._plan.ranges.items()},
            )
        return out

    def __repr__(self) -> str:
        return (
            f"ShardedClusterService({self.hin!r}, "
            f"shards={len(self._channels)}, paths={len(self._served)}, "
            f"epoch={self.epoch})"
        )
