"""Incremental maintenance of standing-query results under updates.

The :class:`ResultMaintainer` is the commit hook the
:class:`~repro.watch.WatchManager` installs on its network: after every
``hin.apply()`` commit it walks the registry and brings each watch to
the new epoch by the cheapest exact route, in escalation order:

1. **Untouched** — the batch's deltas provably cannot reach the
   watched result (no shared relation, or backward reachability over
   the path's steps misses every changed row —
   :func:`~repro.watch.analysis.touched_chain_rows`).  The watch is
   stamped forward; zero scores computed.
2. **Incremental** — only the touched candidate rows are re-scored
   and merged into the stored ranking.  Per path group that is one
   sparse partial product
   (:meth:`~repro.engine.MetaPathEngine.pathsim_partial_block`, priced
   by the touched rows' nnz, not the inner dimension), then one mask
   over the whole group that settles every watch whose re-scored
   candidates all rank below its cut and miss its stored top-k; only
   the remaining watches reach the Python merge.  The merge is exact
   iff the new k-th rank key stays within the old k-th bound —
   untouched rows outside the pool kept their scores, so none can
   cross a non-increasing cut.
3. **Fallback / recompute** — the bound moved the wrong way, the
   query's own row changed, or the candidate universe grew: the path
   group's fallbacks are recomputed together by one
   :meth:`~repro.engine.MetaPathEngine.pathsim_top_k_batch`.  A watch
   that missed an epoch (or a touched connectivity row) is recomputed
   on its own.

Exactness is bit-level by construction: partial scoring sums the same
stored entries in the same order as the full row product, untouched
rows are bit-unchanged (see :mod:`repro.watch.analysis`), and ranking
uses the engine's ``(-score, index)`` stable order — so every
maintained result equals a cold engine's answer at that epoch,
tie-breaks included.

Pushes run synchronously on the writer's thread (inside the commit
hook, after the registry mutex is released).  A ``next()`` future's
raising done-callback is contained and logged by
:mod:`concurrent.futures`; it neither fails ``hin.apply()`` nor starves
other watches.
"""

from __future__ import annotations

import numpy as np

from repro.query.results import TopKResult
from repro.watch.analysis import touched_chain_rows

__all__ = ["ResultMaintainer"]

# Classification verdicts, both batched per path group: the watch
# survives every cheap check and needs its touched candidates re-scored,
# or it needs a full recompute.
_NEEDS_SCORES = object()
_FALLBACK = object()


class ResultMaintainer:
    """Drives one registry's watches from epoch to epoch.

    Owned by (and mutually referencing) a
    :class:`~repro.watch.WatchManager`; all mutation of watch state
    happens under the manager's mutex.
    """

    def __init__(self, manager):
        self._manager = manager

    @property
    def hin(self):
        """The watched network."""
        return self._manager.hin

    # ------------------------------------------------------------------
    # Registration-time state
    # ------------------------------------------------------------------
    def initialize(self, watch) -> None:
        """Compute a fresh watch's initial result at the current epoch.

        Runs under the manager mutex (registration path).  The epoch
        adopted is the result's own ``network_version`` — read under
        the engine lock that computed it — so a commit racing the
        registration can never mark a stale result as fresh.
        """
        result = self._compute(watch)
        indices, scores = self._rank_arrays(result)
        watch.adopt(result.network_version, result, indices, scores)

    # ------------------------------------------------------------------
    # The commit hook
    # ------------------------------------------------------------------
    def on_commit(self, update) -> None:
        """Bring every watch to ``update.epoch``; push changed results.

        Registered via ``hin.add_commit_hook`` — runs on the writer's
        thread after the engine write lock is released, while the
        network's update mutex is still held (so maintenance for epoch
        ``N`` always completes before epoch ``N+1`` begins).
        """
        manager = self._manager
        pushes = []
        # Watches over the same path share their per-commit analysis:
        # the touched-row set depends only on (steps, update), and both
        # the partial re-scoring and the fallback recompute batch per
        # path group — per-watch cost is a mask entry, not scipy.
        touched_cache: dict = {}
        groups: dict = {}
        outcomes = []
        with manager._mutex:
            manager._counters["commits"] += 1
            for watch in list(manager._watches.values()):
                if watch.epoch >= update.epoch:
                    continue  # registered at/past this epoch already
                if watch.epoch != update.epoch - 1:
                    # Missed epochs (shouldn't happen under the update
                    # mutex, but a restored registry might): resync.
                    verdict = self._recompute(watch, update, "recomputed")
                elif watch.spec.measure == "pathsim":
                    verdict = self._classify_pathsim(watch, update, touched_cache)
                else:
                    verdict = self._maintain_connectivity(watch, update, touched_cache)
                if verdict is _NEEDS_SCORES or verdict is _FALLBACK:
                    scoring, fallbacks = groups.setdefault(watch.group_key, ([], []))
                    (scoring if verdict is _NEEDS_SCORES else fallbacks).append(watch)
                else:
                    outcomes.append((watch, verdict))
            for scoring, fallbacks in groups.values():
                if scoring:
                    fallbacks += self._merge_group(
                        scoring, update, touched_cache, outcomes
                    )
                outcomes.extend(self._recompute_group(fallbacks, update))
            for watch, result in outcomes:
                if result is not None:
                    subscribers = list(watch.subscribers)
                    manager._counters["pushes"] += len(subscribers)
                    pushes.append((subscribers, result))
        # Deliver outside the registry mutex: a push callback may
        # inspect the manager (stats, current()) without deadlocking.
        for subscribers, result in pushes:
            for subscription in subscribers:
                subscription._push(update.epoch, result)

    # ------------------------------------------------------------------
    # Per-measure maintenance
    # ------------------------------------------------------------------
    def _touched(self, watch, update, cache):
        """Memoized per-commit reachability: ``(rows, membership set)``
        of :func:`touched_chain_rows` over the watch's maintained
        steps.  Watches on the same path share one entry."""
        key = tuple(
            (rel.name, forward) for rel, forward in watch.maintained_steps
        )
        if key not in cache:
            rows = touched_chain_rows(
                self.hin, watch.maintained_steps, update
            )
            cache[key] = (rows, frozenset(rows.tolist()))
        return cache[key]

    def _classify_pathsim(self, watch, update, touched_cache):
        """Cheap checks of a PathSim watch: stamp it, or declare it
        ``_FALLBACK`` (batched recompute) or ``_NEEDS_SCORES`` (batched
        partial pass)."""
        # New source-type nodes enlarge the candidate universe beyond
        # the stored pool — the merge bound says nothing about them.
        if watch.mp.source_type in update.node_growth:
            return _FALLBACK
        # watch.relations names every relation of the symmetric path.
        if not (watch.relations & update.deltas.keys()):
            return self._stamp(watch, update)
        touched, members = self._touched(watch, update, touched_cache)
        if touched.size == 0:
            return self._stamp(watch, update)
        if watch.index in members:
            # The query's own half-product row (hence its diagonal,
            # hence every denominator) may have changed.
            return _FALLBACK
        if watch.spec.k == 0:
            return self._stamp(watch, update)
        return _NEEDS_SCORES

    def _merge_group(self, watches, update, touched_cache, outcomes):
        """Re-score one path group's touched candidates and settle each
        watch; returns the watches whose bound was invalidated.

        One sparse partial product scores every watch on the path, and
        one mask settles the common case: every re-scored candidate
        ranks strictly below the watch's stored cut —
        ``(-s, j) > (-kth, kth_j)`` — and none sits inside its stored
        top-k, so the result is provably unchanged.  Only the rest
        reach the Python merge; their outcomes go to *outcomes*.
        """
        touched, _ = self._touched(watches[0], update, touched_cache)
        block = self.hin.engine().pathsim_partial_block(
            watches[0].mp, [watch.index for watch in watches], touched
        )
        # A watch holding fewer than k entries enumerated its whole
        # candidate universe: no cut to screen against (-inf fails it).
        kth = np.array([
            (watch.scores[-1], watch.indices[-1])
            if watch.indices.size >= watch.spec.k else (-np.inf, -1)
            for watch in watches
        ])
        kth_score, kth_index = kth[:, :1], kth[:, 1:]
        below = (block < kth_score) | (
            (block == kth_score) & (touched[None, :] > kth_index)
        )
        stored = [watch.indices for watch in watches]
        owner = np.repeat(np.arange(len(watches)), [s.size for s in stored])
        hit = np.zeros(len(watches), dtype=bool)
        hit[owner[np.isin(np.concatenate(stored), touched)]] = True
        settled = below.all(axis=1) & ~hit
        for name in ("incremental", "unchanged"):
            self._manager._counters[name] += int(settled.sum())
        fallbacks = []
        for watch, row, done in zip(watches, block, settled.tolist()):
            if done:
                watch.epoch = update.epoch
                continue
            merged = self._merge_pathsim(watch, update, touched, row)
            if merged is _FALLBACK:
                fallbacks.append(watch)
            else:
                outcomes.append((watch, merged))
        return fallbacks

    def _merge_pathsim(self, watch, update, touched, touched_scores):
        """Merge re-scored candidates into one watch's stored ranking;
        ``_FALLBACK`` when the bound is invalidated."""
        spec = watch.spec
        pool = dict(zip(watch.indices.tolist(), watch.scores.tolist()))
        for j, score in zip(touched.tolist(), touched_scores.tolist()):
            pool[int(j)] = float(score)
        ranked = sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))
        top = ranked[: spec.k]
        if watch.indices.size >= spec.k:
            # Rows outside the pool kept their scores and ranked
            # strictly below the old k-th key; the merge is exact iff
            # the cut did not rise past that bound.
            old_bound = (-float(watch.scores[-1]), int(watch.indices[-1]))
            new_kth = (-top[-1][1], top[-1][0])
            if new_kth > old_bound:
                return _FALLBACK
        # else: the old result enumerated the entire candidate
        # universe (engine returned fewer than k), so the pool is it.
        self._manager._counters["incremental"] += 1
        return self._install_pairs(watch, update, top)

    def _recompute_group(self, watches, update):
        """Recompute one path group's fallbacks with one
        :meth:`~repro.engine.MetaPathEngine.pathsim_top_k_batch` —
        answer for answer (``mode`` included) what
        :meth:`~repro.engine.MetaPathEngine.pathsim_top_k` returns."""
        if not watches:
            return []
        spec = watches[0].spec
        results = self.hin.engine().pathsim_top_k_batch(
            watches[0].mp, [watch.index for watch in watches], spec.k,
            exclude_query=spec.exclude_self,
        )
        self._manager._counters["fallback"] += len(watches)
        return [
            (watch, self._install(watch, update, result))
            for watch, result in zip(watches, results)
        ]

    def _maintain_connectivity(self, watch, update, touched_cache):
        """Connectivity watch: all-or-nothing — the row product has no
        stored decomposition to merge into, so a touched query row is
        recomputed outright and an untouched one is stamped forward."""
        if watch.mp.target_type in update.node_growth:
            return self._recompute(watch, update, "fallback")
        if not (watch.relations & update.deltas.keys()):
            return self._stamp(watch, update)
        _, members = self._touched(watch, update, touched_cache)
        if watch.index not in members:
            return self._stamp(watch, update)
        return self._recompute(watch, update, "recomputed")

    # ------------------------------------------------------------------
    # State transitions (all under the manager mutex)
    # ------------------------------------------------------------------
    def _stamp(self, watch, update):
        """Epoch-stamp an untouched watch; nothing to push."""
        watch.epoch = update.epoch
        self._manager._counters["untouched"] += 1
        return None

    def _recompute(self, watch, update, counter: str):
        """Full recompute through the engine's normal entry points."""
        result = self._compute(watch)
        self._manager._counters[counter] += 1
        return self._install(watch, update, result)

    def _compute(self, watch) -> TopKResult:
        """The watch's query, answered cold by the engine."""
        engine = self.hin.engine()
        spec = watch.spec
        if spec.measure == "pathsim":
            return engine.pathsim_top_k(
                watch.mp,
                watch.index,
                spec.k,
                exclude_query=spec.exclude_self,
            )
        return engine.top_k_connectivity(
            watch.mp,
            watch.index,
            spec.k,
            exclude_query=spec.exclude_self,
        )

    def _install(self, watch, update, result: TopKResult):
        """Adopt an engine-computed result; push only if it changed."""
        indices, scores = self._rank_arrays(result)
        changed = not (
            np.array_equal(indices, watch.indices)
            and np.array_equal(scores, watch.scores)
        )
        watch.adopt(update.epoch, result, indices, scores)
        if not changed:
            self._manager._counters["unchanged"] += 1
            return None
        return result

    def _install_pairs(self, watch, update, top: list):
        """Adopt a merged ``(index, score)`` ranking; push if changed.

        The engine's own result builder rebuilds the public result
        from the already bit-exact merged floats, stamped with the
        kernel of the ranking the merge patched.  An unchanged ranking
        skips the rebuild entirely.
        """
        indices = np.array([j for j, _ in top], dtype=np.int64)
        scores = np.array([score for _, score in top], dtype=np.float64)
        if np.array_equal(indices, watch.indices) and np.array_equal(
            scores, watch.scores
        ):
            watch.epoch = update.epoch
            self._manager._counters["unchanged"] += 1
            return None
        result = self.hin.engine()._top_k_result(
            watch.mp, watch.mp.source_type, watch.index, top, "pathsim",
            update.epoch, watch.result.mode,
        )
        watch.adopt(update.epoch, result, indices, scores)
        return result

    def _rank_arrays(self, result: TopKResult):
        """``(indices, scores)`` arrays of an engine result's ranking."""
        engine = self.hin.engine()
        node_type = result.node_type
        indices = np.array(
            [engine._resolve(node_type, label) for label, _ in result],
            dtype=np.int64,
        )
        scores = np.array([score for _, score in result], dtype=np.float64)
        return indices, scores
