"""Incremental maintenance of standing-query results under updates.

The :class:`ResultMaintainer` is the commit hook the
:class:`~repro.watch.WatchManager` installs on its network: after every
``hin.apply()`` commit it brings each watch to the new epoch by the
cheapest exact route.  The unit of that decision is the *path group* —
the watches that share measure, canonical path, ``k`` and self-exclusion
— so every check except "was my query row touched" is made once per
group, in escalation order:

1. **Fallback** — the candidate universe grew (new nodes of the path's
   target type, which is PathSim's source type too): the stored pools
   say nothing about the new rows, so the group is recomputed.
2. **Untouched** — ``k == 0``, or the batch's deltas provably cannot
   reach the watched results (no shared relation, or backward
   reachability over the path's steps misses every changed row —
   :func:`~repro.watch.analysis.touched_chain_rows`).  The group is
   stamped forward; zero scores computed.
3. **Touched rows** — one ``np.isin`` splits the group on its query
   rows.  A touched query row moved its diagonal (every PathSim
   denominator) or its whole connectivity row: those watches are
   recomputed.  The other connectivity watches are stamped.  The other
   PathSim watches are **incremental**: one sparse partial product
   (:meth:`~repro.engine.MetaPathEngine.pathsim_partial_block`, priced
   by the touched rows' nnz, not the inner dimension) re-scores the
   touched candidates for all of them, and one vectorized merge
   re-ranks the stacked stored top-k.  The merge is exact iff a row's
   new k-th rank key stays within its old k-th bound — untouched rows
   outside the pool kept their scores, so none can cross a
   non-increasing cut; a row whose bound moved the wrong way is
   recomputed (**fallback**).  Only rows whose ranking changed reach
   Python.

Recomputes run per group: one
:meth:`~repro.engine.MetaPathEngine.pathsim_top_k_batch` for PathSim,
one :meth:`~repro.engine.MetaPathEngine.top_k_connectivity` per
connectivity watch.  A watch that missed an epoch is recomputed the
same way.

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

# Index of an empty slot in a stacked ranking: paired with a -inf score
# it ranks after every real entry under the (-score, index) order.
_EMPTY = np.iinfo(np.int64).max


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
        (result,) = self._answers([watch])
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
        groups: dict = {}
        gaps: dict = {}
        changed = []
        with manager._mutex:
            manager._counters["commits"] += 1
            for watch in manager._watches.values():
                if watch.epoch >= update.epoch:
                    continue  # registered at/past this epoch already
                # Missed epochs (shouldn't happen under the update
                # mutex, but a restored registry might) are resynced.
                due = groups if watch.epoch == update.epoch - 1 else gaps
                due.setdefault(watch.group_key, []).append(watch)
            for watches in groups.values():
                changed += self._decide(watches, update)
            for watches in gaps.values():
                changed += self._recompute_group(watches, update, "recomputed")
            pushes = [(list(watch.subscribers), result) for watch, result in changed]
            manager._counters["pushes"] += sum(len(subs) for subs, _ in pushes)
        # Deliver outside the registry mutex: a push callback may
        # inspect the manager (stats, current()) without deadlocking.
        for subscribers, result in pushes:
            for subscription in subscribers:
                subscription._push(update.epoch, result)

    # ------------------------------------------------------------------
    # One decision per path group (all under the manager mutex)
    # ------------------------------------------------------------------
    def _decide(self, watches, update) -> list:
        """Bring one path group to ``update.epoch`` (module docstring's
        escalation order); returns the changed ``(watch, result)`` pairs."""
        first = watches[0]
        # A symmetric PathSim path ends on its source type, so the
        # target type is every measure's candidate universe.
        if first.mp.target_type in update.node_growth:
            return self._recompute_group(watches, update, "fallback")
        touched = np.empty(0, dtype=np.int64)
        if first.spec.k and first.relations & update.deltas.keys():
            touched = touched_chain_rows(self.hin, first.maintained_steps, update)
        if touched.size == 0:
            return self._stamp(watches, update)
        hit = np.isin([watch.index for watch in watches], touched).tolist()
        hits = [watch for watch, h in zip(watches, hit) if h]
        rest = [watch for watch, h in zip(watches, hit) if not h]
        if first.spec.measure == "connectivity":
            # The row product has no stored decomposition to merge into.
            self._stamp(rest, update)
            return self._recompute_group(hits, update, "recomputed")
        changed, fallbacks = self._merge(rest, update, touched)
        return changed + self._recompute_group(hits + fallbacks, update, "fallback")

    def _merge(self, watches, update, touched) -> tuple[list, list]:
        """Re-score the touched candidates of PathSim watches whose own
        rows are untouched and merge them into the stored rankings, all
        rows at once; returns ``(changed pairs, fallback watches)``.

        The stored top-k are stacked into one padded array whose last
        column is each row's cut — a row holding fewer than ``k``
        entries enumerated its whole universe and pads it with an empty
        slot, which every candidate ranks above and no merge falls
        below.  Stored entries on touched rows are replaced by their
        re-scored candidates; candidates strictly below every row's cut
        are dropped, as none can enter an exact merge.
        """
        if not watches:
            return [], []
        first = watches[0]
        block = self.hin.engine().pathsim_partial_block(
            first.mp, [watch.index for watch in watches], touched
        )
        sizes = np.array([watch.indices.size for watch in watches])
        width = min(first.spec.k, int(sizes.max()) + 1)
        filled = np.arange(width) < sizes[:, None]
        old_idx = np.full(filled.shape, _EMPTY)
        old_idx[filled] = np.concatenate([watch.indices for watch in watches])
        old_sc = np.full(filled.shape, -np.inf)
        old_sc[filled] = np.concatenate([watch.scores for watch in watches])
        kth_sc, kth_idx = old_sc[:, -1:], old_idx[:, -1:]
        above = (block > kth_sc) | ((block == kth_sc) & (touched <= kth_idx))
        keep = above.any(axis=0)
        stale = np.isin(old_idx, touched)
        n = len(watches)
        pool_idx = np.hstack([np.where(stale, _EMPTY, old_idx), np.tile(touched[keep], (n, 1))])
        pool_sc = np.hstack([np.where(stale, -np.inf, old_sc), block[:, keep]])
        order = np.lexsort((pool_idx, -pool_sc))[:, :width]
        new_idx = np.take_along_axis(pool_idx, order, axis=1)
        new_sc = np.take_along_axis(pool_sc, order, axis=1)
        new_kth_sc, new_kth_idx = new_sc[:, -1:], new_idx[:, -1:]
        fallback = (new_kth_sc < kth_sc) | ((new_kth_sc == kth_sc) & (new_kth_idx > kth_idx))
        fallback = fallback.ravel()
        moved = ~fallback & (
            (new_idx != old_idx).any(axis=1) | (new_sc != old_sc).any(axis=1)
        )
        counters = self._manager._counters
        counters["incremental"] += int((~fallback).sum())
        counters["unchanged"] += int((~fallback & ~moved).sum())
        engine = self.hin.engine()
        changed, fallbacks = [], []
        for r, watch in enumerate(watches):
            if fallback[r]:
                fallbacks.append(watch)
                continue
            if not moved[r]:
                watch.epoch = update.epoch
                continue
            indices, scores = new_idx[r, : sizes[r]], new_sc[r, : sizes[r]]
            # The engine's own result builder, from the bit-exact merged
            # floats, stamped with the kernel of the ranking it patched.
            result = engine._top_k_result(
                watch.mp, watch.mp.source_type, watch.index,
                zip(indices.tolist(), scores.tolist()), "pathsim",
                update.epoch, watch.result.mode,
            )
            watch.adopt(update.epoch, result, indices, scores)
            changed.append((watch, result))
        return changed, fallbacks

    def _recompute_group(self, watches, update, counter: str) -> list:
        """Recompute watches of one path group through the engine's
        normal entry points; returns the changed ``(watch, result)``
        pairs (an identical answer is adopted but not pushed)."""
        if not watches:
            return []
        counters = self._manager._counters
        counters[counter] += len(watches)
        changed = []
        for watch, result in zip(watches, self._answers(watches)):
            indices, scores = self._rank_arrays(result)
            if np.array_equal(indices, watch.indices) and np.array_equal(
                scores, watch.scores
            ):
                counters["unchanged"] += 1
            else:
                changed.append((watch, result))
            watch.adopt(update.epoch, result, indices, scores)
        return changed

    def _stamp(self, watches, update) -> list:
        """Epoch-stamp untouched watches; nothing to push."""
        for watch in watches:
            watch.epoch = update.epoch
        self._manager._counters["untouched"] += len(watches)
        return []

    def _answers(self, watches) -> list[TopKResult]:
        """One path group's queries answered cold by the engine: one
        batch for PathSim (answer for answer, ``mode`` included, what
        :meth:`~repro.engine.MetaPathEngine.pathsim_top_k` returns),
        one row each for connectivity."""
        first = watches[0]
        spec = first.spec
        engine = self.hin.engine()
        queries = [watch.index for watch in watches]
        if spec.measure == "pathsim":
            return engine.pathsim_top_k_batch(
                first.mp, queries, spec.k, exclude_query=spec.exclude_self
            )
        return [
            engine.top_k_connectivity(
                first.mp, query, spec.k, exclude_query=spec.exclude_self
            )
            for query in queries
        ]

    def _rank_arrays(self, result: TopKResult):
        """``(indices, scores)`` arrays of an engine result's ranking.

        Labels are names on a named type — an integer name is a name,
        not an index — and indices on an anonymous one.
        """
        names = self.hin._name_index.get(result.node_type)
        labels = [label for label, _ in result]
        indices = np.array(
            labels if names is None else [names[label] for label in labels],
            dtype=np.int64,
        )
        scores = np.array([score for _, score in result], dtype=np.float64)
        return indices, scores
