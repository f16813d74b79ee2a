"""Maintenance state machine: untouched / incremental / fallback routes.

Every maintained result is checked against a *detached* cold engine
(``MetaPathEngine(hin)``) so the assertions do not depend on the shared
engine's own incremental cache being right.
"""

from __future__ import annotations

import pytest

from repro.engine import MetaPathEngine
from repro.networks import UpdateBatch


def cold(hin):
    """A fresh engine with no cache: recomputes everything from scratch."""
    return MetaPathEngine(hin)


class TestUntouched:
    def test_disjoint_relation_stamps_without_scoring(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        # published_in never appears in the A-P-A half.
        watch_hin.apply(UpdateBatch().add_edges("published_in", [(4, 1)]))
        stats = watch_hin.watches().stats()
        assert stats["untouched"] == 1
        assert stats["incremental"] == stats["fallback"] == 0
        assert sub.drain() == []
        assert sub.current()[0] == 1  # stamped to the new epoch anyway

    def test_unreachable_delta_rows_stamp(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-V-P-A", "ada", k=3)
        # A published_in change on a paper nobody writes shares the
        # path's relations but reaches no author through the prefix.
        watch_hin.apply(
            UpdateBatch()
            .add_nodes("paper", ["orphan"])
            .add_edges("published_in", [(6, 1)])
        )
        assert watch_hin.watches().stats()["untouched"] == 1
        assert sub.drain() == []

    def test_k_zero_watch_never_scores(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=0)
        watch_hin.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        assert watch_hin.watches().stats()["untouched"] == 1
        assert sub.drain() == []


class TestIncremental:
    def test_merged_result_matches_cold_engine(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        _, patched = sub.current()
        watch_hin.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        stats = watch_hin.watches().stats()
        assert stats["incremental"] == 1 and stats["fallback"] == 0
        [(epoch, result)] = sub.drain()
        expected = cold(watch_hin).pathsim_top_k("A-P-A", "ada", 3)
        assert epoch == 1
        assert result == expected
        assert result.network_version == expected.network_version == 1
        # Same builder as an engine-computed answer: every stamp is set.
        assert result.mode == patched.mode in ("fused", "materialize")

    def test_sequence_of_merges_stays_exact(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        touches = [[(2, 0)], [(3, 0)], [(2, 1)]]
        for edges in touches:
            watch_hin.apply(UpdateBatch().add_edges("writes", edges))
            _, current = sub.current()
            assert current == cold(watch_hin).pathsim_top_k("A-P-A", "ada", 3)
        assert watch_hin.watches().stats()["incremental"] == len(touches)

    def test_unchanged_merge_suppresses_push(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        # dee->p3 re-scores dee's row but ada's answer is unchanged.
        watch_hin.apply(UpdateBatch().add_edges("writes", [(3, 3)]))
        stats = watch_hin.watches().stats()
        assert stats["incremental"] == 1 and stats["unchanged"] == 1
        assert sub.drain() == []
        epoch, result = sub.current()
        assert epoch == 1
        assert result == cold(watch_hin).pathsim_top_k("A-P-A", "ada", 3)


class TestFallback:
    def test_bound_invalidation_falls_back(self, watch_hin):
        """A deletion inside the top-k lowers the cut: the merge bound
        cannot vouch for rows outside the pool, so recompute."""
        sub = watch_hin.watches().watch("A-P-A", "ada", k=1)
        assert sub.current()[1] == [("bob", 0.5)]
        watch_hin.apply(UpdateBatch().remove_edges("writes", [(1, 0)]))
        stats = watch_hin.watches().stats()
        assert stats["fallback"] > 0  # the acceptance-criterion counter
        assert stats["incremental"] == 0
        [(epoch, result)] = sub.drain()
        assert epoch == 1
        assert result == cold(watch_hin).pathsim_top_k("A-P-A", "ada", 1)

    def test_query_row_touch_falls_back(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        # ada writes a new paper: her diagonal (every denominator) moves.
        watch_hin.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
        assert watch_hin.watches().stats()["fallback"] == 1
        [(_, result)] = sub.drain()
        assert result == cold(watch_hin).pathsim_top_k("A-P-A", "ada", 3)

    def test_source_type_growth_falls_back(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        watch_hin.apply(UpdateBatch().add_nodes("author", ["eve"]))
        stats = watch_hin.watches().stats()
        assert stats["fallback"] == 1
        # eve writes nothing, so the recomputed answer is identical and
        # no push goes out.
        assert stats["unchanged"] == 1
        assert sub.drain() == []

    def test_epoch_gap_triggers_recompute(self, watch_hin):
        manager = watch_hin.watches()
        sub = manager.watch("A-P-A", "ada", k=3)
        [watch] = manager._watches.values()
        watch.epoch = -5  # simulate a registry restored behind the HIN
        watch_hin.apply(UpdateBatch().add_edges("published_in", [(4, 1)]))
        stats = manager.stats()
        assert stats["recomputed"] == 1 and stats["untouched"] == 0
        assert sub.current()[0] == 1


class TestConnectivity:
    def test_untouched_query_row_stamps(self, watch_hin):
        sub = watch_hin.watches().watch(
            "A-P-V", "ada", k=2, measure="connectivity"
        )
        # cam's side of the network: reaches rows {2}, not ada's.
        watch_hin.apply(UpdateBatch().add_edges("writes", [(2, 2)]))
        assert watch_hin.watches().stats()["untouched"] == 1
        assert sub.drain() == []

    def test_touched_query_row_recomputes(self, watch_hin):
        sub = watch_hin.watches().watch(
            "A-P-V", "ada", k=2, measure="connectivity"
        )
        watch_hin.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
        assert watch_hin.watches().stats()["recomputed"] == 1
        [(epoch, result)] = sub.drain()
        expected = cold(watch_hin).top_k_connectivity("A-P-V", "ada", 2)
        assert epoch == 1 and result == expected

    def test_target_growth_falls_back(self, watch_hin):
        sub = watch_hin.watches().watch(
            "A-P-V", "ada", k=2, measure="connectivity"
        )
        watch_hin.apply(UpdateBatch().add_nodes("venue", ["ICDE"]))
        stats = watch_hin.watches().stats()
        assert stats["fallback"] == 1
        # The new venue has no papers; top-2 is unchanged.
        assert stats["unchanged"] == 1
        assert sub.drain() == []


class TestHookInteraction:
    def test_raising_sibling_hook_does_not_starve_maintenance(
        self, watch_hin
    ):
        def bad_hook(update):
            raise RuntimeError("downstream publisher broke")

        watch_hin.add_commit_hook(bad_hook)
        sub = watch_hin.watches().watch("A-P-A", "ada", k=3)
        with pytest.raises(RuntimeError, match="publisher broke"):
            watch_hin.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        # The commit itself landed and the watch was maintained.
        assert watch_hin.version == 1
        assert watch_hin.watches().stats()["commits"] == 1
        [(epoch, result)] = sub.drain()
        assert epoch == 1
        assert result == cold(watch_hin).pathsim_top_k("A-P-A", "ada", 3)
