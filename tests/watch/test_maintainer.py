"""Maintenance state machine: untouched / incremental / fallback routes.

Every maintained result is checked against a *detached* cold engine
(``MetaPathEngine(hin)``) so the assertions do not depend on the shared
engine's own incremental cache being right.
"""

from __future__ import annotations

import logging

import pytest

from repro.engine import MetaPathEngine
from repro.networks import HIN, NetworkSchema, UpdateBatch
from repro.watch import Watch


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


def grouped_hin(n_authors: int) -> HIN:
    """Authors in closed groups of five: each writes a paper of their
    own and their group's shared paper, so an author's A-P-A peers are
    exactly its four group mates (PathSim 0.5 each)."""
    schema = NetworkSchema(
        ["author", "paper"], [("writes", "author", "paper")]
    )
    groups = -(-n_authors // 5)
    writes = [(i, i) for i in range(n_authors)]
    writes += [(i, n_authors + i // 5) for i in range(n_authors)]
    return HIN.from_edges(
        schema,
        nodes={
            "author": [f"a{i}" for i in range(n_authors)],
            "paper": [f"p{i}" for i in range(n_authors + groups)],
        },
        edges={"writes": writes},
    )


class TestGroupScreen:
    @pytest.mark.parametrize("n_watches", [200, 2000])
    def test_rewrites_follow_the_changed_results_not_the_watch_count(
        self, n_watches, monkeypatch
    ):
        """Author 0 writes author 1's own paper: only row 0 is touched,
        and it sits in the stored top-k of its four group mates alone.
        Every other watch is settled by the group-wide merge, so Python
        rewrites a stored ranking (``Watch.adopt``) for the same five
        watches at any registry size."""
        hin = grouped_hin(n_watches)
        subs = [hin.watches().watch("A-P-A", i, k=3) for i in range(n_watches)]
        adopted = []
        original = Watch.adopt

        def spy(self, *args):
            adopted.append(self.index)
            return original(self, *args)

        monkeypatch.setattr(Watch, "adopt", spy)
        hin.apply(UpdateBatch().add_edges("writes", [(0, 1)]))
        assert sorted(adopted) == [0, 1, 2, 3, 4]
        stats = hin.watches().stats()
        # Author 0's own row moved; for authors 2-4 its score fell below
        # their cut, which the stored pool cannot vouch for.
        assert stats["fallback"] == 4
        assert stats["incremental"] == n_watches - 4
        engine = cold(hin)
        for i in (0, 1, 4, 5, n_watches - 1):
            expected = engine.pathsim_top_k("A-P-A", i, 3)
            assert subs[i].current() == (1, expected)


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


    def test_fallbacks_recompute_in_one_batch_per_path_group(
        self, watch_hin, monkeypatch
    ):
        manager = watch_hin.watches()
        watched = [("A-P-A", q) for q in ("ada", "bob", "cam", "dee")]
        watched += [("A-P-V-P-A", q) for q in ("ada", "bob", "cam")]
        subs = {spec: manager.watch(*spec, k=2) for spec in watched}
        calls = []
        original = MetaPathEngine.pathsim_top_k_batch

        def spy(self, path, queries, k, **kwargs):
            calls.append(self.symmetric_path(path).canonical_key())
            return original(self, path, queries, k, **kwargs)

        monkeypatch.setattr(MetaPathEngine, "pathsim_top_k_batch", spy)
        # ada, bob and cam each write a new paper: their own rows (and
        # every denominator of their answers) move on both paths.
        watch_hin.apply(
            UpdateBatch().add_edges("writes", [(0, 3), (1, 4), (2, 5)])
        )
        assert len(calls) == len(set(calls)) == 2  # once per path
        assert manager.stats()["fallback"] >= 6
        engine = cold(watch_hin)
        for (path, query), sub in subs.items():
            expected = engine.pathsim_top_k(path, query, 2)
            epoch, result = sub.current()
            assert epoch == 1 and result == expected
            assert sub.drain() in ([], [(1, expected)])
            if query != "dee":
                # Recomputed: stamped like a solo answer at this epoch,
                # down to the kernel that ran.
                solo = watch_hin.engine().pathsim_top_k(path, query, 2)
                assert result.network_version == solo.network_version == 1
                assert result.mode == solo.mode


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

    def test_raising_done_callback_is_contained_by_futures(
        self, watch_hin, caplog
    ):
        manager = watch_hin.watches()
        first = manager.watch("A-P-A", "ada", k=3)
        sibling = manager.watch("A-P-A", "ada", k=3)  # same watch
        other = manager.watch("A-P-A", "bob", k=3)
        future = first.next()

        def broken(_):
            raise RuntimeError("consumer broke")

        future.add_done_callback(broken)
        with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
            watch_hin.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        assert any(
            record.exc_info and "consumer broke" in str(record.exc_info[1])
            for record in caplog.records
        )
        expected = cold(watch_hin).pathsim_top_k("A-P-A", "ada", 3)
        assert future.result() == (1, expected)
        assert sibling.drain() == [(1, expected)]
        assert other.current() == (
            1, cold(watch_hin).pathsim_top_k("A-P-A", "bob", 3)
        )
        # The hook survived: the next commit is maintained exactly.
        watch_hin.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
        engine = cold(watch_hin)
        for sub, query in ((first, "ada"), (sibling, "ada"), (other, "bob")):
            epoch, result = sub.current()
            assert epoch == 2
            assert result == engine.pathsim_top_k("A-P-A", query, 3)
