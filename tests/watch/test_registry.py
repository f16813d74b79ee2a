"""WatchManager registration, deduplication, persistence, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MetaPathEngine
from repro.networks import HIN, NetworkSchema, UpdateBatch
from repro.serving import load_snapshot, save_snapshot
from repro.watch import Subscription, WatchManager, WatchSpec


class TestRegistration:
    def test_watch_returns_subscription_with_initial_result(self, watch_hin):
        sub = watch_hin.watches().watch("A-P-A", "ada", k=2)
        assert isinstance(sub, Subscription)
        epoch, result = sub.current()
        assert epoch == 0
        assert result == watch_hin.engine().pathsim_top_k("A-P-A", "ada", 2)

    def test_manager_is_shared_and_lazy(self, watch_hin):
        assert watch_hin._watch_manager is None
        manager = watch_hin.watches()
        assert isinstance(manager, WatchManager)
        assert watch_hin.watches() is manager

    def test_identical_registrations_share_one_watch(self, watch_hin):
        manager = watch_hin.watches()
        a = manager.watch("A-P-A", "ada", k=2)
        b = manager.watch("author-paper-author", 0, k=2)  # same query
        assert len(manager) == 1
        assert a is not b  # distinct subscriptions, shared maintenance
        assert manager.stats()["subscriptions"] == 2

    def test_distinct_k_or_measure_distinct_watches(self, watch_hin):
        manager = watch_hin.watches()
        manager.watch("A-P-A", "ada", k=2)
        manager.watch("A-P-A", "ada", k=3)
        manager.watch("A-P-V", "ada", k=2, measure="connectivity")
        assert len(manager) == 3

    def test_measure_aliases(self, watch_hin):
        manager = watch_hin.watches()
        a = manager.watch("A-P-A", "ada", k=2, measure="similarity")
        assert a.spec.measure == "pathsim"
        c = manager.watch("A-P-V", "ada", k=2, measure="connected")
        assert c.spec.measure == "connectivity"

    def test_exclude_self_defaults_per_measure(self, watch_hin):
        manager = watch_hin.watches()
        assert manager.watch("A-P-A", "ada").spec.exclude_self is True
        assert (
            manager.watch("A-P-V", "ada", measure="connectivity")
            .spec.exclude_self
            is False
        )

    def test_invalid_arguments_raise(self, watch_hin):
        manager = watch_hin.watches()
        with pytest.raises(ValueError, match="measure"):
            manager.watch("A-P-A", "ada", measure="simrank")
        with pytest.raises(ValueError, match="k must be"):
            manager.watch("A-P-A", "ada", k=-1)

    @pytest.mark.parametrize("k", [2.5, "3", None])
    def test_non_integer_k_is_a_type_error(self, watch_hin, k):
        """One ``k`` rule (``operator.index``) on every entry point —
        ``k=2.5`` used to register a silent ``k=2`` watch."""
        with pytest.raises(TypeError):
            watch_hin.watches().watch("A-P-A", "ada", k=k)
        with pytest.raises(TypeError):
            watch_hin.query().watch("ada", "A-P-A", k=k)
        assert len(watch_hin.watches()) == 0

    def test_numpy_integer_k_registers_a_plain_int(self, watch_hin):
        a = watch_hin.watches().watch("A-P-A", "ada", k=np.int64(2))
        b = watch_hin.query().watch("ada", "A-P-A", k=2)
        assert type(a.spec.k) is int and a.spec.k == 2
        assert len(watch_hin.watches()) == 1  # same watch as b's
        assert b.spec == a.spec

    def test_query_facade_delegates(self, watch_hin):
        sub = watch_hin.query().watch("ada", "A-P-A", k=2)
        assert isinstance(sub, Subscription)
        assert len(watch_hin.watches()) == 1


class TestSpecRoundTrip:
    def test_to_from_dict(self):
        spec = WatchSpec(
            measure="pathsim",
            path="author-paper-author",
            query="ada",
            k=5,
            exclude_self=True,
        )
        assert WatchSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_plan_key_is_ignored(self):
        """Manifests written before the per-watch ``plan`` field was
        removed carry the key; it neither fails nor splits identity."""
        data = {
            "measure": "connectivity",
            "path": "author-paper-venue",
            "query": "ada",
            "k": 3,
            "exclude_self": False,
        }
        spec = WatchSpec.from_dict({**data, "plan": "left"})
        assert spec == WatchSpec.from_dict(data)
        assert set(spec.to_dict()) == set(data)

    def test_spec_dicts_are_sorted_and_json_plain(self, watch_hin):
        import json

        manager = watch_hin.watches()
        manager.watch("A-P-V", "bob", k=1, measure="connectivity")
        manager.watch("A-P-A", "ada", k=2)
        dicts = manager.spec_dicts()
        assert [d["measure"] for d in dicts] == ["connectivity", "pathsim"]
        json.dumps(dicts)  # must be manifest-serializable


class TestRestore:
    def test_restore_reregisters_and_skips_known(self, watch_hin):
        manager = watch_hin.watches()
        manager.watch("A-P-A", "ada", k=2)
        specs = manager.spec_dicts()
        # Restoring onto the same registry: nothing duplicated.
        assert manager.restore(specs) == []
        assert len(manager) == 1

    def test_restore_is_idempotent_across_legacy_plan_spellings(self, watch_hin):
        """Regression: a spec's ``plan`` took part in equality but not in
        the registry key, so restoring ``plan="left"`` onto the same
        watch registered with ``plan=None`` appended one retained
        subscription per call (1 -> 3 after two restores)."""
        manager = watch_hin.watches()
        manager.watch("A-P-A", "ada", k=2)
        legacy = [{**d, "plan": "left"} for d in manager.spec_dicts()]
        for _ in range(2):
            assert manager.restore(legacy) == []
            assert manager.stats()["subscriptions"] == 1

    def test_restore_onto_fresh_network(self, watch_hin):
        manager = watch_hin.watches()
        manager.watch("A-P-A", "ada", k=2)
        manager.watch("A-P-V", "dee", k=1, measure="connectivity")
        specs = manager.spec_dicts()

        from repro.networks import HIN

        fresh = HIN(
            watch_hin.schema,
            {t: watch_hin.node_count(t) for t in watch_hin.schema.node_types},
            {
                rel.name: watch_hin.relation_matrix(rel.name).copy()
                for rel in watch_hin.schema.relations
            },
            node_names={
                t: watch_hin.names(t) for t in watch_hin.schema.node_types
            },
        )
        restored = fresh.watches().restore(specs)
        assert len(restored) == 2
        assert len(fresh.watches()) == 2
        assert fresh.watches().subscriptions() == restored
        # Restored watches are live: a touching update maintains them.
        fresh.apply(UpdateBatch().add_edges("writes", [(1, 1)]))
        assert fresh.watches().stats()["commits"] == 1


def int_named_hin(author_names) -> HIN:
    """Three authors with integer names: author 0 shares a paper with
    author 1 and none with author 2, who writes alone."""
    schema = NetworkSchema(
        ["author", "paper"], [("writes", "author", "paper")]
    )
    return HIN.from_edges(
        schema,
        nodes={"author": list(author_names), "paper": ["p0", "p1", "p2"]},
        edges={"writes": [(0, 0), (0, 1), (1, 1), (2, 2)]},
    )


class TestIntegerNames:
    """An integer name is a name: a query index resolves once, at
    registration, and every label after that goes through the name
    index."""

    def test_registration_on_integer_names(self):
        hin = int_named_hin([30, 10, 20])
        sub = hin.watches().watch("A-P-A", 0, k=2)
        assert sub.spec.query == 30
        assert sub.current() == (0, MetaPathEngine(hin).pathsim_top_k("A-P-A", 0, 2))

    def test_maintained_answer_matches_cold_engine(self):
        hin = int_named_hin([1, 2, 0])
        sub = hin.watches().watch("A-P-A", 0, k=2)
        hin.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        expected = MetaPathEngine(hin).pathsim_top_k("A-P-A", 0, 2)
        assert expected == [(2, pytest.approx(2 / 3)), (0, 0.5)]
        assert sub.current() == (1, expected)

    def test_snapshot_restores_the_named_query(self, tmp_path):
        hin = int_named_hin([1, 2, 0])
        hin.watches().watch("A-P-A", 0, k=2)
        save_snapshot(hin, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        [sub] = loaded.watches().subscriptions()
        assert sub.spec.query == 1
        expected = MetaPathEngine(loaded).pathsim_top_k("A-P-A", 0, 2)
        assert sub.current() == (0, expected)
        loaded.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        expected = MetaPathEngine(loaded).pathsim_top_k("A-P-A", 0, 2)
        assert sub.current() == (1, expected)


class TestLifecycle:
    def test_hook_installed_once_and_removed_when_empty(self, watch_hin):
        manager = watch_hin.watches()
        a = manager.watch("A-P-A", "ada", k=2)
        b = manager.watch("A-P-A", "bob", k=2)
        assert len(watch_hin._commit_hooks) == 1
        a.cancel()
        assert len(watch_hin._commit_hooks) == 1
        b.cancel()
        assert len(watch_hin._commit_hooks) == 0
        # Watch-free networks pay nothing per update again.
        watch_hin.apply(UpdateBatch().add_edges("writes", [(1, 1)]))
        assert manager.stats()["commits"] == 0

    def test_last_subscription_drops_the_watch(self, watch_hin):
        manager = watch_hin.watches()
        a = manager.watch("A-P-A", "ada", k=2)
        b = manager.watch("A-P-A", "ada", k=2)
        a.cancel()
        assert len(manager) == 1
        b.cancel()
        assert len(manager) == 0

    def test_stats_shape(self, watch_hin):
        stats = watch_hin.watches().stats()
        for key in (
            "commits", "untouched", "incremental", "fallback",
            "recomputed", "unchanged", "pushes", "watches", "subscriptions",
        ):
            assert stats[key] == 0
