"""Standing queries through the serving layers: service, cluster, snapshots."""

from __future__ import annotations

import json
import os

from repro.engine import MetaPathEngine
from repro.networks import UpdateBatch
from repro.serving import ClusterService, QueryService, load_snapshot, save_snapshot
from repro.watch import Subscription

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"

_PARALLEL = (os.cpu_count() or 1) >= 2
_PROCESSES = 2 if _PARALLEL else 1


class TestServiceWatch:
    def test_future_resolves_with_subscription(self, small_bib):
        with QueryService(small_bib) as svc:
            sub = svc.watch("a0", APA, k=3).result(timeout=10)
            assert isinstance(sub, Subscription)
            epoch, result = sub.current()
            assert epoch == 0
            assert result == small_bib.engine().pathsim_top_k(APA, "a0", 3)

    def test_registrations_never_coalesce(self, small_bib):
        with QueryService(small_bib) as svc:
            a = svc.watch("a0", APA, k=3).result(timeout=10)
            b = svc.watch("a0", APA, k=3).result(timeout=10)
            assert a is not b  # one watch, two private subscriptions
            assert len(small_bib.watches()) == 1
            assert small_bib.watches().stats()["subscriptions"] == 2

    def test_pushes_flow_while_serving(self, small_bib):
        with QueryService(small_bib) as svc:
            sub = svc.watch("a0", APA, k=3).result(timeout=10)
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
            [(epoch, result)] = sub.drain()
            assert epoch == 1
            assert result == MetaPathEngine(small_bib).pathsim_top_k(
                APA, "a0", 3
            )
            # One-shot queries answer at the same epoch.
            live = svc.similar("a0", APA, k=3).result(timeout=10)
            assert list(live) == list(result)

    def test_epoch_floor_for_late_subscribers(self, small_bib):
        """A subscriber registered after epoch N never sees a result
        computed below N."""
        with QueryService(small_bib) as svc:
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
            small_bib.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
            sub = svc.watch("a0", APA, k=3).result(timeout=10)
            registered_at, result = sub.current()
            assert registered_at == 2
            assert result.network_version == 2
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 1)]))
            for epoch, pushed in sub.drain():
                assert epoch > registered_at
                assert pushed.network_version == epoch


class TestServiceAnswers:
    """A service answers through its engine, bit-identically to a cold
    ``mode="materialize"`` reference engine."""

    def test_similar_equals_a_cold_reference(self, small_bib):
        cold = MetaPathEngine(small_bib, mode="materialize")
        with QueryService(small_bib) as svc:
            got = svc.similar("a0", APVPA, k=3).result(timeout=10)
            assert list(got) == list(cold.pathsim_top_k(APVPA, "a0", 3))

    def test_connected_equals_a_cold_reference(self, small_bib):
        cold = MetaPathEngine(small_bib, mode="materialize")
        with QueryService(small_bib) as svc:
            got = svc.connected("a0", "author-paper-venue", k=2)
            expected = cold.top_k_connectivity("author-paper-venue", "a0", 2)
            assert list(got.result(timeout=10)) == list(expected)


class TestServiceStats:
    def test_stats_report_planner_and_watch_sections(self, small_bib):
        with QueryService(small_bib) as svc:
            stats = svc.stats()
            assert "planner" in stats
            # stats() peeks at the registry but never creates one.
            assert stats["watches"] == {"watches": 0, "subscriptions": 0}
            assert small_bib._watch_manager is None
            svc.watch("a0", APA, k=3).result(timeout=10)
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
            stats = svc.stats()
            assert stats["watches"]["watches"] == 1
            assert stats["watches"]["commits"] == 1


class TestClusterWatch:
    def test_watch_lives_in_the_parent(self, small_bib):
        with ClusterService(small_bib, processes=_PROCESSES) as service:
            sub = service.watch(0, APA, 3).result(timeout=60)
            assert isinstance(sub, Subscription)
            assert len(small_bib.watches()) == 1
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
            [(epoch, result)] = sub.drain()
            assert epoch == 1
            assert result == MetaPathEngine(small_bib).pathsim_top_k(APA, 0, 3)
            # Workers answer the one-shot surface at the same epoch.
            served = service.similar(0, APA, 3).result(timeout=60)
            assert list(served) == list(result)
            assert served.network_version == 1

    def test_epoch_floor_across_generation_swap(self, small_bib):
        """Registration after epoch N, across a worker generation swap,
        never yields a push computed below N."""
        with ClusterService(small_bib, processes=_PROCESSES) as service:
            small_bib.apply(UpdateBatch().add_edges("writes", [(1, 3)]))
            assert service.generation == 1
            sub = service.watch(0, APA, 3).result(timeout=60)
            registered_at = sub.current()[0]
            assert registered_at == 1
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
            assert service.generation == 2
            pushes = sub.drain()
            assert pushes  # the second update changes a0's answer
            for epoch, result in pushes:
                assert epoch > registered_at
                assert result.network_version == epoch

    def test_worker_answers_equal_a_cold_reference(self, small_bib):
        small_bib.engine().prewarm([APVPA])
        with ClusterService(small_bib, processes=_PROCESSES) as service:
            cold = MetaPathEngine(small_bib, mode="materialize")
            futures = [service.similar(a, APVPA, 3) for a in range(4)]
            for a, future in enumerate(futures):
                expected = cold.pathsim_top_k(APVPA, a, 3)
                got = future.result(timeout=60)
                assert list(got) == list(expected)


class TestSnapshotPersistence:
    def test_manifest_records_watch_specs(self, small_bib, tmp_path):
        small_bib.watches().watch(APA, "a0", k=3)
        small_bib.watches().watch(
            "author-paper-venue", "a1", k=2, measure="connectivity"
        )
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        assert len(manifest["watches"]) == 2
        assert {d["measure"] for d in manifest["watches"]} == {
            "pathsim",
            "connectivity",
        }

    def test_watch_free_snapshot_stays_watch_free(self, small_bib, tmp_path):
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        assert manifest["watches"] == []
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded._watch_manager is None  # restore never creates one

    def test_load_resumes_subscriptions_at_restored_epoch(
        self, small_bib, tmp_path
    ):
        small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        small_bib.watches().watch(APA, "a0", k=3)
        save_snapshot(small_bib, tmp_path / "snap")

        # A manifest in the previous layout: every watch dict carries
        # a ``plan`` key.  Same format_version; the key is ignored.
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for spec in manifest["watches"]:
            spec["plan"] = "left"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        loaded = load_snapshot(tmp_path / "snap")
        [sub] = loaded.watches().subscriptions()
        epoch, result = sub.current()
        assert epoch == 1
        assert result == MetaPathEngine(loaded).pathsim_top_k(APA, "a0", 3)
        # The restored watch is live: maintenance resumes on update.
        loaded.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
        [(epoch, result)] = sub.drain()
        assert epoch == 2
        assert result == MetaPathEngine(loaded).pathsim_top_k(APA, "a0", 3)
