"""Sharded cluster serving: bit-identity, shard plans, localized
republication, parent-side watch maintenance, lifecycle.

Like the replicated-cluster tests, every test forks real worker
processes, so the shard count stays at two and the network tiny; the
heavy-load and live-writer story lives in the benchmark's
``scaleout_read`` workload.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_dblp_four_area
from repro.exceptions import NodeNotFoundError
from repro.networks import HIN, UpdateBatch
from repro.serving import ShardedClusterService, ShardPlan
from repro.serving.shm import attach_generation, publish_generation

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"
ATA = "author-paper-term-paper-author"


@pytest.fixture
def sharded(small_bib):
    with ShardedClusterService(small_bib, [APA, APVPA], shards=2) as service:
        yield service


class TestShardPlan:
    def test_ranges_partition_the_type(self, small_bib):
        plan = ShardPlan.compute(small_bib, ["author", "paper"], 3)
        for node_type in ("author", "paper"):
            ranges = plan.ranges[node_type]
            assert len(ranges) == 3
            assert ranges[0][0] == 0
            assert ranges[-1][1] == small_bib.node_count(node_type)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo  # contiguous, ascending, gap-free

    def test_more_shards_than_rows_leaves_empty_ranges(self, small_bib):
        plan = ShardPlan.compute(small_bib, ["venue"], 4)
        ranges = plan.ranges["venue"]
        assert sum(hi - lo for lo, hi in ranges) == 2
        assert any(hi == lo for lo, hi in ranges)

    def test_shards_touching(self, small_bib):
        plan = ShardPlan.compute(small_bib, ["author"], 2)
        (lo0, hi0), (lo1, hi1) = plan.ranges["author"]
        assert plan.shards_touching("author", [lo0]) == {0}
        assert plan.shards_touching("author", [hi1 - 1]) == {1}
        assert plan.shards_touching("author", [lo0, hi1 - 1]) == {0, 1}
        assert plan.shards_touching("author", []) == set()
        assert plan.shards_touching("venue", [0]) == set()

    def test_rejects_zero_shards(self, small_bib):
        with pytest.raises(ValueError, match="shards"):
            ShardPlan.compute(small_bib, ["author"], 0)


class TestAnswers:
    def test_matches_engine_bit_for_bit(self, small_bib, sharded):
        engine = small_bib.engine()
        for path in (APA, APVPA):
            for author in range(small_bib.node_count("author")):
                expected = engine.pathsim_top_k(path, author, 3)
                got = sharded.similar(author, path, 3).result(timeout=60)
                assert list(got) == list(expected)
                assert got.network_version == expected.network_version
                assert got.query == expected.query
                assert got.path == expected.path

    def test_batched_requests_match_solo(self, small_bib, sharded):
        engine = small_bib.engine()
        futures = [
            sharded.similar(a, APVPA, 3)
            for a in range(small_bib.node_count("author"))
            for _ in range(3)
        ]
        for future in futures:
            got = future.result(timeout=60)
            assert list(got) == list(engine.pathsim_top_k(APVPA, got.query, 3))
        assert sharded.stats()["scatters"] >= 1

    def test_k_past_every_shard_and_inclusive_query(self, small_bib, sharded):
        engine = small_bib.engine()
        got = sharded.similar("a0", APA, 100).result(timeout=60)
        assert list(got) == list(engine.pathsim_top_k(APA, "a0", 100))
        kept = sharded.similar("a0", APA, 2, exclude_self=False).result(timeout=60)
        assert list(kept) == list(
            engine.pathsim_top_k(APA, "a0", 2, exclude_query=False)
        )

    def test_unserved_requests_fall_back_to_the_parent(self, small_bib, sharded):
        engine = small_bib.engine()
        # a symmetric path that was never shard-served
        assert list(sharded.similar("a0", ATA, 3).result(timeout=60)) == list(
            engine.pathsim_top_k(ATA, "a0", 3)
        )
        expected = engine.top_k_connectivity("author-paper-venue", 0, 2)
        got = sharded.connected(0, "author-paper-venue", 2).result(timeout=60)
        assert list(got) == list(expected)
        ranked = sharded.rank("venue", by="author").result(timeout=60)
        assert list(ranked) == list(small_bib.query().rank("venue", by="author"))
        assert sharded.stats()["fallbacks"] >= 3

    def test_errors_arrive_through_the_future(self, sharded):
        with pytest.raises(NodeNotFoundError):
            sharded.similar("no-such-author", APA, 3).result(timeout=60)

    def test_one_bad_request_does_not_poison_a_batch(self, small_bib, sharded):
        good = [sharded.similar(a, APVPA, 3) for a in (0, 1, 2)]
        bad = sharded.similar(10**6, APVPA, 3)
        engine = small_bib.engine()
        for a, future in zip((0, 1, 2), good):
            assert list(future.result(timeout=60)) == list(
                engine.pathsim_top_k(APVPA, a, 3)
            )
        with pytest.raises(NodeNotFoundError):
            bad.result(timeout=60)

    def test_unexpected_scatter_failures_surface_as_themselves(
        self, small_bib, sharded, monkeypatch
    ):
        """Only typed library errors (and ``TypeError`` for an
        unhashable object) make the scatter step aside for the
        parent-side job; anything else reaches the caller as itself
        instead of becoming a silent fallback."""

        def broken(*args, **kwargs):
            raise RuntimeError("injected: query-row extraction failed")

        before = sharded.stats()["fallbacks"]
        with pytest.raises(TypeError):  # unhashable object: declined, typed
            sharded.similar(["a0"], APA, 3).result(timeout=60)
        assert sharded.stats()["fallbacks"] == before + 1
        monkeypatch.setattr(small_bib.engine(), "pathsim_query_rows", broken)
        with pytest.raises(RuntimeError, match="injected"):
            sharded.similar("a0", APA, 3).result(timeout=60)
        assert sharded.stats()["fallbacks"] == before + 1

    def test_empty_shard_node_type(self, bib_schema):
        # one author: the second shard's range is empty yet still serves
        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": ["a0"], "paper": ["p0"], "venue": ["v0"], "term": []},
            edges={
                "writes": [(0, 0)],
                "published_in": [(0, 0)],
                "mentions": [],
            },
        )
        with ShardedClusterService(hin, [APA], shards=2) as service:
            kept = service.similar("a0", APA, 5, exclude_self=False).result(
                timeout=60
            )
            assert list(kept) == list(
                hin.engine().pathsim_top_k(APA, "a0", 5, exclude_query=False)
            )
            assert list(service.similar("a0", APA, 5).result(timeout=60)) == []


class TestUpdates:
    def test_localized_update_republishes_only_touched_shards(
        self, small_bib, sharded
    ):
        plan = sharded.stats()["plan"]["author"]
        # author 3 lives in the last shard; a delta on its rows alone
        # must leave every other shard's generation untouched
        assert plan[-1][0] <= 3 < plan[-1][1]
        before = sharded.republications
        small_bib.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
        after = sharded.republications
        assert after[-1] == before[-1] + 1
        assert after[:-1] == before[:-1]

    def test_answers_track_the_writer(self, small_bib, sharded):
        engine = small_bib.engine()
        small_bib.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
        for author in range(small_bib.node_count("author")):
            expected = engine.pathsim_top_k(APVPA, author, 3)
            got = sharded.similar(author, APVPA, 3).result(timeout=60)
            assert list(got) == list(expected)
            assert got.network_version == small_bib.version

    def test_node_growth_replans_and_serves_new_rows(self, small_bib, sharded):
        before_plan = sharded.stats()["plan"]["author"]
        small_bib.apply(
            UpdateBatch().add_nodes("author", ["a4"]).add_edges("writes", [(4, 4)])
        )
        after_plan = sharded.stats()["plan"]["author"]
        assert after_plan[-1][1] == before_plan[-1][1] + 1
        engine = small_bib.engine()
        got = sharded.similar("a4", APA, 3).result(timeout=60)
        assert list(got) == list(engine.pathsim_top_k(APA, "a4", 3))

    def test_watch_routes_partials_to_the_owning_shard(self, small_bib, sharded):
        engine = small_bib.engine()
        handle = sharded.watch("a0", APA, k=3).result(timeout=60)
        # touches author 3 only — not the watched query's row, so the
        # maintainer re-scores incrementally (in the parent: the shard
        # workers take no part in watch maintenance)
        small_bib.apply(UpdateBatch().add_edges("writes", [(3, 1)]))
        stats = sharded.stats()
        assert "partial_jobs" not in stats
        assert stats["watches"]["incremental"] >= 1
        _epoch, current = handle.current()
        assert list(current) == list(engine.pathsim_top_k(APA, "a0", 3))

    def test_every_watch_push_matches_cold_replay(self, small_bib, sharded):
        """Watch maintenance on a sharded service runs in the parent:
        over a stream of commits every maintained result — and every
        push — equals a cold engine's answer at that epoch."""
        from repro.engine import MetaPathEngine

        handles = [
            sharded.watch(a, path, k=3).result(timeout=60)
            for a in ("a0", "a2")
            for path in (APA, APVPA)
        ]
        stream = [
            UpdateBatch().add_edges("writes", [(3, 1)]),
            UpdateBatch().add_edges("writes", [(0, 3)]),
            UpdateBatch().remove_edges("writes", [(1, 2)]),
            UpdateBatch().add_nodes("author", ["a4"]).add_edges("writes", [(4, 0)]),
        ]
        for epoch, batch in enumerate(stream, start=1):
            small_bib.apply(batch)
            cold = MetaPathEngine(small_bib, mode="materialize")
            for handle in handles:
                at, current = handle.current()
                spec = handle.spec
                assert at == epoch
                assert current == cold.pathsim_top_k(spec.path, spec.query, spec.k)
                for pushed_at, pushed in handle.drain():
                    assert pushed_at == epoch and pushed == current
        stats = sharded.stats()["watches"]
        assert stats["commits"] == len(stream)
        assert stats["incremental"] >= 1 and stats["fallback"] >= 1

    def test_watch_survives_query_row_update(self, small_bib, sharded):
        # query-row updates make the maintainer fall back to a full
        # recompute; the watch must stay exact either way
        handle = sharded.watch("a0", APA, k=3).result(timeout=60)
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
        _epoch, current = handle.current()
        assert list(current) == list(
            small_bib.engine().pathsim_top_k(APA, "a0", 3)
        )


class TestLifecycle:
    def test_prewarm_adds_a_path(self, small_bib, sharded):
        base = sharded.stats()["fallbacks"]
        sharded.prewarm(ATA)
        got = sharded.similar("a0", ATA, 3).result(timeout=60)
        assert list(got) == list(small_bib.engine().pathsim_top_k(ATA, "a0", 3))
        assert sharded.stats()["fallbacks"] == base  # scattered, not fallen back

    def test_worker_memory_reports_per_shard(self, sharded):
        reports = sharded.worker_memory()
        assert [report["shard"] for report in reports] == [0, 1]
        assert all(report["payload_bytes"] > 0 for report in reports)
        assert all(report["rss_bytes"] > 0 for report in reports)

    def test_a_shard_maps_at_most_half_of_a_replicated_generation(self, tmp_path):
        """The sharded memory claim, data-sized: with four shards, what a
        shard worker maps is at most half of the one segment a
        replicated generation packs for the same prewarmed network and
        served paths (it measures about 0.15 at this size)."""
        hin = make_dblp_four_area(seed=0).hin
        paths = [APA, APVPA, ATA]
        hin.engine().prewarm(paths)
        published = publish_generation(
            hin, hin.engine(), directory=tmp_path, generation=0
        )
        try:
            attached = attach_generation(published.path)
            replicated = attached.payload_bytes
            attached.close()
        finally:
            published.dispose()
        with ShardedClusterService(hin, paths, shards=4) as service:
            payloads = [r["payload_bytes"] for r in service.worker_memory()]
        assert len(payloads) == 4
        assert all(0 < payload <= replicated / 2 for payload in payloads)

    def test_close_unhooks_the_writer_path(self, small_bib):
        service = ShardedClusterService(small_bib, [APA], shards=2)
        service.close()
        service.close()  # idempotent
        # commits after close must not try to republish into dead workers
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
        assert small_bib.version == 1

    def test_needs_at_least_one_path(self, small_bib):
        with pytest.raises(ValueError, match="meta-path"):
            ShardedClusterService(small_bib, [])


class TestRepublishFailure:
    def test_a_failed_shard_publish_wedges_no_read(self, small_bib, sharded, monkeypatch):
        """A commit hook whose shard publish raises: the commit lands and
        ``hin.apply()`` re-raises; every later read resolves and equals a
        cold engine at its stamped epoch — parent-side while the shard is
        stale — and the next commit republishes it, so scatters resume."""
        import repro.serving.shards as shards_module
        from repro.engine import MetaPathEngine

        (lo0, hi0), (_, hi1) = sharded.stats()["plan"]["author"]
        assert lo0 == 0 < hi0 <= 3 < hi1  # author 0 in shard 0, author 3 in shard 1
        publish = shards_module.publish_shard_generation

        def failing(hin, engine, served, plan, shard, **kwargs):
            if shard == 1:
                raise OSError("injected: shard 1 cannot publish")
            return publish(hin, engine, served, plan, shard, **kwargs)

        def reads_equal_a_cold_engine():
            cold = MetaPathEngine(small_bib, mode="materialize")
            futures = [
                (author, path, sharded.similar(author, path, 3))
                for author in range(small_bib.node_count("author"))
                for path in (APA, APVPA)
            ]
            for author, path, future in futures:
                got = future.result(timeout=10)
                assert got.network_version == small_bib.version
                assert list(got) == list(cold.pathsim_top_k(path, author, 3))

        before = sharded.republications
        with monkeypatch.context() as patch:
            patch.setattr(shards_module, "publish_shard_generation", failing)
            with pytest.raises(OSError, match="injected"):
                small_bib.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
            scatters = sharded.stats()["scatters"]
            reads_equal_a_cold_engine()
            # A commit that touches only shard 0 retries the stale shard.
            with pytest.raises(OSError, match="injected"):
                small_bib.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
            assert sharded.republications == [before[0] + 1, before[1]]
            reads_equal_a_cold_engine()
            assert sharded.stats()["scatters"] == scatters  # all parent-side
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 2)]))
        assert sharded.republications == [before[0] + 2, before[1] + 1]
        reads_equal_a_cold_engine()
        assert sharded.stats()["scatters"] > scatters
