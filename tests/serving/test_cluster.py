"""Multi-process cluster serving: identity, epochs, warm starts, lifecycle.

The cluster forks real worker processes, so every test keeps the
process count at two and the network tiny — the heavy-load story lives
in the benchmark's cluster rungs (``benchmarks/perf/layers.py``).  On
single-CPU runners two workers time-slice one core and the 60s futures
flake, so there the suite downsizes to one process.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import NodeNotFoundError
from repro.networks import UpdateBatch
from repro.serving import ClusterService, load_snapshot, save_snapshot

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"

_PARALLEL = (os.cpu_count() or 1) >= 2
_PROCESSES = 2 if _PARALLEL else 1


@pytest.fixture
def cluster(small_bib):
    small_bib.engine().prewarm([APA, APVPA])
    with ClusterService(small_bib, processes=_PROCESSES) as service:
        yield service


class TestAnswers:
    def test_matches_engine_bit_for_bit(self, small_bib, cluster):
        engine = small_bib.engine()
        for author in range(small_bib.node_count("author")):
            expected = engine.pathsim_top_k(APVPA, author, 3)
            got = cluster.similar(author, APVPA, 3).result(timeout=60)
            assert list(got) == list(expected)
            assert got.network_version == expected.network_version

    def test_batched_requests_match_solo(self, small_bib, cluster):
        engine = small_bib.engine()
        futures = [
            cluster.similar(a, APVPA, 3)
            for a in range(small_bib.node_count("author"))
            for _ in range(3)
        ]
        answers = [f.result(timeout=60) for f in futures]
        for answer in answers:
            assert list(answer) == list(engine.pathsim_top_k(APVPA, answer.query, 3))

    def test_connected_and_rank_roundtrip(self, small_bib, cluster):
        expected = small_bib.engine().top_k_connectivity("author-paper-venue", 0, 2)
        got = cluster.connected(0, "author-paper-venue", 2).result(timeout=60)
        assert list(got) == list(expected)
        ranked = cluster.rank("venue", by="author").result(timeout=60)
        assert list(ranked) == list(small_bib.query().rank("venue", by="author"))

    def test_errors_arrive_through_the_future(self, cluster):
        with pytest.raises(NodeNotFoundError):
            cluster.similar("no-such-author", APVPA, 3).result(timeout=60)
        # submit-time failures use the same channel
        with pytest.raises(Exception):
            cluster.similar(0, "author-paper-nonsense", 3).result(timeout=60)

    def test_one_bad_request_does_not_poison_a_batch(self, small_bib, cluster):
        good = [cluster.similar(a, APVPA, 3) for a in (0, 1, 2)]
        bad = cluster.similar(10**6, APVPA, 3)
        for future, author in zip(good, (0, 1, 2)):
            assert list(future.result(timeout=60)) == list(
                small_bib.engine().pathsim_top_k(APVPA, author, 3)
            )
        with pytest.raises(NodeNotFoundError):
            bad.result(timeout=60)


class TestUpdates:
    def test_update_publishes_and_workers_swap(self, small_bib, cluster):
        before = cluster.similar(0, APA, 3).result(timeout=60)
        assert before.network_version == 0
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4), (1, 4)]))
        assert cluster.generation == 1
        after = cluster.similar(0, APA, 3).result(timeout=60)
        assert after.network_version == 1
        assert list(after) == list(small_bib.engine().pathsim_top_k(APA, 0, 3))

    def test_multiple_epochs_with_generation_retirement(self, small_bib, cluster):
        # keep_generations=2 by default: epoch 3 publishes while epochs
        # 1-2's segments retire; workers must still land on the latest.
        for _ in range(3):
            small_bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        answer = cluster.similar(2, APA, 3).result(timeout=60)
        assert answer.network_version == 3
        assert list(answer) == list(small_bib.engine().pathsim_top_k(APA, 2, 3))


class TestRepublishFailure:
    def test_a_failed_publish_wedges_no_read(self, small_bib, cluster, monkeypatch):
        """A commit hook whose publish raises: the commit lands and
        ``hin.apply()`` re-raises; the counter stays at the last
        generation published, every later read resolves and equals a
        cold engine at its stamped epoch — parent-side while the workers
        are behind — and the next commit publishes, so workers answer
        again."""
        import repro.serving.cluster as cluster_module
        from repro.engine import MetaPathEngine

        def failing(*args, **kwargs):
            raise OSError("injected: cannot publish")

        def reads_equal_a_cold_engine():
            cold = MetaPathEngine(small_bib, mode="materialize")
            futures = [
                (author, path, cluster.similar(author, path, 3))
                for author in range(small_bib.node_count("author"))
                for path in (APA, APVPA)
            ]
            for author, path, future in futures:
                got = future.result(timeout=10)  # the worker fence waits 60 s
                assert got.network_version == small_bib.version
                assert list(got) == list(cold.pathsim_top_k(path, author, 3))

        with monkeypatch.context() as patch:
            patch.setattr(cluster_module, "publish_generation", failing)
            with pytest.raises(OSError, match="injected"):
                small_bib.apply(UpdateBatch().add_edges("writes", [(3, 0)]))
            assert cluster.generation == cluster.stats()["generation"] == 0
            dispatched = cluster.stats()["jobs_dispatched"]
            reads_equal_a_cold_engine()
            assert cluster.stats()["jobs_dispatched"] == dispatched  # all parent-side
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
        assert cluster.generation == 1
        reads_equal_a_cold_engine()
        assert cluster.stats()["jobs_dispatched"] > dispatched


class TestWarmStart:
    def test_cold_start_from_snapshot(self, small_bib, tmp_path):
        engine = small_bib.engine()
        engine.prewarm([APA, APVPA])
        expected = engine.pathsim_top_k(APVPA, 0, 3)
        save_snapshot(small_bib, tmp_path / "snap")
        with ClusterService(
            load_snapshot(tmp_path / "snap", mmap=True), processes=_PROCESSES
        ) as service:
            got = service.similar(0, APVPA, 3).result(timeout=60)
            assert list(got) == list(expected)
            # the mmap-loaded parent still accepts updates
            service.hin.apply(UpdateBatch().add_edges("writes", [(0, 4)]))
            assert service.similar(0, APVPA, 3).result(
                timeout=60
            ).network_version == 1


class TestLifecycle:
    def test_rejects_bad_process_count(self, small_bib):
        with pytest.raises(ValueError):
            ClusterService(small_bib, processes=0)

    def test_close_is_idempotent_and_unhooks(self, small_bib):
        service = ClusterService(small_bib, processes=1)
        service.close()
        service.close()
        # the commit hook is gone: updates no longer publish generations
        generation = service.generation
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))
        assert service.generation == generation

    def test_stats_report_cluster_counters(self, small_bib, cluster):
        cluster.similar(0, APA, 3).result(timeout=60)
        stats = cluster.stats()
        assert stats["processes"] == _PROCESSES
        assert stats["jobs_dispatched"] >= 1
        assert stats["generation"] == 0

    def test_unpicklable_arguments_fail_fast_through_the_future(self, small_bib):
        # A lambda in the spec must surface as an immediate error on the
        # future: the channel's send pickles on the dispatching thread,
        # before it writes a byte, so nothing reaches the worker — and
        # the one worker's channel answers the next job.
        with ClusterService(small_bib, processes=1) as service:
            with pytest.raises(TypeError, match="picklable"):
                service.rank("venue", by="author", method=lambda: None).result(
                    timeout=60
                )
            got = service.similar(0, APA, 2).result(timeout=60)
            assert list(got) == list(small_bib.engine().pathsim_top_k(APA, 0, 2))
            assert service.stats()["jobs_dispatched"] == 2

    def test_failed_construction_cleans_up(self, small_bib, monkeypatch):
        # A failing first publish aborts __init__ — the private
        # generation directory must not leak.
        import pathlib
        import tempfile

        from repro.serving import cluster as cluster_module

        def cannot_publish(*args, **kwargs):
            raise OSError("no space left in /dev/shm")

        monkeypatch.setattr(cluster_module, "publish_generation", cannot_publish)
        before = set(pathlib.Path(tempfile.gettempdir()).glob("repro-cluster-*"))
        with pytest.raises(OSError, match="no space"):
            ClusterService(small_bib, processes=1)
        after = set(pathlib.Path(tempfile.gettempdir()).glob("repro-cluster-*"))
        assert after == before

    def test_prewarm_republishes(self, small_bib):
        with ClusterService(small_bib, processes=1) as service:
            generation = service.generation
            service.prewarm(APA)
            assert service.generation == generation + 1
            answer = service.similar(0, APA, 3).result(timeout=60)
            assert list(answer) == list(small_bib.engine().pathsim_top_k(APA, 0, 3))
