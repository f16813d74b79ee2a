"""QueryService: correct answers, coalescing, batching, concurrency."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import NodeNotFoundError
from repro.query.results import RankingResult, TopKResult
from repro.serving import QueryService
from repro.serving import service as service_module

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"


class TestAnswers:
    def test_similar_matches_session(self, small_bib):
        expected = small_bib.query().similar("a0", APVPA, k=3)
        with QueryService(small_bib) as svc:
            got = svc.similar("a0", APVPA, k=3).result(timeout=10)
        assert isinstance(got, TopKResult)
        assert list(got) == list(expected)

    def test_connected_matches_engine(self, small_bib):
        expected = small_bib.engine().top_k_connectivity("author-paper-venue", "a0", 2)
        with QueryService(small_bib) as svc:
            got = svc.connected("a0", "author-paper-venue", k=2).result(timeout=10)
        assert list(got) == list(expected)

    def test_rank_matches_session(self, small_bib):
        expected = small_bib.query().rank("venue", by="author", method="simple")
        with QueryService(small_bib) as svc:
            got = svc.rank("venue", by="author", method="simple").result(timeout=10)
        assert isinstance(got, RankingResult)
        assert list(got) == list(expected)

    def test_batched_answers_identical_to_serial(self, small_bib):
        engine = small_bib.engine()
        serial = {a: engine.pathsim_top_k(APVPA, a, 3) for a in range(4)}
        with QueryService(small_bib, workers=1) as svc:
            futures = {
                a: svc.similar(a, APVPA, k=3)
                for a in range(4)
                for _ in range(2)  # duplicates coalesce
            }
            for a, future in futures.items():
                assert list(future.result(timeout=10)) == list(serial[a])

    def test_errors_propagate_through_the_future(self, small_bib):
        with QueryService(small_bib) as svc:
            future = svc.similar("nobody", APA, k=2)
            with pytest.raises(NodeNotFoundError):
                future.result(timeout=10)

    def test_non_positive_max_iter_is_a_value_error_through_the_future(self, small_bib):
        with QueryService(small_bib) as svc:
            future = svc.rank("venue", by="author", max_iter=0)
            with pytest.raises(ValueError, match="max_iter must be > 0"):
                future.result(timeout=10)

    def test_bad_paths_also_fail_through_the_future(self, small_bib):
        # Uniform error contract: submit never raises on the caller
        # thread, whatever the failure.
        from repro.exceptions import ReproError

        with QueryService(small_bib) as svc:
            for future in (
                svc.similar("a0", "author-bogus", k=2),
                svc.connected("a0", "author-bogus", k=2),
            ):
                with pytest.raises(ReproError):
                    future.result(timeout=10)

    def test_bad_request_does_not_poison_its_batch(self, small_bib):
        # One invalid query grouped into a block product must fail alone:
        # co-batched valid requests still get their answers.
        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        with QueryService(small_bib, workers=1) as svc:
            good = [svc.similar("a0", APA, k=2) for _ in range(1)]
            bad = svc.similar("nobody", APA, k=2)
            good += [svc.similar("a1", APA, k=2)]
            with pytest.raises(NodeNotFoundError):
                bad.result(timeout=10)
            assert list(good[0].result(timeout=10)) == list(expected)
            assert len(good[1].result(timeout=10)) == 2

    def test_unhashable_arguments_skip_coalescing_but_still_answer(self, small_bib):
        with QueryService(small_bib, workers=1) as svc:
            future = svc.similar(["a0"], APA, k=2)  # unhashable query object
            with pytest.raises(Exception):
                future.result(timeout=10)  # engine rejects it, via the future
            ok = svc.similar("a0", APA, k=2).result(timeout=10)
        assert len(ok) == 2


class TestSharing:
    def test_duplicate_inflight_requests_coalesce(self, small_bib):
        with QueryService(small_bib, workers=1) as svc:
            futures = [svc.similar("a0", APA, k=2) for _ in range(10)]
            [f.result(timeout=10) for f in futures]
            stats = svc.stats()
        assert stats["coalesced"] >= 1
        assert stats["submitted"] + stats["coalesced"] == 10

    def test_same_path_requests_batch_into_one_block(self, small_bib):
        with QueryService(small_bib, workers=1) as svc:
            futures = [svc.similar(a, APVPA, k=2) for a in range(4)]
            [f.result(timeout=10) for f in futures]
            stats = svc.stats()
        # with one worker, at least some of the queued requests grouped
        assert stats["batches"] >= 1
        assert stats["largest_batch"] >= 2

    def test_different_shapes_do_not_batch_together(self, small_bib):
        with QueryService(small_bib, workers=1) as svc:
            a = svc.similar("a0", APA, k=2)
            b = svc.similar("a0", APA, k=3)  # different k: different shape
            assert len(a.result(timeout=10)) == 2
            assert len(b.result(timeout=10)) == 3

    def test_max_batch_bounds_grouping(self, small_bib, monkeypatch):
        monkeypatch.setattr(service_module, "_MAX_BATCH", 2)
        with QueryService(small_bib, workers=1) as svc:
            futures = [svc.similar(a, APA, k=2) for a in range(4)]
            [f.result(timeout=10) for f in futures]
            assert svc.stats()["largest_batch"] <= 2


class TestCancellation:
    def test_cancelled_future_does_not_kill_the_worker(self, small_bib):
        # A queued-then-cancelled request must be dropped, not crash the
        # worker with InvalidStateError when it sets the result.
        with QueryService(small_bib, workers=1) as svc:
            futures = [svc.similar(a, APVPA, k=2) for a in range(4)]
            cancelled = futures[1].cancel()  # may lose the race; both fine
            for i, f in enumerate(futures):
                if i == 1 and cancelled:
                    assert f.cancelled()
                else:
                    assert len(f.result(timeout=10)) == 2
            # the worker is still alive and serving
            assert len(svc.similar("a0", APA, k=2).result(timeout=10)) == 2

    def test_coalesced_submitters_have_independent_futures(self, small_bib):
        # Client B cancelling its coalesced duplicate must not cancel
        # client A's answer: each submitter owns its own future.
        with QueryService(small_bib, workers=1) as svc:
            f_a = svc.similar("a0", APVPA, k=2)
            f_b = svc.similar("a0", APVPA, k=2)  # coalesces with f_a
            assert f_a is not f_b
            f_b.cancel()  # may lose the race; either way A is unaffected
            assert len(f_a.result(timeout=10)) == 2


class TestLifecycle:
    def test_close_drains_pending_work(self, small_bib):
        svc = QueryService(small_bib, workers=2)
        futures = [svc.similar(a, APVPA, k=2) for a in range(4)]
        svc.close()
        for f in futures:
            assert f.done()

    def test_submit_after_close_raises(self, small_bib):
        svc = QueryService(small_bib)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.similar("a0", APA, k=2)

    def test_close_is_idempotent(self, small_bib):
        svc = QueryService(small_bib)
        svc.close()
        svc.close()

    def test_validates_construction_args(self, small_bib):
        with pytest.raises(ValueError):
            QueryService(small_bib, workers=0)

    def test_repr_and_cache_info(self, small_bib):
        with QueryService(small_bib) as svc:
            # Prewarmed: a cold query is served fused and (by design)
            # leaves the matrix cache empty; this test watches it fill.
            svc.prewarm(APA)
            svc.similar("a0", APA, k=2).result(timeout=10)
            assert "QueryService" in repr(svc)
            assert svc.cache_info().currsize >= 1
            assert svc.epoch == small_bib.version


class TestConcurrency:
    def test_many_clients_identical_answers(self, small_bib):
        engine = small_bib.engine()
        expected = {a: list(engine.pathsim_top_k(APVPA, a, 3)) for a in range(4)}
        failures: list = []

        with QueryService(small_bib, workers=3) as svc:

            def client(seed):
                for i in range(25):
                    a = (seed + i) % 4
                    got = svc.similar(a, APVPA, k=3).result(timeout=30)
                    if list(got) != expected[a]:
                        failures.append((a, got))

            threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not failures

    def test_queries_under_concurrent_updates_stay_epoch_consistent(self, small_bib):
        """Every answer is computed entirely at one epoch, and answers
        tagged with the final epoch match a cold engine's answers."""
        paths_done = threading.Event()
        answers: list = []

        with QueryService(small_bib, workers=2) as svc:

            def client():
                while not paths_done.is_set():
                    answers.append(svc.similar("a0", APA, k=3).result(timeout=30))

            clients = [threading.Thread(target=client) for _ in range(4)]
            for t in clients:
                t.start()
            for round_no in range(5):
                with small_bib.mutate() as m:
                    m.add_edges("writes", [(3, round_no % 5)])
            paths_done.set()
            for t in clients:
                t.join(timeout=60)

        assert small_bib.version == 5
        versions = {a.network_version for a in answers}
        assert versions <= set(range(6))
        # post-final-epoch answers must equal a from-scratch engine's
        cold = small_bib.engine(max_cached_matrices=8)
        expected = list(cold.pathsim_top_k(APA, "a0", 3))
        final = small_bib.engine().pathsim_top_k(APA, "a0", 3)
        assert list(final) == expected
        for a in answers:
            if a.network_version == 5:
                assert list(a) == expected
