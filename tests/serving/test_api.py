"""One serving surface, three deployment shapes.

Both process tiers are :class:`QueryService` subclasses, so code written
against the in-process service runs unchanged against the replicated and
sharded clusters: every verb exists on every service and answers the
same.
"""

from __future__ import annotations

import inspect
import threading
import time

import numpy as np
import pytest

import repro.serving as serving
from repro.networks import HIN, NetworkSchema, UpdateBatch
from repro.serving import ClusterService, QueryService, ShardedClusterService
from repro.serving import workers as workers_module

APA = "author-paper-author"

VERBS = ("similar", "connected", "rank", "watch")


@pytest.fixture(
    params=["service", "cluster", "sharded"],
    ids=["QueryService", "ClusterService", "ShardedClusterService"],
)
def any_service(request, small_bib):
    """Each deployment shape behind the identical surface."""
    if request.param == "service":
        factory = QueryService(small_bib)
    elif request.param == "cluster":
        factory = ClusterService(small_bib, processes=1)
    else:
        factory = ShardedClusterService(small_bib, [APA], shards=2)
    with factory as service:
        yield service


class TestSurface:
    def test_every_service_is_a_query_service(self, any_service):
        assert isinstance(any_service, QueryService)

    def test_verbs_share_one_definition(self):
        # QueryService's method objects ARE each tier's — no copies to
        # drift apart
        for cls in (ClusterService, ShardedClusterService):
            for verb in VERBS:
                assert getattr(cls, verb) is getattr(QueryService, verb)

    def test_signatures_are_identical_across_services(self):
        for verb in VERBS:
            reference = inspect.signature(getattr(QueryService, verb))
            for cls in (ClusterService, ShardedClusterService):
                assert inspect.signature(getattr(cls, verb)) == reference

    def test_exports(self):
        for name in ("QueryService", "ClusterService",
                     "ShardedClusterService", "ShardPlan"):
            assert name in serving.__all__
            assert getattr(serving, name) is not None
        assert not hasattr(serving, "ServingAPI")


class TestLifecycle:
    def test_every_verb_refuses_at_submit_after_close(self, any_service):
        """Closing is the one submit-time raise, on every tier, and the
        message names the service's own class."""
        any_service.close()
        submits = {
            "similar": lambda: any_service.similar("a0", APA, 1),
            "connected": lambda: any_service.connected("a0", APA, 1),
            "rank": lambda: any_service.rank("author"),
            "watch": lambda: any_service.watch("a0", APA, 1),
        }
        assert sorted(submits) == sorted(VERBS)
        closed = f"^{type(any_service).__name__} is closed$"
        for submit in submits.values():
            with pytest.raises(RuntimeError, match=closed):
                submit()
        any_service.close()  # idempotent

    @pytest.mark.parametrize("tier", [ClusterService, ShardedClusterService])
    def test_workers_fork_before_any_service_thread(
        self, small_bib, monkeypatch, tier
    ):
        """Forking while the queue's threads run is unsound, so every
        worker process starts before the first ``repro-serve-*`` thread."""
        real = workers_module._WorkerChannel
        seen = []

        def recording(*args, **kwargs):
            seen.append([t.name for t in threading.enumerate()])
            return real(*args, **kwargs)

        monkeypatch.setattr(workers_module, "_WorkerChannel", recording)
        if tier is ClusterService:
            service = ClusterService(small_bib, processes=2)
        else:
            service = ShardedClusterService(small_bib, [APA], shards=2)
        with service:
            assert len(seen) == 2
            assert not [
                name for names in seen for name in names
                if name.startswith("repro-serve-")
            ]
            assert any(
                t.name.startswith("repro-serve-") for t in threading.enumerate()
            )


class TestBehaviour:
    def test_similar_answers_everywhere(self, small_bib, any_service):
        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        got = any_service.similar("a0", APA, 2).result(timeout=60)
        assert list(got) == list(expected)

    def test_watch_verb_everywhere(self, small_bib, any_service):
        handle = any_service.watch("a0", APA, k=2).result(timeout=60)
        _epoch, current = handle.current()
        assert list(current) == list(
            small_bib.engine().pathsim_top_k(APA, "a0", 2)
        )

    @pytest.mark.parametrize("measure", ["pathsim", "simrank"])
    def test_every_path_spelling_answers_everywhere(
        self, small_bib, any_service, measure
    ):
        """The request carries the resolved path's DSL spelling, so a
        type list or ``MetaPath`` works for every measure on every tier
        (non-PathSim measures used to ship ``str(path)`` to workers)."""
        session = small_bib.query()
        expected = session.similar("a0", APA, 2, measure=measure)
        for spelling in (APA, ["author", "paper", "author"], session.path(APA)):
            got = any_service.similar("a0", spelling, 2, measure=measure)
            assert list(got.result(timeout=60)) == list(expected)

    def test_ambiguous_type_pairs_keep_their_relation_everywhere(self):
        """Two relations join author and paper, so the bare type string
        does not parse: the carried spelling must name the relation."""
        schema = NetworkSchema(
            ["author", "paper"],
            [("writes", "author", "paper"), ("reviews", "author", "paper")],
        )
        hin = HIN.from_edges(
            schema,
            nodes={"author": ["a0", "a1"], "paper": ["p0", "p1"]},
            edges={"writes": [(0, 0), (1, 0), (1, 1)], "reviews": [(0, 1)]},
        )
        path = "author-[writes]-paper-[writes]-author"
        expected = hin.engine().pathsim_top_k(path, "a0", 1)
        for factory in (
            QueryService(hin),
            ClusterService(hin, processes=1),
            ShardedClusterService(hin, [path], shards=2),
        ):
            with factory as service:
                got = service.similar("a0", path, 1).result(timeout=60)
                assert list(got) == list(expected)

    @pytest.mark.parametrize("k", [2, np.int64(2)])
    def test_integer_k_answers_everywhere(self, small_bib, any_service, k):
        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        got = any_service.similar("a0", APA, k).result(timeout=60)
        assert list(got) == list(expected)
        assert len(any_service.connected("a0", APA, k).result(timeout=60)) == 2
        watched = any_service.watch("a0", APA, k).result(timeout=60).spec.k
        assert type(watched) is int and watched == 2

    @pytest.mark.parametrize("k", [2.7, "2", None])
    def test_non_integer_k_fails_through_the_future_everywhere(
        self, any_service, k
    ):
        """One rule (``operator.index``) on every tier, applied inside
        the failed-future guard: nothing is raised at submit time."""
        for submit in (any_service.similar, any_service.connected, any_service.watch):
            future = submit("a0", APA, k)
            with pytest.raises(TypeError):
                future.result(timeout=60)

    def test_negative_k_has_one_outcome_everywhere(self, small_bib, any_service):
        with pytest.raises(ValueError):
            small_bib.engine().pathsim_top_k(APA, "a0", -1)
        with pytest.raises(ValueError):
            any_service.similar("a0", APA, -1).result(timeout=60)


class _Unpicklable(Exception):
    """An engine failure that cannot cross a process boundary."""

    def __reduce__(self):
        raise TypeError("cannot pickle me")


class TestErrorBoundary:
    def test_in_process_errors_arrive_as_the_same_object(
        self, small_bib, monkeypatch
    ):
        """Errors are sanitised where they are pickled — the worker
        loop — and nowhere else: in-process, the caller's exception
        reaches the future untouched."""
        boom = _Unpicklable("boom")

        def fail(*args, **kwargs):
            raise boom

        monkeypatch.setattr(small_bib.engine(), "pathsim_top_k", fail)
        with QueryService(small_bib) as service:
            assert service.similar("a0", APA, 2).exception(timeout=60) is boom

    @pytest.mark.parametrize("tier", ["cluster", "sharded"])
    def test_process_tier_errors_arrive_as_a_named_stand_in(
        self, small_bib, tier, monkeypatch, tmp_path
    ):
        """Across the process boundary the same failure arrives as a
        ``RuntimeError`` naming it, and the worker answers the next job."""
        from repro.engine import MetaPathEngine, kernels

        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        # What a worker runs for this request: the engine entry point on a
        # replicated worker, the solo kernel on a shard.  Patched before
        # the workers fork (they inherit it); armed through a file so the
        # test can heal the fault from outside the worker process.
        owner, name = {
            "cluster": (MetaPathEngine, "pathsim_top_k"),
            "sharded": (kernels, "pathsim_solo"),
        }[tier]
        real = getattr(owner, name)
        armed = tmp_path / "armed"
        armed.touch()

        def flaky(*args, **kwargs):
            if armed.exists():
                raise _Unpicklable("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, flaky)
        if tier == "cluster":
            factory = ClusterService(small_bib, processes=1)
        else:
            factory = ShardedClusterService(small_bib, [APA], shards=2)
        with factory as service:
            error = service.similar("a0", APA, 2).exception(timeout=60)
            assert type(error) is RuntimeError
            assert "_Unpicklable: boom" in str(error)
            armed.unlink()
            got = service.similar("a0", APA, 2).result(timeout=60)
            assert list(got) == list(expected)


class TestEpochRule:
    """A post-update submitter never receives a pre-update answer — one
    rule (epoch-prefixed coalescing keys), one test body, three tiers."""

    def test_every_post_update_answer_is_at_the_new_epoch(
        self, small_bib, any_service
    ):
        for expected_epoch in range(1, 4):
            small_bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
            futures = [any_service.similar(a, APA, 3) for a in range(4)]
            for future in futures:
                assert future.result(timeout=60).network_version == expected_epoch

    def test_post_update_submitters_do_not_coalesce_across_epochs(
        self, small_bib, any_service
    ):
        first = any_service.similar(0, APA, 3).result(timeout=60)
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))
        second = any_service.similar(0, APA, 3).result(timeout=60)
        assert first.network_version == 0
        assert second.network_version == 1

    def test_every_answer_beside_a_live_writer_equals_a_cold_replay_at_its_epoch(
        self, small_bib, any_service
    ):
        """Clients stream every verb while the writer commits edge deltas
        and **node growth** (new authors and papers, edges onto the new
        rows: the shard plan replans, a replicated generation republishes
        at new shapes); afterwards the batches are replayed on a fresh
        network and every collected answer — not just the final-epoch
        ones — must equal a cold session's at the epoch the answer is
        stamped with."""
        from repro.engine import MetaPathEngine
        from repro.query import QuerySession

        types = small_bib.schema.node_types
        replay = HIN(
            small_bib.schema,
            {t: small_bib.node_count(t) for t in types},
            {
                rel.name: small_bib.relation_matrix(rel.name).copy()
                for rel in small_bib.schema.relations
            },
            node_names={t: small_bib.names(t) for t in types},
        )
        stream = [
            UpdateBatch().add_edges("writes", [(3, 1)]),
            UpdateBatch().add_edges("writes", [(0, 3)]),
            UpdateBatch()
            .add_nodes("author", ["a4"])
            .add_nodes("paper", ["p5"])
            .add_edges("writes", [(4, 5), (4, 0), (0, 5)])
            .add_edges("published_in", [(5, 0)]),
            UpdateBatch().remove_edges("writes", [(1, 2)]),
            UpdateBatch().add_nodes("author", ["a5"]).add_edges(
                "writes", [(5, 5), (5, 3)]
            ),
            UpdateBatch().add_edges("writes", [(0, 4), (1, 4)]),
            UpdateBatch()
            .add_nodes("paper", ["p6"])
            .add_edges("writes", [(2, 6), (4, 6)])
            .add_edges("published_in", [(6, 1)]),
            UpdateBatch().add_edges("writes", [(2, 0)]),
        ]
        first_growth = next(
            epoch for epoch, batch in enumerate(stream, 1) if batch.node_additions
        )
        requests = [
            ("similar", ("a0", "A-P-A", 3)),
            ("connected", ("a1", "A-P-V", 3)),
            ("rank", ("author",)),
            ("similar", ("a2", "A-P-V-P-A", 3)),
            ("rank", ("A-P-V",)),
        ]
        answers, errors = [], []
        rounds = [0, 0, 0]
        stop = threading.Event()

        def client(number):
            try:
                while not stop.is_set():
                    for verb, args in requests[number:] + requests[:number]:
                        answer = getattr(any_service, verb)(*args).result(timeout=60)
                        answers.append((verb, args, answer))
                    rounds[number] += 1
            except Exception as exc:  # asserted empty below
                errors.append(exc)

        def let_clients_run():
            target = [done + 1 for done in rounds]
            deadline = time.monotonic() + 60
            while (
                any(done < want for done, want in zip(rounds, target))
                and not errors
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)

        clients = [
            threading.Thread(target=client, args=(n,)) for n in range(len(rounds))
        ]
        for thread in clients:
            thread.start()
        try:
            for batch in stream:
                let_clients_run()
                small_bib.apply(batch)
            let_clients_run()
        finally:
            stop.set()
            for thread in clients:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in clients)
        assert errors == []

        reference = {}
        for epoch in range(len(stream) + 1):
            if epoch:
                replay.apply(stream[epoch - 1])
            cold = QuerySession(
                replay,
                engine=MetaPathEngine(replay, mode="materialize"),
            )
            for verb, args in requests:
                reference[epoch, verb, args] = list(getattr(cold, verb)(*args))
        for verb, args, answer in answers:
            assert list(answer) == reference[answer.network_version, verb, args]
        assert len({answer.network_version for _, _, answer in answers}) > 1
        assert {
            verb
            for verb, _, answer in answers
            if answer.network_version >= first_growth
        } == {"similar", "connected", "rank"}

    def test_a_queued_request_is_not_joined_after_a_commit(self, small_bib):
        """The interleaving retire-inside-the-read-lock used to cover:
        the only worker is parked in a done-callback (delivery runs
        outside every lock), request R is queued behind it, a commit
        lands, and R is submitted again.  The second submitter gets its
        own request and an answer at the new epoch."""
        parked, release = threading.Event(), threading.Event()

        def park(_future):
            parked.set()
            release.wait(timeout=60)

        with QueryService(small_bib, workers=1) as service:
            service.similar(1, APA, 3).add_done_callback(park)
            assert parked.wait(timeout=60)
            try:
                before = service.similar(0, APA, 3)  # R, queued at epoch 0
                small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))
                after = service.similar(0, APA, 3)  # R again, at epoch 1
            finally:
                release.set()
            assert after is not before
            assert before.result(timeout=60).network_version in (0, 1)
            answer = after.result(timeout=60)
            assert answer.network_version == 1
            assert list(answer) == list(small_bib.engine().pathsim_top_k(APA, 0, 3))
            stats = service.stats()
        assert stats["submitted"] == 3
        assert stats["coalesced"] == 0
