"""Open-world workload: seed determinism, service parity, live writers."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import IngestError
from repro.ingest import (
    OpenWorldWorkload,
    QueryOp,
    StreamIngestor,
    WorkloadMix,
    WorkloadRun,
)
from repro.serving import ClusterService, QueryService
from repro.serving.shards import ShardedClusterService

APA = "A-P-A"
APVPA = "A-P-V-P-A"
PATHS = [APA, APVPA]

_PARALLEL = (os.cpu_count() or 1) >= 2
_PROCESSES = 2 if _PARALLEL else 1
N_OPS = 30


def _fresh_base(fixture_xml):
    """An independent, identically-loaded network + ingestor."""
    ing = StreamIngestor(chunk_size=1000)
    ing.ingest(fixture_xml)
    return ing.hin


def _writer(hin, writer_xml):
    """A deterministic live writer committing small chunks into *hin*."""
    return StreamIngestor(hin, chunk_size=40).ingest_iter(writer_xml)


class TestSampling:
    def test_same_seed_same_ops(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        a = OpenWorldWorkload(hin, PATHS, seed=11)
        b = OpenWorldWorkload(hin, PATHS, seed=11)
        assert a.ops(100) == b.ops(100)

    def test_different_seed_different_ops(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        a = OpenWorldWorkload(hin, PATHS, seed=11)
        b = OpenWorldWorkload(hin, PATHS, seed=12)
        assert a.ops(100) != b.ops(100)

    def test_mix_respected(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        w = OpenWorldWorkload(
            hin, PATHS, mix=WorkloadMix(similar=1, connected=0, rank=0, olap=0)
        )
        assert {op.verb for op in w.ops(50)} == {"similar"}

    def test_all_verbs_appear_under_default_mix(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        w = OpenWorldWorkload(hin, PATHS, seed=3)
        verbs = {op.verb for op in w.ops(300)}
        assert verbs == {"similar", "connected", "rank", "olap"}

    def test_zipf_skews_toward_low_indices(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        w = OpenWorldWorkload(hin, [APA], seed=0, zipf_s=2.0)
        objs = [op.obj for op in w.ops(400) if op.verb == "similar"]
        n = hin.node_count("author")
        low = sum(1 for o in objs if o < n // 10)
        assert low > len(objs) // 2  # top decile takes most of the traffic

    def test_open_world_population_growth_is_sampled(self, fixture_xml, writer_xml):
        hin = _fresh_base(fixture_xml)
        before = hin.node_count("paper")
        w = OpenWorldWorkload(hin, [APA], seed=0)
        writer = _writer(hin, writer_xml)
        for _ in writer:
            pass
        assert hin.node_count("paper") > before
        # Sampling still works against the grown population.
        assert all(
            op.obj < hin.node_count("author")
            for op in w.ops(50)
            if op.verb == "similar"
        )

    def test_describe_strings(self):
        assert "similar" in QueryOp("similar", "author", 3, APA, 5).describe()
        assert "rank" in QueryOp("rank", "author", kwargs=(("method", "degree"),)).describe()
        assert "olap" in QueryOp("olap", "venue").describe()


class TestValidation:
    def test_needs_at_least_one_path(self, fixture_xml):
        with pytest.raises(IngestError, match="meta-path"):
            OpenWorldWorkload(_fresh_base(fixture_xml), [])

    def test_rejects_bad_zipf(self, fixture_xml):
        with pytest.raises(IngestError, match="zipf_s"):
            OpenWorldWorkload(_fresh_base(fixture_xml), PATHS, zipf_s=1.0)

    def test_rejects_negative_and_all_zero_mix(self):
        with pytest.raises(IngestError, match=">= 0"):
            WorkloadMix(similar=-1).verbs_and_weights()
        with pytest.raises(IngestError, match="positive"):
            WorkloadMix(0, 0, 0, 0).verbs_and_weights()

    def test_empty_population_rejected(self):
        from repro.datasets import empty_dblp_hin

        w = OpenWorldWorkload.__new__(OpenWorldWorkload)
        w.hin = empty_dblp_hin()
        import numpy as np

        w._rng = np.random.default_rng(0)
        w._zipf_s = 1.8
        with pytest.raises(IngestError, match="empty"):
            w._zipf_index(0)

    def test_writer_without_interval_rejected(self, fixture_xml, writer_xml):
        hin = _fresh_base(fixture_xml)
        w = OpenWorldWorkload(hin, PATHS, seed=0)
        with pytest.raises(IngestError, match="writer_every"):
            w.run(hin.query(), 5, writer=_writer(hin, writer_xml))


class TestReplayParity:
    """Same seed + same network evolution = bit-identical answers
    everywhere: the cross-tier replay oracle under node growth."""

    def _run_against(self, make_target, fixture_xml, writer_xml):
        hin = _fresh_base(fixture_xml)
        workload = OpenWorldWorkload(hin, PATHS, seed=42, k=5)
        with make_target(hin) as target:
            run = workload.run(
                target,
                N_OPS,
                writer=_writer(hin, writer_xml),
                writer_every=10,
            )
        return run, hin

    def test_session_vs_service_vs_sharded_identical(self, fixture_xml, writer_xml):
        import contextlib

        runs = {}
        targets = {
            "session": lambda hin: contextlib.nullcontext(hin.query()),
            "service": lambda hin: QueryService(hin, workers=2),
            "sharded": lambda hin: ShardedClusterService(hin, PATHS, shards=2),
        }
        for name, make_target in targets.items():
            runs[name], hin = self._run_against(make_target, fixture_xml, writer_xml)
            # The interleaved writer really committed mid-run.
            assert hin.version > 1
        sigs = {name: run.signature() for name, run in runs.items()}
        assert len(set(sigs.values())) == 1, f"divergent answers: {sigs}"
        reference = runs["session"]
        for run in runs.values():
            assert run.ops == reference.ops
            assert run.answers == reference.answers

    def test_cluster_service_matches_session(self, fixture_xml, writer_xml):
        run_cluster, _ = self._run_against(
            lambda hin: ClusterService(hin, processes=_PROCESSES),
            fixture_xml,
            writer_xml,
        )
        run_session, _ = self._run_against(
            lambda hin: __import__("contextlib").nullcontext(hin.query()),
            fixture_xml,
            writer_xml,
        )
        assert run_cluster.signature() == run_session.signature()

    def test_epochs_advance_during_run(self, fixture_xml, writer_xml):
        hin = _fresh_base(fixture_xml)
        workload = OpenWorldWorkload(hin, PATHS, seed=7, k=5)
        run = workload.run(
            hin.query(), N_OPS, writer=_writer(hin, writer_xml), writer_every=5
        )
        assert len({e for e in run.epochs if e >= 0}) > 1

    def test_concurrent_writer_completes(self, fixture_xml, writer_xml):
        hin = _fresh_base(fixture_xml)
        before = hin.node_count("paper")
        workload = OpenWorldWorkload(hin, PATHS, seed=7, k=5)
        run = workload.run(
            hin.query(),
            N_OPS,
            writer=_writer(hin, writer_xml),
            concurrent_writer=True,
        )
        assert len(run.answers) == N_OPS
        assert hin.node_count("paper") > before  # writer fully drained

    def test_concurrent_writer_error_propagates(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        workload = OpenWorldWorkload(hin, PATHS, seed=7)

        def exploding():
            raise RuntimeError("writer died")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError, match="writer died"):
            workload.run(
                hin.query(), 3, writer=exploding(), concurrent_writer=True
            )


class TestAnswers:
    def test_olap_counts_cover_all_papers(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        workload = OpenWorldWorkload(
            hin, PATHS, mix=WorkloadMix(0, 0, 0, 1), seed=0
        )
        run = workload.run(hin.query(), 1)
        ((op,), (answer,)) = run.ops, run.answers
        assert op.verb == "olap"
        assert sum(count for _, count in answer) == hin.node_count("paper")
        assert all(count > 0 for _, count in answer)

    def test_rank_answers_are_topk_name_score_pairs(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        workload = OpenWorldWorkload(
            hin, PATHS, mix=WorkloadMix(0, 0, 1, 0), k=5, seed=0
        )
        run = workload.run(hin.query(), 1)
        (answer,) = run.answers
        assert len(answer) == 5
        assert all(isinstance(name, str) for name, _ in answer)
        scores = [s for _, s in answer]
        assert scores == sorted(scores, reverse=True)

    def test_signature_sensitive_to_answers(self):
        a = WorkloadRun(ops=[QueryOp("similar", "author", 0, APA)], answers=[[("x", 1.0)]])
        b = WorkloadRun(ops=[QueryOp("similar", "author", 0, APA)], answers=[[("y", 1.0)]])
        assert a.signature() != b.signature()

    def test_qps_positive(self, fixture_xml):
        hin = _fresh_base(fixture_xml)
        workload = OpenWorldWorkload(hin, [APA], seed=0)
        run = workload.run(hin.query(), 5)
        assert run.qps > 0
        assert run.seconds > 0
