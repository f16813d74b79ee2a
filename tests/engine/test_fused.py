"""Fused single-source PathSim kernel: edge-case matrix, auto dispatch,
and the unified empty-result shape.

Every comparison here is **bit-identical** (``==`` on the score floats,
never a tolerance): link weights are small integers, so every float64
sum/product along either kernel is exact and the two kernels divide the
same operands.  See :mod:`repro.engine.fused` for the full argument.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    MetaPathEngine,
    finalize_top_k,
    fused_row_scores,
    kernels,
)
from repro.engine import engine as engine_module
from repro.engine.fused import _thread, half_norms
from repro.networks import HIN, NetworkSchema, UpdateBatch

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"


def _ab_hin(edges, *, n_a=4, n_b=3, extra_rel=False):
    """Tiny two-type network: relation ``r`` from ``a`` to ``b``."""
    rels = [("r", "a", "b")]
    if extra_rel:
        rels.append(("r2", "a", "b"))
    schema = NetworkSchema(["a", "b"], rels)
    if isinstance(edges, dict):
        edge_map = edges
    else:
        edge_map = {"r": edges}
    edge_map.setdefault("r2", [] if extra_rel else None)
    edge_map = {k: v for k, v in edge_map.items() if v is not None}
    return HIN.from_edges(schema, nodes={"a": n_a, "b": n_b}, edges=edge_map)


def _group_hin(weights=None):
    """Papers in groups of 32 that share the group's two authors.
    ``P-A-P-A-P``'s half ``W = P-A-P`` holds 32 entries for each of 320
    papers: its count reads 16 times the 2 × 640 entries of the half's
    relations, so ``auto`` prices the path as staying fused.  A query
    reaches only its own group.  *weights*, if given, draws one link
    weight per edge."""
    groups, size, authors = 10, 32, 2
    writes = [
        (g * authors + a, g * size + p)
        for g in range(groups) for p in range(size) for a in range(authors)
    ]
    if weights is not None:
        writes = [(a, p, w) for (a, p), w in zip(writes, weights(len(writes)))]
    return HIN.from_edges(
        NetworkSchema(["author", "paper"], [("writes", "author", "paper")]),
        nodes={"author": groups * authors, "paper": groups * size},
        edges={"writes": writes},
    )


GROUP_PATH = "paper-author-paper-author-paper"


def _both(hin, path, query, k, **kw):
    """(fused, materialized) answers from fresh engines — cold both ways."""
    fused = MetaPathEngine(hin, mode="fused").pathsim_top_k(path, query, k, **kw)
    mat = MetaPathEngine(hin, mode="materialize").pathsim_top_k(
        path, query, k, **kw
    )
    return fused, mat


def _assert_identical(fused, mat):
    assert list(fused) == list(mat)  # names AND float bits
    assert fused.mode == "fused"
    assert mat.mode == "materialize"


class TestEdgeCaseMatrix:
    def test_k_exceeds_candidates(self, small_bib):
        fused, mat = _both(small_bib, APVPA, 0, 100)
        _assert_identical(fused, mat)
        assert len(fused) <= small_bib.node_count("author")

    def test_all_tie_at_kth_cut(self):
        # Authors 0-3 all write the same paper with the same weight:
        # every off-diagonal PathSim score is the same value, so the
        # k-th cut slices through a full tie — both kernels must break
        # it by ascending index, identically.
        hin = _ab_hin([(0, 0), (1, 0), (2, 0), (3, 0)])
        for k in (1, 2, 3):
            fused, mat = _both(hin, "a-b-a", 0, k)
            _assert_identical(fused, mat)
            assert len(fused) == k
            scores = {s for _, s in fused}
            assert len(scores) == 1  # genuinely tied at the cut

    def test_zero_degree_source(self):
        hin = _ab_hin([(0, 0), (1, 0)])  # a2, a3 write nothing
        fused, mat = _both(hin, "a-b-a", 3, 2)
        _assert_identical(fused, mat)

    def test_empty_relation_along_chain(self):
        hin = _ab_hin({"r": [(0, 0)], "r2": []}, extra_rel=True)
        fused, mat = _both(hin, "a-[r2]-b-[~r2]-a", 0, 2)
        _assert_identical(fused, mat)

    def test_length_one_round_trip(self, small_bib):
        # The minimal symmetric path: one relation out and straight back.
        for q in range(small_bib.node_count("author")):
            fused, mat = _both(small_bib, APA, q, 3)
            _assert_identical(fused, mat)

    def test_inverse_relation_chain(self):
        # First step traverses r backwards ([~r]): the fused kernel must
        # thread the transposed step exactly like the materializer.
        hin = _ab_hin([(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)])
        for q in range(3):
            fused, mat = _both(hin, "b-[~r]-a-[r]-b", q, 3)
            _assert_identical(fused, mat)

    def test_batch_matches_solo_per_kernel(self, small_bib):
        queries = list(range(small_bib.node_count("author")))
        for mode in ("fused", "materialize"):
            engine = MetaPathEngine(small_bib, mode=mode)
            batch = engine.pathsim_top_k_batch(APVPA, queries, 3)
            for q, res in zip(queries, batch):
                assert list(res) == list(engine.pathsim_top_k(APVPA, q, 3))
                assert res.mode == mode

    def test_partial_block_parity(self, small_bib):
        # Both top-k modes score the partial block off the one
        # materialized (W, diag); it equals the dense PathSim block of
        # the left-to-right reference product bit for bit.
        rows = [0, 2]
        candidates = [1, 2, 3]
        m = small_bib.commuting_matrix(APVPA).toarray()
        diag = np.diag(m)
        expected = kernels.pathsim_scores(
            m[np.ix_(rows, candidates)], diag[rows, None] + diag[None, candidates]
        )
        for mode in ("fused", "materialize"):
            got = MetaPathEngine(small_bib, mode=mode).pathsim_partial_block(
                APVPA, rows, candidates
            )
            assert np.array_equal(got, expected)

    def test_partial_block_is_no_top_k_dispatch(self, small_bib):
        engine = MetaPathEngine(small_bib, mode="fused")
        engine.pathsim_partial_block(APVPA, [0, 1], [2, 3])
        assert engine.kernel_counters == {"fused": 0, "materialize": 0}

    def test_fused_helpers_reject_nothing_the_engine_allows(self, small_bib):
        # The pure kernel, fed a cold engine's chains and a streamed
        # diagonal, agrees with the dense row / block.
        engine = MetaPathEngine(small_bib, mode="materialize")
        mp = engine.symmetric_path(APVPA)
        row = engine.pathsim_row(mp, 1)
        first, second = MetaPathEngine(small_bib)._half_chains(mp.canonical_key())
        diag = half_norms(first)
        assert np.array_equal(fused_row_scores(first, second, diag, 1), row)
        block = np.array([fused_row_scores(first, second, diag, i) for i in (0, 1)])
        assert np.array_equal(block, engine.pathsim_rows(mp, [0, 1]))

    def test_the_pure_kernel_divides_by_the_diagonal_it_is_given(self, small_bib):
        # The kernel reads its denominators from *diag* alone: a constant
        # diagonal d scores 2·M[i, j] / (M[i, i] + d) wherever M[i, j] != 0.
        engine = MetaPathEngine(small_bib, mode="materialize")
        mp = engine.symmetric_path(APVPA)
        m = engine.commuting_matrix(mp).toarray()
        first, second = MetaPathEngine(small_bib)._half_chains(mp.canonical_key())
        for i in (0, 1):
            for d in (1.0, 5.0):
                diag = np.full(m.shape[0], d)
                expected = np.where(m[i] != 0, 2.0 * m[i] / (m[i, i] + d), 0.0)
                assert np.array_equal(fused_row_scores(first, second, diag, i), expected)

    def test_forced_fused_reads_cached_diag(self, small_bib):
        # A prewarmed engine holds the maintained (w, diag) pair; forced
        # fused must read that diagonal instead of re-threading candidate
        # rows — and still agree bit for bit on every top-k entry point.
        warm = MetaPathEngine(small_bib, mode="fused")
        warm.prewarm([APVPA])
        mat = MetaPathEngine(small_bib, mode="materialize")
        for q in range(small_bib.node_count("author")):
            assert list(warm.pathsim_top_k(APVPA, q, 3)) == list(
                mat.pathsim_top_k(APVPA, q, 3)
            )
        queries = [0, 1, 3]
        assert [
            list(r) for r in warm.pathsim_top_k_batch(APVPA, queries, 2)
        ] == [list(r) for r in mat.pathsim_top_k_batch(APVPA, queries, 2)]

    def test_partial_block_empty_rows_or_candidates(self, small_bib):
        engine = MetaPathEngine(small_bib, mode="fused")
        assert engine.pathsim_partial_block(APVPA, [], [0, 1]).shape == (0, 2)
        assert engine.pathsim_partial_block(APVPA, [0], []).shape == (1, 0)

    def test_empty_batch(self, small_bib):
        engine = MetaPathEngine(small_bib, mode="fused")
        assert engine.pathsim_top_k_batch(APVPA, [], 3) == []

    def test_forced_fused_matches_materialize_on_wide_candidate_sets(self):
        # Hundreds of candidates per query with small k: every one is
        # scored from the held diagonal, and _select takes the exact top
        # slots.  Parity over every query is the oracle.
        from repro.datasets import make_dblp_four_area

        hin = make_dblp_four_area(
            authors_per_area=50, papers_per_area=120, terms_per_area=30,
            shared_terms=15, seed=3,
        ).hin
        mat = MetaPathEngine(hin, mode="materialize")
        fused = MetaPathEngine(hin, mode="fused")
        for q in range(0, hin.node_count("author"), 13):
            assert list(fused.pathsim_top_k(APVPA, q, 2)) == list(
                mat.pathsim_top_k(APVPA, q, 2)
            ), q

    def test_invalid_mode_rejected(self, small_bib):
        with pytest.raises(ValueError):
            MetaPathEngine(small_bib, mode="eager")
        engine = MetaPathEngine(small_bib)
        with pytest.raises(ValueError):
            engine.pathsim_top_k(APA, 0, 2, mode="eager")


class TestAutoDispatch:
    """``mode="auto"`` picks the kernel from cache state and the path's
    first-touch price; whatever it picks must be reported on the result
    and agree bit for bit with both forced kernels."""

    def _forced(self, hin, path, q, k):
        return (
            list(MetaPathEngine(hin, mode="fused").pathsim_top_k(path, q, k)),
            list(
                MetaPathEngine(hin, mode="materialize").pathsim_top_k(
                    path, q, k
                )
            ),
        )

    def test_a_fitting_cold_path_materializes_on_its_first_query(self, small_bib):
        engine = MetaPathEngine(small_bib)  # mode="auto" is the default
        fused_ref, mat_ref = self._forced(small_bib, APVPA, 0, 3)
        assert fused_ref == mat_ref
        modes = []
        for _ in range(3):
            res = engine.pathsim_top_k(APVPA, 0, 3)
            modes.append(res.mode)
            assert list(res) == fused_ref
        assert modes == ["materialize"] * 3
        assert engine.kernel_counters == {"fused": 0, "materialize": 3}
        key = engine.symmetric_path(APVPA).canonical_key()
        state = engine._paths[key]
        half = key[: len(key) // 2]
        relations = sum(small_bib.relation_matrix(name).nnz for name, _ in half)
        assert state.kernel == "materialize" and state.diag is None
        assert state.bound <= engine_module._MATERIALIZE_COST_RATIO * relations
        assert state.bound >= engine._pathsim_parts(APVPA)[0].nnz
        assert engine._planner.counters["planned_products"] == 1

    def _serve(self, hin, path, queries, engine=None):
        """Serve *queries* one at a time on *engine* (a cold auto engine by
        default), checking each answer against a cold materialized engine
        and each reported kernel against what ``explain`` named just
        before.  Returns the engine and the kernels that ran."""
        engine = MetaPathEngine(hin) if engine is None else engine
        reference = MetaPathEngine(hin, mode="materialize")
        modes = []
        for q in queries:
            predicted = engine.explain(path).kernel
            res = engine.pathsim_top_k(path, q, 2)
            assert res.mode == predicted
            assert list(res) == list(reference.pathsim_top_k(path, q, 2))
            modes.append(res.mode)
        return engine, modes

    def test_half_product_outweighing_its_relations_stays_fused(self):
        # The count prices the path before its first query: it stays
        # fused, its first query streams and holds the diagonal (bitwise
        # the planned one), and no W is ever built.
        hin, path = _group_hin(), GROUP_PATH
        queries = [7 * q for q in range(10)]
        engine, modes = self._serve(hin, path, queries[:1])
        key = engine.symmetric_path(path).canonical_key()
        held = engine._paths[key].diag
        assert engine._paths[key].kernel == "fused"
        assert np.array_equal(held, MetaPathEngine(hin)._pathsim_parts(path)[1])
        modes += self._serve(hin, path, queries[1:], engine)[1]
        assert modes == ["fused"] * 10
        assert engine.kernel_counters == {"fused": 10, "materialize": 0}
        assert engine._paths[key].diag is held  # streamed once
        assert engine._cache.peek(("pathsim", key)) is None
        assert engine._planner.counters["planned_products"] == 0
        assert engine.explain(path).kernel == "fused"

    def test_a_one_step_half_is_its_relation_and_materializes(self):
        # Every a links to the same three b's: the half is the relation
        # itself, its count is its nnz, so the first query is a
        # materialized one and no planner build ever runs.
        hin = _ab_hin([(a, b) for a in range(20) for b in range(3)], n_a=20)
        engine, modes = self._serve(hin, "a-b-a", list(range(5)))
        assert modes == ["materialize"] * 5
        assert engine.kernel_counters == {"fused": 0, "materialize": 5}
        key = engine.symmetric_path("a-b-a").canonical_key()
        assert engine._paths[key].bound == hin.relation_matrix("r").nnz
        assert engine._cache.peek(("pathsim", key)) is not None
        assert [k for k in engine._cache.keys() if k[0] == "product"] == []
        assert engine._planner.counters["planned_products"] == 0

    def test_explain_names_a_forced_kernel(self, small_bib):
        # A forced engine runs its kernel whatever the cache holds, and
        # explain says so: warm for fused, cold for materialize.
        for mode, warm in (("fused", True), ("materialize", False)):
            engine = MetaPathEngine(small_bib, mode=mode)
            if warm:
                engine.prewarm([APVPA])
            assert engine.explain(APVPA).kernel == mode
            assert engine.pathsim_top_k(APVPA, 0, 2).mode == mode

    def test_prewarmed_prefix_dispatches_materialized(self, small_bib):
        engine = MetaPathEngine(small_bib)
        engine.prewarm([APVPA])
        res = engine.pathsim_top_k(APVPA, 1, 3)
        assert res.mode == "materialize"
        fused_ref, _ = self._forced(small_bib, APVPA, 1, 3)
        assert list(res) == fused_ref
        assert engine.explain(APVPA).kernel == "materialize"

    def test_evicted_seed_falls_back_consistently(self, small_bib):
        engine = MetaPathEngine(small_bib, max_cached_matrices=2)
        engine.prewarm([APVPA])
        # Evict everything the prewarm cached, then query: whichever
        # kernel auto picks, the answer must match both forced kernels.
        engine.clear_cache()
        res = engine.pathsim_top_k(APVPA, 2, 3)
        assert res.mode in ("fused", "materialize")
        fused_ref, mat_ref = self._forced(small_bib, APVPA, 2, 3)
        assert list(res) == fused_ref == mat_ref

    def test_snapshot_restore_counts_as_warm(self, small_bib):
        donor = MetaPathEngine(small_bib)
        donor.prewarm([APVPA])
        epoch, entries = donor.export_state()
        fresh = MetaPathEngine(small_bib)
        fresh.attach_state(epoch, entries)
        res = fresh.pathsim_top_k(APVPA, 0, 3)
        assert res.mode == "materialize"
        fused_ref, _ = self._forced(small_bib, APVPA, 0, 3)
        assert list(res) == fused_ref

    def test_fuzzed_cache_states_agree(self, small_bib):
        # Drive one auto engine through a scripted mix of cache states —
        # cold, repeated (past the fused threshold), prewarmed, evicted,
        # restored — checking reported mode and bit-identity throughout.
        import itertools

        refs = {
            (p, q, k): self._forced(small_bib, p, q, k)[0]
            for p, q, k in itertools.product((APA, APVPA), (0, 3), (2, 5))
        }
        engine = MetaPathEngine(small_bib)
        script = [
            ("query", APVPA, 0, 2), ("query", APVPA, 0, 2),
            ("prewarm", APA), ("query", APA, 3, 5),
            ("query", APVPA, 3, 5), ("query", APVPA, 0, 2),
            ("evict",), ("query", APVPA, 0, 5), ("query", APA, 0, 2),
            ("restore",), ("query", APA, 3, 2), ("query", APVPA, 3, 2),
        ]
        for op in script:
            if op[0] == "prewarm":
                engine.prewarm([op[1]])
            elif op[0] == "evict":
                engine.clear_cache()
            elif op[0] == "restore":
                epoch, entries = engine.export_state()
                engine = MetaPathEngine(small_bib)
                engine.attach_state(epoch, entries)
            else:
                _, path, q, k = op
                res = engine.pathsim_top_k(path, q, k)
                assert res.mode in ("fused", "materialize")
                assert list(res) == refs[(path, q, k)], (op, res.mode)
        counters = engine.kernel_counters
        assert counters["fused"] + counters["materialize"] > 0


def _venue_hin(seed=0):
    """Integer-weighted authors, papers and five venues, linked densely
    enough that every venue path's numerator reaches every venue."""
    rng = np.random.default_rng(seed)
    counts = {"a": 30, "p": 60, "v": 5}

    def links(src, dst, n):
        return list(
            zip(
                rng.integers(0, counts[src], n).tolist(),
                rng.integers(0, counts[dst], n).tolist(),
                rng.integers(1, 4, n).tolist(),
            )
        )

    schema = NetworkSchema(["a", "p", "v"], [("w", "a", "p"), ("pv", "p", "v")])
    edges = {"w": links("a", "p", 150), "pv": [(p, p % 5, 1) for p in range(60)]}
    return HIN.from_edges(schema, nodes=counts, edges=edges)


class TestFirstTouch:
    """``auto`` prices a path before its first query: a path whose count
    fits is built by that query, one that does not never builds ``W``,
    however many queries a cold batch brings."""

    PATHS = ("v-p-a-p-v", "v-p-a-p-a-p-v")

    def test_a_fitting_path_is_built_by_its_first_query(self):
        hin = _venue_hin()
        for path in self.PATHS:
            engine = MetaPathEngine(hin)
            assert engine.pathsim_top_k(path, 0, 3).mode == "materialize"
            key = engine.symmetric_path(path).canonical_key()
            (w, diag), (w_ref, diag_ref) = (
                engine._cache.peek(("pathsim", key)),
                MetaPathEngine(hin, mode="materialize")._pathsim_parts(path),
            )
            assert w.has_canonical_format and w.shape == w_ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(w, name), getattr(w_ref, name))
            assert np.array_equal(diag, diag_ref)
            assert engine.kernel_counters == {"fused": 0, "materialize": 1}
            assert engine._paths[key].kernel == "materialize"
            assert engine.explain(path).kernel == "materialize"
            reference = MetaPathEngine(hin, mode="materialize")
            for q in range(5):
                res = engine.pathsim_top_k(path, q, 3)
                assert res.mode == "materialize"
                assert list(res) == list(reference.pathsim_top_k(path, q, 3))

    def test_a_forced_fused_engine_holds_a_diagonal_and_builds_nothing(self):
        # Both paths fit auto's count, yet a forced-fused engine builds
        # no W: it holds the diagonal its first query streamed.
        hin = _venue_hin()
        for path in self.PATHS:
            engine = MetaPathEngine(hin, mode="fused")
            reference = MetaPathEngine(hin, mode="materialize")
            for q in range(5):
                assert list(engine.pathsim_top_k(path, q, 3)) == list(
                    reference.pathsim_top_k(path, q, 3)
                )
            key = engine.symmetric_path(path).canonical_key()
            assert list(engine._paths) == [key]
            assert np.array_equal(engine._paths[key].diag, reference._pathsim_parts(path)[1])
            assert [k for k in engine._cache.keys() if k[0] == "pathsim"] == []
            assert engine._planner.counters["planned_products"] == 0

    def test_a_cold_burst_on_an_over_count_path_builds_no_w(self):
        # 16 cold queries in one batch: the count prices the path as
        # staying fused, so the batch streams one diagonal and threads
        # 16 numerators; nothing builds or caches W.
        hin = _group_hin()
        engine = MetaPathEngine(hin)
        queries = list(range(0, 320, 20))
        batch = engine.pathsim_top_k_batch(GROUP_PATH, queries, 5)
        reference = MetaPathEngine(hin, mode="materialize")
        for q, res in zip(queries, batch):
            assert res.mode == "fused"
            assert list(res) == list(reference.pathsim_top_k(GROUP_PATH, q, 5))
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        assert engine._planner.counters["planned_products"] == 0
        assert engine._cache.peek(("pathsim", key)) is None
        assert engine.kernel_counters == {"fused": 1, "materialize": 0}
        assert list(engine._paths) == [key]
        _, diag = MetaPathEngine(hin, mode="materialize")._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._paths[key].diag, diag)

    def test_a_first_touch_build_answers_as_the_materialize_engine_bitwise(self):
        # Fractional weights: sums round, so the order decides the bits.
        # The first-touch build is the planner's W and diagonal, so every
        # answer equals a cold materialize engine's bit for bit.
        rng = np.random.default_rng(0)
        counts = {"a": 12, "p": 40}
        writes = zip(*(rng.integers(0, counts[t], 60).tolist() for t in "ap"))
        hin = HIN.from_edges(
            NetworkSchema(["a", "p"], [("w", "a", "p")]),
            nodes=counts,
            edges={"w": [(a, p, w) for (a, p), w in zip(writes, rng.uniform(0.01, 4.0, 60))]},
        )
        path = "a-p-a-p-a"
        engine = MetaPathEngine(hin)
        reference = MetaPathEngine(hin, mode="materialize")
        batch = engine.pathsim_top_k_batch(path, list(range(counts["a"])), 4)
        for q, res in enumerate(batch):
            assert res.mode == "materialize"
            assert list(res) == list(reference.pathsim_top_k(path, q, 4))

    def test_two_threads_pricing_at_once_leave_one_state(self, monkeypatch):
        import threading

        hin = _venue_hin()
        path = self.PATHS[1]
        engine = MetaPathEngine(hin)
        barrier = threading.Barrier(2, timeout=30)
        count = engine_module.nnz_bound

        def both_inside(mats):
            barrier.wait()  # both threads are past the unpriced check
            return count(mats)

        monkeypatch.setattr(engine_module, "nnz_bound", both_inside)
        results = {}

        def serve(q):
            results[q] = engine.pathsim_top_k(path, q, 3)

        threads = [threading.Thread(target=serve, args=(q,)) for q in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not barrier.broken and sorted(results) == [0, 1]
        monkeypatch.setattr(engine_module, "nnz_bound", count)
        reference = MetaPathEngine(hin, mode="materialize")
        for q in (0, 1):
            assert results[q].mode == "materialize"
            assert list(results[q]) == list(reference.pathsim_top_k(path, q, 3))
        key = engine.symmetric_path(path).canonical_key()
        assert list(engine._paths) == [key]
        assert [k for k in engine._cache.keys() if k[0] == "pathsim"] == [("pathsim", key)]
        for q in range(5):
            res = engine.pathsim_top_k(path, q, 3)
            assert res.mode == "materialize"
            assert list(res) == list(reference.pathsim_top_k(path, q, 3))

    def test_threads_racing_on_cold_paths_agree(self):
        # More threads than cores, switching often, all on cold paths of
        # one auto engine: every answer is the materialized one and each
        # path ends with exactly one entry.
        import sys
        import threading

        hin = _venue_hin(seed=1)
        engine = MetaPathEngine(hin)
        reference = MetaPathEngine(hin, mode="materialize")
        expected = {
            (p, q): list(reference.pathsim_top_k(p, q, 3)) for p in self.PATHS for q in range(5)
        }
        wrong = []

        def serve(offset):
            for p, q in list(expected)[offset:] + list(expected)[:offset]:
                if list(engine.pathsim_top_k(p, q, 3)) != expected[(p, q)]:
                    wrong.append((p, q))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        held = sorted(k for k in engine._cache.keys() if k[0] == "pathsim")
        keys = (engine.symmetric_path(p).canonical_key() for p in self.PATHS)
        assert held == sorted(("pathsim", key) for key in keys)

    def test_a_watch_recomputed_on_source_growth_prices_at_the_new_epoch(self):
        # The watch's first answer prices the path as staying fused; a
        # commit that grows the source type drops that state, and the
        # hook's recompute prices the path again from the post-commit
        # chain: no shape mismatch, and the answer is the cold one.
        hin = _group_hin()
        sub = hin.watches().watch(GROUP_PATH, 3, k=4)
        engine = hin.engine()
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        assert engine._paths[key].kernel == "fused"
        hin.apply(UpdateBatch().add_nodes("paper", 2).add_edges("writes", [(0, 320), (5, 321)]))
        assert hin.watches().stats()["fallback"] == 1
        _, current = sub.current()
        cold = MetaPathEngine(hin, mode="materialize")
        assert current == cold.pathsim_top_k(GROUP_PATH, 3, 4)
        assert current.network_version == 1
        assert engine._paths[key].diag.shape == (322,)
        assert engine._cache.peek(("pathsim", key)) is None


class TestHeldDiagonal:
    """A path ``auto`` prices as staying fused holds its PathSim
    diagonal, streamed once by its first query, and scores every
    candidate from it."""

    def _held(self, hin, queries):
        engine = MetaPathEngine(hin)
        for q in queries:
            assert engine.pathsim_top_k(GROUP_PATH, q, 2).mode == "fused"
        return engine, engine.symmetric_path(GROUP_PATH).canonical_key()

    def test_a_held_diagonal_is_each_row_threaded_alone_bitwise(self):
        # Fractional weights: sums round, so the order decides the bits.
        rng = np.random.default_rng(0)
        hin = _group_hin(lambda n: rng.uniform(0.01, 4.0, n))
        engine, key = self._held(hin, [7])
        first, _ = engine._half_chains(key)
        alone = [
            kernels.row_norms(_thread(first[0][[j]], first[1:]))[0]
            for j in range(first[0].shape[0])
        ]
        assert np.array_equal(engine._paths[key].diag, alone)

    def test_a_stream_in_ragged_blocks_is_the_one_block_stream_bitwise(self, monkeypatch):
        # 320 rows in blocks of 1, 7, 64 and 319: each block edge and a
        # ragged last block leave every row's norm where one block puts it.
        from repro.engine import fused

        rng = np.random.default_rng(1)
        hin = _group_hin(lambda n: rng.uniform(0.01, 4.0, n))
        key = MetaPathEngine(hin).symmetric_path(GROUP_PATH).canonical_key()
        first, _ = MetaPathEngine(hin)._half_chains(key)
        assert first[0].shape[0] <= fused._STREAM_ROWS
        whole = half_norms(first)
        for rows in (1, 7, 64, 319):
            monkeypatch.setattr(fused, "_STREAM_ROWS", rows)
            assert np.array_equal(half_norms(first), whole)
            engine, key = self._held(hin, [7])
            assert np.array_equal(engine._paths[key].diag, whole)

    def test_a_forced_fused_engine_holds_one_diagonal_streamed_once(self):
        hin = _group_hin()
        engine = MetaPathEngine(hin, mode="fused")
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        engine.pathsim_top_k(GROUP_PATH, 0, 2)
        held = engine._paths[key].diag
        for q in range(1, 6):
            engine.pathsim_top_k(GROUP_PATH, 7 * q, 2)
        assert list(engine._paths) == [key] and engine._paths[key].diag is held
        assert np.array_equal(held, MetaPathEngine(hin)._pathsim_parts(GROUP_PATH)[1])
        assert engine._cache.peek(("pathsim", key)) is None
        assert engine._planner.counters["planned_products"] == 0

    def test_a_fused_call_on_an_auto_engine_leaves_the_pick(self):
        # A per-call mode="fused" query holds the diagonal of a path
        # priced either way, and the path's next auto query runs the
        # kernel a fresh engine's would.
        cases = [(_venue_hin(), path, "materialize") for path in TestFirstTouch.PATHS]
        cases.append((_group_hin(), GROUP_PATH, "fused"))
        for hin, path, pick in cases:
            assert MetaPathEngine(hin).explain(path).kernel == pick
            reference = MetaPathEngine(hin, mode="materialize")
            for priced in (False, True):
                engine = MetaPathEngine(hin)
                if priced:
                    assert engine.explain(path).kernel == pick
                res = engine.pathsim_top_k(path, 1, 3, mode="fused")
                assert res.mode == "fused"
                assert list(res) == list(reference.pathsim_top_k(path, 1, 3))
                key = engine.symmetric_path(path).canonical_key()
                assert engine._paths[key].kernel == pick
                assert engine._paths[key].diag is not None
                assert engine.explain(path).kernel == pick
                res = engine.pathsim_top_k(path, 2, 3)
                assert res.mode == pick
                assert list(res) == list(reference.pathsim_top_k(path, 2, 3))

    def test_clear_cache_drops_it_and_the_next_query_streams_anew(self):
        hin = _group_hin()
        engine, key = self._held(hin, [0])
        held = engine._paths[key].diag
        engine.clear_cache()
        assert engine._paths == {}
        engine.pathsim_top_k(GROUP_PATH, 5, 2)
        assert engine._paths[key].diag is not held
        assert np.array_equal(engine._paths[key].diag, held)

    def test_a_commit_drops_it_and_the_next_query_streams_anew(self):
        # The commit grows the source type and links into it, so a vector
        # kept across it would be short and stale.
        hin = _group_hin()
        engine = hin.engine()
        engine.pathsim_top_k(GROUP_PATH, 0, 2)
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        held = engine._paths[key].diag
        hin.apply(UpdateBatch().add_nodes("paper", 1).add_edges("writes", [(0, 320), (9, 3)]))
        assert engine._paths == {}
        reference = MetaPathEngine(hin, mode="materialize")
        for q in (0, 3, 320):
            res = engine.pathsim_top_k(GROUP_PATH, q, 3)
            assert res.mode == "fused"
            assert list(res) == list(reference.pathsim_top_k(GROUP_PATH, q, 3))
        assert engine._paths[key].diag is not held
        _, diag = reference._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._paths[key].diag, diag)

    def test_two_threads_streaming_at_once_leave_one_vector(self, monkeypatch):
        import threading

        hin = _group_hin()
        engine = MetaPathEngine(hin)
        assert engine.explain(GROUP_PATH).kernel == "fused"  # priced, not streamed
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        assert engine._paths[key].diag is None
        barrier = threading.Barrier(2, timeout=30)
        stream = engine_module.half_norms

        def both_inside(first):
            barrier.wait()  # both threads are past the held-vector miss
            return stream(first)

        monkeypatch.setattr(engine_module, "half_norms", both_inside)
        results = {}

        def serve(q):
            results[q] = engine.pathsim_top_k(GROUP_PATH, q, 3)

        threads = [threading.Thread(target=serve, args=(q,)) for q in (9, 22)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not barrier.broken and sorted(results) == [9, 22]

        def no_stream(first):
            raise AssertionError("the held vector was streamed again")

        monkeypatch.setattr(engine_module, "half_norms", no_stream)
        assert list(engine._paths) == [key]
        _, diag = MetaPathEngine(hin)._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._paths[key].diag, diag)
        reference = MetaPathEngine(hin, mode="materialize")
        for q in (9, 22):
            assert results[q].mode == "fused"
            assert list(results[q]) == list(reference.pathsim_top_k(GROUP_PATH, q, 3))
        for q in range(0, 320, 37):
            res = engine.pathsim_top_k(GROUP_PATH, q, 3)
            assert res.mode == "fused"
            assert list(res) == list(reference.pathsim_top_k(GROUP_PATH, q, 3))

    def test_threads_racing_on_a_cold_path_agree(self):
        # More threads than cores, switching often, on one cold auto
        # engine: every answer is the materialized one and the one vector
        # held is the diagonal.
        import sys
        import threading

        hin = _group_hin()
        engine = MetaPathEngine(hin)
        reference = MetaPathEngine(hin, mode="materialize")
        queries = list(range(0, 320, 17))
        expected = {q: list(reference.pathsim_top_k(GROUP_PATH, q, 3)) for q in queries}
        wrong = []

        def serve(offset):
            for q in queries[offset:] + queries[:offset]:
                if list(engine.pathsim_top_k(GROUP_PATH, q, 3)) != expected[q]:
                    wrong.append(q)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        assert list(engine._paths) == [key]
        _, diag = reference._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._paths[key].diag, diag)


class TestUnifiedEmptyShape:
    """Solo, batch, fused and distributed selection all finish through
    :func:`finalize_top_k`, so an all-excluded answer is ``[]`` (never
    ``None``, never a padded list) on every path."""

    def test_single_node_self_excluded(self):
        hin = _ab_hin([(0, 0)], n_a=1, n_b=1)
        for mode in ("fused", "materialize", "auto"):
            engine = MetaPathEngine(hin, mode=mode)
            solo = engine.pathsim_top_k("a-b-a", 0, 5)
            (batch,) = engine.pathsim_top_k_batch("a-b-a", [0], 5)
            assert list(solo) == [] == list(batch)
            assert isinstance(solo, list) and isinstance(batch, list)

    def test_k_zero_is_empty_everywhere(self, small_bib):
        for mode in ("fused", "materialize"):
            engine = MetaPathEngine(small_bib, mode=mode)
            assert list(engine.pathsim_top_k(APA, 0, 0)) == []
            (only,) = engine.pathsim_top_k_batch(APA, [0], 0)
            assert list(only) == []

    def test_finalize_top_k_contract(self):
        ranked = [(2, 1.0), (0, 0.5), (1, 0.5)]
        assert finalize_top_k(ranked, 0) == []
        assert finalize_top_k(ranked, 2) == [(2, 1.0), (0, 0.5)]
        assert finalize_top_k(ranked, 2, exclude_index=2) == [
            (0, 0.5),
            (1, 0.5),
        ]
        assert finalize_top_k(iter(ranked), 10, exclude_index=0) == [
            (2, 1.0),
            (1, 0.5),
        ]
        # All surfaced entries excluded -> the unified empty shape.
        assert finalize_top_k([(7, 1.0)], 3, exclude_index=7) == []
        out = finalize_top_k([(np.int64(1), np.float64(0.25))], 1)
        assert out == [(1, 0.25)]
        assert isinstance(out[0][0], int) and isinstance(out[0][1], float)
