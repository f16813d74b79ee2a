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
from repro.engine import fused as fused_module
from repro.engine.engine import _FUSED_AUTO_THRESHOLD
from repro.engine.fused import _half_chains, _thread
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
    """``P-A-P`` over papers in groups of four that share the group's
    eight authors: ``W`` holds 8 entries for every one of 400 papers, but
    a query reaches only its own group, so a fused query threads 52
    entries against ``W``'s 3,200 and ``auto`` keeps the path fused.
    *weights*, if given, draws one link weight per edge."""
    groups, size, authors = 100, 4, 8
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


GROUP_PATH = "paper-author-paper"


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
        # The direct kernel entry point agrees with the dense row / block.
        engine = MetaPathEngine(small_bib, mode="materialize")
        mp = engine.symmetric_path(APVPA)
        row = engine.pathsim_row(mp, 1)
        cold = MetaPathEngine(small_bib)
        got = fused_row_scores(cold, mp, 1)
        assert np.array_equal(got, row)
        block = np.array([fused_row_scores(cold, mp, i) for i in (0, 1)])
        assert np.array_equal(block, engine.pathsim_rows(mp, [0, 1]))

    def test_pruned_row_serves_exact_top_k(self, small_bib):
        # need= prunes the tail: positions past the top-`need` stay 0.0,
        # but the selected top-k must be exactly the unpruned answer.
        engine = MetaPathEngine(small_bib)
        mp = engine.symmetric_path(APVPA)
        full = fused_row_scores(engine, mp, 0)
        for need in (1, 2, 3):
            pruned = fused_row_scores(engine, mp, 0, need=need)
            order_full = np.lexsort((np.arange(full.size), -full))[:need]
            order_pruned = np.lexsort((np.arange(pruned.size), -pruned))[:need]
            assert np.array_equal(order_full, order_pruned)
            assert np.array_equal(full[order_full], pruned[order_pruned])

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

    def test_pruning_engages_on_wide_candidate_sets(self):
        # >64 candidates with small k: the pruned scan must stop early
        # yet still hand _select the exact top slots.  Parity over every
        # query is the oracle; the suffix bound makes it safe.
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

    def test_suffix_bound_contract(self):
        # The Cauchy-Schwarz score bound: dominates the attainable score,
        # monotone in the numerator, saturates at 1 for v >= diag_i.
        from repro.engine.fused import _suffix_bound

        assert _suffix_bound(5.0, 0.0) == 0.0
        assert _suffix_bound(7.0, 7.0) == 1.0
        assert _suffix_bound(9.0, 7.0) == 1.0
        lo, hi = _suffix_bound(2.0, 8.0), _suffix_bound(4.0, 8.0)
        assert 0.0 < lo < hi <= 1.0
        # dominates the true score for any feasible denominator diag_j
        # (Cauchy-Schwarz forces diag_j >= v^2 / diag_i):
        v, diag_i = 3.0, 8.0
        for diag_j in (v * v / diag_i, 2.0, 5.0, 50.0):
            true_score = 2.0 * v / (diag_i + diag_j)
            assert true_score <= _suffix_bound(v, diag_i)

    def test_invalid_mode_rejected(self, small_bib):
        with pytest.raises(ValueError):
            MetaPathEngine(small_bib, mode="eager")
        engine = MetaPathEngine(small_bib)
        with pytest.raises(ValueError):
            engine.pathsim_top_k(APA, 0, 2, mode="eager")


class TestAutoDispatch:
    """``mode="auto"`` picks the kernel from cache state; whatever it
    picks must be reported on the result and agree bit for bit with both
    forced kernels."""

    def _forced(self, hin, path, q, k):
        return (
            list(MetaPathEngine(hin, mode="fused").pathsim_top_k(path, q, k)),
            list(
                MetaPathEngine(hin, mode="materialize").pathsim_top_k(
                    path, q, k
                )
            ),
        )

    def test_cold_path_runs_fused_then_warms(self, small_bib):
        engine = MetaPathEngine(small_bib)  # mode="auto" is the default
        fused_ref, mat_ref = self._forced(small_bib, APVPA, 0, 3)
        assert fused_ref == mat_ref
        modes = []
        for _ in range(_FUSED_AUTO_THRESHOLD + 2):
            res = engine.pathsim_top_k(APVPA, 0, 3)
            modes.append(res.mode)
            assert list(res) == fused_ref
        t = _FUSED_AUTO_THRESHOLD
        assert modes[:t] == ["fused"] * t
        assert set(modes[t:]) == {"materialize"}
        assert engine.kernel_counters == {"fused": t, "materialize": 2}

    def _serve_past_threshold(self, hin, path, queries, engine=None):
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

    def test_half_product_outweighing_its_queries_stays_fused(self):
        hin, path = _group_hin(), GROUP_PATH
        t = _FUSED_AUTO_THRESHOLD
        queries = [7 * q for q in range(t + 6)]
        engine, modes = self._serve_past_threshold(hin, path, queries[:t])
        key = engine.symmetric_path(path).canonical_key()
        assert engine._held_diag == {}  # the first t queries scan

        def tallied(q):
            """What serving *q* added to the path's tally."""
            before = list(engine._fused_tally[key])
            modes.extend(self._serve_past_threshold(hin, path, [q], engine)[1])
            return [a - b for a, b in zip(engine._fused_tally[key], before)]

        # Query t+1 streams the diagonal and holds it: bitwise the planned
        # diagonal.  The stream is no query, so query t+1 adds to the
        # tally what query t+2 does: one query and one row of W.
        streamed = tallied(queries[t])
        held = engine._held_diag[key]
        assert np.array_equal(held, MetaPathEngine(hin)._pathsim_parts(path)[1])
        assert tallied(queries[t + 1]) == streamed and streamed[::2] == [1, 1]
        modes += self._serve_past_threshold(hin, path, queries[t + 2 :], engine)[1]
        assert modes == ["fused"] * (t + 6)
        assert engine.kernel_counters == {"fused": t + 6, "materialize": 0}
        assert engine._held_diag[key] is held  # streamed once
        assert engine._cache.peek(("pathsim", key)) is None
        assert engine.explain(path).kernel == "fused"

    def test_fused_work_as_large_as_the_half_product_materializes(self):
        # Every a links to the same three b's: each query reaches every
        # source and threads all of W's rows, so the first fused query
        # keeps the W it threaded as the path's entry and every later
        # one is a materialized hit, with no planner build of the half.
        hin = _ab_hin([(a, b) for a in range(20) for b in range(3)], n_a=20)
        t = _FUSED_AUTO_THRESHOLD
        engine, modes = self._serve_past_threshold(
            hin, "a-b-a", list(range(t + 3))
        )
        assert modes == ["fused"] + ["materialize"] * (t + 2)
        assert engine.kernel_counters == {"fused": 1, "materialize": t + 2}
        key = engine.symmetric_path("a-b-a").canonical_key()
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


class TestHarvest:
    """An ``auto`` query whose scan would thread every row of ``W`` keeps
    that ``W`` as the path's ``("pathsim", key)`` entry."""

    PATHS = ("v-p-a-p-v", "v-p-a-p-a-p-v")

    def _harvested(self, hin, path, q=0, k=3):
        engine = MetaPathEngine(hin)
        res = engine.pathsim_top_k(path, q, k)
        assert res.mode == "fused"
        key = engine.symmetric_path(path).canonical_key()
        return engine, res, engine._cache.peek(("pathsim", key))

    def test_the_harvested_entry_is_the_planned_one_bitwise(self):
        hin = _venue_hin()
        for path in self.PATHS:
            engine, _, entry = self._harvested(hin, path)
            assert entry is not None
            (w, diag), (w_ref, diag_ref) = entry, MetaPathEngine(hin)._pathsim_parts(path)
            assert w.has_canonical_format and w.shape == w_ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(w, name), getattr(w_ref, name))
            assert np.array_equal(diag, diag_ref)
            # One fused query, then materialized hits; no planner build.
            assert engine._fused_tally[engine.symmetric_path(path).canonical_key()][0] == 1
            assert engine._planner.counters["planned_products"] == 0
            assert engine.explain(path).kernel == "materialize"
            reference = MetaPathEngine(hin, mode="materialize")
            for q in range(5):
                res = engine.pathsim_top_k(path, q, 3)
                assert res.mode == "materialize"
                assert list(res) == list(reference.pathsim_top_k(path, q, 3))

    def test_a_forced_fused_engine_never_harvests(self):
        hin = _venue_hin()
        for path in self.PATHS:
            engine = MetaPathEngine(hin, mode="fused")
            reference = MetaPathEngine(hin, mode="materialize")
            for q in range(5):
                assert list(engine.pathsim_top_k(path, q, 3)) == list(
                    reference.pathsim_top_k(path, q, 3)
                )
            key = engine.symmetric_path(path).canonical_key()
            assert engine._fused_tally[key][0] == 5
            assert [k for k in engine._cache.keys() if k[0] == "pathsim"] == []

    def test_a_pruned_query_never_harvests(self):
        # 100 sources that all reach each other: k=2 needs 3 rows, and
        # the scan's first block (64 rows) is fewer than the candidates.
        hin = _ab_hin([(a, b) for a in range(100) for b in range(3)], n_a=100, n_b=3)
        engine = MetaPathEngine(hin)
        res = engine.pathsim_top_k("a-b-a", 0, 2)
        reference = MetaPathEngine(hin, mode="materialize").pathsim_top_k("a-b-a", 0, 2)
        assert res.mode == "fused" and list(res) == list(reference)
        key = engine.symmetric_path("a-b-a").canonical_key()
        assert engine._cache.peek(("pathsim", key)) is None
        assert engine.explain("a-b-a").kernel == "fused"

    def test_a_kept_w_scores_a_row_as_threading_it_alone_does(self):
        # Fractional weights: sums round, so the order decides the bits.
        # The kept diagonal is summed in the threaded order, so a batch
        # row read off it equals the same query threaded on a fresh
        # engine bit for bit (summed in sorted order, some rows differ).
        rng = np.random.default_rng(0)
        counts = {"a": 12, "p": 40}
        writes = zip(*(rng.integers(0, counts[t], 60).tolist() for t in "ap"))
        hin = HIN.from_edges(
            NetworkSchema(["a", "p"], [("w", "a", "p")]),
            nodes=counts,
            edges={"w": [(a, p, w) for (a, p), w in zip(writes, rng.uniform(0.01, 4.0, 60))]},
        )
        path = "a-p-a-p-a"
        key = ("pathsim", MetaPathEngine(hin).symmetric_path(path).canonical_key())
        engine, _, entry = self._harvested(hin, path, q=0, k=4)
        assert entry is not None and engine._fused_tally[key[1]][0] == 1
        compared = 0
        for j in range(1, counts["a"]):
            fresh = MetaPathEngine(hin)
            solo = fresh.pathsim_top_k(path, j, 4)
            if fresh._cache.peek(key) is not None:
                continue  # j reaches every author and keeps W itself
            (_, row) = MetaPathEngine(hin).pathsim_top_k_batch(path, [0, j], 4)
            assert row.mode == solo.mode == "fused"
            assert list(row) == list(solo)
            compared += 1
        assert compared >= 5

    def test_two_threads_harvesting_at_once_leave_one_entry(self):
        import threading

        hin = _venue_hin()
        path = self.PATHS[1]
        engine = MetaPathEngine(hin)
        barrier = threading.Barrier(2, timeout=30)
        build = engine._pathsim_entry

        def both_inside(w):
            barrier.wait()  # both threads are past the cache miss
            return build(w)

        engine._pathsim_entry = both_inside
        results = {}

        def serve(q):
            results[q] = engine.pathsim_top_k(path, q, 3)

        threads = [threading.Thread(target=serve, args=(q,)) for q in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not barrier.broken and sorted(results) == [0, 1]
        del engine._pathsim_entry
        reference = MetaPathEngine(hin, mode="materialize")
        for q in (0, 1):
            assert results[q].mode == "fused"
            assert list(results[q]) == list(reference.pathsim_top_k(path, q, 3))
        assert [k for k in engine._cache.keys() if k[0] == "pathsim"] == [
            ("pathsim", engine.symmetric_path(path).canonical_key())
        ]
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


class TestHeldDiagonal:
    """A path ``auto`` keeps fused past the threshold holds its PathSim
    diagonal, streamed once, and scores every candidate from it."""

    def _held(self, hin, queries):
        engine = MetaPathEngine(hin)
        for q in queries:
            assert engine.pathsim_top_k(GROUP_PATH, q, 2).mode == "fused"
        return engine, engine.symmetric_path(GROUP_PATH).canonical_key()

    def test_a_held_diagonal_is_each_row_threaded_alone_bitwise(self):
        # Fractional weights: sums round, so the order decides the bits.
        rng = np.random.default_rng(0)
        hin = _group_hin(lambda n: rng.uniform(0.01, 4.0, n))
        engine, key = self._held(hin, [7 * q for q in range(_FUSED_AUTO_THRESHOLD + 1)])
        first, _ = _half_chains(engine, engine.symmetric_path(GROUP_PATH))
        alone = [
            kernels.row_norms(_thread(first[0][[j]], first[1:], [0, 0]))[0]
            for j in range(first[0].shape[0])
        ]
        assert np.array_equal(engine._held_diag[key], alone)
        # So a held query answers as the pruned scan does, bit for bit.
        scan = MetaPathEngine(hin, mode="fused")
        for q in range(0, 400, 13):
            held = engine.pathsim_top_k(GROUP_PATH, q, 3)
            assert list(held) == list(scan.pathsim_top_k(GROUP_PATH, q, 3))

    def test_a_forced_fused_engine_holds_no_diagonal(self):
        engine = MetaPathEngine(_group_hin(), mode="fused")
        for q in range(_FUSED_AUTO_THRESHOLD + 3):
            engine.pathsim_top_k(GROUP_PATH, 7 * q, 2)
        assert engine._held_diag == {}

    def test_clear_cache_drops_it_and_the_next_query_streams_anew(self):
        hin = _group_hin()
        engine, key = self._held(hin, range(_FUSED_AUTO_THRESHOLD + 1))
        held = engine._held_diag[key]
        engine.clear_cache()
        assert engine._held_diag == {}
        engine.pathsim_top_k(GROUP_PATH, 5, 2)
        assert engine._held_diag[key] is not held
        assert np.array_equal(engine._held_diag[key], held)

    def test_a_commit_drops_it_and_the_next_query_streams_anew(self):
        # The commit grows the source type and links into it, so a vector
        # kept across it would be short and stale.
        hin = _group_hin()
        engine = hin.engine()
        for q in range(_FUSED_AUTO_THRESHOLD + 1):
            engine.pathsim_top_k(GROUP_PATH, q, 2)
        key = engine.symmetric_path(GROUP_PATH).canonical_key()
        held = engine._held_diag[key]
        hin.apply(UpdateBatch().add_nodes("paper", 1).add_edges("writes", [(0, 400), (9, 3)]))
        assert engine._held_diag == {}
        reference = MetaPathEngine(hin, mode="materialize")
        for q in (0, 3, 400):
            res = engine.pathsim_top_k(GROUP_PATH, q, 3)
            assert res.mode == "fused"
            assert list(res) == list(reference.pathsim_top_k(GROUP_PATH, q, 3))
        assert engine._held_diag[key] is not held
        _, diag = reference._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._held_diag[key], diag)

    def test_two_threads_streaming_at_once_leave_one_vector(self, monkeypatch):
        import threading

        hin = _group_hin()
        engine, key = self._held(hin, range(_FUSED_AUTO_THRESHOLD))
        barrier = threading.Barrier(2, timeout=30)
        stream = fused_module.half_norms

        def both_inside(first):
            barrier.wait()  # both threads are past the held-vector miss
            return stream(first)

        monkeypatch.setattr(fused_module, "half_norms", both_inside)
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

        monkeypatch.setattr(fused_module, "half_norms", no_stream)
        assert list(engine._held_diag) == [key]
        _, diag = MetaPathEngine(hin)._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._held_diag[key], diag)
        reference = MetaPathEngine(hin, mode="materialize")
        for q in (9, 22):
            assert results[q].mode == "fused"
            assert list(results[q]) == list(reference.pathsim_top_k(GROUP_PATH, q, 3))
        for q in range(0, 400, 37):
            res = engine.pathsim_top_k(GROUP_PATH, q, 3)
            assert res.mode == "fused"
            assert list(res) == list(reference.pathsim_top_k(GROUP_PATH, q, 3))

    def test_threads_racing_across_the_threshold_agree(self):
        # More threads than cores, switching often, on one cold auto
        # engine: the path crosses the threshold under them, every answer
        # is the materialized one and the one vector held is the diagonal.
        import sys
        import threading

        hin = _group_hin()
        engine = MetaPathEngine(hin)
        reference = MetaPathEngine(hin, mode="materialize")
        queries = list(range(0, 400, 17))
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
        assert list(engine._held_diag) == [key]
        _, diag = reference._pathsim_parts(GROUP_PATH)
        assert np.array_equal(engine._held_diag[key], diag)


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
