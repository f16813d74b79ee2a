"""MetaPathEngine: cache sharing, LRU bounds, and exactness vs dense PathSim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine, top_k_indices
from repro.exceptions import MetaPathError, NodeNotFoundError
from repro.utils.cache import LRUCache

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"
VPAPV = "venue-paper-author-paper-venue"


@pytest.fixture
def engine(small_bib) -> MetaPathEngine:
    return MetaPathEngine(small_bib)


@pytest.fixture(scope="module")
def dblp():
    return make_dblp_four_area(
        authors_per_area=30, papers_per_area=60, terms_per_area=20,
        shared_terms=10, seed=0,
    )


class TestLRUCache:
    def test_get_put_and_stats(self):
        c = LRUCache(maxsize=4)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        info = c.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.hit_rate == 0.5

    def test_eviction_is_lru(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a; b becomes LRU
        c.put("c", 3)
        assert "a" in c and "c" in c and "b" not in c
        assert c.evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_get_or_compute(self):
        c = LRUCache(maxsize=2)
        calls = []
        assert c.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert c.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1

    def test_get_first_returns_first_present_key(self):
        c = LRUCache(maxsize=4)
        c.put("b", 2)
        c.put("c", 3)
        assert c.get_first(("a", "b", "c")) == ("b", 2)

    def test_get_first_counts_one_probe(self):
        # A multi-key probe is one lookup: one hit on success, one miss
        # on total failure — never a miss per absent candidate.
        c = LRUCache(maxsize=4)
        c.put("b", 2)
        c.get_first(("a", "b"))
        assert (c.hits, c.misses) == (1, 0)
        assert c.get_first(("x", "y"), "dflt") == (None, "dflt")
        assert (c.hits, c.misses) == (1, 1)

    def test_get_first_refreshes_recency(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get_first(("missing", "a"))  # refresh a; b becomes LRU
        c.put("c", 3)
        assert "a" in c and "b" not in c

    def test_keys_snapshot_in_lru_order(self):
        c = LRUCache(maxsize=4)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")
        assert c.keys() == ["b", "a"]

    def test_pop_is_targeted_eviction(self):
        c = LRUCache(maxsize=4)
        c.put("a", 1)
        assert c.pop("a") == 1
        assert c.pop("missing", "fallback") == "fallback"
        assert "a" not in c and c.evictions == 1

    def test_replace_preserves_recency_and_counters(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        hits, misses = c.hits, c.misses
        c.replace("a", 10)  # "a" stays LRU: replace is maintenance
        c.put("c", 3)
        assert "a" not in c and c.get("b") == 2
        assert (c.hits, c.misses) == (hits + 1, misses)
        with pytest.raises(KeyError):
            c.replace("missing", 0)


class TestTopKIndices:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.integers(0, 5, size=50).astype(float)  # many ties
            for k in (0, 1, 3, 10, 50, 60):
                expected = np.argsort(-scores, kind="stable")[:k]
                got = top_k_indices(scores, k)
                assert np.array_equal(got, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros(3), -1)
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 2)), 1)


class TestMaterialization:
    def test_commuting_matrix_matches_hin(self, small_bib, engine):
        for path in (APA, APVPA, "author-paper-venue"):
            a = engine.commuting_matrix(path).toarray()
            b = small_bib.commuting_matrix(path).toarray()
            assert np.allclose(a, b)

    def test_repeat_query_hits_cache(self, engine):
        engine.commuting_matrix(APVPA)
        before = engine.cache_info()
        m1 = engine.commuting_matrix(APVPA)
        m2 = engine.commuting_matrix(APVPA)
        after = engine.cache_info()
        assert m1 is m2  # the same materialization is served
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_shared_prefix_reused_across_paths(self, engine):
        # A-P-V is exactly the half product of the symmetric A-P-V-P-A, so
        # materializing the short path first makes the long one a cache hit.
        engine.commuting_matrix("author-paper-venue")
        before = engine.cache_info()
        engine.commuting_matrix(APVPA)  # half = A-P-V, already cached
        after = engine.cache_info()
        assert after.hits == before.hits + 1

    def test_spellings_share_one_entry(self, small_bib, engine):
        engine.commuting_matrix(APA)
        before = engine.cache_info()
        engine.commuting_matrix(["author", "paper", "author"])
        engine.commuting_matrix(small_bib.meta_path(APA))
        after = engine.cache_info()
        assert after.hits == before.hits + 2
        assert after.currsize == before.currsize

    def test_lru_bound_holds(self, small_bib):
        engine = MetaPathEngine(small_bib, max_cached_matrices=2)
        for path in (APA, APVPA, VPAPV, "term-paper-term", "venue-paper-venue"):
            engine.commuting_matrix(path)
        info = engine.cache_info()
        assert info.currsize <= 2
        assert info.evictions > 0

    def test_evicted_entry_recomputes_correctly(self, small_bib):
        engine = MetaPathEngine(small_bib, max_cached_matrices=1)
        first = engine.commuting_matrix(APA).toarray()
        engine.commuting_matrix(VPAPV)  # evicts APA
        again = engine.commuting_matrix(APA).toarray()
        assert np.allclose(first, again)

    def test_matrix_between_correct_and_lru_free(self, small_bib, engine):
        a = engine.matrix_between("venue", "paper").toarray()
        b = small_bib.matrix_between("venue", "paper").toarray()
        assert np.allclose(a, b)
        # Pair lookups ride the HIN's transpose cache (same object back)
        # and never occupy LRU slots needed by materializations.
        assert engine.matrix_between("venue", "paper") is engine.matrix_between(
            "venue", "paper"
        )
        assert engine.cache_info().currsize == 0

    def test_clear_cache(self, engine):
        engine.commuting_matrix(APA)
        assert engine.cache_info().currsize > 0
        engine.clear_cache()
        assert engine.cache_info().currsize == 0

    def test_prewarm(self, engine):
        # Symmetric paths are warmed as their PathSim decomposition (the
        # serving representation), asymmetric ones as the full product.
        engine.prewarm([APA, "author-paper-venue"])
        before = engine.cache_info()
        engine.pathsim_row(APA, 0)
        engine.commuting_matrix("author-paper-venue")
        after = engine.cache_info()
        assert after.misses == before.misses

    def test_invalid_path_rejected(self, engine):
        with pytest.raises(MetaPathError):
            engine.commuting_matrix("author-venue")
        with pytest.raises(MetaPathError, match="symmetric"):
            engine.pathsim_row("author-paper-venue", 0)


class TestHINIntegration:
    def test_engine_is_memoized_per_hin(self, small_bib):
        assert small_bib.engine() is small_bib.engine()

    def test_engine_kwargs_build_fresh(self, small_bib):
        custom = small_bib.engine(max_cached_matrices=3)
        assert custom is not small_bib.engine()
        assert custom.cache_info().maxsize == 3

    def test_oriented_matrix_transpose_cached(self, small_bib):
        t1 = small_bib.oriented_matrix("writes", False)
        t2 = small_bib.oriented_matrix("writes", False)
        assert t1 is t2
        assert np.allclose(
            t1.toarray(), small_bib.relation_matrix("writes").T.toarray()
        )


class TestPathSimServing:
    def test_row_matches_dense_matrix(self, engine):
        dense = engine.pathsim_matrix(APVPA)
        for i in range(dense.shape[0]):
            assert np.allclose(engine.pathsim_row(APVPA, i), dense[i])

    def test_pair_matches_dense(self, engine):
        dense = engine.pathsim_matrix(APA)
        assert engine.pathsim(APA, 0, 1) == pytest.approx(dense[0, 1])
        assert engine.pathsim(APA, "a0", "a1") == pytest.approx(dense[0, 1])

    def test_batch_matches_singles(self, engine):
        queries = [0, 2, 3]
        block = engine.pathsim_rows(APVPA, queries)
        for row, q in zip(block, queries):
            assert np.allclose(row, engine.pathsim_row(APVPA, q))

    def test_top_k_identical_to_dense_on_dblp(self, dblp):
        """Engine top-k == stable argsort over the dense full materialization."""
        engine = MetaPathEngine(dblp.hin)
        dense = engine.pathsim_matrix(VPAPV)
        names = dblp.hin.names("venue")
        for query in range(dblp.hin.node_count("venue")):
            order = np.argsort(-dense[query], kind="stable")
            expected = [
                (names[j], dense[query, j]) for j in order if j != query
            ][:4]
            got = engine.pathsim_top_k(VPAPV, query, 4)
            assert [n for n, _ in got] == [n for n, _ in expected]
            assert np.allclose(
                [s for _, s in got], [s for _, s in expected]
            )

    def test_top_k_batch_identical_to_singles_on_dblp(self, dblp):
        engine = MetaPathEngine(dblp.hin)
        queries = list(range(dblp.hin.node_count("venue")))
        batched = engine.pathsim_top_k_batch(VPAPV, queries, 3)
        singles = [engine.pathsim_top_k(VPAPV, q, 3) for q in queries]
        assert batched == singles

    def test_top_k_by_name_and_k_validation(self, dblp):
        engine = dblp.hin.engine()
        by_name = engine.pathsim_top_k(VPAPV, "SIGMOD", 3)
        by_index = engine.pathsim_top_k(
            VPAPV, dblp.hin.index_of("venue", "SIGMOD"), 3
        )
        assert by_name == by_index
        with pytest.raises(ValueError):
            engine.pathsim_top_k(VPAPV, "SIGMOD", -1)

    def test_include_query_keeps_self_first(self, engine):
        top = engine.pathsim_top_k(APA, "a0", 2, exclude_query=False)
        assert top[0][0] == "a0"
        assert top[0][1] == pytest.approx(1.0)

    def test_unknown_object_rejected(self, engine):
        with pytest.raises(NodeNotFoundError):
            engine.pathsim_top_k(APA, "nobody", 2)
        with pytest.raises(NodeNotFoundError):
            engine.pathsim_row(APA, 99)


class TestConnectivityServing:
    def test_row_matches_commuting_matrix(self, small_bib, engine):
        dense = small_bib.commuting_matrix("author-paper-venue").toarray()
        for i in range(dense.shape[0]):
            assert np.allclose(
                engine.connectivity_row("author-paper-venue", i), dense[i]
            )

    def test_row_uses_cached_product_when_present(self, engine):
        engine.commuting_matrix("author-paper-venue")
        before = engine.cache_info().hits
        engine.connectivity_row("author-paper-venue", 0)
        assert engine.cache_info().hits == before + 1

    def test_row_reuses_pathsim_decomposition(self, small_bib, engine):
        engine._pathsim_parts(APVPA)  # warm as (W, diag) only
        dense = small_bib.commuting_matrix(APVPA).toarray()
        for i in range(dense.shape[0]):
            assert np.allclose(engine.connectivity_row(APVPA, i), dense[i])

    def test_top_k_connectivity(self, small_bib, engine):
        dense = small_bib.commuting_matrix("author-paper-venue").toarray()
        top = engine.top_k_connectivity("author-paper-venue", 0, 1)
        assert top[0][0] == "v0"
        assert top[0][1] == pytest.approx(dense[0].max())

    def test_exclude_query_needs_round_trip(self, engine):
        with pytest.raises(MetaPathError, match="round-trip"):
            engine.top_k_connectivity(
                "author-paper-venue", 0, 1, exclude_query=True
            )
        top = engine.top_k_connectivity(APA, "a0", 2, exclude_query=True)
        assert all(name != "a0" for name, _ in top)


class TestSharedEngineAcrossCallers:
    def test_pathsim_index_reuses_network_engine(self, dblp):
        from repro.similarity import PathSim

        engine = dblp.hin.engine()
        engine.clear_cache()
        PathSim(VPAPV).fit(dblp.hin)
        misses = engine.cache_info().misses
        PathSim(VPAPV).fit(dblp.hin)  # second index: pure cache hits
        assert engine.cache_info().misses == misses
