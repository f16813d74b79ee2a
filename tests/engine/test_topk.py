"""Edge cases of the top-k selection and its engine-level serving:
k beyond the candidate count, ties exactly at the cut, empty relation
matrices, and single-node types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import topk
from repro.engine.topk import merge_top_k, shard_top_k, top_k_indices, top_k_support
from repro.networks import HIN, NetworkSchema


def reference_order(scores, k):
    return np.argsort(-np.asarray(scores), kind="stable")[:k]


class TestTopKIndices:
    def test_k_larger_than_vector_returns_everything(self):
        scores = np.array([0.1, 0.9, 0.5])
        out = top_k_indices(scores, 10)
        assert out.tolist() == reference_order(scores, 10).tolist()
        assert out.size == 3

    def test_k_equal_to_vector_size(self):
        scores = np.array([3.0, 1.0, 2.0, 1.0])
        assert top_k_indices(scores, 4).tolist() == [0, 2, 1, 3]

    def test_zero_k_and_empty_vector(self):
        assert top_k_indices(np.array([1.0, 2.0]), 0).size == 0
        assert top_k_indices(np.array([]), 3).size == 0
        assert top_k_indices(np.array([]), 0).size == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_ties_at_the_cut_break_by_index(self, k):
        # scores with a three-way tie straddling every cut position
        scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
        assert top_k_indices(scores, k).tolist() == reference_order(
            scores, k
        ).tolist()

    def test_all_tied(self):
        scores = np.zeros(6)
        for k in (1, 3, 6, 9):
            assert top_k_indices(scores, k).tolist() == list(range(min(k, 6)))

    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            # coarse quantization forces frequent ties
            scores = rng.integers(0, 5, size=n).astype(float)
            k = int(rng.integers(0, n + 3))
            assert top_k_indices(scores, k).tolist() == reference_order(
                scores, k
            ).tolist()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="1-D"):
            top_k_indices(np.zeros((2, 2)), 1)
        with pytest.raises(ValueError, match="k"):
            top_k_indices(np.zeros(3), -1)


def split_scores(scores, cuts):
    """Shard a global score vector at *cuts* and surface each part's top-k."""
    bounds = [0, *cuts, len(scores)]
    return [
        (lo, np.asarray(scores[lo:hi], dtype=float))
        for lo, hi in zip(bounds, bounds[1:])
    ]


class TestShardMerge:
    """The scatter/merge primitives must reproduce the single-vector
    selection bit for bit — these are the edges ShardedClusterService
    leans on (ties exactly at the global k-th across shard boundaries,
    empty shards, k past any shard's candidate count)."""

    def merged(self, scores, cuts, k):
        parts = [
            shard_top_k(slice_, k, offset=lo)
            for lo, slice_ in split_scores(scores, cuts)
        ]
        return merge_top_k(parts, k)

    def test_tie_exactly_at_global_kth_across_shards(self):
        # 0.5 three ways, straddling the cut at index 3: with k=2 the
        # global answer keeps indices 1 (0.9) then 2 (first 0.5) — the
        # tied 0.5 living on the *other* shard must lose by index.
        scores = np.array([0.1, 0.9, 0.5, 0.5, 0.5, 0.2])
        for k in (1, 2, 3, 4, 6):
            idx, sc = self.merged(scores, [3], k)
            expect = reference_order(scores, k)
            assert idx.tolist() == expect.tolist()
            assert sc.tolist() == scores[expect].tolist()

    def test_every_cut_position_matches_reference(self):
        scores = np.array([2.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0])
        for cut in range(len(scores) + 1):
            for k in (0, 1, 3, 7, 10):
                idx, _ = self.merged(scores, [cut], k)
                assert idx.tolist() == reference_order(scores, k).tolist()

    def test_empty_shards(self):
        scores = np.array([1.0, 3.0, 2.0])
        # leading, trailing, and back-to-back empty slices
        idx, sc = self.merged(scores, [0, 3, 3], 2)
        assert idx.tolist() == [1, 2] and sc.tolist() == [3.0, 2.0]
        empty_idx, empty_sc = shard_top_k(np.array([]), 5, offset=7)
        assert empty_idx.size == 0 and empty_sc.size == 0
        no_parts = merge_top_k([], 3)
        assert no_parts[0].size == 0 and no_parts[1].size == 0

    def test_k_larger_than_any_shard(self):
        scores = np.array([0.4, 0.1, 0.8, 0.3, 0.6])
        # three shards of size <= 2, k beyond all of them and beyond n
        for k in (3, 5, 9):
            idx, sc = self.merged(scores, [2, 4], k)
            expect = reference_order(scores, k)
            assert idx.tolist() == expect.tolist()
            assert sc.tolist() == scores[expect].tolist()

    def test_matches_reference_on_random_partitions(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 50))
            scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
            shards = int(rng.integers(1, 6))
            cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=shards - 1))
            k = int(rng.integers(0, n + 3))
            idx, sc = self.merged(scores, cuts, k)
            expect = reference_order(scores, k)
            assert idx.tolist() == expect.tolist()
            assert sc.tolist() == scores[expect].tolist()

    def test_merge_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k"):
            merge_top_k([(np.array([0]), np.array([1.0]))], -1)


class TestEngineEdgeCases:
    def test_k_at_least_candidate_count(self, small_bib):
        engine = small_bib.engine()
        full = engine.pathsim_top_k("author-paper-author", "a0", 100)
        assert len(full) == 3  # every other author, query excluded
        exact = engine.pathsim_top_k("author-paper-author", "a0", 3)
        assert list(exact) == list(full)

    def test_tied_scores_at_cut_match_dense_ranking(self, small_bib):
        engine = small_bib.engine()
        scores = engine.pathsim_row("author-paper-author", 0)
        order = [j for j in reference_order(scores, 4) if j != 0]
        expected = [(small_bib.name_of("author", j), scores[j]) for j in order][:2]
        got = engine.pathsim_top_k("author-paper-author", "a0", 2)
        assert [(n, pytest.approx(s)) for n, s in expected] == list(got)

    def test_empty_relation_matrix(self):
        schema = NetworkSchema(["a", "p"], [("w", "a", "p")])
        hin = HIN.from_edges(schema, nodes={"a": 3, "p": 2}, edges={"w": []})
        engine = hin.engine()
        result = engine.pathsim_top_k("a-p-a", 0, 5)
        assert [s for _, s in result] == [0.0, 0.0]
        assert engine.top_k_connectivity("a-p", 0, 5).scores.tolist() == [0.0, 0.0]

    def test_single_node_types(self):
        schema = NetworkSchema(["a", "p"], [("w", "a", "p")])
        hin = HIN.from_edges(schema, nodes={"a": 1, "p": 1}, edges={"w": [(0, 0)]})
        engine = hin.engine()
        # the only peer is the query itself: excluded -> empty
        assert list(engine.pathsim_top_k("a-p-a", 0, 5)) == []
        kept = engine.pathsim_top_k("a-p-a", 0, 5, exclude_query=False)
        assert kept.labels == [0] and kept.scores.tolist() == [1.0]

    def test_zero_count_type(self):
        schema = NetworkSchema(["a", "p"], [("w", "a", "p")])
        hin = HIN.from_edges(schema, nodes={"a": 0, "p": 2}, edges={"w": []})
        engine = hin.engine()
        batch = engine.pathsim_top_k_batch("a-p-a", [], 3)
        assert batch == []


@st.composite
def score_vectors(draw):
    """Score vectors shaped like PathSim rows — mostly zeros, few
    positives, ties among them — plus, sometimes, negative entries."""
    n = draw(st.integers(0, 40))
    levels = [0.0, 0.0, 0.0, 0.25, 0.5, 1.0] + ([-0.5, -1.0] if draw(st.booleans()) else [])
    scores = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    return scores, draw(st.integers(0, n + 3))


class TestSelectionOverThePositives:
    """``top_k_indices`` ranks only the positive entries of a vector
    with no negative one and fills the rest of the answer with the
    smallest zero-score indices; ``top_k_support`` does the same over a
    sparse row.  Both must stay a stable argsort."""

    @given(score_vectors())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_stable_argsort(self, case):
        scores, k = case
        expected = np.argsort(-scores, kind="stable")[:k]
        assert np.array_equal(top_k_indices(scores, k), expected)
        support = np.flatnonzero(scores)
        indices, ranked = top_k_support(support, scores[support], scores.size, k)
        assert np.array_equal(indices, expected)
        assert np.array_equal(ranked, scores[expected])

    @staticmethod
    def _sparse(n, cells):
        scores = np.zeros(n)
        for j, value in cells.items():
            scores[j] = value
        return scores

    @pytest.mark.parametrize(
        "n, cells, k",
        [
            (7, {}, 3),  # all zeros
            (12, {1: 0.2, 4: 0.7}, 4),  # fewer positives than k
            (12, {0: 0.3, 2: 0.3}, 15),  # k >= n
            (20, {0: 0.5, 1: 0.5, 3: 0.5, 9: 0.5}, 3),  # ties at the cut
        ],
    )
    def test_mostly_zero_vectors_rank_only_the_positives(self, n, cells, k, monkeypatch):
        scores = self._sparse(n, cells)
        ranked = _spy_ranked(monkeypatch)
        assert np.array_equal(top_k_indices(scores, k), reference_order(scores, k))
        assert ranked == [len(cells)]

    def test_a_quarter_positive_ranks_the_dense_vector(self, monkeypatch):
        scores = self._sparse(12, {0: 0.3, 5: 0.1, 7: 0.3})
        ranked = _spy_ranked(monkeypatch)
        assert np.array_equal(top_k_indices(scores, 5), reference_order(scores, 5))
        assert ranked == [12]

    def test_a_negative_score_keeps_the_dense_selection(self, monkeypatch):
        scores = np.array([0.0, -0.5, 0.25, 0.0, -1.0, 0.25])
        ranked = _spy_ranked(monkeypatch)
        for k in range(8):
            assert np.array_equal(top_k_indices(scores, k), reference_order(scores, k))
        assert ranked == [scores.size] * 8
        support = np.array([1, 4])
        indices, values = top_k_support(support, scores[support], 6, 3)
        assert indices.tolist() == [0, 2, 3] and values.tolist() == [0.0, 0.0, 0.0]


def _spy_ranked(monkeypatch) -> list:
    """Log the length of every vector the selection partitions or sorts."""
    sizes = []
    real = topk._ranked
    monkeypatch.setattr(topk, "_ranked", lambda s, k: sizes.append(s.size) or real(s, k))
    return sizes
