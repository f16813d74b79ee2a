"""Unit tests for RankClus."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import clustering_accuracy
from repro.core import RankClus
from repro.datasets import make_bitype_network
from repro.exceptions import NotFittedError


@pytest.fixture(scope="module")
def planted():
    return make_bitype_network(
        n_clusters=3,
        targets_per_cluster=10,
        attributes_per_cluster=80,
        cross_prob=0.15,
        seed=0,
    )


class TestRankClus:
    def test_recovers_planted_clusters(self, planted):
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy, w_yy=planted.w_yy)
        assert clustering_accuracy(planted.target_labels, model.labels_) >= 0.95

    def test_simple_ranking_variant(self, planted):
        model = RankClus(n_clusters=3, ranking="simple", seed=0).fit(planted.w_xy)
        assert clustering_accuracy(planted.target_labels, model.labels_) >= 0.85

    def test_posterior_shape_and_rows(self, planted):
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy)
        assert model.posterior_.shape == (30, 3)
        assert np.allclose(model.posterior_.sum(axis=1), 1.0)
        assert model.posterior_.min() >= 0

    def test_rankings_are_distributions(self, planted):
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy)
        assert len(model.rankings_) == 3
        for r in model.rankings_:
            assert r.target_scores.sum() == pytest.approx(1.0)
            assert r.attribute_scores.sum() == pytest.approx(1.0)

    def test_all_clusters_nonempty(self, planted):
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy)
        assert set(model.labels_.tolist()) == {0, 1, 2}

    def test_top_targets_global_indices(self, planted):
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy)
        for c in range(3):
            members = set(model.cluster_members(c).tolist())
            top = model.top_targets(c, 3)
            assert all(idx in members for idx, _ in top)
            scores = [s for _, s in top]
            assert scores == sorted(scores, reverse=True)

    def test_top_attributes_sorted(self, planted):
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy)
        top = model.top_attributes(0, 5)
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_ranked_attributes_belong_to_cluster(self, planted):
        # top-ranked authors of a cluster should overwhelmingly carry the
        # same planted label as the cluster's conferences
        model = RankClus(n_clusters=3, seed=0).fit(planted.w_xy, w_yy=planted.w_yy)
        for c in range(3):
            conf_labels = planted.target_labels[model.cluster_members(c)]
            majority = np.bincount(conf_labels).argmax()
            top_authors = [i for i, _ in model.top_attributes(c, 10)]
            author_labels = planted.attribute_labels[top_authors]
            assert (author_labels == majority).mean() >= 0.8

    def test_reproducible(self, planted):
        a = RankClus(n_clusters=3, seed=5).fit(planted.w_xy)
        b = RankClus(n_clusters=3, seed=5).fit(planted.w_xy)
        assert np.array_equal(a.labels_, b.labels_)

    def test_hin_interface(self, small_bib):
        model = RankClus(n_clusters=2, em_iter=3, max_iter=10, seed=0).fit(
            small_bib,
            target_type="venue",
            attribute_type="author",
            target_attribute_path="venue-paper-author",
            attribute_attribute_path="author-paper-author",
        )
        assert model.labels_.shape == (2,)

    def test_hin_requires_types(self, small_bib):
        with pytest.raises(ValueError, match="target_type"):
            RankClus(n_clusters=2).fit(small_bib)

    def test_hin_keyword_spelling_is_gone(self, small_bib):
        with pytest.raises(TypeError, match="hin"):
            RankClus(n_clusters=2).fit(None, hin=small_bib)

    def test_no_input_raises(self):
        with pytest.raises(ValueError, match="HIN or a link matrix"):
            RankClus(n_clusters=2).fit(None)

    def test_k_too_large(self, planted):
        with pytest.raises(ValueError, match="exceeds"):
            RankClus(n_clusters=99).fit(planted.w_xy)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RankClus(n_clusters=0)
        with pytest.raises(ValueError):
            RankClus(n_clusters=2, ranking="zzz")
        with pytest.raises(ValueError):
            RankClus(n_clusters=2, smoothing=1.5)

    def test_not_fitted(self):
        model = RankClus(n_clusters=2)
        with pytest.raises(NotFittedError):
            model.cluster_members(0)

    def test_harder_config_still_good(self):
        net = make_bitype_network(
            n_clusters=3,
            targets_per_cluster=10,
            attributes_per_cluster=80,
            papers_range=(2, 8),
            cross_prob=0.25,
            seed=1,
        )
        model = RankClus(n_clusters=3, seed=0).fit(net.w_xy, w_yy=net.w_yy)
        assert clustering_accuracy(net.target_labels, model.labels_) >= 0.7
