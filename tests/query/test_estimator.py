"""Estimator protocol: params, fitted state, typed results."""

from __future__ import annotations


import numpy as np
import pytest

from repro.classification import GNetMine
from repro.clustering import LinkClus
from repro.core import NetClus, RankClus
from repro.exceptions import NotFittedError
from repro.query import (
    ClassificationResult,
    ClusteringResult,
    Estimator,
    TopKResult,
)
from repro.similarity import PathSim, SimRank


@pytest.fixture
def dblp():
    from repro.datasets import make_dblp_four_area

    return make_dblp_four_area(authors_per_area=15, papers_per_area=30, seed=0)


class TestProtocolPlumbing:
    def test_everything_is_an_estimator(self):
        for cls in (RankClus, NetClus, PathSim, SimRank, GNetMine, LinkClus):
            assert issubclass(cls, Estimator)
        from repro.clustering import CrossClus

        assert issubclass(CrossClus, Estimator)

    def test_get_params_round_trips(self):
        model = NetClus(n_clusters=3, smoothing=0.2, seed=7)
        params = model.get_params()
        assert params["n_clusters"] == 3
        assert params["smoothing"] == 0.2
        assert params["seed"] == 7
        clone = NetClus(**params)
        assert clone.get_params() == params

    def test_set_params(self):
        model = SimRank().set_params(c=0.5, max_iter=10)
        assert model.c == 0.5 and model.max_iter == 10
        with pytest.raises(ValueError, match="unknown parameter"):
            model.set_params(zzz=1)

    def test_fitted_flag_and_check(self, small_bib):
        model = PathSim("author-paper-author")
        assert not model.fitted
        with pytest.raises(NotFittedError, match="PathSim"):
            model.top_k("a0", 2)
        model.fit(small_bib)
        assert model.fitted

    def test_index_estimators_have_no_batch_result(self, small_bib):
        model = PathSim("A-P-A").fit(small_bib)
        with pytest.raises(NotImplementedError, match="serves queries"):
            model.result()


class TestTypedResults:
    def test_netclus_result(self, dblp):
        model = NetClus(n_clusters=4, seed=0, n_init=2, max_iter=5).fit(dblp.hin)
        r = model.result()
        assert isinstance(r, ClusteringResult)
        assert r.node_type == "paper" and r.algorithm == "netclus"
        assert np.array_equal(r.labels, model.labels_)
        assert r.model is model
        # membership strengths are the max posteriors
        assert np.allclose(r.scores, model.posterior_.max(axis=1))

    def test_rankclus_result_with_hin_names(self, small_bib):
        model = RankClus(n_clusters=2, seed=0, n_init=1, max_iter=5).fit(
            small_bib,
            target_type="venue",
            attribute_type="author",
            target_attribute_path="venue-paper-author",
        )
        r = model.result()
        assert r.node_type == "venue"
        labels = {name for name, _ in r.top(2, 0)} | {
            name for name, _ in r.top(2, 1)
        }
        assert labels == {"v0", "v1"}

    def test_rankclus_rejects_wrong_direction_paths(self, small_bib):
        model = RankClus(n_clusters=2, seed=0, n_init=1, max_iter=5)
        with pytest.raises(ValueError, match="does not go"):
            model.fit(
                small_bib,
                target_type="venue",
                attribute_type="author",
                target_attribute_path="A-P-V",  # author -> venue, backwards
            )
        with pytest.raises(ValueError, match="does not go"):
            model.fit(
                small_bib,
                target_type="venue",
                attribute_type="author",
                target_attribute_path="venue-paper-author",
                attribute_attribute_path="V-P-V",  # not author -> author
            )

    def test_rankclus_result_from_matrix_is_anonymous(self):
        w = np.kron(np.eye(2), np.ones((4, 3)))
        model = RankClus(n_clusters=2, seed=0, n_init=1, max_iter=5).fit(w)
        r = model.result()
        assert r.node_type is None and r.names is None
        assert r.labels.shape == (8,)

    def test_gnetmine_result(self, dblp):
        hin = dblp.hin
        mask = np.ones(hin.node_count("venue"), dtype=bool)
        model = GNetMine().fit(hin, {"venue": (dblp.venue_labels, mask)})
        r = model.result()
        assert isinstance(r, ClassificationResult)
        assert np.array_equal(r.for_type("paper"), model.labels_["paper"])
        assert r.top(1, "venue")[0][0] in hin.names("venue")

    def test_linkclus_result_sides(self):
        w = np.kron(np.eye(2), np.ones((4, 3)))
        model = LinkClus(n_clusters=2, seed=0).fit(w)
        a = model.result()
        b = model.result(side="b")
        assert np.array_equal(a.labels, model.labels_a_)
        assert np.array_equal(b.labels, model.labels_b_)
        assert a.extras["other_side_labels"] == model.labels_b_.tolist()
        with pytest.raises(ValueError, match="side"):
            model.result(side="c")

    def test_simrank_estimator(self, two_cliques):
        graph, labels = two_cliques
        model = SimRank(max_iter=30, tol=1e-3).fit(graph)
        assert model.fitted
        r = model.top_k(0, 3)
        assert isinstance(r, TopKResult) and r.measure == "simrank"
        # top peers of node 0 are its own clique
        assert all(labels[i] == labels[0] for i in r.labels)
        assert model.similarity(0, 1) == pytest.approx(model.matrix_[0, 1])
