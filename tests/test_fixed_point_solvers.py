"""The one stop rule, checked on every solver that runs through
:func:`repro.utils.convergence.fixed_point`: converge on ``residual <=
tol``, warn exactly once when ``max_iter`` runs out, reject ``max_iter <= 0``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.classification import GNetMine, TagGraphClassifier, label_propagation
from repro.exceptions import ConvergenceWarning
from repro.integration import TruthFinder
from repro.measures import eigenvector_centrality
from repro.networks import HIN, Graph, NetworkSchema
from repro.ranking import authority_ranking, hits, pagerank
from repro.similarity import simrank, simrank_bipartite
from repro.utils import ConvergenceInfo

# An undirected path 0-1-2-3-4 with a chord 1-3: irregular degrees (the
# uniform start is no fixed point) and an odd cycle (no oscillation).
GRAPH = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)], directed=False)
LABELS = np.array([0, 0, 0, 1, 1])
SEEDS = np.array([True, False, False, False, True])
# 4 objects x 3 attributes (venue-author, object-tag).
RELATION = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])
OBJECT_LABELS = np.array([0, 0, 1, 1])
OBJECT_SEEDS = np.array([True, False, False, True])
CLAIMS = [
    ("s1", "book", 1999), ("s2", "book", 1999), ("s3", "book", 2001),
    ("s1", "film", "A"), ("s3", "film", "B"), ("s4", "film", "B"),
    ("s4", "song", "x"), ("s2", "song", "y"),
]  # fmt: skip
TAGGING = HIN(
    NetworkSchema(["object", "tag"], [("tagged", "object", "tag")]),
    {"object": 4, "tag": 3},
    {"tagged": RELATION},
)


def _authority(**kw):
    r = authority_ranking(RELATION, RELATION.T @ RELATION, alpha=0.9, **kw)
    return r.target_scores, r.attribute_scores, r.convergence


def _gnetmine(**kw):
    model = GNetMine(**kw).fit(TAGGING, {"object": (OBJECT_LABELS, OBJECT_SEEDS)})
    return *(model.scores_[t] for t in sorted(model.scores_)), model.convergence_


def _tagging(**kw):
    model = TagGraphClassifier(**kw).fit(RELATION, OBJECT_LABELS, OBJECT_SEEDS)
    return model.object_scores_, model.tag_scores_, model.convergence_


def _truthfinder(**kw):
    model = TruthFinder(**kw).fit(CLAIMS)
    trust = [model.source_trust_[s] for s in sorted(model.source_trust_)]
    return np.array(trust), model.convergence_


# name -> run(**max_iter/tol overrides) -> score arrays and the solver's
# ConvergenceInfo (eigenvector_centrality returns scores only).
SOLVERS = {
    "pagerank": lambda **kw: pagerank(GRAPH, **kw),
    "hits": lambda **kw: hits(GRAPH, **kw),
    "authority_ranking": _authority,
    "simrank": lambda **kw: simrank(GRAPH, **kw),
    "simrank_bipartite": lambda **kw: simrank_bipartite(RELATION, **kw),
    "label_propagation": lambda **kw: label_propagation(GRAPH, LABELS, SEEDS, **kw),
    "gnetmine": _gnetmine,
    "tagging": _tagging,
    "truthfinder": _truthfinder,
    "eigenvector_centrality": lambda **kw: eigenvector_centrality(GRAPH, seed=0, **kw),
}


def run(name, **kw):
    """``(score arrays, info or None)`` of one solver on the fixed input."""
    out = SOLVERS[name](**kw)
    out = out if isinstance(out, tuple) else (out,)
    info = next((o for o in out if isinstance(o, ConvergenceInfo)), None)
    return tuple(o for o in out if o is not info), info


@pytest.mark.parametrize("name", SOLVERS)
class TestOneStopRule:
    def test_default_run_converges(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            scores, info = run(name)
        assert all(np.isfinite(s).all() for s in scores)
        if info is not None:
            assert info.converged and 1 <= info.n_iter == len(info.history)
            assert info.history[-1] == info.residual <= info.tol

    def test_exhausted_max_iter_warns_once(self, name):
        with pytest.warns(ConvergenceWarning) as caught:
            _, info = run(name, max_iter=1)
        assert len(caught) == 1
        assert "did not converge in 1 iterations" in str(caught[0].message)
        assert caught[0].filename == __file__  # attributed to the solver's caller
        if info is not None:
            assert (info.converged, info.n_iter, len(info.history)) == (False, 1, 1)
            assert info.residual == info.history[0] > info.tol

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_non_positive_max_iter_is_a_value_error(self, name, max_iter):
        with pytest.raises(ValueError, match="max_iter must be > 0"):
            run(name, max_iter=max_iter)
