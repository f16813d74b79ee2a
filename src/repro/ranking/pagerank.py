"""PageRank — ranking on homogeneous networks (tutorial §2(b)ii).

Power iteration on the Google matrix with damping, personalization, and
dangling-node redistribution.  The same routine backs Personalized
PageRank (:mod:`repro.ranking.ppr`) via the ``personalization`` vector.
"""

from __future__ import annotations

import numpy as np

from repro.networks.graph import Graph
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.sparse import row_normalize
from repro.utils.validation import check_probability

__all__ = ["pagerank", "pagerank_scores"]


def pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    personalization: np.ndarray | None = None,
    max_iter: int = 300,
    tol: float = 1e-9,
) -> tuple[np.ndarray, ConvergenceInfo]:
    """PageRank scores of every node (scores sum to 1).

    Parameters
    ----------
    graph:
        Directed or undirected graph; edge weights scale transition
        probabilities.
    damping:
        Probability of following a link (classically 0.85); the remaining
        mass teleports to the *personalization* distribution.
    personalization:
        Teleport distribution (defaults to uniform).  Must be non-negative
        with positive sum; it is normalized internally.  Dangling-node mass
        is redistributed according to the same distribution.
    max_iter, tol:
        Power-iteration controls; the residual is the L1 change per step.

    Returns
    -------
    (scores, info):
        ``scores[i]`` is the stationary probability of node *i*;
        ``info`` reports convergence.
    """
    check_probability(damping, "damping")
    n = graph.n_nodes
    if n == 0:
        return np.zeros(0), ConvergenceInfo(True, 0, 0.0, tol)

    if personalization is None:
        v = np.full(n, 1.0 / n)
    else:
        v = np.asarray(personalization, dtype=np.float64).ravel()
        if v.shape != (n,):
            raise ValueError(
                f"personalization has shape {v.shape}, expected ({n},)"
            )
        if v.min() < 0 or v.sum() <= 0:
            raise ValueError("personalization must be non-negative with positive sum")
        v = v / v.sum()

    transition = row_normalize(graph.adjacency)  # row-stochastic (or zero rows)
    out_deg = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    dangling = out_deg == 0

    def step(x):
        dangling_mass = x[dangling].sum()
        x_new = damping * (transition.T.dot(x) + dangling_mass * v) + (1 - damping) * v
        return x_new, np.abs(x_new - x).sum()

    return fixed_point(step, v.copy(), max_iter=max_iter, tol=tol, name="pagerank")


def pagerank_scores(graph: Graph, **kwargs) -> np.ndarray:
    """Convenience wrapper returning only the score vector.

    Parameters
    ----------
    graph:
        The graph to score.
    **kwargs:
        Forwarded to :func:`pagerank` (``damping``, ``personalization``,
        ``max_iter``, ``tol``).
    """
    scores, _ = pagerank(graph, **kwargs)
    return scores
