"""HITS — hubs and authorities (tutorial §2(b)ii).

Kleinberg's mutually recursive scores: a good hub points at good
authorities, a good authority is pointed at by good hubs.  On undirected
graphs hubs and authorities coincide with eigenvector centrality.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.networks.graph import Graph
from repro.utils.convergence import ConvergenceInfo, fixed_point

__all__ = ["hits", "hits_scores"]


def hits(
    graph: Graph,
    *,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, ConvergenceInfo]:
    """HITS hub and authority scores (each vector sums to 1).

    Parameters
    ----------
    graph:
        The graph to score; edges point hub → authority.  Raises
        :class:`~repro.exceptions.GraphError` when it has no edges.
    max_iter, tol:
        Power iteration stops when the L1 change of both vectors falls
        below *tol*.

    Returns
    -------
    (hubs, authorities, info)
    """
    n = graph.n_nodes
    if n == 0:
        info = ConvergenceInfo(True, 0, 0.0, tol)
        return np.zeros(0), np.zeros(0), info
    adj = graph.adjacency
    if adj.nnz == 0:
        raise GraphError("HITS undefined for a graph with no edges")

    def step(state):
        hubs, authorities = state
        new_auth = adj.T.dot(hubs)
        auth_sum = new_auth.sum()
        if auth_sum > 0:
            new_auth /= auth_sum
        new_hubs = adj.dot(new_auth)
        hub_sum = new_hubs.sum()
        if hub_sum > 0:
            new_hubs /= hub_sum
        residual = np.abs(new_hubs - hubs).sum() + np.abs(new_auth - authorities).sum()
        return (new_hubs, new_auth), residual

    start = (np.full(n, 1.0 / n), np.zeros(n))
    (hubs, authorities), info = fixed_point(step, start, max_iter=max_iter, tol=tol, name="HITS")
    return hubs, authorities, info


def hits_scores(graph: Graph, **kwargs) -> tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper returning only ``(hubs, authorities)``.

    Parameters
    ----------
    graph:
        The graph to score.
    **kwargs:
        Forwarded to :func:`hits` (``max_iter``, ``tol``).
    """
    hubs, authorities, _ = hits(graph, **kwargs)
    return hubs, authorities
