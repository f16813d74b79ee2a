"""Centrality measures: degree, closeness, betweenness (Brandes), eigenvector.

Tutorial §2(a)i.  Betweenness uses Brandes' accumulation algorithm over
BFS shortest-path DAGs (unweighted); eigenvector centrality is a power
iteration on the adjacency matrix.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.exceptions import GraphError
from repro.networks.graph import Graph
from repro.utils.convergence import fixed_point
from repro.utils.rng import ensure_rng

__all__ = [
    "degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "eigenvector_centrality",
]


def degree_centrality(graph: Graph) -> np.ndarray:
    """Degree divided by ``n - 1`` (the classical normalization)."""
    n = graph.n_nodes
    if n <= 1:
        return np.zeros(n)
    return graph.degree() / (n - 1)


def closeness_centrality(graph: Graph) -> np.ndarray:
    """Harmonically scaled closeness with the Wasserman–Faust correction.

    For node *v* with reachable set of size ``r`` (excluding *v*) and total
    distance ``s``: ``closeness(v) = (r / (n-1)) * (r / s)``.  The
    correction keeps scores comparable across components; isolated nodes
    score 0.
    """
    from scipy.sparse import csgraph

    n = graph.n_nodes
    if n <= 1:
        return np.zeros(n)
    dists = csgraph.shortest_path(
        graph.adjacency, method="D", directed=graph.directed, unweighted=True
    )
    out = np.zeros(n)
    for v in range(n):
        row = dists[v]
        finite = row[np.isfinite(row)]
        reachable = finite.size - 1  # exclude self
        if reachable <= 0:
            continue
        total = finite.sum()
        if total > 0:
            out[v] = (reachable / (n - 1)) * (reachable / total)
    return out


def betweenness_centrality(graph: Graph, *, normalized: bool = True) -> np.ndarray:
    """Brandes' betweenness centrality for unweighted graphs.

    Counts, for every node, the fraction of all-pairs shortest paths
    passing through it.  ``normalized=True`` divides by the number of
    ordered/unordered pairs not involving the node.
    """
    n = graph.n_nodes
    scores = np.zeros(n)
    adj_indices = graph.adjacency.indices
    adj_indptr = graph.adjacency.indptr

    for s in range(n):
        # BFS from s building the shortest-path DAG.
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        queue: deque[int] = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj_indices[adj_indptr[v] : adj_indptr[v + 1]]:
                w = int(w)
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # Back-propagate dependencies.
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]

    if not graph.directed:
        scores /= 2.0
    if normalized and n > 2:
        denom = (n - 1) * (n - 2)
        if not graph.directed:
            denom /= 2.0
        scores /= denom
    return scores


def eigenvector_centrality(
    graph: Graph, *, max_iter: int = 200, tol: float = 1e-8, seed=None
) -> np.ndarray:
    """Principal-eigenvector centrality via power iteration.

    Requires at least one edge; on disconnected graphs the scores
    concentrate on the component carrying the dominant eigenvalue, which is
    the standard behaviour.
    """
    n = graph.n_nodes
    if n == 0:
        return np.zeros(0)
    adj = graph.adjacency
    if adj.nnz == 0:
        raise GraphError("eigenvector centrality undefined for an empty graph")
    rng = ensure_rng(seed)
    x = rng.random(n) + 1.0
    x /= np.linalg.norm(x)
    matvec = adj.T if graph.directed else adj  # incoming links confer status

    def step(x):
        # The +x shift (power iteration on A + I) preserves eigenvectors but
        # breaks the +/-lambda oscillation on bipartite graphs.
        x_new = matvec.dot(x) + x
        norm = np.linalg.norm(x_new)
        if norm == 0:
            raise GraphError("power iteration collapsed to zero vector")
        x_new /= norm
        return x_new, np.abs(x_new - x).max()

    x, _ = fixed_point(step, x, max_iter=max_iter, tol=tol, name="eigenvector centrality")
    return np.abs(x)
