"""SimRank — structural-context similarity (Jeh & Widom, KDD'02).

Tutorial §2(b)iii.  Two objects are similar when they are referenced by
similar objects:

    s(a, b) = C / (|I(a)||I(b)|) * Σ_{i∈I(a)} Σ_{j∈I(b)} s(i, j)

computed here in matrix form, ``S ← C · Pᵀ S P`` with the diagonal pinned
to 1, where ``P`` is the column-normalized adjacency.  The bipartite
variant (used by LinkClus and object reconciliation) alternates the same
update across the two sides of a relation matrix.
"""

from __future__ import annotations

import numpy as np

from repro.networks.graph import Graph
from repro.query.estimator import Estimator
from repro.query.results import TopKResult
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.sparse import column_normalize, row_normalize, to_csr
from repro.utils.validation import check_probability

__all__ = ["SimRank", "simrank", "simrank_bipartite"]


def simrank(
    graph: Graph,
    *,
    c: float = 0.8,
    max_iter: int = 100,
    tol: float = 1e-4,
) -> tuple[np.ndarray, ConvergenceInfo]:
    """All-pairs SimRank similarity matrix of a homogeneous graph.

    Parameters
    ----------
    graph:
        For directed graphs, in-neighbours define the context (the
        original paper's convention); for undirected graphs, neighbours.
    c:
        Decay constant in (0, 1); the classical value is 0.8.
    max_iter, tol:
        Iteration stops when the max-norm update falls below *tol*
        (SimRank converges geometrically at rate *c*).

    Returns
    -------
    (S, info):
        ``S`` is dense ``(n, n)``, symmetric, with unit diagonal and
        values in [0, 1].  Nodes without in-neighbours have similarity 0
        to everything (except themselves).

    Notes
    -----
    Dense ``O(n^2)`` memory: intended for the side of a HIN being
    clustered (thousands of nodes), not the full web graph — LinkClus
    (:mod:`repro.clustering.linkclus`) is the scalable alternative, which
    is exactly the point the tutorial makes in §4(a).
    """
    check_probability(c, "c")
    n = graph.n_nodes
    if n == 0:
        return np.zeros((0, 0)), ConvergenceInfo(True, 0, 0.0, tol)
    p = column_normalize(graph.adjacency)  # P[i, j]: weight of i in I(j)

    def step(s):
        s_new = c * (p.T.dot(p.T.dot(s).T))
        np.fill_diagonal(s_new, 1.0)
        return s_new, np.abs(s_new - s).max()

    return fixed_point(step, np.eye(n), max_iter=max_iter, tol=tol, name="simrank")


def simrank_bipartite(
    relation,
    *,
    c: float = 0.8,
    max_iter: int = 100,
    tol: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray, ConvergenceInfo]:
    """Bipartite SimRank over one relation matrix (rows = A, columns = B).

    Alternates the SimRank update across the two sides::

        S_A ← C · P_BA S_B P_AB   (diag pinned to 1)
        S_B ← C · P_AB S_A P_BA   (diag pinned to 1)

    Returns ``(S_A, S_B, info)``.  This is the "similar conferences share
    similar authors" recursion the tutorial uses to motivate link-based
    clustering.

    Parameters
    ----------
    relation:
        The ``(n_A, n_B)`` biadjacency matrix (anything
        :func:`~repro.utils.sparse.to_csr` accepts).
    c:
        Decay constant in (0, 1); the classical value is 0.8.
    max_iter, tol:
        Iteration stops when the max-norm update over both sides falls
        below *tol*.
    """
    check_probability(c, "c")
    w = to_csr(relation)
    n_a, n_b = w.shape
    if n_a == 0 or n_b == 0:
        info = ConvergenceInfo(True, 0, 0.0, tol)
        return np.eye(n_a), np.eye(n_b), info
    # q_a[i, :] = A_i's distribution over its B-neighbours (rows sum to 1);
    # S_A = C * Q_A S_B Q_Aᵀ and symmetrically for S_B.
    q_a = row_normalize(w)                # (n_a, n_b)
    q_b = row_normalize(w.T.tocsr())      # (n_b, n_a)

    def step(state):
        s_a, s_b = state
        s_a_new = c * q_a.dot(q_a.dot(s_b.T).T)
        np.fill_diagonal(s_a_new, 1.0)
        s_b_new = c * q_b.dot(q_b.dot(s_a_new.T).T)
        np.fill_diagonal(s_b_new, 1.0)
        residual = max(np.abs(s_a_new - s_a).max(), np.abs(s_b_new - s_b).max())
        return (s_a_new, s_b_new), residual

    start = (np.eye(n_a), np.eye(n_b))
    (s_a, s_b), info = fixed_point(
        step, start, max_iter=max_iter, tol=tol, name="bipartite simrank"
    )
    return s_a, s_b, info


class SimRank(Estimator):
    """SimRank as a reusable index (estimator-protocol view of
    :func:`simrank`).

    Fits the all-pairs matrix once and then answers pair/top-k queries;
    ``hin.query().similar(obj, path, measure="simrank")`` uses this over
    the meta-path's homogeneous projection.

    Parameters
    ----------
    c:
        Decay constant in (0, 1); the classical value is 0.8.
    max_iter, tol:
        Stopping rule forwarded to :func:`simrank`.

    Example
    -------
    >>> sr = SimRank().fit(graph)                     # doctest: +SKIP
    >>> sr.top_k("SIGMOD", 5)                         # doctest: +SKIP
    """

    def __init__(self, *, c: float = 0.8, max_iter: int = 100, tol: float = 1e-4):
        self.c = float(c)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.matrix_: np.ndarray | None = None
        self.convergence_: ConvergenceInfo | None = None
        self._graph: Graph | None = None

    def fit(self, graph: Graph) -> "SimRank":
        """Compute the all-pairs SimRank matrix of *graph*."""
        self.matrix_, self.convergence_ = simrank(
            graph, c=self.c, max_iter=self.max_iter, tol=self.tol
        )
        self._graph = graph
        return self

    def _is_fitted(self) -> bool:
        return self.matrix_ is not None

    def _resolve(self, obj) -> int:
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        return self._graph.index_of(obj)

    def _name(self, index: int):
        return self._graph.name_of(index)

    def similarity(self, x, y) -> float:
        """SimRank score of one node pair (indices or names)."""
        self._check_fitted()
        return float(self.matrix_[self._resolve(x), self._resolve(y)])

    def top_k(self, x, k: int, *, exclude_self: bool = True) -> TopKResult:
        """Top-*k* most SimRank-similar nodes to *x*."""
        self._check_fitted()
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        i = self._resolve(x)
        scores = self.matrix_[i]
        need = k + 1 if exclude_self else k
        order = np.argsort(-scores, kind="stable")[: min(need, scores.size)]
        pairs = [
            (self._name(int(j)), float(scores[j]))
            for j in order
            if not (exclude_self and int(j) == i)
        ][:k]
        return TopKResult(
            pairs, query=self._name(i), measure="simrank"
        )
