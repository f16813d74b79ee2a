"""Homogeneous label propagation — the baseline for HIN classification.

The classical transductive scheme (Zhou et al.'s "learning with local and
global consistency"): iterate

    F ← α · S · F + (1 − α) · Y

where ``S`` is the symmetrically normalized adjacency and ``Y`` the
one-hot seed labels.  GNetMine's experiments (our E12) compare against
exactly this method run on a homogeneous projection of the HIN.
"""

from __future__ import annotations

import numpy as np

from repro.networks.graph import Graph
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.sparse import symmetric_normalize
from repro.utils.validation import check_probability

__all__ = ["label_propagation"]


def label_propagation(
    graph: Graph,
    labels,
    labeled_mask,
    *,
    alpha: float = 0.85,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, ConvergenceInfo]:
    """Propagate seed labels over a homogeneous graph.

    Parameters
    ----------
    graph:
        The (undirected) graph; edge weights modulate propagation.
    labels:
        Integer class per node (values for unlabeled nodes are ignored).
    labeled_mask:
        Boolean mask of seed nodes.
    alpha:
        Propagation weight versus clamping to the seeds.

    Returns
    -------
    (predicted, scores, info):
        ``predicted[i]`` is the argmax class for every node (seeds keep
        their seed class); ``scores`` is the ``(n, k)`` class-score matrix.
    """
    check_probability(alpha, "alpha")
    labels = np.asarray(labels).ravel()
    mask = np.asarray(labeled_mask, dtype=bool).ravel()
    n = graph.n_nodes
    if labels.shape != (n,) or mask.shape != (n,):
        raise ValueError(
            f"labels and labeled_mask must have shape ({n},), got "
            f"{labels.shape} and {mask.shape}"
        )
    if not mask.any():
        raise ValueError("at least one node must be labeled")

    classes = np.unique(labels[mask])
    k = classes.size
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.zeros((n, k))
    for i in np.flatnonzero(mask):
        y[i, class_index[labels[i]]] = 1.0

    s = symmetric_normalize(graph.to_undirected().adjacency)

    def step(f):
        f_new = alpha * s.dot(f) + (1 - alpha) * y
        return f_new, np.abs(f_new - f).max()

    f, info = fixed_point(step, y.copy(), max_iter=max_iter, tol=tol, name="label propagation")

    predicted_idx = f.argmax(axis=1)
    # nodes with all-zero rows (unreachable from any seed): majority class
    zero_rows = f.sum(axis=1) == 0
    if zero_rows.any():
        majority = int(np.bincount([class_index[c] for c in labels[mask]]).argmax())
        predicted_idx[zero_rows] = majority
    predicted = classes[predicted_idx]
    predicted[mask] = labels[mask]
    return predicted, f, info
