"""Web-object classification on the social tagging graph (tutorial §5(b)).

Following the cited KDD'09 work ("Exploring Social Tagging Graph for Web
Object Classification"): objects (photos, URLs) and tags form a bipartite
graph; a handful of objects are labeled.  Two classifiers:

* :class:`TagGraphClassifier` — transductive propagation on the
  object–tag graph: object scores flow to tags and back, with seeds
  clamped (the bipartite special case of GNetMine, but packaged for the
  tagging scenario and supporting extra object–object context links);
* :func:`tag_vector_knn` — the content-only baseline: k-nearest-neighbour
  voting on TF-IDF-weighted tag vectors, ignoring the graph structure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotFittedError
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.sparse import symmetric_normalize, to_csr
from repro.utils.validation import check_positive, check_probability

__all__ = ["TagGraphClassifier", "tag_vector_knn"]


class TagGraphClassifier:
    """Transductive classification of objects through their tags.

    Parameters
    ----------
    alpha:
        Propagation weight versus seed clamping.
    max_iter, tol:
        Fixed-point controls.

    Attributes
    ----------
    object_labels_, tag_labels_:
        Predicted classes for objects and tags.
    object_scores_, tag_scores_:
        Class-score matrices.
    """

    def __init__(self, *, alpha: float = 0.85, max_iter: int = 200, tol: float = 1e-8):
        check_probability(alpha, "alpha")
        self.alpha = float(alpha)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.object_labels_: np.ndarray | None = None
        self.tag_labels_: np.ndarray | None = None
        self.object_scores_: np.ndarray | None = None
        self.tag_scores_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self.convergence_: ConvergenceInfo | None = None

    def fit(
        self,
        object_tag,
        labels,
        labeled_mask,
        *,
        object_object=None,
    ) -> "TagGraphClassifier":
        """Propagate the seeds over the tagging graph.

        Parameters
        ----------
        object_tag:
            ``(n_objects, n_tags)`` tag-assignment matrix.
        labels, labeled_mask:
            Class per object and the boolean seed mask.
        object_object:
            Optional ``(n_objects, n_objects)`` context links (same user,
            same group) blended into the propagation.
        """
        w = to_csr(object_tag)
        n_obj, n_tag = w.shape
        labels = np.asarray(labels).ravel()
        mask = np.asarray(labeled_mask, dtype=bool).ravel()
        if labels.shape != (n_obj,) or mask.shape != (n_obj,):
            raise ValueError(f"labels/mask must have shape ({n_obj},)")
        if not mask.any():
            raise ValueError("at least one object must be labeled")
        classes = np.unique(labels[mask])
        k = classes.size
        class_index = {c: i for i, c in enumerate(classes)}
        y = np.zeros((n_obj, k))
        for i in np.flatnonzero(mask):
            y[i, class_index[labels[i]]] = 1.0

        s_ot = symmetric_normalize(w)
        s_to = s_ot.T.tocsr()
        s_oo = None
        if object_object is not None:
            oo = to_csr(object_object)
            if oo.shape != (n_obj, n_obj):
                raise ValueError(
                    f"object_object must be ({n_obj}, {n_obj}), got {oo.shape}"
                )
            s_oo = symmetric_normalize(oo)

        def step(state):
            f_obj, f_tag = state
            new_tag = s_to.dot(f_obj)
            via_tags = s_ot.dot(new_tag)
            if s_oo is not None:
                via_tags = 0.5 * via_tags + 0.5 * s_oo.dot(f_obj)
            new_obj = self.alpha * via_tags + (1 - self.alpha) * y
            residual = max(np.abs(new_obj - f_obj).max(), np.abs(new_tag - f_tag).max())
            return (new_obj, new_tag), residual

        start = (y.copy(), np.zeros((n_tag, k)))
        (f_obj, f_tag), self.convergence_ = fixed_point(
            step, start, max_iter=self.max_iter, tol=self.tol, name="tag-graph propagation"
        )
        self.classes_ = classes
        self.object_scores_ = f_obj
        self.tag_scores_ = f_tag

        obj_idx = f_obj.argmax(axis=1)
        zero = f_obj.sum(axis=1) == 0
        if zero.any():
            majority = int(y.sum(axis=0).argmax())
            obj_idx[zero] = majority
        predicted = classes[obj_idx]
        predicted[mask] = labels[mask]
        self.object_labels_ = predicted
        tag_idx = f_tag.argmax(axis=1)
        self.tag_labels_ = classes[tag_idx]
        return self

    def predict(self) -> np.ndarray:
        """Predicted object classes (requires :meth:`fit`)."""
        if self.object_labels_ is None:
            raise NotFittedError("call fit() first")
        return self.object_labels_


def tag_vector_knn(
    object_tag,
    labels,
    labeled_mask,
    *,
    k: int = 5,
) -> np.ndarray:
    """Content-only baseline: cosine kNN voting on TF-IDF tag vectors.

    Each unlabeled object takes the majority class of its *k* most
    cosine-similar labeled objects; ties break toward the globally more
    frequent class.
    """
    check_positive(k, "k")
    w = to_csr(object_tag).astype(np.float64)
    labels = np.asarray(labels).ravel()
    mask = np.asarray(labeled_mask, dtype=bool).ravel()
    if not mask.any():
        raise ValueError("at least one object must be labeled")
    n_obj, n_tag = w.shape

    # TF-IDF weighting
    df = np.asarray((w > 0).sum(axis=0)).ravel()
    idf = np.log((1.0 + n_obj) / (1.0 + df)) + 1.0
    x = w.dot(sp.diags(idf)).tocsr()
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    x = sp.diags(scale).dot(x)

    labeled_idx = np.flatnonzero(mask)
    sims = np.asarray(x.dot(x[labeled_idx].T).todense())  # (n_obj, n_labeled)
    classes, seed_classes = np.unique(labels[mask], return_inverse=True)
    majority = int(np.bincount(seed_classes).argmax())

    out = labels.copy()
    for i in range(n_obj):
        if mask[i]:
            continue
        order = np.argsort(-sims[i], kind="stable")[:k]
        votes = np.bincount(seed_classes[order], minlength=classes.size)
        if votes.sum() == 0:
            out[i] = classes[majority]
            continue
        best = votes.max()
        tied = np.flatnonzero(votes == best)
        pick = tied[0] if tied.size == 1 else (majority if majority in tied else tied[0])
        out[i] = classes[pick]
    return out
