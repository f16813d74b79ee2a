"""GNetMine-style transductive classification on a HIN (tutorial §5(c)).

"Effective classification of multiple heterogeneous networks": knowledge
propagates along *typed* relations instead of a flattened graph.  Each
node type *t* keeps a class-score matrix ``F_t``; every relation (t, s)
contributes the graph-regularization update through its symmetrically
normalized biadjacency ``S_ts``, and seed labels (of any type) clamp their
rows:

    F_t ← ( α · Σ_s λ_ts · S_ts F_s + (1 − α) · Y_t ) / normalizer

Keeping types separate is the whole point: venue labels reach authors
through papers with the right normalization per relation, instead of
being swamped by the dominant edge type of a homogeneous projection.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotFittedError, TypeNotFoundError
from repro.networks.hin import HIN
from repro.query.estimator import Estimator
from repro.query.results import ClassificationResult
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.sparse import symmetric_normalize
from repro.utils.validation import check_probability

__all__ = ["GNetMine"]


class GNetMine(Estimator):
    """Graph-regularized transductive classifier over all types of a HIN.

    Parameters
    ----------
    alpha:
        Propagation weight versus seed clamping.
    relation_weights:
        Optional ``{relation_name: weight}`` (λ); defaults to 1 for every
        relation.
    max_iter, tol:
        Fixed-point iteration controls.

    Attributes
    ----------
    scores_:
        ``{type: (n_type, k) array}`` class scores after propagation.
    labels_:
        ``{type: (n_type,) array}`` argmax class per object.
    classes_:
        Sorted class values.

    Example
    -------
    >>> model = GNetMine().fit(
    ...     hin, seeds={"venue": (venue_labels, venue_mask)})   # doctest: +SKIP
    >>> model.labels_["paper"]                                   # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        alpha: float = 0.85,
        relation_weights: dict | None = None,
        max_iter: int = 200,
        tol: float = 1e-8,
    ):
        check_probability(alpha, "alpha")
        self.alpha = float(alpha)
        self.relation_weights = dict(relation_weights or {})
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.scores_: dict[str, np.ndarray] | None = None
        self.labels_: dict[str, np.ndarray] | None = None
        self.classes_: np.ndarray | None = None
        self.convergence_: ConvergenceInfo | None = None
        self._hin: HIN | None = None

    # ------------------------------------------------------------------
    def fit(self, hin: HIN, seeds: dict) -> "GNetMine":
        """Propagate seed labels through every relation of *hin*.

        ``seeds`` maps type name to ``(labels, mask)``: integer class per
        object and a boolean mask of which objects are actually labeled.
        """
        if not seeds:
            raise ValueError("seeds must contain at least one type")
        self._hin = hin
        all_classes: list = []
        for t, (labels, mask) in seeds.items():
            if t not in hin.schema.node_types:
                raise TypeNotFoundError(f"unknown seed type {t!r}")
            labels = np.asarray(labels).ravel()
            mask = np.asarray(mask, dtype=bool).ravel()
            n = hin.node_count(t)
            if labels.shape != (n,) or mask.shape != (n,):
                raise ValueError(
                    f"seeds[{t!r}] arrays must have shape ({n},)"
                )
            all_classes.extend(labels[mask].tolist())
        if not all_classes:
            raise ValueError("at least one object must be labeled")
        classes = np.unique(all_classes)
        k = classes.size
        class_index = {c: i for i, c in enumerate(classes)}

        types = hin.schema.node_types
        y: dict[str, np.ndarray] = {
            t: np.zeros((hin.node_count(t), k)) for t in types
        }
        seed_mask: dict[str, np.ndarray] = {
            t: np.zeros(hin.node_count(t), dtype=bool) for t in types
        }
        for t, (labels, mask) in seeds.items():
            labels = np.asarray(labels).ravel()
            mask = np.asarray(mask, dtype=bool).ravel()
            for i in np.flatnonzero(mask):
                y[t][i, class_index[labels[i]]] = 1.0
            seed_mask[t] = mask

        # normalized relation operators, both directions
        operators: list[tuple[str, str, sp.csr_matrix, float]] = []
        degree_weight: dict[str, float] = {t: 0.0 for t in types}
        for rel in hin.schema.relations:
            w = hin.relation_matrix(rel.name)
            if w.nnz == 0:
                continue
            lam = float(self.relation_weights.get(rel.name, 1.0))
            s = symmetric_normalize(w)
            operators.append((rel.source, rel.target, s, lam))
            operators.append((rel.target, rel.source, s.T.tocsr(), lam))
            degree_weight[rel.source] += lam
            degree_weight[rel.target] += lam

        def step(f):
            residual = 0.0
            new_f: dict[str, np.ndarray] = {}
            for t in types:
                agg = np.zeros_like(f[t])
                for src, dst, op, lam in operators:
                    if src == t:
                        agg += lam * op.dot(f[dst])
                denom = degree_weight[t] if degree_weight[t] > 0 else 1.0
                new_f[t] = self.alpha * (agg / denom) + (1 - self.alpha) * y[t]
                residual = max(residual, float(np.abs(new_f[t] - f[t]).max()))
            return new_f, residual

        start = {t: y[t].copy() for t in types}
        f, self.convergence_ = fixed_point(
            step, start, max_iter=self.max_iter, tol=self.tol, name="GNetMine"
        )

        self.classes_ = classes
        self.scores_ = f
        self.labels_ = {}
        for t in types:
            idx = f[t].argmax(axis=1)
            zero = f[t].sum(axis=1) == 0
            if zero.any():
                majority = int(y[t].sum(axis=0).argmax()) if y[t].any() else 0
                idx[zero] = majority
            labels_t = classes[idx]
            # seeds keep their class
            if seed_mask[t].any():
                seeded = seeds.get(t)
                if seeded is not None:
                    orig = np.asarray(seeded[0]).ravel()
                    labels_t[seed_mask[t]] = orig[seed_mask[t]]
            self.labels_[t] = labels_t
        return self

    # ------------------------------------------------------------------
    def _is_fitted(self) -> bool:
        return self.labels_ is not None

    def result(self) -> ClassificationResult:
        """Typed predictions for every node type of the network."""
        self._check_fitted()
        return ClassificationResult(
            self.classes_,
            self.labels_,
            self.scores_,
            names={t: self._hin.names(t) for t in self.labels_},
            method="gnetmine",
        )

    def predict(self, node_type: str) -> np.ndarray:
        """Predicted class per object of *node_type* (requires :meth:`fit`)."""
        if self.labels_ is None:
            raise NotFittedError("call fit() first")
        if node_type not in self.labels_:
            raise TypeNotFoundError(f"unknown node type {node_type!r}")
        return self.labels_[node_type]
