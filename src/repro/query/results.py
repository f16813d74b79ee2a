"""Typed result objects for the unified query surface.

Every facade operation (and every estimator's :meth:`result`) answers
with one of these instead of a bare array/list/dict, so callers get one
uniform protocol regardless of which miner produced the answer:

* ``top(n)`` — the *n* strongest items as ``(label, score)`` pairs
  (shape varies slightly per result kind; see each class);
* ``labels`` — the categorical answer (ranked names, cluster ids,
  predicted classes);
* ``scores`` — the numeric answer (similarity/rank/membership
  strengths);
* ``to_dict()`` — a JSON-able dict for serving layers and logs.

:class:`TopKResult` and :class:`RankingResult` subclass :class:`list`
(of ``(label, score)`` pairs), so code written against the old
plain-list returns — iteration, indexing, equality — keeps working
unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

__all__ = [
    "QueryResult",
    "TopKResult",
    "RankingResult",
    "ClusteringResult",
    "ClassificationResult",
]


def _jsonable(value):
    """Recursively convert numpy scalars/arrays into plain Python."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class QueryResult:
    """Base class of every typed query result.

    Subclasses implement the uniform protocol: :meth:`top`, ``labels``,
    ``scores``, and :meth:`to_dict`.
    """

    def to_dict(self) -> dict:
        raise NotImplementedError

    def top(self, n: int):
        raise NotImplementedError


class TopKResult(QueryResult, list):
    """Top-*k* answer to a single-object query: ``(label, score)`` pairs.

    A :class:`list` subclass, so it compares equal to (and slices like)
    the plain pair lists the engine historically returned.

    Attributes
    ----------
    node_type:
        Type of the returned objects.
    query:
        The query object's name (or index when the type is anonymous).
    path:
        DSL string of the meta-path the query ran over (``None`` for
        path-free measures such as SimRank over a prepared graph).
    measure:
        ``"pathsim"``, ``"connectivity"``, ``"simrank"``, ...
    network_version:
        The network's update epoch (``hin.version``) this answer was
        computed against — how a serving layer tells a pre-update answer
        from a post-update one (``None`` when unknown).
    mode:
        Top-k kernel that produced the answer: ``"fused"`` (the query
        rows were threaded through the relation chain, nothing
        materialized) or ``"materialize"`` (served from the cached
        symmetric decomposition); ``None`` when the producing measure
        has no kernel choice.  Purely informational — the kernels are
        bit-identical.
    """

    def __init__(
        self,
        pairs: Sequence[tuple] = (),
        *,
        node_type: str | None = None,
        query=None,
        path: str | None = None,
        measure: str | None = None,
        network_version: int | None = None,
        mode: str | None = None,
    ):
        list.__init__(self, pairs)
        self.node_type = node_type
        self.query = query
        self.path = path
        self.measure = measure
        self.network_version = network_version
        self.mode = mode

    def top(self, n: int) -> list[tuple]:
        """The first *n* ``(label, score)`` pairs."""
        return list(self)[: max(int(n), 0)]

    @property
    def labels(self) -> list:
        """The returned object names, best first."""
        return [label for label, _ in self]

    @property
    def scores(self) -> np.ndarray:
        """The scores, best first."""
        return np.array([score for _, score in self], dtype=np.float64)

    def to_dict(self) -> dict:
        out = {
            "kind": "topk",
            "measure": self.measure,
            "path": self.path,
            "network_version": self.network_version,
            "query": _jsonable(self.query),
            "node_type": self.node_type,
            "results": [
                {"object": _jsonable(label), "score": float(score)}
                for label, score in self
            ],
        }
        if self.mode is not None:
            out["mode"] = self.mode
        return out

    def __repr__(self) -> str:
        head = ", ".join(f"({label!r}, {score:.4g})" for label, score in self[:3])
        tail = ", ..." if len(self) > 3 else ""
        return (
            f"TopKResult(query={self.query!r}, measure={self.measure!r}, "
            f"k={len(self)}, [{head}{tail}])"
        )


class RankingResult(QueryResult, list):
    """A full ranking of one node type: ``(label, score)`` pairs, best first.

    Also a :class:`list` subclass.  The list content is the *ranked*
    view; ``scores`` keeps the underlying per-object distribution in
    original index order (what mixture models and evaluations consume).

    Attributes
    ----------
    node_type:
        The ranked type.
    method:
        ``"authority"``, ``"simple"``, ``"degree"``, or ``"path"``.
    network_version:
        Update epoch of the network that produced this ranking
        (``None`` when unknown).
    """

    def __init__(
        self,
        names: Sequence | None,
        scores,
        *,
        node_type: str | None = None,
        method: str | None = None,
        network_version: int | None = None,
    ):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        order = np.argsort(-scores, kind="stable")
        pairs = [
            (names[i] if names is not None else int(i), float(scores[i]))
            for i in order
        ]
        list.__init__(self, pairs)
        self.node_type = node_type
        self.method = method
        self.network_version = network_version
        self._scores = scores

    def top(self, n: int) -> list[tuple]:
        """The *n* best-ranked ``(label, score)`` pairs."""
        return list(self)[: max(int(n), 0)]

    @property
    def labels(self) -> list:
        """Object names in rank order (best first)."""
        return [label for label, _ in self]

    @property
    def scores(self) -> np.ndarray:
        """Per-object scores in **original index order** (sums to 1 for
        distribution-valued rankings)."""
        return self._scores

    def score_of(self, label) -> float:
        """Score of the object named *label* (or at index *label*)."""
        for name, score in self:
            if name == label:
                return score
        raise KeyError(f"no ranked object {label!r}")

    def to_dict(self) -> dict:
        return {
            "kind": "ranking",
            "node_type": self.node_type,
            "method": self.method,
            "network_version": self.network_version,
            "ranking": [
                {"object": _jsonable(label), "score": float(score)}
                for label, score in self
            ],
        }

    def __repr__(self) -> str:
        head = ", ".join(f"({label!r}, {score:.4g})" for label, score in self[:3])
        tail = ", ..." if len(self) > 3 else ""
        return (
            f"RankingResult({self.node_type!r}, method={self.method!r}, "
            f"n={len(self)}, [{head}{tail}])"
        )


class ClusteringResult(QueryResult):
    """A partition of one node type, with optional membership strengths.

    Attributes
    ----------
    labels:
        Cluster id per object.  Algorithms with special roles keep their
        conventions (SCAN: ``-1`` outliers, ``-2`` hubs).
    n_clusters:
        Number of proper clusters (ids ``0..n_clusters-1``).
    scores:
        Optional per-object membership strength (e.g. max posterior).
    node_type:
        The clustered type (a table name for relational miners).
    algorithm:
        Which miner produced the partition.
    model:
        The fitted estimator, for algorithm-specific introspection
        (e.g. ``result.model.rankings_``).
    extras:
        Algorithm-specific side products (SCAN hubs/outliers, LinkClus
        second-side labels, ...), JSON-able.
    """

    def __init__(
        self,
        labels,
        *,
        n_clusters: int | None = None,
        scores=None,
        names: Sequence | None = None,
        node_type: str | None = None,
        algorithm: str | None = None,
        model=None,
        extras: Mapping | None = None,
        network_version: int | None = None,
    ):
        self._labels = np.asarray(labels)
        if n_clusters is None:
            proper = self._labels[self._labels >= 0]
            n_clusters = int(proper.max()) + 1 if proper.size else 0
        self.n_clusters = int(n_clusters)
        self._scores = None if scores is None else np.asarray(scores, dtype=np.float64)
        self.names = None if names is None else list(names)
        self.node_type = node_type
        self.algorithm = algorithm
        self.model = model
        self.extras = dict(extras or {})
        self.network_version = network_version

    @property
    def labels(self) -> np.ndarray:
        """Cluster id per object."""
        return self._labels

    @property
    def scores(self) -> np.ndarray | None:
        """Per-object membership strength (``None`` for hard-only miners)."""
        return self._scores

    @property
    def sizes(self) -> np.ndarray:
        """Objects per cluster (ids 0..n_clusters-1; roles excluded)."""
        proper = self._labels[self._labels >= 0]
        return np.bincount(proper, minlength=self.n_clusters)

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the objects assigned to *cluster*."""
        return np.flatnonzero(self._labels == cluster)

    def _name(self, index: int):
        return self.names[index] if self.names is not None else int(index)

    def top(self, n: int, cluster: int | None = None):
        """Strongest members as ``(label, strength)`` pairs.

        With *cluster*, the top-*n* members of that cluster; without, a
        list with one such list per cluster.  Miners without membership
        strengths fall back to member order with strength 1.0.
        """
        if cluster is None:
            return [self.top(n, c) for c in range(self.n_clusters)]
        members = self.members(cluster)
        if self._scores is not None:
            order = members[np.argsort(-self._scores[members], kind="stable")]
        else:
            order = members
        return [
            (self._name(int(i)), float(self._scores[i]) if self._scores is not None else 1.0)
            for i in order[: max(int(n), 0)]
        ]

    def to_dict(self) -> dict:
        return {
            "kind": "clustering",
            "algorithm": self.algorithm,
            "node_type": self.node_type,
            "network_version": self.network_version,
            "n_clusters": self.n_clusters,
            "labels": _jsonable(self._labels),
            "scores": None if self._scores is None else _jsonable(self._scores),
            "sizes": _jsonable(self.sizes),
            "extras": _jsonable(self.extras),
        }

    def __repr__(self) -> str:
        return (
            f"ClusteringResult({self.node_type!r}, algorithm={self.algorithm!r}, "
            f"n_clusters={self.n_clusters}, sizes={self.sizes.tolist()})"
        )


class ClassificationResult(QueryResult):
    """Predicted classes, possibly for several node types at once
    (GNetMine labels every type of the network from any seed set).

    Attributes
    ----------
    classes:
        The class values, in the order score columns use.
    labels:
        ``{type: per-object predicted class}``.
    scores:
        ``{type: (n, k) class-score matrix}`` (may be empty).
    """

    def __init__(
        self,
        classes,
        labels: Mapping,
        scores: Mapping | None = None,
        *,
        names: Mapping | None = None,
        method: str | None = None,
        network_version: int | None = None,
    ):
        self.classes = np.asarray(classes)
        self._labels = {t: np.asarray(v) for t, v in labels.items()}
        self._scores = {t: np.asarray(v) for t, v in (scores or {}).items()}
        self.names = {t: (None if v is None else list(v)) for t, v in (names or {}).items()}
        self.method = method
        self.network_version = network_version

    @property
    def labels(self) -> dict:
        """``{type: predicted class per object}``."""
        return dict(self._labels)

    @property
    def scores(self) -> dict:
        """``{type: (n, k) class-score matrix}``."""
        return dict(self._scores)

    @property
    def node_types(self) -> list[str]:
        return list(self._labels)

    def for_type(self, node_type: str) -> np.ndarray:
        """Predicted class per object of *node_type*."""
        try:
            return self._labels[node_type]
        except KeyError:
            from repro.exceptions import TypeNotFoundError

            raise TypeNotFoundError(
                f"no predictions for type {node_type!r} "
                f"(have {self.node_types})"
            ) from None

    def confidence(self, node_type: str) -> np.ndarray:
        """Max normalized class score per object (1.0 when scoreless)."""
        labels = self.for_type(node_type)
        f = self._scores.get(node_type)
        if f is None or f.size == 0:
            return np.ones(labels.shape[0])
        totals = f.sum(axis=1)
        totals[totals == 0] = 1.0
        return f.max(axis=1) / totals

    def top(self, n: int, node_type: str | None = None) -> list[tuple]:
        """The *n* most confident predictions of *node_type* as
        ``(label, predicted_class, confidence)`` triples.

        *node_type* may be omitted when only one type was classified.
        """
        if node_type is None:
            if len(self._labels) != 1:
                raise ValueError(
                    f"node_type is required (predictions cover {self.node_types})"
                )
            node_type = next(iter(self._labels))
        labels = self.for_type(node_type)
        conf = self.confidence(node_type)
        names = self.names.get(node_type)
        order = np.argsort(-conf, kind="stable")[: max(int(n), 0)]
        return [
            (
                names[i] if names is not None else int(i),
                labels[i].item() if hasattr(labels[i], "item") else labels[i],
                float(conf[i]),
            )
            for i in order
        ]

    def to_dict(self) -> dict:
        return {
            "kind": "classification",
            "method": self.method,
            "network_version": self.network_version,
            "classes": _jsonable(self.classes),
            "labels": {t: _jsonable(v) for t, v in self._labels.items()},
        }

    def __repr__(self) -> str:
        counts = {t: len(v) for t, v in self._labels.items()}
        return (
            f"ClassificationResult(classes={_jsonable(self.classes)!r}, "
            f"objects={counts})"
        )
