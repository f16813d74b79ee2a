"""QuerySession — the unified, declarative query facade over one HIN.

The paper's framing is that ranking, clustering, similarity search, and
classification are all *queries* over one typed information network,
parameterized by meta-paths.  ``hin.query()`` (or
:func:`repro.connect`) returns the network's shared session, which
exposes exactly that surface:

>>> q = hin.query()                                      # doctest: +SKIP
>>> q.similar("SIGMOD", "V-P-A-P-V", k=5)                # doctest: +SKIP
>>> q.rank("author", by="venue")                         # doctest: +SKIP
>>> q.cluster("netclus", n_clusters=4).top(3)            # doctest: +SKIP
>>> q.classify({"venue": (labels, mask)}).for_type("paper")  # doctest: +SKIP
>>> q.olap({"area": areas}).group_by("area")             # doctest: +SKIP

Every operation accepts meta-paths in any spelling (DSL strings with
abbreviations, type lists, :class:`MetaPath` objects), executes through
the network's shared :class:`~repro.engine.MetaPathEngine` — so repeated
queries over the same paths re-materialize nothing — and returns a typed
result object (:mod:`repro.query.results`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MetaPathError, SchemaError
from repro.query.dsl import as_metapath
from repro.query.results import (
    ClassificationResult,
    ClusteringResult,
    RankingResult,
    TopKResult,
)
from repro.utils.validation import check_k

__all__ = ["QuerySession", "connect"]

#: Fitted SimRank indexes a session keeps (one dense n x n matrix each).
_MAX_CACHED_SIMRANK = 4


class QuerySession:
    """Declarative query surface over one HIN and its shared engine.

    Parameters
    ----------
    hin:
        The network to query.
    engine:
        Override the network's shared engine (an isolated cache for
        tests/benchmarks); by default ``hin.engine()`` is used, so every
        session, estimator, and direct engine caller on the same network
        shares one materialization cache.
    """

    def __init__(self, hin, *, engine=None):
        from repro.utils.cache import LRUCache

        self.hin = hin
        self._engine = engine if engine is not None else hin.engine()
        # Session-level memo for measures the engine does not cache:
        # one fitted SimRank index (a dense n x n matrix) per projection
        # path.  LRU-bounded — the session lives as long as the network,
        # and dense matrices must not accumulate without limit.
        self._simrank = LRUCache(_MAX_CACHED_SIMRANK)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The :class:`~repro.engine.MetaPathEngine` executing this session."""
        return self._engine

    @property
    def epoch(self) -> int:
        """The network's current update epoch (``hin.version``).

        Results carry the epoch they answered for as
        ``result.network_version``; comparing the two tells whether an
        answer predates the latest ``hin.apply()``.
        """
        return getattr(self.hin, "version", 0)

    def path(self, spec):
        """Resolve any meta-path spelling against the network's schema."""
        return as_metapath(self._engine, spec)

    def prewarm(self, *paths) -> "QuerySession":
        """Materialize *paths* into the shared cache up front (chainable)."""
        self._engine.prewarm([self.path(p) for p in paths])
        return self

    def cache_info(self):
        """Hit/miss/eviction counters of the shared materialization cache."""
        return self._engine.cache_info()

    def explain(self, path):
        """Association plan a materialization of *path* would use.

        A :class:`~repro.engine.planner.PlanReport`: the chosen
        association order, flop estimates vs strict left-to-right
        evaluation, and the cached seeds the plan would reuse.  Nothing
        is materialized.  See ``docs/ARCHITECTURE.md`` → "Query
        planning".
        """
        return self._engine.explain(self.path(path))

    # ------------------------------------------------------------------
    # Similarity queries
    # ------------------------------------------------------------------
    def similar(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool = True,
    ) -> TopKResult:
        """Top-*k* peers of *obj* under *path*.

        ``measure="pathsim"`` (default) serves from the engine's cached
        symmetric decomposition; ``measure="simrank"`` projects the
        round-trip path to a homogeneous graph, fits one SimRank index
        per path (default parameters, memoized in a small session LRU),
        and answers from its matrix.  How a pathsim answer is computed
        (association order, top-k kernel) is the engine's policy, chosen
        at its construction; the kernel that ran is ``result.mode``.
        """
        k = check_k(k)
        if measure == "pathsim":
            return self._engine.pathsim_top_k(
                self.path(path), obj, k, exclude_query=exclude_self
            )
        if measure == "simrank":
            return self._simrank_top_k(obj, path, k, exclude_self=exclude_self)
        raise ValueError(
            f"measure must be 'pathsim' or 'simrank', got {measure!r}"
        )

    def similar_batch(
        self, objs, path, k: int = 10, *, exclude_self: bool = True
    ) -> list[TopKResult]:
        """:meth:`similar` for many queries via one block product."""
        return self._engine.pathsim_top_k_batch(
            self.path(path), objs, k, exclude_query=exclude_self
        )

    def similarity(self, x, y, path) -> float:
        """PathSim score of one object pair under *path*."""
        return self._engine.pathsim(self.path(path), x, y)

    def similarity_matrix(self, path) -> np.ndarray:
        """Dense all-pairs PathSim matrix (full materialization)."""
        return self._engine.pathsim_matrix(self.path(path))

    def connected(
        self, obj, path, k: int = 10, *, exclude_self: bool = False
    ) -> TopKResult:
        """Top-*k* target objects by path-instance count from *obj*
        (works for asymmetric paths; the raw-connectivity query)."""
        return self._engine.top_k_connectivity(
            self.path(path), obj, k, exclude_query=exclude_self
        )

    def watch(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool | None = None,
    ):
        """Register a standing query: :meth:`similar` (or
        :meth:`connected`) kept perpetually answered under updates.

        Returns a :class:`~repro.watch.Subscription` whose consumers
        receive an ``(epoch, result)`` push whenever a committed
        ``hin.apply()`` batch changes the answer; see
        :mod:`repro.watch` and ``docs/GUIDE.md`` → "Standing queries".

        ``measure`` is ``"pathsim"`` or ``"connectivity"``;
        ``exclude_self`` defaults to the measure's convention (``True``
        for pathsim, ``False`` for connectivity).
        """
        return self.hin.watches().watch(
            path,
            obj,
            k=k,
            measure=measure,
            exclude_self=exclude_self,
        )

    def _simrank_top_k(
        self, obj, path, k: int, *, exclude_self: bool
    ) -> TopKResult:
        with self._engine.lock.read():
            return self._simrank_top_k_locked(
                obj, path, k, exclude_self=exclude_self
            )

    def _simrank_top_k_locked(
        self, obj, path, k: int, *, exclude_self: bool
    ) -> TopKResult:
        """Projection + fit + answer at one epoch (read lock held)."""
        from repro.similarity.simrank import SimRank

        mp = self.path(path)
        if mp.source_type != mp.target_type:
            raise MetaPathError(
                f"SimRank over a projection needs a round-trip path, got "
                f"{mp.source_type!r} -> {mp.target_type!r}"
            )
        # Keyed by (epoch, path): a network update strands the old fitted
        # index, which the bounded LRU then ages out naturally.
        key = (self.epoch, mp.canonical_key())
        cached = self._simrank.get(key)
        if cached is None:
            graph = self.hin.homogeneous_projection(mp)
            cached = SimRank().fit(graph)
            self._simrank.put(key, cached)
        out = cached.top_k(obj, k, exclude_self=exclude_self)
        out.path = str(mp)
        out.node_type = mp.source_type
        out.network_version = self.epoch
        return out

    # ------------------------------------------------------------------
    # Ranking queries
    # ------------------------------------------------------------------
    def rank(
        self,
        target,
        *,
        by: str | None = None,
        path=None,
        attribute_path=None,
        method: str | None = None,
        **kwargs,
    ) -> RankingResult:
        """Rank the objects of a type (or of a meta-path's target type).

        Three query shapes:

        * ``rank("author")`` — degree ranking: link-mass share of every
          object of the type (``method="degree"``).
        * ``rank("venue", by="author")`` — bi-type conditional ranking
          (RankClus's machinery): ``method="authority"`` (default,
          mutual reinforcement) or ``"simple"``.  ``path`` overrides the
          direct target-attribute relation with a meta-path;
          ``attribute_path`` (e.g. ``"A-P-A"``) adds the
          attribute-attribute propagation matrix.
        * ``rank("A-P-V")`` — path-visibility ranking: the path's
          *target* type (venue) ranked by total incoming path instances
          (``method="path"``).

        The whole operation runs under the engine's read lock, so the
        scores, the node names, and the stamped ``network_version``
        always describe one update epoch even while ``hin.apply()``
        commits concurrently.
        """
        with self._engine.lock.read():
            return self._rank(
                target,
                by=by,
                path=path,
                attribute_path=attribute_path,
                method=method,
                **kwargs,
            )

    def _rank(
        self,
        target,
        *,
        by: str | None = None,
        path=None,
        attribute_path=None,
        method: str | None = None,
        **kwargs,
    ) -> RankingResult:
        """:meth:`rank` body (caller holds the engine read lock)."""
        is_path_spec = not isinstance(target, str) or "-" in target
        if is_path_spec:
            mp = self.path(target)
            m = self._engine.commuting_matrix(mp)
            scores = np.asarray(m.sum(axis=0)).ravel()
            total = scores.sum()
            if total > 0:
                scores = scores / total
            return RankingResult(
                self.hin.names(mp.target_type),
                scores,
                node_type=mp.target_type,
                method="path",
                network_version=self.epoch,
            )
        node_type = self.hin.schema.resolve_type(target)
        if by is None and path is None:
            if method not in (None, "degree") or attribute_path is not None or kwargs:
                raise ValueError(
                    "rank(type) alone is a degree ranking; pass by= or path= "
                    "to use method/attribute_path/ranking options"
                )
            degrees = self.hin.degree(node_type)
            total = degrees.sum()
            if total > 0:
                degrees = degrees / total
            return RankingResult(
                self.hin.names(node_type),
                degrees,
                node_type=node_type,
                method="degree",
                network_version=self.epoch,
            )
        from repro.ranking.authority import _rank_bi_type

        attribute_type = (
            self.hin.schema.resolve_type(by)
            if by is not None
            else self.path(path).target_type
        )
        if path is None and not self.hin.schema.relations_between(
            node_type, attribute_type
        ):
            # No direct relation: walk the schema graph for the shortest
            # connecting meta-path (venue-by-author on a star schema is
            # venue-paper-author) instead of failing like the old API.
            path = self._shortest_type_path(node_type, attribute_type)
        method = method or "authority"
        ranking = _rank_bi_type(
            self.hin,
            node_type,
            attribute_type,
            target_attribute_path=path,
            attribute_attribute_path=attribute_path,
            method=method,
            **kwargs,
        )
        result = RankingResult(
            self.hin.names(node_type),
            ranking.target_scores,
            node_type=node_type,
            method=method,
            network_version=self.epoch,
        )
        return result

    def _shortest_type_path(self, source: str, target: str) -> list[str]:
        """Shortest type sequence joining *source* and *target* in the
        schema graph (BFS, deterministic tie-break by declaration order)."""
        schema = self.hin.schema
        previous: dict[str, str] = {source: source}
        frontier = [source]
        while frontier and target not in previous:
            nxt: list[str] = []
            for t in frontier:
                for neighbor in schema.neighbors_of_type(t):
                    if neighbor not in previous:
                        previous[neighbor] = t
                        nxt.append(neighbor)
            frontier = nxt
        if target not in previous:
            raise SchemaError(
                f"no meta-path connects {source!r} and {target!r} in the schema"
            )
        out = [target]
        while out[-1] != source:
            out.append(previous[out[-1]])
        return out[::-1]

    # ------------------------------------------------------------------
    # Clustering queries
    # ------------------------------------------------------------------
    def cluster(self, algo: str = "netclus", **kwargs) -> ClusteringResult:
        """Run a clustering miner and return its typed partition.

        ``algo`` selects the miner; every miner executes against this
        session's network (and shared engine where it consumes
        meta-path products):

        * ``"netclus"`` — star-schema net-clusters.  ``n_clusters``
          required; ``center_type`` optional.
        * ``"rankclus"`` — bi-typed rank-while-clustering.
          ``n_clusters``, ``target_type``, ``attribute_type`` required;
          optional ``target_attribute_path`` / ``attribute_attribute_path``.
        * ``"scan"`` — structural clustering of the homogeneous
          projection along required ``path`` (round-trip); optional
          ``eps``, ``mu``.  Hubs are labeled ``-2``, outliers ``-1``.
        * ``"linkclus"`` — SimTree co-clustering of one relation: pass
          ``relation`` (name) or ``path``; ``n_clusters`` required.
        * ``"crossclus"`` — user-guided multi-relational clustering:
          pass ``db``, ``target_table``, ``n_clusters``, ``guidance``
          (operates on the relational database the HIN came from).
        """
        dispatch = {
            "netclus": self._cluster_netclus,
            "rankclus": self._cluster_rankclus,
            "scan": self._cluster_scan,
            "linkclus": self._cluster_linkclus,
            "crossclus": self._cluster_crossclus,
        }
        if algo not in dispatch:
            raise ValueError(
                f"unknown clustering algorithm {algo!r} "
                f"(choose from {sorted(dispatch)})"
            )
        result = dispatch[algo](**kwargs)
        result.network_version = self.epoch
        return result

    def _cluster_netclus(self, n_clusters: int, *, center_type=None, **kwargs):
        from repro.core.netclus import NetClus

        model = NetClus(n_clusters, **kwargs).fit(self.hin, center_type=center_type)
        return model.result()

    def _cluster_rankclus(
        self,
        n_clusters: int,
        *,
        target_type: str,
        attribute_type: str,
        target_attribute_path=None,
        attribute_attribute_path=None,
        **kwargs,
    ):
        from repro.core.rankclus import RankClus

        model = RankClus(n_clusters, **kwargs).fit(
            self.hin,
            target_type=self.hin.schema.resolve_type(target_type),
            attribute_type=self.hin.schema.resolve_type(attribute_type),
            target_attribute_path=target_attribute_path,
            attribute_attribute_path=attribute_attribute_path,
        )
        return model.result()

    def _cluster_scan(self, *, path, eps: float = 0.7, mu: int = 2):
        from repro.clustering.scan import scan

        mp = self.path(path)
        graph = self.hin.homogeneous_projection(mp)
        res = scan(graph, eps=eps, mu=mu)
        return ClusteringResult(
            res.labels,
            n_clusters=res.n_clusters,
            names=self.hin.names(mp.source_type),
            node_type=mp.source_type,
            algorithm="scan",
            extras={
                "hubs": res.hubs.tolist(),
                "outliers": res.outliers.tolist(),
                "path": str(mp),
            },
        )

    def _cluster_linkclus(
        self, n_clusters: int, *, relation=None, path=None, **kwargs
    ):
        from repro.clustering.linkclus import LinkClus

        if (relation is None) == (path is None):
            raise ValueError("pass exactly one of relation= or path=")
        if relation is not None:
            rel = self.hin.schema.relation(relation)
            matrix = self.hin.relation_matrix(rel.name)
            source_type, target_type = rel.source, rel.target
        else:
            mp = self.path(path)
            matrix = self._engine.commuting_matrix(mp)
            source_type, target_type = mp.source_type, mp.target_type
        model = LinkClus(n_clusters, **kwargs).fit(matrix)
        result = model.result()
        result.names = self.hin.names(source_type)
        result.node_type = source_type
        result.extras["target_type"] = target_type
        return result

    def _cluster_crossclus(
        self, n_clusters: int, *, db, target_table: str, guidance, **kwargs
    ):
        from repro.clustering.crossclus import CrossClus

        model = CrossClus(
            db, target_table, n_clusters, guidance=guidance, **kwargs
        ).fit()
        return model.result()

    # ------------------------------------------------------------------
    # Classification queries
    # ------------------------------------------------------------------
    def classify(self, seeds: dict, **kwargs) -> ClassificationResult:
        """Transductively classify every node type from *seeds*
        (GNetMine's typed propagation).

        ``seeds`` maps type name to ``(labels, mask)``; hyper-parameters
        (``alpha``, ``relation_weights``, ...) pass through to
        :class:`~repro.classification.GNetMine`.
        """
        from repro.classification.gnetmine import GNetMine

        model = GNetMine(**kwargs).fit(self.hin, seeds)
        result = model.result()
        result.network_version = self.epoch
        return result

    # ------------------------------------------------------------------
    # OLAP queries
    # ------------------------------------------------------------------
    def olap(self, dimensions, *, center_type: str | None = None):
        """Build an information-network cube over the session's HIN.

        ``dimensions`` is either a list of
        :class:`~repro.olap.Dimension` objects or a mapping
        ``{name: values}`` / ``{name: (values, hierarchies)}``; the
        returned :class:`~repro.olap.InfoNetCube` *is* the typed result
        — its cells and cube algebra are the query surface.
        """
        from repro.olap.cube import Dimension, InfoNetCube

        if center_type is None:
            center_type = self.hin.schema.center_type()
        else:
            center_type = self.hin.schema.resolve_type(center_type)
        dims = []
        if hasattr(dimensions, "items"):
            for name, spec in dimensions.items():
                if isinstance(spec, Dimension):
                    dims.append(spec)
                elif (
                    isinstance(spec, tuple)
                    and len(spec) == 2
                    and hasattr(spec[1], "items")
                ):
                    dims.append(Dimension(name, spec[0], hierarchies=spec[1]))
                else:
                    dims.append(Dimension(name, spec))
        else:
            for spec in dimensions:
                if not isinstance(spec, Dimension):
                    raise SchemaError(
                        "olap() takes Dimension objects or a {name: values} mapping"
                    )
                dims.append(spec)
        return InfoNetCube(self.hin, center_type, dims)

    def __repr__(self) -> str:
        info = self._engine.cache_info()
        return (
            f"QuerySession({self.hin!r}, cached={info.currsize}, "
            f"hit_rate={info.hit_rate:.2f})"
        )


def connect(hin, **kwargs) -> QuerySession:
    """Open a query session on *hin*.

    Without keyword arguments this is the network's shared session
    (same object every call — one cache for all callers); keywords
    (e.g. ``engine=``) construct a fresh, unattached session.
    """
    return hin.query(**kwargs)
