"""Heterogeneous information network (HIN).

The central data structure of the library: multiple node types, each with
its own dense id space, connected by typed relations stored as sparse
biadjacency matrices.  This is the "database as an information network"
view of the tutorial — each relation matrix is exactly a (possibly
weighted) foreign-key link table.

Example
-------
>>> from repro.networks import NetworkSchema, HIN
>>> schema = NetworkSchema(
...     ["author", "paper", "venue"],
...     [("writes", "author", "paper"), ("published_in", "paper", "venue")],
... )
>>> hin = HIN.from_edges(
...     schema,
...     nodes={"author": ["ada", "bob"], "paper": 3, "venue": ["kdd"]},
...     edges={
...         "writes": [(0, 0), (0, 1), (1, 2)],
...         "published_in": [(0, 0), (1, 0), (2, 0)],
...     },
... )
>>> hin.node_count("paper")
3
>>> hin.commuting_matrix("author-paper-venue").toarray()
array([[2.],
       [1.]])
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import (
    GraphError,
    NodeNotFoundError,
    RelationNotFoundError,
    SchemaError,
    TypeNotFoundError,
    UpdateError,
)
from repro.networks.graph import Graph, _check_weights, _parse_edges
from repro.networks.schema import MetaPath, NetworkSchema, Relation
from repro.networks.updates import (
    AppliedUpdate,
    Mutation,
    RelationDelta,
    UpdateBatch,
    pad_csr,
)
from repro.utils.sparse import add_delta, to_csr

__all__ = ["HIN"]


class HIN:
    """A heterogeneous information network over a :class:`NetworkSchema`.

    Parameters
    ----------
    schema:
        The type-level blueprint.  Every relation matrix added must match a
        schema relation.
    node_counts:
        Mapping from type name to node count.
    node_names:
        Optional mapping from type name to a sequence of unique names.
    relation_matrices:
        Mapping from relation name to a ``(n_source, n_target)`` matrix.
    validate:
        When ``True`` (the default) every matrix is converted to
        canonical float64 CSR (duplicates summed, zeros eliminated,
        indices sorted, negative, NaN and infinite weights rejected) —
        which copies or mutates the input arrays.  ``validate=False``
        is the *attach* path for matrices that are already canonical
        CSR and must be adopted **zero-copy** (read-only mappings of a
        generation's or a snapshot's image): the arrays are stored as handed in
        and never written to.  Shapes are still checked; content is
        trusted.

    Notes
    -----
    Relation matrices are stored oriented as declared in the schema
    (``source -> target``); traversing a relation backwards uses the
    transpose.  All matrices are CSR with float64 data.
    """

    def __init__(
        self,
        schema: NetworkSchema,
        node_counts: Mapping[str, int],
        relation_matrices: Mapping[str, object],
        *,
        node_names: Mapping[str, Sequence] | None = None,
        validate: bool = True,
    ):
        if not isinstance(schema, NetworkSchema):
            raise SchemaError(f"schema must be a NetworkSchema, got {type(schema).__name__}")
        self.schema = schema
        self._counts: dict[str, int] = {}
        for t in schema.node_types:
            if t not in node_counts:
                raise TypeNotFoundError(f"node_counts missing schema type {t!r}")
            count = int(node_counts[t])
            if count < 0:
                raise GraphError(f"node count for {t!r} must be >= 0, got {count}")
            self._counts[t] = count
        extra = set(node_counts) - set(schema.node_types)
        if extra:
            raise TypeNotFoundError(f"node_counts has types not in schema: {sorted(extra)}")

        self._names: dict[str, list] = {}
        self._name_index: dict[str, dict] = {}
        if node_names:
            for t, names in node_names.items():
                if t not in self._counts:
                    raise TypeNotFoundError(f"node_names has unknown type {t!r}")
                names = list(names)
                if len(names) != self._counts[t]:
                    raise GraphError(
                        f"node_names[{t!r}] has {len(names)} entries for "
                        f"{self._counts[t]} nodes"
                    )
                index = {name: i for i, name in enumerate(names)}
                if len(index) != len(names):
                    raise GraphError(f"node_names[{t!r}] must be unique")
                self._names[t] = names
                self._name_index[t] = index

        self._matrices: dict[str, sp.csr_matrix] = {}
        for name, matrix in relation_matrices.items():
            rel = schema.relation(name)  # raises RelationNotFoundError
            m = matrix if not validate else to_csr(matrix)
            expected = (self._counts[rel.source], self._counts[rel.target])
            if m.shape != expected:
                raise GraphError(
                    f"relation {name!r} matrix has shape {m.shape}, "
                    f"expected {expected} for {rel.source!r}x{rel.target!r}"
                )
            if validate:
                _check_weights(m.data, f"relation {name!r}")
                # These normalizations write the CSR arrays in place —
                # exactly what the validate=False attach path must never
                # do to a shared or read-only buffer.
                m.sum_duplicates()
                m.eliminate_zeros()
                m.sort_indices()
            self._matrices[name] = m
        for rel in schema.relations:
            if rel.name not in self._matrices:
                self._matrices[rel.name] = sp.csr_matrix(
                    (self._counts[rel.source], self._counts[rel.target])
                )
        self._transposes: dict[str, sp.csr_matrix] = {}
        self._engine = None
        self._query_session = None
        self._watch_manager = None
        self._version = 0
        # Guards lazy creation of the shared engine/session only; the
        # engine's own read-write lock covers queries vs. updates.
        # Reentrant: creating the shared session creates the shared
        # engine inside the same critical section.
        self._attach_lock = threading.RLock()
        # Serializes writers (apply) with each other across the whole
        # validate-build-commit sequence, so the build phase can run
        # outside the engine write lock without another writer moving
        # the network underneath it.
        self._update_mutex = threading.Lock()
        # Post-commit hooks (see add_commit_hook): called by apply()
        # after the commit, outside the engine write lock but still
        # inside the update mutex, so a hook observes exactly the
        # committed epoch and no later one.
        self._commit_hooks: list = []

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        schema: NetworkSchema,
        *,
        nodes: Mapping[str, object],
        edges: Mapping[str, Iterable[tuple]],
    ) -> "HIN":
        """Build a HIN from per-type node specs and per-relation edge lists.

        ``nodes[t]`` is either an integer count or a sequence of names.
        ``edges[rel]`` yields ``(src, dst)`` or ``(src, dst, weight)``
        tuples of integer indices, or is one integer ``(m x 2)`` array of
        ``(src, dst)`` rows; duplicates accumulate.

        Raises
        ------
        repro.exceptions.EdgeError
            On any edge the edge door refuses: indices must be integers
            inside the relation's shape, weights finite non-negative
            reals.
        """
        counts: dict[str, int] = {}
        names: dict[str, Sequence] = {}
        for t, spec in nodes.items():
            if isinstance(spec, (int, np.integer)):
                counts[t] = int(spec)
            else:
                seq = list(spec)
                counts[t] = len(seq)
                names[t] = seq
        matrices: dict[str, sp.csr_matrix] = {}
        for rel_name, edge_iter in edges.items():
            rel = schema.relation(rel_name)
            n_src = counts.get(rel.source)
            n_dst = counts.get(rel.target)
            if n_src is None or n_dst is None:
                raise TypeNotFoundError(
                    f"edges for {rel_name!r} reference types missing from nodes"
                )
            shape = (n_src, n_dst)
            rows, cols, weights = _parse_edges(
                edge_iter, shape=shape, where=f"relation {rel_name!r}"
            )
            m = sp.coo_matrix((weights, (rows, cols)), shape=shape).tocsr()
            m.sum_duplicates()
            matrices[rel_name] = m
        return cls(schema, counts, matrices, node_names=names or None)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def node_types(self) -> list[str]:
        return self.schema.node_types

    def node_count(self, node_type: str) -> int:
        """Number of nodes of *node_type*."""
        try:
            return self._counts[node_type]
        except KeyError:
            raise TypeNotFoundError(f"unknown node type {node_type!r}") from None

    @property
    def total_nodes(self) -> int:
        """Total node count across all types."""
        return sum(self._counts.values())

    @property
    def total_links(self) -> int:
        """Total number of stored links across all relations."""
        return int(sum(m.nnz for m in self._matrices.values()))

    @property
    def version(self) -> int:
        """Update epoch: 0 at construction, +1 per applied batch.

        Caches keyed off this network (the engine's commuting matrices,
        the session's fitted indexes, typed results' ``network_version``)
        use the epoch to tell which state of the network they describe.
        """
        return self._version

    def names(self, node_type: str) -> list | None:
        """Node names for *node_type* (``None`` when anonymous)."""
        self.node_count(node_type)  # validates the type
        names = self._names.get(node_type)
        return None if names is None else list(names)

    def name_of(self, node_type: str, index: int):
        """Name of node *index* of *node_type* (the index when anonymous)."""
        n = self.node_count(node_type)
        if not 0 <= index < n:
            raise NodeNotFoundError(
                f"{node_type!r} index {index} out of range (n={n})"
            )
        names = self._names.get(node_type)
        return index if names is None else names[index]

    def index_of(self, node_type: str, name) -> int:
        """Index of the node named *name* within *node_type*."""
        self.node_count(node_type)
        index = self._name_index.get(node_type)
        if index is None:
            raise GraphError(f"type {node_type!r} has no node names")
        try:
            return index[name]
        except KeyError:
            raise NodeNotFoundError(f"no {node_type!r} named {name!r}") from None

    def relation_matrix(self, relation: str | Relation) -> sp.csr_matrix:
        """Biadjacency matrix of *relation*, oriented source -> target."""
        name = relation.name if isinstance(relation, Relation) else relation
        try:
            return self._matrices[name]
        except KeyError:
            raise RelationNotFoundError(f"no relation named {name!r}") from None

    def oriented_matrix(self, relation: str | Relation, forward: bool = True) -> sp.csr_matrix:
        """Relation matrix oriented along the traversal direction.

        ``forward=True`` is the declared ``source -> target`` orientation;
        ``forward=False`` returns the transpose, converted to CSR once and
        cached — meta-path products traverse relations backwards
        constantly, and re-transposing per query is pure waste.
        """
        name = relation.name if isinstance(relation, Relation) else relation
        m = self.relation_matrix(name)
        if forward:
            return m
        cached = self._transposes.get(name)
        if cached is None:
            cached = m.T.tocsr()
            self._transposes[name] = cached
        return cached

    def matrix_between(self, source: str, target: str) -> sp.csr_matrix:
        """Matrix of the unique relation joining *source* and *target*,
        oriented ``source -> target`` (transposed if declared the other way).

        Raises when zero or multiple relations join the pair.
        """
        rels = self.schema.relations_between(source, target)
        if not rels:
            raise RelationNotFoundError(f"no relation joins {source!r} and {target!r}")
        if len(rels) > 1:
            raise SchemaError(
                f"{len(rels)} relations join {source!r} and {target!r}; "
                f"use relation_matrix() with an explicit name"
            )
        rel = rels[0]
        return self.oriented_matrix(rel, rel.source == source)

    # ------------------------------------------------------------------
    # Meta-path machinery
    # ------------------------------------------------------------------
    def meta_path(self, spec) -> MetaPath:
        """Resolve *spec* (string / list of types / MetaPath) against the schema."""
        return self.schema.meta_path(spec)

    def step_matrices(self, path) -> list[sp.csr_matrix]:
        """The oriented relation matrices of *path*'s steps, in order.

        Each matrix maps the step's from-type to its to-type; their product
        is the commuting matrix.  Backward traversals come from the
        transpose cache (:meth:`oriented_matrix`).
        """
        mp = self.meta_path(path)
        return [self.oriented_matrix(rel, forward) for rel, forward in mp.steps()]

    def commuting_matrix(self, path) -> sp.csr_matrix:
        """The commuting matrix ``M_P`` of meta-path *path*.

        ``M_P[i, j]`` counts the path instances from node *i* of the source
        type to node *j* of the target type — the quantity at the heart of
        PathSim and of meta-path-based features.

        This computes the product fresh on every call; query-serving code
        should go through :meth:`engine`, which memoizes the products (and
        their shared prefixes) in an LRU-bounded cache.
        """
        product: sp.csr_matrix | None = None
        for step in self.step_matrices(path):
            product = step if product is None else product.dot(step)
        return product.tocsr()

    def engine(self, **kwargs):
        """The :class:`~repro.engine.MetaPathEngine` attached to this network.

        Created on first use and memoized, so every caller — PathSim,
        RankClus, NetClus, OLAP — shares one commuting-matrix cache.
        Keyword arguments (e.g. ``max_cached_matrices``) construct a fresh,
        unattached engine instead of the shared one.
        """
        from repro.engine import MetaPathEngine

        if kwargs:
            return MetaPathEngine(self, **kwargs)
        if self._engine is None:
            with self._attach_lock:
                if self._engine is None:
                    self._engine = MetaPathEngine(self)
        return self._engine

    def query(self, **kwargs):
        """The :class:`~repro.query.QuerySession` facade on this network.

        The declarative query surface — ``.rank()``, ``.similar()``,
        ``.cluster()``, ``.classify()``, ``.olap()`` — backed by the
        shared :meth:`engine` cache.  Created on first use and memoized;
        keyword arguments (e.g. ``engine=``) construct a fresh,
        unattached session instead.
        """
        from repro.query import QuerySession

        if kwargs:
            return QuerySession(self, **kwargs)
        if self._query_session is None:
            with self._attach_lock:
                if self._query_session is None:
                    self._query_session = QuerySession(self)
        return self._query_session

    def watches(self):
        """The :class:`~repro.watch.WatchManager` attached to this network.

        The standing-query registry plus its incremental result
        maintainer.  Created on first use and memoized — the first call
        registers one commit hook, so networks that never watch pay
        nothing per update.  See ``docs/GUIDE.md`` → "Standing queries".
        """
        from repro.watch import WatchManager

        if self._watch_manager is None:
            with self._attach_lock:
                if self._watch_manager is None:
                    self._watch_manager = WatchManager(self)
        return self._watch_manager

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def add_commit_hook(self, hook):
        """Register *hook* to run after every committed update batch.

        The serving layer's publish path: a multi-process cluster
        (:class:`~repro.serving.ClusterService`) registers a hook that
        exports the post-commit matrices and warm cache into a new
        generation, so worker processes can swap to the
        new epoch atomically.

        Parameters
        ----------
        hook:
            Callable receiving the :class:`~repro.networks.updates.AppliedUpdate`
            receipt.  It runs on the writer's thread *after* the commit
            released the engine write lock (queries are already flowing
            against the new epoch) but still inside the update mutex, so
            no later update can land while the hook observes the network
            — relation matrices are immutable values, making the
            captured state a consistent snapshot of exactly the
            committed epoch.  Hooks are *isolated* from one another: a
            raising hook never skips the hooks registered after it.
            All hooks run; the first exception is then re-raised to the
            ``hin.apply()`` caller (later ones attached via
            ``__notes__``), and the update itself stays committed.

        Returns
        -------
        The *hook* itself, so the call can be used expression-style.
        """
        self._commit_hooks.append(hook)
        return hook

    def remove_commit_hook(self, hook) -> None:
        """Unregister a hook added with :meth:`add_commit_hook` (no-op
        when it was never registered)."""
        try:
            self._commit_hooks.remove(hook)
        except ValueError:
            pass

    def mutate(self) -> Mutation:
        """Open a :class:`~repro.networks.updates.Mutation` builder on this
        network.

        Collect node additions / edge inserts / deletes / weight upserts,
        then ``commit()`` (or leave a ``with`` block) to apply them
        atomically through :meth:`apply`:

        >>> schema = NetworkSchema(["a", "b"], [("r", "a", "b")])
        >>> hin = HIN.from_edges(
        ...     schema, nodes={"a": 2, "b": 2}, edges={"r": [(0, 0)]}
        ... )
        >>> with hin.mutate() as m:
        ...     _ = m.add_nodes("b", 1).add_edges("r", [(1, 2)])
        >>> hin.node_count("b"), hin.total_links, hin.version
        (3, 2, 1)
        """
        return Mutation(self)

    def apply(self, batch: UpdateBatch) -> AppliedUpdate:
        """Apply *batch* atomically and return the update receipt.

        Node additions take effect first; each relation's edge ops replay
        in issue order (insert accumulates, delete zeroes, upsert sets).
        Everything validates before anything commits, so a raising batch
        leaves the network untouched.  On success the network's
        :attr:`version` advances and the receipt — per-relation sparse
        deltas plus node growth — is handed to the attached engine, which
        maintains its cached commuting matrices incrementally
        (:meth:`repro.engine.MetaPathEngine.apply_update`) instead of
        recomputing them.

        Concurrency: writers serialize with each other on an update
        mutex across the whole step, but only the *commit* — the pointer
        swaps plus the engine's incremental cache maintenance — runs
        under the shared engine's *write* lock.  The read-only
        validate-and-build phase (delta construction, proportional to
        the touched relations) overlaps freely with concurrent queries,
        keeping the exclusive window as short as possible.  In-flight
        queries finish against the pre-update epoch; queries submitted
        during the commit see the post-update epoch.  See
        ``docs/ARCHITECTURE.md`` → "Serving & concurrency".
        """
        if not isinstance(batch, UpdateBatch):
            raise UpdateError(
                f"apply() takes an UpdateBatch, got {type(batch).__name__}"
            )
        # Always commit through the shared engine's write lock — created
        # here if nobody queried yet (cheap: empty cache).  Reading
        # self._engine directly instead would race with lazy creation: a
        # concurrent first query could attach an engine and read
        # mid-commit state without any lock excluding it.
        engine = self.engine()
        with self._update_mutex:
            # Build phase: reads only — matrices are immutable values
            # and no other writer can run (update mutex held), so this
            # overlaps safely with read-locked queries.
            plan = self._prepare(batch)
            with engine.lock.write():
                applied = self._commit(*plan)
            # Publish hooks run AFTER the write lock releases (queries
            # must not stall behind an expensive export) but inside the
            # update mutex (no later epoch can appear underneath them).
            # Hooks are isolated from one another: every hook runs even
            # when an earlier one raises — a broken publisher must not
            # starve the watch maintainer (or vice versa) of an epoch,
            # or their incremental state would silently go stale.
            errors: list[BaseException] = []
            for hook in list(self._commit_hooks):
                try:
                    hook(applied)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
            if errors:
                first = errors[0]
                for extra in errors[1:]:
                    note = f"additional commit hook failure: {extra!r}"
                    # Set directly: BaseException.add_note is 3.11+, and
                    # on 3.10 the later failures must not vanish.
                    first.__notes__ = [*getattr(first, "__notes__", ()), note]
                raise first
            return applied

    def _prepare(self, batch: UpdateBatch):
        """Validate *batch* and build its commit plan (read-only phase).

        The caller holds the update mutex (no concurrent writer) but NOT
        the engine write lock — queries keep flowing while deltas build.
        """
        # -- validate node growth ---------------------------------------
        growth: dict[str, tuple[int, int]] = {}
        new_counts = dict(self._counts)
        appended_names: dict[str, list] = {}
        for t, spec in batch.node_additions.items():
            n = self.node_count(t)  # validates the type
            if isinstance(spec, int):
                if t in self._names and spec:
                    raise UpdateError(
                        f"type {t!r} has node names; add_nodes() needs names, "
                        f"not a count"
                    )
                added = spec
            else:
                if t not in self._names:
                    raise UpdateError(
                        f"type {t!r} is anonymous; add_nodes() takes a count, "
                        f"not names"
                    )
                index = self._name_index[t]
                clash = {name for name in spec if name in index}
                if clash:
                    raise UpdateError(
                        f"new {t!r} names already exist: {sorted(clash)!r}"
                    )
                appended_names[t] = list(spec)
                added = len(spec)
            if added:
                growth[t] = (n, n + added)
                new_counts[t] = n + added
        # -- build per-relation deltas (nothing committed yet) ----------
        resized = frozenset(
            rel.name
            for rel in self.schema.relations
            if rel.source in growth or rel.target in growth
        )
        deltas: dict[str, RelationDelta] = {}
        transposes: dict[str, sp.csr_matrix] = {}
        for rel_name in batch.touched_relations:
            rel = self.schema.relation(rel_name)  # raises on unknown
            shape = (new_counts[rel.source], new_counts[rel.target])
            old = pad_csr(self._matrices[rel.name], shape)
            rows, cols, current, final = batch._final_values(rel_name, old)
            changed = final != current
            if not changed.any():
                continue
            delta = sp.coo_matrix(
                (final[changed] - current[changed], (rows[changed], cols[changed])),
                shape=shape,
            ).tocsr()
            # A cached transpose is maintained like the matrix itself —
            # old + delta on the delta's rows — and the pre-commit one
            # rides on the receipt, so neither the engine's backward
            # delta terms nor the first reader after the commit
            # transposes the whole relation again.  A resized relation
            # keeps the drop-and-rederive: its deltas are wide (ingest
            # chunks), and two generations of transposes alive at once
            # showed in peak RSS.
            old_t = None if rel_name in resized else self._transposes.get(rel_name)
            if old_t is not None:
                transposes[rel_name] = add_delta(old_t, delta.T.tocsr())
            deltas[rel_name] = RelationDelta(
                rel_name, old, add_delta(old, delta), delta, old_transposed=old_t
            )
        return new_counts, appended_names, growth, resized, deltas, transposes

    def _commit(
        self,
        new_counts: dict,
        appended_names: dict,
        growth: dict,
        resized: frozenset,
        deltas: dict,
        transposes: dict,
    ) -> AppliedUpdate:
        """Install a prepared update plan (caller holds the engine write
        lock, so no query observes a partial commit)."""
        self._counts = new_counts
        for t, names in appended_names.items():
            base = len(self._names[t])
            self._names[t].extend(names)
            for i, name in enumerate(names):
                self._name_index[t][name] = base + i
        for rel in self.schema.relations:
            if rel.name in deltas:
                self._matrices[rel.name] = deltas[rel.name].new
            elif rel.name in resized:
                self._matrices[rel.name] = pad_csr(
                    self._matrices[rel.name],
                    (new_counts[rel.source], new_counts[rel.target]),
                )
        for rel_name in set(deltas) | resized:
            # Anything without a prepared successor (never cached, merely
            # resized, or first cached by a reader during the build
            # phase) is dropped and re-derived lazily, as before.
            if rel_name in transposes:
                self._transposes[rel_name] = transposes[rel_name]
            else:
                self._transposes.pop(rel_name, None)
        self._version += 1
        applied = AppliedUpdate(
            epoch=self._version,
            deltas=deltas,
            node_growth=growth,
            resized=resized,
        )
        if self._engine is not None:
            self._engine.apply_update(applied)
        return applied

    def homogeneous_projection(self, path, *, remove_self_loops: bool = True) -> Graph:
        """Project the HIN onto a homogeneous graph along meta-path *path*.

        The path must start and end at the same type (e.g. ``A-P-A`` gives
        the co-author graph).  Edge weights are path-instance counts,
        symmetrized by averaging with the transpose so the result is a
        valid undirected graph even for asymmetric paths.
        """
        mp = self.meta_path(path)
        if mp.source_type != mp.target_type:
            raise SchemaError(
                f"projection requires a round-trip meta-path, got "
                f"{mp.source_type!r} -> {mp.target_type!r}"
            )
        m = self.commuting_matrix(mp)
        sym = (m + m.T) * 0.5
        if remove_self_loops:
            sym = sym.tolil()
            sym.setdiag(0)
            sym = sym.tocsr()
        sym.eliminate_zeros()
        names = self._names.get(mp.source_type)
        return Graph(sym, directed=False, node_names=names)

    # ------------------------------------------------------------------
    # Degrees and sub-networks
    # ------------------------------------------------------------------
    def degree(
        self, node_type: str, relation: str | None = None, *, weighted: bool = True
    ) -> np.ndarray:
        """Per-node degree of *node_type* nodes.

        When *relation* is given, only that relation counts; otherwise the
        degrees over all incident relations are summed.
        """
        n = self.node_count(node_type)
        total = np.zeros(n)
        rels = (
            [self.schema.relation(relation)]
            if relation is not None
            else [
                r
                for r in self.schema.relations
                if node_type in (r.source, r.target)
            ]
        )
        for rel in rels:
            m = self._matrices[rel.name]
            counted = m if weighted else (m != 0).astype(np.float64)
            if rel.source == node_type:
                total += np.asarray(counted.sum(axis=1)).ravel()
            if rel.target == node_type:
                total += np.asarray(counted.sum(axis=0)).ravel()
        return total

    def restrict(self, node_type: str, indices: Sequence[int]) -> "HIN":
        """Sub-network keeping only *indices* of *node_type* (other types whole).

        This is the operation RankClus/NetClus use to form per-cluster
        sub-networks: keep the target objects assigned to one cluster plus
        every object of the other types, dropping links to removed nodes.
        """
        n = self.node_count(node_type)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise NodeNotFoundError(f"restrict indices out of range for {node_type!r}")
        if len(np.unique(idx)) != len(idx):
            raise GraphError("restrict indices contain duplicates")
        counts = dict(self._counts)
        counts[node_type] = int(len(idx))
        matrices: dict[str, sp.csr_matrix] = {}
        for rel in self.schema.relations:
            m = self._matrices[rel.name]
            if rel.source == node_type:
                m = m[idx, :]
            if rel.target == node_type:
                m = m[:, idx]
            matrices[rel.name] = m.tocsr()
        names = {t: list(v) for t, v in self._names.items()}
        if node_type in names:
            names[node_type] = [names[node_type][i] for i in idx]
        return HIN(self.schema, counts, matrices, node_names=names or None)

    def subschema(self, node_types: Sequence[str]) -> "HIN":
        """Sub-network induced on a subset of node types.

        Keeps all nodes of the chosen types and every relation whose two
        endpoints are both kept; the schema shrinks accordingly.
        """
        kept = list(node_types)
        for t in kept:
            self.node_count(t)
        rels = [
            r
            for r in self.schema.relations
            if r.source in kept and r.target in kept
        ]
        schema = NetworkSchema(kept, rels)
        counts = {t: self._counts[t] for t in kept}
        matrices = {r.name: self._matrices[r.name] for r in rels}
        names = {t: self._names[t] for t in kept if t in self._names}
        return HIN(schema, counts, matrices, node_names=names or None)

    def __repr__(self) -> str:
        parts = ", ".join(f"{t}={self._counts[t]}" for t in self.schema.node_types)
        return f"HIN({parts}, links={self.total_links})"
