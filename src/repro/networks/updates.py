"""Typed, transactional updates for heterogeneous information networks.

A database worthy of the "information network" framing must accept the
same traffic a database does: new tuples arrive, links are retracted,
weights change — all while queries keep flowing.  This module is the
write path of that story:

* :class:`UpdateBatch` — a typed, validated description of one atomic
  change set: node additions, edge inserts, edge deletions, and weight
  upserts, per relation, applied in issue order.
* :class:`Mutation` — the builder :meth:`repro.networks.hin.HIN.mutate`
  returns; an :class:`UpdateBatch` bound to a network, committed
  explicitly or on ``with``-block exit.
* :class:`RelationDelta` / :class:`AppliedUpdate` — the *receipt* of an
  applied batch: for every changed relation, the old matrix (padded to
  the post-update shape), the new matrix, and their sparse difference
  ``ΔW = W_new - W_old``.  The engine consumes this receipt to maintain
  cached commuting matrices incrementally (delta products) instead of
  recomputing them from scratch — see
  :meth:`repro.engine.MetaPathEngine.apply_update`.

Example
-------
>>> from repro.networks import HIN, NetworkSchema, UpdateBatch
>>> schema = NetworkSchema(
...     ["author", "paper"], [("writes", "author", "paper")]
... )
>>> hin = HIN.from_edges(
...     schema, nodes={"author": 2, "paper": 2},
...     edges={"writes": [(0, 0), (1, 1)]},
... )
>>> batch = (
...     UpdateBatch()
...     .add_nodes("paper", 1)
...     .add_edges("writes", [(0, 2), (1, 2)])
...     .remove_edges("writes", [(1, 1)])
... )
>>> applied = hin.apply(batch)
>>> hin.node_count("paper"), hin.total_links, hin.version
(3, 3, 1)
>>> applied.deltas["writes"].delta.nnz
3
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, UpdateError
from repro.networks.graph import _check_bounds, _is_index, _parse_edges
from repro.utils.sparse import nonempty_rows

__all__ = [
    "UpdateBatch",
    "Mutation",
    "RelationDelta",
    "AppliedUpdate",
    "pad_csr",
]

def pad_csr(matrix: sp.csr_matrix, shape: tuple[int, int]) -> sp.csr_matrix:
    """*matrix* grown with zero rows/columns to *shape* (data shared, no copy).

    Growing a CSR matrix only extends ``indptr`` (rows) or re-declares the
    column bound, so the padded view shares ``data``/``indices`` with the
    original — callers must not mutate either in place.

    Parameters
    ----------
    matrix:
        The CSR matrix to grow.
    shape:
        Target ``(rows, cols)``; each dimension must be >= the current
        one.

    Raises
    ------
    repro.exceptions.GraphError
        When *shape* would shrink either dimension.
    """
    n_rows, n_cols = matrix.shape
    new_rows, new_cols = shape
    if new_rows < n_rows or new_cols < n_cols:
        raise GraphError(f"cannot pad {matrix.shape} down to {shape}")
    if (new_rows, new_cols) == (n_rows, n_cols):
        return matrix
    indptr = matrix.indptr
    if new_rows > n_rows:
        indptr = np.concatenate(
            [indptr, np.full(new_rows - n_rows, indptr[-1], dtype=indptr.dtype)]
        )
    out = sp.csr_matrix((matrix.data, matrix.indices, indptr), shape=shape)
    # Padding cannot unsort or duplicate an index; carrying the flag over
    # spares the next sparse add an O(nnz) re-check of the shared arrays.
    out.has_canonical_format = matrix.has_canonical_format
    return out


@dataclass(frozen=True)
class RelationDelta:
    """One relation's change under an applied batch.

    Attributes
    ----------
    relation:
        Relation name.
    old:
        The pre-update matrix, zero-padded to the post-update shape (so
        ``old``, ``new`` and ``delta`` are all conformable).
    new:
        The post-update matrix.
    delta:
        ``new - old`` as a sparse matrix; its support is exactly the set
        of cells the batch touched with a net effect.
    old_transposed:
        ``old.T`` as CSR when the network had the transpose cached at
        commit time and the relation kept its shape (the engine's
        backward traversals read it instead of transposing ``old``
        again); ``None`` otherwise, and for receipts built outside
        :meth:`HIN.apply`.
    """

    relation: str
    old: sp.csr_matrix
    new: sp.csr_matrix
    delta: sp.csr_matrix
    old_transposed: sp.csr_matrix | None = None

    @property
    def touched_sources(self) -> np.ndarray:
        """Sorted unique row indices the delta touches (source-type side)."""
        return nonempty_rows(self.delta).astype(np.int64, copy=False)

    @property
    def touched_targets(self) -> np.ndarray:
        """Sorted unique column indices the delta touches (target-type side)."""
        return np.unique(self.delta.indices).astype(np.int64, copy=False)

    @property
    def density_vs_rebuild(self) -> float:
        """``delta.nnz / new.nnz`` — the engine's cheap proxy for whether a
        delta product still beats re-materializing from the new matrix."""
        return self.delta.nnz / max(self.new.nnz, 1)


@dataclass(frozen=True)
class AppliedUpdate:
    """The receipt :meth:`HIN.apply` returns (and hands to the engine).

    Attributes
    ----------
    epoch:
        The network version *after* this update (``hin.version``).
    deltas:
        ``{relation: RelationDelta}`` for relations with a net value change.
    node_growth:
        ``{type: (old_count, new_count)}`` for types that gained nodes.
    resized:
        Names of relations whose matrix shape changed (an endpoint type
        grew) — including ones whose values did not.
    """

    epoch: int
    deltas: Mapping[str, RelationDelta] = field(default_factory=dict)
    node_growth: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    resized: frozenset = frozenset()

    @property
    def n_changed_links(self) -> int:
        """Total touched cells across all relation deltas."""
        return int(sum(d.delta.nnz for d in self.deltas.values()))

    def __repr__(self) -> str:
        return (
            f"AppliedUpdate(epoch={self.epoch}, "
            f"relations={sorted(self.deltas)}, "
            f"changed_links={self.n_changed_links}, "
            f"grown={dict(self.node_growth)!r})"
        )


class UpdateBatch:
    """A typed change set to apply atomically with :meth:`HIN.apply`.

    Builder methods chain and validate eagerly where they can (shapes and
    index bounds are only checkable against a network, so those checks
    happen at apply time).  Within a batch, node additions take effect
    first — edge ops may therefore reference indices of nodes the same
    batch adds — and each relation's ops replay in issue order, so
    ``remove_edges`` then ``add_edges`` on the same cell re-creates it.
    """

    def __init__(self):
        self._node_adds: dict[str, list | int] = {}
        # Per relation, one ``(sets, rows, cols, weights)`` chunk of
        # columns per builder call, as the edge door returned them:
        # ``sets`` marks a delete/upsert (the cell becomes the weight, 0
        # for a delete), otherwise an insert (the weight adds).
        self._ops: dict[str, list[tuple[np.ndarray, ...]]] = {}

    # ------------------------------------------------------------------
    # Builder surface
    # ------------------------------------------------------------------
    def add_nodes(self, node_type: str, nodes) -> "UpdateBatch":
        """Append nodes to *node_type* (chainable).

        Parameters
        ----------
        node_type:
            The type to grow (validated against the network at apply
            time).
        nodes:
            An integer count (anonymous types) or a sequence of new,
            unique names (named types) — the count/names distinction is
            enforced at apply time against the network.

        Raises
        ------
        repro.exceptions.UpdateError
            On a negative count, duplicate names, a second ``add_nodes``
            for the same type within this batch, or *nodes* that is
            neither an integer count nor an iterable of names — a
            ``str``/``bytes`` is one name, not its characters, and a
            ``bool`` or ``float`` is no count.
        """
        if node_type in self._node_adds:
            raise UpdateError(f"batch already adds nodes to {node_type!r}")
        is_count = _is_index(type(nodes))
        if isinstance(nodes, (str, bytes)) or not (is_count or isinstance(nodes, Iterable)):
            raise UpdateError(f"add_nodes takes a count or names, not {type(nodes).__name__}")
        if is_count:
            count = int(nodes)
            if count < 0:
                raise UpdateError(f"node count must be >= 0, got {count}")
            self._node_adds[node_type] = count
        else:
            names = list(nodes)
            if len(set(names)) != len(names):
                raise UpdateError(f"new {node_type!r} names must be unique")
            self._node_adds[node_type] = names
        return self

    def add_edges(self, relation: str, edges: Iterable[tuple]) -> "UpdateBatch":
        """Insert edges into *relation* (chainable).

        Parameters
        ----------
        relation:
            Relation name (validated against the schema at apply time).
        edges:
            ``(src, dst)`` or ``(src, dst, weight)`` tuples of integer
            indices, or one integer ``(m x 2)`` array of ``(src, dst)``
            rows; weight defaults to 1.0, and inserting onto an
            existing cell accumulates, like construction.

        Raises
        ------
        repro.exceptions.EdgeError
            On any tuple or array the edge door refuses: indices must be
            integers, weights finite non-negative reals (index bounds are
            checked at apply time).  A refused call records nothing.
        """
        return self._record(False, relation, edges, (2, 3))

    def remove_edges(self, relation: str, pairs: Iterable[tuple]) -> "UpdateBatch":
        """Delete cells from *relation* (chainable).

        Parameters
        ----------
        relation:
            Relation name (validated at apply time).
        pairs:
            ``(src, dst)`` index pairs whose weight is zeroed; deleting
            an absent cell is a no-op, like SQL ``DELETE``.

        Raises
        ------
        repro.exceptions.EdgeError
            On anything but a pair of integer indices (bounds are checked
            at apply time).  A refused call records nothing.
        """
        return self._record(True, relation, pairs, (2,))

    def set_weights(self, relation: str, entries: Iterable[tuple]) -> "UpdateBatch":
        """Upsert cell weights in *relation* (chainable).

        Parameters
        ----------
        relation:
            Relation name (validated at apply time).
        entries:
            ``(src, dst, weight)`` triples; each cell is set to exactly
            *weight*, creating absent cells, and a weight of 0 removes
            the cell.

        Raises
        ------
        repro.exceptions.EdgeError
            On any triple the edge door refuses: indices must be
            integers, weights finite non-negative reals (bounds are
            checked at apply time).  A refused call records nothing.
        """
        return self._record(True, relation, entries, (3,))

    def _record(self, sets: bool, relation: str, edges, arities) -> "UpdateBatch":
        """Parse *edges* through the edge door, then append the columns to
        *relation*'s ops as one chunk (a delete's pairs set weight 0)."""
        rows, cols, weights = _parse_edges(edges, arities, where=f"relation {relation!r}")
        if arities == (2,):  # a delete sets the cell to 0
            weights = np.zeros(len(rows))
        chunk = (np.full(len(rows), sets), rows, cols, weights)
        self._ops.setdefault(relation, []).append(chunk)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_additions(self) -> dict:
        """``{type: count or name list}`` of pending node additions."""
        return dict(self._node_adds)

    @property
    def touched_relations(self) -> list[str]:
        """Relations with pending edge ops, in first-touch order."""
        return list(self._ops)

    def __len__(self) -> int:
        """Number of pending operations (node additions count as one each)."""
        return len(self._node_adds) + sum(len(c[1]) for cs in self._ops.values() for c in cs)

    def __repr__(self) -> str:
        ops = {r: sum(len(c[1]) for c in chunks) for r, chunks in self._ops.items()}
        return f"UpdateBatch(node_adds={self._node_adds!r}, edge_ops={ops!r})"

    # ------------------------------------------------------------------
    # Application (driven by HIN.apply)
    # ------------------------------------------------------------------
    def _final_values(
        self, relation: str, old: sp.csr_matrix
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Replay *relation*'s ops over *old* (already padded): the touched
        cells, in first-touch order, as ``(rows, cols, current_values,
        final_values)`` arrays.

        The last delete or upsert of a cell sets it; the inserts issued
        after that (all of them, for a cell never set) add to it in issue
        order — ``np.add.at`` is unbuffered and sequential, so a float
        sum is bit-equal to adding one edge at a time.
        """
        chunks = self._ops[relation]
        sets, u, v, w = (np.concatenate([c[i] for c in chunks]) for i in range(4))
        if not len(u):
            return u, v, w, w
        _check_bounds(u, v, old.shape, f"relation {relation!r}")
        # Cells numbered in first-touch order: unique keys re-ranked by
        # the position of their first op.
        _, first, inverse = np.unique(u * old.shape[1] + v, return_index=True, return_inverse=True)
        touch = np.argsort(first)
        cell = np.argsort(touch)[inverse]
        rows, cols = u[first[touch]], v[first[touch]]
        current = np.asarray(old[rows, cols]).ravel().astype(np.float64)
        final = current.copy()
        last_set = np.full(len(rows), -1)
        np.maximum.at(last_set, cell[sets], np.flatnonzero(sets))
        final[last_set >= 0] = w[last_set[last_set >= 0]]
        adds = ~sets & (np.arange(len(u)) > last_set[cell])
        np.add.at(final, cell[adds], w[adds])
        return rows, cols, current, final


class Mutation(UpdateBatch):
    """An :class:`UpdateBatch` bound to one network — what
    :meth:`repro.networks.hin.HIN.mutate` returns.

    Use as a context manager (committing on clean exit) or call
    :meth:`commit` explicitly; either way the batch applies atomically
    through :meth:`HIN.apply` exactly once.

    >>> with hin.mutate() as m:                              # doctest: +SKIP
    ...     m.add_nodes("author", ["newcomer"])
    ...     m.add_edges("writes", [(new_author, paper)])
    >>> m.applied.epoch == hin.version                       # doctest: +SKIP
    True
    """

    def __init__(self, hin):
        super().__init__()
        self._hin = hin
        self.applied: AppliedUpdate | None = None

    def commit(self) -> AppliedUpdate:
        """Apply the collected operations to the bound network (once).

        Returns
        -------
        The :class:`AppliedUpdate` receipt (also kept as ``.applied``).

        Raises
        ------
        repro.exceptions.UpdateError
            When the mutation was already committed; plus anything
            :meth:`repro.networks.hin.HIN.apply` raises for an invalid
            batch (in which case the network is untouched and the
            mutation stays uncommitted).
        """
        if self.applied is not None:
            raise UpdateError("mutation already committed")
        self.applied = self._hin.apply(self)
        return self.applied

    def __enter__(self) -> "Mutation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.applied is None and self:
            self.commit()
