"""Homogeneous information network: a single-typed, optionally weighted graph.

This is the substrate for the tutorial's Section 2 material (measures,
PageRank/HITS, SimRank, spectral clustering, SCAN).  Nodes are dense integer
ids ``0..n-1`` with optional string names; the edge structure lives in a
``scipy.sparse`` CSR adjacency matrix so every algorithm downstream is a
sparse matrix computation.

Example
-------
>>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=False)
>>> g.n_nodes, g.n_edges
(4, 3)
>>> sorted(g.neighbors(1))
[0, 2]
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from numbers import Real

import numpy as np
import scipy.sparse as sp

from repro.exceptions import EdgeError, GraphError, NodeNotFoundError
from repro.utils.sparse import degree_vector, to_csr

__all__ = ["Graph"]

_FORMS = {(2, 3): "(u, v[, w])", (2,): "(u, v)", (3,): "(u, v, w)"}


def _check_weights(weights: np.ndarray, where: str = "the graph") -> None:
    """The one weight rule: every link weight is finite and ``>= 0``.

    Checked once over a whole array — a parsed weight column, or the
    ``data`` of a matrix handed to ``HIN(validate=True)`` / ``Graph``.
    What fractional weights mean downstream is the "Link weights"
    contract in ``docs/ARCHITECTURE.md``.
    """
    if weights.size and not 0 <= weights.min() <= weights.max() < np.inf:
        bad = weights[~((weights >= 0) & (weights < np.inf))][0]
        raise EdgeError(f"{where}: edge weights must be finite and >= 0, got {bad}")


def _check_bounds(rows: np.ndarray, cols: np.ndarray, shape, where: str) -> None:
    """Every ``(rows[i], cols[i])`` lies inside *shape*, or the first one
    that does not is :class:`EdgeError`."""
    n_src, n_dst = shape
    bad = (rows < 0) | (rows >= n_src) | (cols < 0) | (cols >= n_dst)
    if bad.any():
        i = int(bad.argmax())
        raise EdgeError(
            f"edge ({rows[i]}, {cols[i]}) out of range for {where} ({n_src}x{n_dst})"
        )


def _is_index(kind: type) -> bool:
    """Whether ``operator.index`` accepts instances of *kind* — bool
    excepted: ``(True, 0)`` is no edge."""
    return hasattr(kind, "__index__") and not issubclass(kind, bool)


def _parse_edges(edges, arities=(2, 3), *, shape=None, where="the graph"):
    """The one door every link enters by: edge tuples, or an integer
    ``(m x 2)`` array of ``(u, v)`` rows, to ``(rows, cols, weights)``
    arrays (int64, int64, float64).

    Each tuple must be one of *arities* — ``(u, v)``, ``(u, v, w)`` or
    either.  ``u`` and ``v`` must be integers (``operator.index``: a
    float, string or bool is refused, never rounded), ``w`` a real
    number, 1.0 when absent.  The weight column then passes
    :func:`_check_weights`, and the indices :func:`_check_bounds` when
    *shape* is given.  An array is the column form of ``(u, v)`` pairs:
    its dtype must be an integer one (not float, bool or object) and
    its shape ``(m, 2)``.  Anything else is :class:`EdgeError` naming
    *where*.

    Each check runs over a whole column (``map`` / ``set`` / ``zip``
    loop in C); only a failing check scans for the item to name.
    """
    if isinstance(edges, np.ndarray):
        if edges.dtype.kind not in "iu" or edges.shape[1:] != (2,) or 2 not in arities:
            raise EdgeError(
                f"{where}: an edge array must be (m x 2) integers, "
                f"got {edges.dtype} {edges.shape}"
            )
        rows, cols = np.array(edges.T, dtype=np.int64)
        if shape is not None:
            _check_bounds(rows, cols, shape, where)
        return rows, cols, np.ones(len(rows))
    items = list(edges)
    tuples = all(issubclass(kind, tuple) for kind in set(map(type, items)))
    lengths = set(map(len, items)) if tuples else {0}
    if not lengths <= set(arities):
        bad = next(i for i in items if not isinstance(i, tuple) or len(i) not in arities)
        raise EdgeError(f"{where}: edges must be {_FORMS[arities]}, got {bad!r}")
    if len(lengths) > 1:  # (u, v) beside (u, v, w): the weight defaults
        items = [i if len(i) == 3 else (*i, 1.0) for i in items]
    us, vs, *ws = zip(*items) if items else ((), ())
    ends = us + vs
    if not all(_is_index(kind) for kind in set(map(type, ends))):
        bad = next(x for x in ends if not _is_index(type(x)))
        raise EdgeError(f"{where}: edge index {bad!r} is not an integer")
    if ws and not all(issubclass(kind, Real) for kind in set(map(type, ws[0]))):
        bad = next(w for w in ws[0] if not isinstance(w, Real))
        raise EdgeError(f"{where}: edge weight {bad!r} is not a real number")
    try:
        ends = np.array(ends, dtype=np.int64)
        weights = np.array(ws[0], dtype=np.float64) if ws else np.ones(len(us))
    except OverflowError:
        raise EdgeError(f"{where}: an edge index or weight is out of range") from None
    rows, cols = ends[: len(us)], ends[len(us) :]
    _check_weights(weights, where)
    if shape is not None:
        _check_bounds(rows, cols, shape, where)
    return rows, cols, weights


class Graph:
    """A homogeneous graph backed by a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        Square matrix (dense or sparse); entry ``(i, j)`` is the weight of
        the edge ``i -> j``.  For undirected graphs the matrix must be
        symmetric (enforced at construction).
    directed:
        Whether edges are one-way.  Undirected graphs store both triangle
        halves so that row *i* always lists the full neighbourhood of *i*.
    node_names:
        Optional sequence of hashable names, one per node, enabling
        name-based lookup via :meth:`index_of` / :meth:`name_of`.

    Notes
    -----
    Self-loops are allowed (SCAN and SimRank ignore them internally).
    Negative, NaN and infinite edge weights are rejected: every algorithm
    in this library interprets weights as link strengths/counts.
    """

    def __init__(self, adjacency, *, directed: bool = False, node_names=None):
        adj = to_csr(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {adj.shape}")
        _check_weights(adj.data)
        if not directed:
            asym = (adj != adj.T).nnz
            if asym:
                raise GraphError(
                    f"undirected graph requires a symmetric adjacency matrix "
                    f"({asym} asymmetric entries); pass directed=True or "
                    f"symmetrize first"
                )
        adj.eliminate_zeros()
        adj.sort_indices()
        self._adj = adj
        self.directed = bool(directed)
        self._names: list | None = None
        self._name_index: dict | None = None
        if node_names is not None:
            names = list(node_names)
            if len(names) != adj.shape[0]:
                raise GraphError(
                    f"node_names has {len(names)} entries for {adj.shape[0]} nodes"
                )
            self._names = names
            self._name_index = {name: i for i, name in enumerate(names)}
            if len(self._name_index) != len(names):
                raise GraphError("node_names must be unique")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: Iterable[tuple],
        *,
        directed: bool = False,
        node_names=None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples.

        Duplicate edges accumulate their weights, matching how repeated
        co-occurrences (e.g. co-authorships) are counted in the DBLP case
        study.

        Raises
        ------
        repro.exceptions.EdgeError
            On any edge the edge door refuses: indices must be integers
            inside ``range(n_nodes)``, weights finite non-negative reals.
        """
        if n_nodes < 0:
            raise GraphError(f"n_nodes must be >= 0, got {n_nodes}")
        shape = (n_nodes, n_nodes)
        rows, cols, weights = _parse_edges(edges, shape=shape)
        if not directed:
            # Each edge followed by its mirror (none for a self-loop), so
            # duplicates sum in the same order in both triangle halves.
            keep = np.column_stack([np.ones(rows.size, dtype=bool), rows != cols])
            rows, cols = np.column_stack([rows, cols]), np.column_stack([cols, rows])
            rows, cols = rows[keep], cols[keep]
            weights = np.repeat(weights, 2)[keep.ravel()]
        adj = sp.coo_matrix((weights, (rows, cols)), shape=shape).tocsr()
        adj.sum_duplicates()
        return cls(adj, directed=directed, node_names=node_names)

    @classmethod
    def empty(cls, n_nodes: int, *, directed: bool = False, node_names=None) -> "Graph":
        """A graph with *n_nodes* nodes and no edges."""
        return cls(
            sp.csr_matrix((n_nodes, n_nodes)), directed=directed, node_names=node_names
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._adj.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of edges (each undirected edge counted once)."""
        nnz = self._adj.nnz
        if self.directed:
            return int(nnz)
        diag = int((self._adj.diagonal() != 0).sum())
        return (nnz - diag) // 2 + diag

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The CSR adjacency matrix (do not mutate in place)."""
        return self._adj

    @property
    def node_names(self) -> list | None:
        """Node names, or ``None`` when the graph is anonymous."""
        return None if self._names is None else list(self._names)

    def index_of(self, name) -> int:
        """Node index for *name* (requires the graph to have node names)."""
        if self._name_index is None:
            raise GraphError("graph has no node names")
        try:
            return self._name_index[name]
        except KeyError:
            raise NodeNotFoundError(f"no node named {name!r}") from None

    def name_of(self, index: int):
        """Name of node *index* (the index itself when anonymous)."""
        self._check_node(index)
        if self._names is None:
            return index
        return self._names[index]

    def _check_node(self, index: int) -> None:
        if not 0 <= index < self.n_nodes:
            raise NodeNotFoundError(
                f"node {index} out of range for graph with {self.n_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbour indices of *node* (all neighbours when undirected)."""
        self._check_node(node)
        row = self._adj.indices[self._adj.indptr[node] : self._adj.indptr[node + 1]]
        return row.copy()

    def degree(self, node: int | None = None, *, weighted: bool = False):
        """Out-degree of *node*, or the full degree vector when ``None``.

        For undirected graphs this is the ordinary degree.  ``weighted=True``
        sums edge weights instead of counting edges.
        """
        if weighted:
            degs = degree_vector(self._adj, axis=1)
        else:
            degs = np.diff(self._adj.indptr).astype(np.float64)
        if node is None:
            return degs
        self._check_node(node)
        return float(degs[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True when the edge ``u -> v`` exists."""
        self._check_node(u)
        self._check_node(v)
        return bool(self._adj[u, v] != 0)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v`` (0.0 when absent)."""
        self._check_node(u)
        self._check_node(v)
        return float(self._adj[u, v])

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Iterate ``(u, v, weight)``; undirected edges are yielded once (u <= v)."""
        coo = self._adj.tocoo()
        for u, v, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            if self.directed or u <= v:
                yield u, v, w

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Induced subgraph on *nodes*, renumbered ``0..len(nodes)-1``.

        Node order in *nodes* becomes the new node order, so callers can
        map results back via the same sequence.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.n_nodes):
            raise NodeNotFoundError("subgraph node list contains out-of-range ids")
        if len(np.unique(nodes)) != len(nodes):
            raise GraphError("subgraph node list contains duplicates")
        sub = self._adj[nodes][:, nodes]
        names = None if self._names is None else [self._names[i] for i in nodes]
        return Graph(sub, directed=self.directed, node_names=names)

    def to_undirected(self) -> "Graph":
        """Symmetrized copy (max of the two directions), undirected."""
        if not self.directed:
            return self
        sym = self._adj.maximum(self._adj.T)
        return Graph(sym, directed=False, node_names=self._names)

    def reverse(self) -> "Graph":
        """Graph with all edge directions flipped (no-op when undirected)."""
        if not self.directed:
            return self
        return Graph(self._adj.T.tocsr(), directed=True, node_names=self._names)

    def without_self_loops(self) -> "Graph":
        """Copy of the graph with the diagonal removed."""
        adj = self._adj.copy().tolil()
        adj.setdiag(0)
        return Graph(adj.tocsr(), directed=self.directed, node_names=self._names)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_nodes

    def __contains__(self, node) -> bool:
        if isinstance(node, (int, np.integer)):
            return 0 <= int(node) < self.n_nodes
        return self._name_index is not None and node in self._name_index

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._adj.shape == other._adj.shape
            and (self._adj != other._adj).nnz == 0
            and self._names == other._names
        )

    __hash__ = None  # mutable-ish container semantics
