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

import numpy as np
import scipy.sparse as sp

from repro.exceptions import EdgeError, GraphError, NodeNotFoundError
from repro.utils.sparse import degree_vector, to_csr

__all__ = ["Graph"]


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
        if adj.nnz and not 0 <= adj.data.min() <= adj.data.max() < np.inf:
            raise EdgeError("edge weights must be finite and non-negative")
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
        dtype=np.float64,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples.

        Duplicate edges accumulate their weights, matching how repeated
        co-occurrences (e.g. co-authorships) are counted in the DBLP case
        study.
        """
        if n_nodes < 0:
            raise GraphError(f"n_nodes must be >= 0, got {n_nodes}")
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            elif len(edge) == 3:
                u, v, w = edge
            else:
                raise EdgeError(f"edges must be (u, v) or (u, v, w), got {edge!r}")
            u, v = int(u), int(v)
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise EdgeError(
                    f"edge ({u}, {v}) out of range for {n_nodes} nodes"
                )
            if w < 0:
                raise EdgeError(f"edge ({u}, {v}) has negative weight {w}")
            rows.append(u)
            cols.append(v)
            vals.append(float(w))
            if not directed and u != v:
                rows.append(v)
                cols.append(u)
                vals.append(float(w))
        adj = sp.coo_matrix(
            (vals, (rows, cols)), shape=(n_nodes, n_nodes), dtype=dtype
        ).tocsr()
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

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbour indices of *node*."""
        self._check_node(node)
        if not self.directed:
            return self.neighbors(node)
        csc = self._adj.tocsc()
        return csc.indices[csc.indptr[node] : csc.indptr[node + 1]].copy()

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

    def in_degree(self, node: int | None = None, *, weighted: bool = False):
        """In-degree of *node*, or the full in-degree vector when ``None``."""
        if weighted:
            degs = degree_vector(self._adj, axis=0)
        else:
            degs = degree_vector((self._adj != 0).astype(np.int64), axis=0).astype(
                np.float64
            )
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
        for u, v, w in zip(coo.row, coo.col, coo.data):
            if not self.directed and u > v:
                continue
            yield int(u), int(v), float(w)

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
