"""Row reachability and shard row weights over relation matrices.

Two questions asked of the relation matrices themselves, answered at a
cost proportional to the rows visited:

* **Which rows can a delta reach?**  :func:`row_support` expands a set
  of rows one hop; :func:`reach_sources` walks a meta-path's steps
  backwards from a changed step to the source rows whose product row
  can differ — the standing-query maintainer's candidate set
  (:mod:`repro.watch.analysis`).
* **How should rows be split across shards?**  :func:`type_row_weights`
  weighs each node of a type by the links it carries and
  :func:`balanced_ranges` cuts the weights into contiguous ranges of
  near-equal total (:class:`repro.serving.shards.ShardPlan`).

Nothing here is stored or maintained: every function reads the
network's current matrices when called.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "row_support",
    "reach_sources",
    "type_row_weights",
    "balanced_ranges",
]


def row_support(matrix, rows: np.ndarray) -> np.ndarray:
    """Sorted unique column indices of CSR *matrix* restricted to *rows*.

    The one-hop expansion primitive of :func:`reach_sources` — cost is
    proportional to the nnz of the selected rows, never the whole
    matrix.

    Parameters
    ----------
    matrix:
        A CSR matrix.
    rows:
        Row indices to expand (need not be unique or sorted).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows
    indptr, indices = matrix.indptr, matrix.indices
    parts = [indices[indptr[r] : indptr[r + 1]] for r in np.unique(rows)]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(parts)).astype(np.int64)


def reach_sources(hin, steps, step_index: int, seed: np.ndarray) -> np.ndarray:
    """Source rows of a relation chain that can reach *seed* at *step_index*.

    Given a meta-path's oriented relation ``steps`` (``(relation,
    forward)`` pairs) whose step *step_index* changed on oriented rows
    *seed*, walk the chain *backwards* — each hop expands through the
    reverse-oriented matrix of the preceding step — and return the
    sorted unique row indices of the chain's source type whose product
    row can possibly differ.  This is an exact superset of the touched
    rows: a source row outside it multiplies only unchanged entries, so
    its product row (and any score derived from it) is bit-unchanged.

    Cost is proportional to the nnz of the visited rows, so a localized
    delta stays cheap even on a large network.

    Parameters
    ----------
    hin:
        The network whose oriented matrices to traverse (post-update
        state — reachability can only shrink through deleted edges that
        the delta itself still covers via its own support).
    steps:
        ``(relation, forward)`` pairs as produced by
        :meth:`repro.networks.schema.MetaPath.steps`.
    step_index:
        Index into *steps* of the changed relation occurrence.
    seed:
        Changed oriented-row indices of step *step_index*'s matrix.
    """
    frontier = np.asarray(seed, dtype=np.int64)
    for rel, forward in reversed(list(steps)[:step_index]):
        if frontier.size == 0:
            break
        # Reverse orientation maps this step's *outputs* back to its
        # input rows; expanding the frontier through it yields every
        # input row with at least one link into the frontier.
        frontier = row_support(hin.oriented_matrix(rel, not forward), frontier)
    return frontier


def type_row_weights(hin, node_type: str) -> np.ndarray:
    """Per-node link weight of one node type: incident nnz per row.

    For every node of *node_type*, the total number of stored links it
    carries across all relations — row degrees where the type is a
    relation's source, column degrees where it is the target — plus one
    (so isolated nodes still carry weight and a partition of them stays
    balanced).  This is the balance measure shard assignment uses
    (:class:`repro.serving.shards.ShardPlan`): a row's serving cost is
    proportional to its nnz, not its mere existence.

    Cost is O(total nnz of the incident relations); the result is a
    dense ``int64`` vector of length ``hin.node_count(node_type)``.
    """
    n = hin.node_count(node_type)
    weights = np.ones(n, dtype=np.int64)
    for rel in hin.schema.relations:
        m = hin.relation_matrix(rel.name)
        if rel.source == node_type:
            weights += np.diff(m.indptr).astype(np.int64)
        if rel.target == node_type:
            weights += np.bincount(m.indices, minlength=m.shape[1]).astype(
                np.int64
            )[:n]
    return weights


def balanced_ranges(weights, parts: int) -> list[tuple[int, int]]:
    """Contiguous row ranges of near-equal total weight.

    Splits ``range(len(weights))`` into *parts* contiguous ``[lo, hi)``
    ranges whose cumulative weights sit as close as possible to the
    ideal equal split — boundary ``s`` lands where the prefix sum first
    reaches ``total * s / parts``.  Deterministic, order-preserving, and
    well-defined when there are fewer rows than parts: the surplus
    ranges come out empty (``lo == hi``), which downstream consumers
    (shard packing, scatter, merge) all tolerate.

    Parameters
    ----------
    weights:
        Non-negative per-row weights (see :func:`type_row_weights`).
    parts:
        How many ranges to produce (>= 1).
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    if n == 0:
        return [(0, 0)] * parts
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    targets = [total * s / parts for s in range(1, parts)]
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    bounds = [0] + [int(min(c, n)) for c in cuts] + [n]
    # Enforce monotonicity (zero-weight prefixes can make searchsorted
    # produce equal cuts — legal: those ranges are simply empty).
    for i in range(1, len(bounds)):
        bounds[i] = max(bounds[i], bounds[i - 1])
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]
