"""Sparse-matrix helpers shared by ranking, similarity and clustering code.

All heavy linear algebra in the library runs on ``scipy.sparse`` CSR
matrices; these helpers centralize the normalization idioms (row-stochastic,
column-stochastic, symmetric) and the zero-safe divisions that every
iterative algorithm needs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "to_csr",
    "row_normalize",
    "column_normalize",
    "symmetric_normalize",
    "safe_divide",
    "is_binary",
    "degree_vector",
    "nonempty_rows",
    "add_delta",
]


def to_csr(matrix, dtype=np.float64) -> sp.csr_matrix:
    """Coerce *matrix* (dense array, sparse matrix or array, or nested
    lists) to a ``csr_matrix``.

    A defensive copy is **not** made when the input is already CSR with the
    requested dtype; callers that mutate should copy explicitly.
    """
    if sp.issparse(matrix):
        out = matrix.tocsr()
        if not sp.isspmatrix(out):
            # A sparse *array* stays one through tocsr(); the kernels
            # rely on the matrix API (getrow, ``*`` as a product).
            out = sp.csr_matrix(out)
        if out.dtype != dtype:
            out = out.astype(dtype)
        return out
    arr = np.asarray(matrix, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return sp.csr_matrix(arr)


def degree_vector(matrix, axis: int = 1) -> np.ndarray:
    """Weighted degree (row or column sums) of a sparse matrix as a 1-D array."""
    sums = np.asarray(matrix.sum(axis=axis)).ravel()
    return sums


def row_normalize(matrix) -> sp.csr_matrix:
    """Return a row-stochastic copy of *matrix*.

    Rows that sum to zero are left as all-zero rows (the caller decides how
    to treat dangling nodes); no NaNs are ever produced.
    """
    m = to_csr(matrix).copy()
    row_sums = degree_vector(m, axis=1)
    scale = np.divide(
        1.0, row_sums, out=np.zeros_like(row_sums, dtype=np.float64), where=row_sums != 0
    )
    return sp.diags(scale).dot(m).tocsr()


def column_normalize(matrix) -> sp.csr_matrix:
    """Return a column-stochastic copy of *matrix* (zero columns stay zero)."""
    m = to_csr(matrix).copy()
    col_sums = degree_vector(m, axis=0)
    scale = np.divide(
        1.0, col_sums, out=np.zeros_like(col_sums, dtype=np.float64), where=col_sums != 0
    )
    return m.dot(sp.diags(scale)).tocsr()


def symmetric_normalize(matrix) -> sp.csr_matrix:
    """Return ``D^{-1/2} A D^{-1/2}`` for the (square) adjacency *matrix*.

    This is the normalization used by normalized spectral clustering and by
    graph-regularized transductive classification (GNetMine).  For
    rectangular relation matrices the two diagonal scalings use row sums on
    the left and column sums on the right, which is the bipartite analogue.
    """
    m = to_csr(matrix).copy()
    row_sums = degree_vector(m, axis=1)
    col_sums = degree_vector(m, axis=0)
    left = np.divide(
        1.0,
        np.sqrt(row_sums),
        out=np.zeros_like(row_sums, dtype=np.float64),
        where=row_sums != 0,
    )
    right = np.divide(
        1.0,
        np.sqrt(col_sums),
        out=np.zeros_like(col_sums, dtype=np.float64),
        where=col_sums != 0,
    )
    return sp.diags(left).dot(m).dot(sp.diags(right)).tocsr()


def safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator`` with 0 where denominator is 0."""
    numerator = np.asarray(numerator, dtype=np.float64)
    denominator = np.asarray(denominator, dtype=np.float64)
    return np.divide(
        numerator,
        denominator,
        out=np.zeros(np.broadcast(numerator, denominator).shape),
        where=denominator != 0,
    )


def is_binary(matrix) -> bool:
    """True when every stored entry of *matrix* is 0 or 1."""
    m = to_csr(matrix)
    if m.nnz == 0:
        return True
    data = m.data
    return bool(np.all((data == 0) | (data == 1)))


def _canonical(m: sp.csr_matrix) -> sp.csr_matrix:
    """Ensure canonical CSR form (sorted, duplicate-free) in place.

    Sparse products come back with unsorted column indices; every later
    binary op (the adds of incremental maintenance above all) silently
    re-canonicalizes per call unless it is done once, where the product
    is made (the engine and its chain planner).
    """
    m.sum_duplicates()
    return m


def _canonical_csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """Wrap arrays known to be sorted and duplicate-free (no copy, no scan)."""
    out = sp.csr_matrix((data, indices, indptr), shape=shape, copy=False)
    out.has_canonical_format = True
    return out


def nonempty_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """Sorted int64 indices of the CSR rows that store at least one entry."""
    return np.flatnonzero(np.diff(matrix.indptr))


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(entries, offsets)``: the positions of CSR rows *rows*' stored
    entries, row after row in stored order, and where each row's run
    starts in *entries* (an ``indptr`` over the gathered rows)."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=offsets[1:])
    entries = np.arange(offsets[-1], dtype=indptr.dtype) + np.repeat(starts - offsets[:-1], lengths)
    return entries, offsets


def _take_rows(matrix: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """``matrix[rows]`` for canonical CSR by a raw-array gather.

    Same rows, same entry order as scipy's fancy row indexing, without
    its per-call index validation — which costs more than the gather
    itself when *rows* is a handful of a large matrix's rows.
    """
    entries, offsets = _row_entries(matrix.indptr, rows)
    return _canonical_csr(
        matrix.data[entries],
        matrix.indices[entries],
        offsets,
        (rows.size, matrix.shape[1]),
    )


def add_delta(matrix: sp.csr_matrix, delta: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix + delta`` as a new canonical CSR matrix, at the delta's cost.

    The one sparse add of the commit path (changed relations, their
    cached transposes, every maintained engine product).  **Invariant:**
    every matrix the commit path installs is canonical CSR — sorted,
    duplicate-free indices and no stored zeros; both operands must be,
    and the result is (and is flagged so, which spares scipy's O(nnz)
    re-check on the next add).  Neither operand is written to.

    The sum is computed on the delta's non-empty rows only and those
    rows are *spliced* into one contiguous copy of the old arrays, so
    the work is that copy plus O(rows the delta touches) instead of a
    merge over all of *matrix*.  Every cell is the same single float
    addition ``a + d`` scipy's whole-matrix add performs, so the arrays
    equal ``(matrix + delta)`` after ``eliminate_zeros()`` bit for bit.
    Stored zeros can only arise where the delta is negative (an exact
    cancellation), so the prune runs only then.

    The splice pays a python-level slice per touched row where the whole
    add pays a merge per stored entry, so it cannot win on a small
    matrix or a wide delta, and the choice is made here from the two
    sizes.  Measured once on the benchmark box (6 000-row matrices of
    5k-450k entries, 1-2 000 touched rows of 4 delta cells, median of
    25): against the whole add the splice saves ~1.7 ns per stored entry
    (3.0 ns merged vs 1.3 ns copied) and costs ~0.03 ms more up front
    plus ~2 us per touched row.  Hence: splice iff
    ``nnz > 20 000 + 1 200 * rows``.  A localized edit (tens of rows of
    a 10^5-entry product) splices at a third to a half of the add's
    cost; a bulk-ingest chunk (a quarter of all rows) keeps the add.
    """
    rows = nonempty_rows(delta)
    if rows.size == 0:
        return matrix
    # Operands that break the invariant only ever meet scipy's general add.
    canonical = matrix.has_canonical_format and delta.has_canonical_format
    if canonical and matrix.nnz > 20_000 + 1_200 * rows.size:
        return _splice_rows(matrix, delta, rows)
    out = (matrix + delta).tocsr()
    if delta.data.min() < 0:
        out.eliminate_zeros()
    if canonical:
        out.has_canonical_format = True
    return out


def _splice_rows(
    matrix: sp.csr_matrix, delta: sp.csr_matrix, rows: np.ndarray
) -> sp.csr_matrix:
    """The splice side of :func:`add_delta`: *rows* are *delta*'s
    non-empty rows (at least one), both operands canonical."""
    patched = _take_rows(matrix, rows) + _take_rows(delta, rows)
    if delta.data.min() < 0:
        patched.eliminate_zeros()
    indptr = matrix.indptr
    lengths = np.diff(indptr)
    lengths[rows] = np.diff(patched.indptr)
    new_indptr = np.zeros(indptr.size, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    # Interleave the untouched runs of the old arrays with the patched
    # rows; the slices are views, the two concatenates are the copy.
    starts, stops = indptr[rows].tolist(), indptr[rows + 1].tolist()
    cuts = patched.indptr.tolist()
    index_runs, data_runs = [], []
    at = 0
    for k, start in enumerate(starts):
        row = slice(cuts[k], cuts[k + 1])
        index_runs += (matrix.indices[at:start], patched.indices[row])
        data_runs += (matrix.data[at:start], patched.data[row])
        at = stops[k]
    index_runs.append(matrix.indices[at:])
    data_runs.append(matrix.data[at:])
    return _canonical_csr(
        np.concatenate(data_runs), np.concatenate(index_runs), new_indptr, matrix.shape
    )
