"""PathSim kernels — the one place the measure's arithmetic is written.

PathSim over a symmetric meta-path is one formula,

    s(i, j) = 2·M[i, j] / (M[i, i] + M[j, j]),    M = W·Wᵀ,

and every serving path in the library — the engine's one PathSim top-k
route, the fused row-threading kernels (:mod:`repro.engine.fused`) and
the shard workers (:mod:`repro.serving.shards`) — evaluates it by
calling the pure functions below over ``(w, diag, q_rows, q_diag)``:

``w`` / ``diag``
    The scored rows of the half product and their diagonal entries of
    ``M``.  The whole ``W`` for the engine; rows ``[lo, hi)`` of both
    for a shard (published from views of ``W``'s own arrays: the
    entries ``w[lo:hi]`` holds, in their order, never copied); a
    fancy-indexed ``w[idx], diag[idx]`` subset for partial re-scores.
    CSR row selection keeps each row's stored entries and their order,
    so a row's dot product — and therefore its score — is bitwise the
    same whichever subset it is scored in.
``q_rows`` / ``q_diag``
    The queries' rows of ``W`` (one CSR block) and their diagonal
    entries.

**One row is one mat-vec** — unless the query's reach is cheaper.  A
block of one query is scored by :func:`pathsim_solo` — one CSR mat-vec
over the query's dense row, read straight off the CSR arrays
(:func:`dense_row`) — never by a block product, and
:func:`pathsim_rows` never slices ``w[idx]`` for it.  The exception is
:func:`pathsim_reach`, for a caller that holds ``Wᵀ`` as CSR at no
cost: it scores only the objects query *i* reaches, and it does
``reach_flops(w, wt, i)`` multiply-adds where the mat-vec does
``nnz(W)``.  The engine picks it row by row from that count.

Answers are bit-identical across callers because there is nothing to
keep in step: one division, one operand layout per kernel.  The reach
kernel keeps that too.  Column *k* of ``W`` is row *k* of ``Wᵀ``; for
each ``k`` in row *i*'s support, in ascending order, it adds
``Wᵀ[k, j] · W[i, k]`` into ``j``'s sum from ``0.0``.  Those are the
terms the mat-vec adds for ``j``, in the same order.  The mat-vec also
adds ``W[j, k] · 0.0`` for every other ``k``, and that leaves a sum of
finite terms unchanged.  Objects outside the reach score ``0.0`` on
both.  ``tests/engine/test_kernels.py`` pins the remaining identities
(block row == solo row; kernel on a slice == columns of the kernel on
the whole; partial == fancy-indexing the block; reach == the solo row
on the reach, zero off it).
"""

from __future__ import annotations

import numpy as np

from repro.utils.sparse import _row_entries, safe_divide

__all__ = [
    "dense_row",
    "pathsim_scores",
    "pathsim_solo",
    "pathsim_block",
    "pathsim_rows",
    "pathsim_partial",
    "pathsim_reach",
    "reach_flops",
    "row_norms",
]


def pathsim_scores(numerators, denominators) -> np.ndarray:
    """``2·numerators / denominators``, exactly ``0.0`` wherever the
    denominator is zero (an object with no path instances at all)."""
    return safe_divide(2.0 * numerators, denominators)


def row_norms(block) -> np.ndarray:
    """Squared row norms of a CSR block — the PathSim diagonal entries
    of its rows.

    Sums the squared stored entries per row, in stored order, straight
    off the CSR arrays (``multiply(block).sum(axis=1)`` builds a whole
    second matrix first).  A row threaded alone and the same row of a
    threaded block keep one entry order, so their norms are bitwise
    equal under any weights; integer weights make every square and sum
    exact in float64 whatever the order."""
    out = np.zeros(block.shape[0])
    data = np.asarray(block.data, dtype=np.float64)
    if data.size == 0:
        return out
    sq = data * data
    indptr = block.indptr
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    # reduceat over the nonempty rows' start offsets: each segment runs
    # to the next listed start, and the skipped (empty) rows contribute
    # no entries in between, so segment sums are exactly the row sums.
    out[nonempty] = np.add.reduceat(sq, indptr[nonempty])
    return out


def dense_row(rows, i: int = 0) -> np.ndarray:
    """Row *i* of the CSR matrix *rows* as a zero-filled dense vector,
    sliced straight off the CSR arrays (``getrow`` carries surprising
    per-call overhead)."""
    out = np.zeros(rows.shape[1])
    start, end = rows.indptr[i], rows.indptr[i + 1]
    out[rows.indices[start:end]] = rows.data[start:end]
    return out


def pathsim_solo(w, diag, q_row: np.ndarray, q_diag: float) -> np.ndarray:
    """One query against every row of *w*: a single CSR mat-vec.

    *q_row* is the query's dense row of ``W`` (:func:`dense_row`) and
    *q_diag* its diagonal entry; returns the ``len(diag)`` scores.
    """
    return pathsim_scores(w.dot(q_row), q_diag + diag)


def pathsim_block(w, diag, q_rows, q_diag: np.ndarray) -> np.ndarray:
    """Queries against every row of *w*, returned as
    ``(len(q_diag), len(diag))`` scores: one CSR × dense block product,
    or :func:`pathsim_solo` for a block of one row.

    The F-ordered densification transposes into a C-contiguous
    ``(dim, queries)`` operand with no second copy; the product
    accumulates each output column in the same stored-entry order as
    :func:`pathsim_solo`'s mat-vec, so row *r* equals the solo kernel
    on query *r* — which is what lets one row take the cheaper mat-vec.
    """
    if q_rows.shape[0] == 1:
        return pathsim_solo(w, diag, dense_row(q_rows), q_diag[0])[None, :]
    dots = w.dot(q_rows.toarray(order="F").T)  # (len(diag), queries)
    return pathsim_scores(dots, diag[:, None] + q_diag[None, :]).T


def pathsim_rows(w, diag, idx) -> np.ndarray:
    """:func:`pathsim_block` for *w*'s own rows *idx*: the
    ``(len(idx), len(diag))`` PathSim score rows of those objects.

    One index reads its row with :func:`dense_row` and scores it with
    :func:`pathsim_solo`; fancy-indexing ``w[idx]`` (or slicing
    ``w[i:i + 1]``) would add up to a third of that mat-vec's cost.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 1:
        i = int(idx[0])
        return pathsim_solo(w, diag, dense_row(w, i), diag[i])[None, :]
    return pathsim_block(w, diag, w[idx], diag[idx])


def pathsim_partial(w, diag, candidates, q_rows, q_diag: np.ndarray) -> np.ndarray:
    """:func:`pathsim_block` restricted to the *candidates* rows of *w*
    — bitwise ``pathsim_block(w, diag, q_rows, q_diag)[:, candidates]``
    at the cost of the candidates' nnz, not the whole matrix.

    The queries stay sparse: one sparse × sparse product yields the
    ``(candidates, queries)`` dots without densifying *q_rows* over the
    inner dimension.  It stays bitwise equal because scipy's product
    adds each output cell's terms in the candidate row's stored-entry
    order, as the CSR × dense product does; it only skips the terms
    whose query entry is zero, and adding ``0.0`` to a sum of
    non-negative finite terms leaves it unchanged.
    """
    dots = (w[candidates] @ q_rows.T).toarray()  # (candidates, queries)
    return pathsim_scores(dots, diag[candidates][:, None] + q_diag[None, :]).T


def reach_flops(w, wt, i: int) -> int:
    """Multiply-adds :func:`pathsim_reach` spends on row *i*: the
    stored entries of ``Wᵀ``'s rows (``W``'s columns) in row *i*'s
    support."""
    cols = w.indices[w.indptr[i] : w.indptr[i + 1]]
    return int((wt.indptr[cols + 1] - wt.indptr[cols]).sum())


def pathsim_reach(w, wt, diag, i: int) -> tuple[np.ndarray, np.ndarray]:
    """``(reach, scores)``: *w*'s own row *i* scored against the rows
    it reaches only — the sorted objects ``j`` whose numerator
    ``M[i, j]`` is non-zero, and bitwise
    ``pathsim_rows(w, diag, [i])[0][reach]``.  Every other object
    scores exactly ``0.0`` there too.

    *wt* is ``Wᵀ`` as CSR with sorted indices: the relation's cached
    reverse orientation for a one-step half, ``W`` itself for a
    bitwise-symmetric one.  Row *i*'s columns of ``Wᵀ`` are gathered
    off the CSR arrays and summed per ``j`` by one ``np.bincount``,
    which adds its weights in input order from ``0.0``.
    """
    lo, hi = w.indptr[i], w.indptr[i + 1]
    entries, offsets = _row_entries(wt.indptr, w.indices[lo:hi])
    terms = wt.data[entries] * np.repeat(w.data[lo:hi], np.diff(offsets))
    dots = np.bincount(wt.indices[entries], terms, minlength=w.shape[0])
    reach = np.flatnonzero(dots)
    return reach, pathsim_scores(dots[reach], diag[i] + diag[reach])
