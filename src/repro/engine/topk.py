"""Top-k selection over score vectors without full sorts.

Serving top-k similarity queries is the hot path of the engine: a query
produces one dense score row of length *n*, of which only the *k* best
matter.  A full ``argsort`` costs ``O(n log n)``; ``np.partition`` finds
the k-th largest value in ``O(n)`` and only the (usually tiny) candidate
set above it gets sorted.

The selection is *exactly* equivalent to
``np.argsort(-scores, kind="stable")[:k]`` — ties are broken by ascending
index — so engine answers are bit-identical to the naive dense baseline,
which the engine tests and benchmark E5 assert.

The same order is what makes *distributed* selection exact: when a score
vector is partitioned row-wise across shards (:mod:`repro.serving.shards`),
each shard's :func:`shard_top_k` over its slice and a :func:`merge_top_k`
of the partial lists reproduce the single-process selection bit for bit —
any global top-k element ranks at least as high within its own shard, so
it survives the per-shard cut, and the merge re-sorts the union under the
identical ``(-score, index)`` key.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["top_k_indices", "top_k_support", "shard_top_k", "merge_top_k", "finalize_top_k"]


def top_k_indices(scores, k: int) -> np.ndarray:
    """Indices of the *k* largest entries of *scores*, best first.

    Ordering matches ``np.argsort(-scores, kind="stable")[:k]`` exactly:
    descending score, ties broken by ascending index.  ``k`` larger than
    the vector returns every index.  It is :func:`top_k_support` over
    the whole vector, so a mostly-zero vector ranks only its positive
    entries.

    Parameters
    ----------
    scores:
        1-D array-like of comparable scores.
    k:
        How many indices to return (``0`` gives an empty array).
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return top_k_support(None, scores, scores.size, k)[0]


def _ranked(scores, k: int) -> np.ndarray:
    """Positions of the *k* largest *scores* in stable-argsort order."""
    if not 0 < k < scores.size:
        return np.argsort(-scores, kind="stable")[:k]
    # Value of the k-th largest entry; every index scoring >= it is a
    # candidate (ties at the boundary are all kept so the stable sort can
    # break them by index, matching the full-argsort order).
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    candidates = np.flatnonzero(scores >= kth)
    return candidates[np.argsort(-scores[candidates], kind="stable")][:k]


def top_k_support(support, values, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, scores)`` of the *k* best entries of the length-*n*
    vector that holds *values* at the sorted, distinct indices *support*
    and ``0.0`` everywhere else — :func:`top_k_indices`' order.  A
    *support* of ``None`` says *values* is that whole vector.

    ``np.partition`` is slow on a vector of many tied zeros, and a
    sparse query row is mostly that.  So when no value is negative and
    under a quarter of the *n* entries are positive, only the positive
    ones are ranked, and the smallest indices scoring ``0.0`` complete
    the answer.  Otherwise the dense vector is partitioned: a negative
    (or NaN) value needs it, and with a quarter or more positive the
    dense partition was the faster one (PathSim rows of ``A-P-T-P-A``
    and ``A-P-V-P-A`` at dblp_6k thinned to each density: 16-33 µs
    dense against 45-63 µs filtered from 30 % positive up, 75-121 µs
    against 26-47 µs at 20 % and below).
    """
    k = max(min(k, n), 0)
    if 4 * np.count_nonzero(values) >= n or values.size and not values.min() >= 0:
        if support is not None:
            dense = np.zeros(n, dtype=values.dtype)
            dense[support] = values
            values = dense
        head = _ranked(values, k)
        return head, values[head]
    positive = values > 0
    support = np.flatnonzero(positive) if support is None else support[positive]
    values = values[positive]
    head = _ranked(values, k)
    indices, scores = support[head], values[head]
    if indices.size < k:  # fewer than k positives: the zero-score indices below k follow
        free = np.ones(k, dtype=bool)
        free[support[support < k]] = False
        tail = np.flatnonzero(free)[: k - indices.size]
        indices = np.concatenate([indices, tail])
        scores = np.concatenate([scores, np.zeros(tail.size, dtype=scores.dtype)])
    return indices, scores


def shard_top_k(scores, k: int, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One shard's partial top-k: ``(global_indices, scores)``, best first.

    *scores* is the shard's contiguous slice ``[offset, offset + len)`` of
    a global score vector; the returned indices are global (local index
    plus *offset*), ordered by the same ``(-score, global index)`` key as
    :func:`top_k_indices` — offsetting preserves it because the slice is
    contiguous.  A shard holding fewer than *k* rows returns everything
    it has; an empty shard returns two empty arrays.

    Parameters
    ----------
    scores:
        The shard's 1-D score slice.
    k:
        How many candidates this shard must surface.  For an exact merge
        the caller passes the *global* ``k`` (plus one when the query row
        itself may be excluded later): every global top-k element ranks
        at least as high inside its own shard, so the per-shard cut can
        never drop one.
    offset:
        Global index of the shard's first row.
    """
    local = top_k_indices(scores, k)
    return local + int(offset), np.asarray(scores)[local]


def merge_top_k(parts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact, tie-stable k-way merge of per-shard partial top-k lists.

    Parameters
    ----------
    parts:
        Iterable of ``(global_indices, scores)`` pairs as produced by
        :func:`shard_top_k` over disjoint row ranges.  Empty parts (and
        an empty iterable) are fine.
    k:
        How many global winners to keep.

    Returns
    -------
    ``(indices, scores)`` ordered exactly like
    ``top_k_indices(full_scores, k)`` over the concatenated global score
    vector — descending score, ties broken by ascending global index —
    provided every part surfaced its own top *k* (the union then contains
    every global winner, and ``np.lexsort`` re-establishes the full
    stable order over it).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    parts = [
        (np.asarray(idx, dtype=np.int64), np.asarray(sc, dtype=np.float64))
        for idx, sc in parts
    ]
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    indices = np.concatenate([idx for idx, _ in parts])
    scores = np.concatenate([sc for _, sc in parts])
    # lexsort sorts by the LAST key first: primary -score, then index —
    # the engine's stable tie-break order.
    order = np.lexsort((indices, -scores))[:k]
    return indices[order], scores[order]


def finalize_top_k(ranked, k: int, exclude_index: int | None = None) -> list:
    """Shared tail of every top-k selection: self-exclusion + truncation.

    *ranked* is an iterable of ``(index, score)`` pairs already in final
    order (descending score, ties by ascending index) that surfaced at
    least ``k + 1`` entries when *exclude_index* is set (so dropping it
    can never leave the answer short).  Returns at most *k*
    ``(int, float)`` pairs.

    The engine's ``_select``, the sharded scatter/merge, and the fused
    kernel all finish through this one function, so the result shape —
    including the empty answer when every surfaced peer is excluded —
    cannot drift between the solo, batch, fused, and distributed paths.
    """
    pairs = ((int(j), float(score)) for j, score in ranked)
    return list(itertools.islice((p for p in pairs if p[0] != exclude_index), max(k, 0)))
