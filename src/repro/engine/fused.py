"""Fused single-source PathSim top-k: no commuting matrix, and no half
product.

The materialized PathSim path (:meth:`MetaPathEngine._pathsim_parts`)
pays for the half product ``W`` — the full chain SpGEMM over every
source object — before it can answer even one query.  A single-source
query only ever reads

* one row of ``W`` (the query's), and
* the diagonal entries of ``M = W Wᵀ`` for the query's *candidates* —
  the objects its numerator row actually reaches; every other object
  scores exactly ``0.0``.

This module computes the first by *threading a row through the relation
chain*: the query row enters the first step matrix as a CSR row slice
and each subsequent step is a thin sparse product, so cost is
proportional to the row's reach, never the network.  The chains come
from :meth:`~repro.engine.planner.ChainPlanner.row_chain`, which collapses
the longest cached spans (forward or inverse spelling) into single
matrices — the fused kernel reuses whatever the planner already
materialized.  :func:`fused_row_scores` is a pure kernel: it takes the
two half chains and a diagonal, and reads no engine state.  Nothing here
builds or caches ``W``: on an ``auto`` engine a path whose ``W`` pays
back is priced to materialize before its first query runs
(:meth:`~repro.engine.engine.MetaPathEngine._auto_choice`), and one
priced to stay fused never builds it.

A batch is that same query several times: the engine's one PathSim
top-k route resolves the chains and the diagonal once for the batch and
calls :func:`fused_row_scores` once per query, so there is no blocked
fused kernel to keep in step with it.  Standing-query maintenance does
not thread rows either: it scores the materialized ``(W, diag)``
(:meth:`~repro.engine.engine.MetaPathEngine.pathsim_partial_block`).

Held diagonal
-------------
Every fused query scores all its candidates from one diagonal: the
cached PathSim entry's (its ``W``'s row norms, which a commit re-reads
on the rows it patches), or else the path's held one.  A path's first
fused query without a cached entry streams the whole diagonal once
(:func:`half_norms`: rows ``0..n-1`` of the first half in blocks of
``_STREAM_ROWS``, keeping only the length-*n* vector, never ``W``) into
the path's state beside the engine's LRU cache
(:meth:`~repro.engine.engine.MetaPathEngine._held_diagonal`), whether
``auto`` priced the path fused or the engine or the call forced
``"fused"``.  The vector never enters the LRU cache, so exports,
snapshots and generations do not see it.  It is replaced, never written
to: ``_sync()``, ``clear_cache()`` and every commit
(:meth:`~repro.engine.engine.MetaPathEngine.apply_update`) drop the
path's state, and its next fused query streams it anew.

Exactness
---------
The fused route threads rows in another summation order than the
materialized one, so it falls under the "Link weights" contract in
``docs/ARCHITECTURE.md``: bit-identical answers under integer weights,
agreement to roundoff under fractional ones.  A held diagonal is summed
one row of a block at a time, through the chains the half collapses to
when it streams, so each entry is that row threaded alone bit for bit.
A query that runs after the span cache changed (a product such as
``P-A-P`` cached since) threads its own row through other chains; that
is one more association order, bitwise under integer weights and equal
to roundoff under fractional ones.

Objects the numerator never reaches score ``+0.0`` on both paths: the
materialized kernel computes ``2·0/denom`` (or masks a zero
denominator), the fused kernel leaves the dense output's zeros in
place, because ``0/denom`` is ``+0.0`` for every ``denom`` the
``where=denom != 0`` mask lets through.

Every function here is called by the engine under its read lock with
the cache already synced; none takes locks of its own.
"""

from __future__ import annotations

import numpy as np

from repro.engine import kernels

__all__ = ["fused_row_scores", "half_norms"]

#: Rows of ``W`` per block of a diagonal stream.  Streaming ``P-A-P-A-P``'s
#: 36,000 rows at dblp_6k took 98 / 86 / 82 / 88 / 105 ms (best of five)
#: in blocks of 256 / 512 / 1,024 / 2,048 / 4,096 rows, at a tracemalloc
#: peak of 1.6 / 2.8 / 5.2 / 9.8 / 19.1 MiB (2-vCPU x86-64, numpy 2.4,
#: scipy 1.17).
_STREAM_ROWS = 1024


def _thread(block, mats):
    """*block* times each matrix of *mats* in turn: thin sparse products,
    cost bounded by the rows' reach."""
    for m in mats:
        block = block.dot(m)
    return block.tocsr()


def half_norms(first) -> np.ndarray:
    """Squared norms of every row of ``W``: the half chain *first*
    threaded ``_STREAM_ROWS`` rows at a time, each block dropped once its
    norms are read."""
    n = first[0].shape[0]
    out = np.empty(n)
    for lo in range(0, n, _STREAM_ROWS):
        block = _thread(first[0][lo : lo + _STREAM_ROWS], first[1:])
        out[lo : lo + block.shape[0]] = kernels.row_norms(block)
    return out


def fused_row_scores(first, second, diag, i: int) -> np.ndarray:
    """Dense length-*n* PathSim scores from source *i*, fused.

    Row *i* is threaded through the half chain *first* (``W``'s row;
    ``M[i, i]`` is its squared norm) and on through *second* (the
    numerator row ``M[i, :]``); every candidate's denominator reads
    *diag*, the path's PathSim diagonal.  With the chains and diagonal
    the engine holds (:meth:`~repro.engine.engine.MetaPathEngine._half_chains`,
    :meth:`~repro.engine.engine.MetaPathEngine._held_diagonal`), the
    row equals :meth:`~repro.engine.engine.MetaPathEngine.pathsim_row`
    at every position, bit for bit under integer weights.
    """
    w_q = _thread(first[0][[i]], first[1:])
    num = _thread(w_q, second)
    scores = np.zeros(num.shape[1])
    denominators = kernels.row_norms(w_q)[0] + diag[num.indices]
    scores[num.indices] = kernels.pathsim_scores(num.data, denominators)
    return scores
