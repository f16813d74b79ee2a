"""Fused single-source PathSim top-k: no commuting matrix, and no half
product unless the query threads all of it anyway.

The materialized PathSim path (:meth:`MetaPathEngine._pathsim_parts`)
pays for the half product ``W`` — the full chain SpGEMM over every
source object — before it can answer even one query.  For a *cold* path
(nothing cached yet) a single-source query only ever needs

* one row of ``W`` (the query's), and
* the diagonal entries of ``M = W Wᵀ`` for the query's *candidates* —
  the objects its numerator row actually reaches; every other object
  scores exactly ``0.0``.

This module computes both by *threading rows through the relation
chain*: the query row enters the first step matrix as a CSR row slice
and each subsequent step is a thin sparse product, so cost is
proportional to the rows' reach, never the network.  The chains come
from :meth:`~repro.engine.planner.ChainPlanner.row_chain`, which collapses
the longest cached spans (forward or inverse spelling) into single
matrices — the fused kernel reuses whatever the planner already
materialized.  When the path's PathSim entry *is* cached, its
incrementally-maintained diagonal is read directly instead of
recomputing candidate norms.

The one exception: on an ``auto`` engine, a query whose numerator
reaches every source object and whose scan would take every candidate
in its first block threads every row of ``W`` — a whole rebuild.  It
threads them as one block instead and keeps that block, canonicalized,
with its diagonal as the path's ``("pathsim", key)`` entry, built by the
same :meth:`~repro.engine.engine.MetaPathEngine._pathsim_entry` as a
planned one.  The path's next query is a materialized cache hit and no
planner build of the half ever runs.  A forced ``"fused"`` engine and a
scan pruned to fewer rows keep nothing.

A batch is that same query several times: the engine's one PathSim
top-k route calls :func:`fused_row_scores`, pruned to the top-k it
selects, once per query, so there is no blocked fused kernel to keep
in step with it.  Standing-query maintenance does not thread rows
either: it scores the materialized ``(W, diag)``
(:meth:`~repro.engine.engine.MetaPathEngine.pathsim_partial_block`).

Each query also counts what it threaded into the engine's per-path
tally: the rows of ``W`` and their nnz, and every product's stored
entries.  Auto-dispatch prices materializing the path from that tally
(:meth:`~repro.engine.engine.MetaPathEngine._auto_choice`).  A
diagonal stream (below) is not a query and counts nothing: counted, its
whole pass over ``W`` would tip ``P-A-P-A-P`` into building the 6.94 M
entries the count exists to spare.

Held diagonal
-------------
A query past ``_FUSED_AUTO_THRESHOLD`` on an ``auto`` engine runs on a
path the cost rule priced as staying fused, so its candidates' diagonals
will be wanted again and again.  The first such query streams the whole
diagonal once (:func:`half_norms`: rows ``0..n-1`` of the first half in
blocks of ``_STREAM_ROWS``, keeping only the length-*n* vector, never
``W``) into the engine's ``_held_diag`` next to the tally; it and every
later query score their candidates straight from it, with no pruned
scan.  The vector never enters the LRU cache, so exports, snapshots and
generations do not see it.  It is replaced, never written to:
``_sync()``, ``clear_cache()`` and every commit
(:meth:`~repro.engine.engine.MetaPathEngine.apply_update`) drop it, and
the path's next query past the threshold streams it anew.  A forced
``"fused"`` engine and a path's first ``_FUSED_AUTO_THRESHOLD`` queries
keep the pruned scan.

Exactness
---------
The fused route threads rows in another summation order than the
materialized one, so it falls under the "Link weights" contract in
``docs/ARCHITECTURE.md``: bit-identical answers under integer weights,
agreement to roundoff under fractional ones.  A kept ``W`` is one more
association order under that contract; its diagonal is summed in the
threaded order, so a row scored from it and the same row threaded alone
(:func:`~repro.engine.kernels.row_norms`) agree bit for bit under any
weights.  A held diagonal is summed the same way, one row of a block at
a time, through the chains the half collapses to when it streams: a
pruned scan through those same chains threads each candidate's norm bit
for bit.  A scan that runs after the span cache changed (a product such
as ``P-A-P`` cached since) threads other chains; that is one more
association order, bitwise under integer weights and equal to roundoff
under fractional ones.

Objects the numerator never reaches score ``+0.0`` on both paths: the
materialized kernel computes ``2·0/denom`` (or masks a zero
denominator), the fused kernel leaves the dense output's zeros in
place — including candidates whose true diagonal the fused path never
looked at, because ``0/denom`` is ``+0.0`` for every ``denom`` the
``where=denom != 0`` mask lets through.

Every function here is called by the engine under its read lock with
the cache already synced; none takes locks of its own.
"""

from __future__ import annotations

import numpy as np

from repro.engine import kernels

__all__ = ["fused_row_scores", "half_norms"]

#: Auto-dispatch serves a cold path's first answers fused (threading rows
#: is cheap) and weighs materializing it once this many have gone through;
#: a path still fused past it holds its diagonal.
_FUSED_AUTO_THRESHOLD = 4

#: Rows of ``W`` per block of a diagonal stream.  Streaming ``P-A-P-A-P``'s
#: 36,000 rows at dblp_6k took 98 / 86 / 82 / 88 / 105 ms (best of five)
#: in blocks of 256 / 512 / 1,024 / 2,048 / 4,096 rows, at a tracemalloc
#: peak of 1.6 / 2.8 / 5.2 / 9.8 / 19.1 MiB (2-vCPU x86-64, numpy 2.4,
#: scipy 1.17).
_STREAM_ROWS = 1024


def _half_chains(engine, mp):
    """``(first, second)`` matrix chains for *mp*'s two symmetric halves.

    ``first`` multiplies out to the half product ``W`` (values), and
    ``second`` to ``Wᵀ``; threading a row through ``first + second``
    yields the commuting-matrix row.  Each half goes through the
    planner's cached-span collapse."""
    key = mp.canonical_key()
    half = len(key) // 2
    return (
        engine._planner.row_chain(key[:half]),
        engine._planner.row_chain(key[half:]),
    )


def _thread(block, mats, tally: list):
    """*block* times each matrix of *mats* in turn: thin sparse products,
    cost bounded by the rows' reach.  The stored entries of *block* and
    of every product are counted into ``tally[1]``, the path's fused
    work."""
    tally[1] += block.nnz
    for m in mats:
        block = block.dot(m)
        tally[1] += block.nnz
    return block.tocsr()


def half_norms(first) -> np.ndarray:
    """Squared norms of every row of ``W``: the half chain *first*
    threaded ``_STREAM_ROWS`` rows at a time, each block dropped once its
    norms are read.  A diagonal stream; nothing goes into a tally."""
    n = first[0].shape[0]
    out = np.empty(n)
    for lo in range(0, n, _STREAM_ROWS):
        block = _thread(first[0][lo : lo + _STREAM_ROWS], first[1:], [0, 0])
        out[lo : lo + block.shape[0]] = kernels.row_norms(block)
    return out


def _suffix_bound(v: float, diag_i: float) -> float:
    """Upper bound on any PathSim score a candidate with numerator
    ``<= v`` can still achieve against a query of diagonal *diag_i*.

    Cauchy–Schwarz gives ``diag_j >= v² / diag_i`` for a candidate whose
    numerator is ``v``, so ``2v / (diag_i + diag_j)`` is maximized at
    that floor: ``2·v·diag_i / (diag_i² + v²)`` — monotone increasing in
    ``v`` below ``diag_i`` (above it the score cap of ``1.0`` applies).
    Inflated by a relative margin so float roundoff in evaluating the
    bound can never place it below a score the bound must dominate.
    """
    if diag_i <= 0.0:
        return 0.0
    if v >= diag_i:
        return 1.0
    return (2.0 * v * diag_i) / (diag_i * diag_i + v * v) * (1.0 + 1e-9)


def fused_row_scores(engine, mp, i: int, need: int | None = None) -> np.ndarray:
    """Dense length-*n* PathSim scores from source *i*, fused.

    With ``need=None``, bit-identical to ``engine.pathsim_row(mp, i)``
    at every position (``M[i, i]`` — the query's own diagonal — falls
    out of the half-way threading state).

    With ``need`` set, only enough candidates to determine the top
    *need* selection exactly are scored: candidates are visited in
    descending numerator order, their diagonals threaded in doubling
    blocks, and the scan stops once :func:`_suffix_bound` proves no
    unvisited candidate can strictly beat the running *need*-th best
    score.  Pruned candidates keep score ``0.0`` — positions beyond the
    top *need* of the returned vector are therefore NOT the true
    scores; callers selecting ``k <= need`` entries see bit-identical
    answers.

    On an ``auto`` engine, a query on a path with no cached entry whose
    numerator reaches every source object, and whose scan's first block
    takes every candidate, would thread every row of ``W`` anyway: it
    threads them as one block, caches that block and its diagonal as
    the path's ``("pathsim", key)`` entry
    (:meth:`~repro.engine.engine.MetaPathEngine._pathsim_entry`), and
    scores from it, so the path's next query is a materialized hit.  A
    scan pruned to fewer rows never keeps anything.  Past
    ``_FUSED_AUTO_THRESHOLD`` queries on a path that holds no entry, an
    ``auto`` engine scores every candidate from the path's held diagonal
    instead, streamed by the first such query (:func:`half_norms`; see
    the module docstring); the stream is not tallied.
    """
    first, second = _half_chains(engine, mp)
    key = mp.canonical_key()
    # The path's tally for auto-dispatch (MetaPathEngine._auto_choice):
    # [queries, entries threaded, rows of W threaded, their total nnz].
    # Concurrent readers may lose an increment: the tally only prices
    # the choice of kernel, and both kernels give the same answer.
    tally = engine._fused_tally.setdefault(key, [0, 0, 0, 0])
    tally[0] += 1

    def thread(rows: np.ndarray | None = None):
        """Rows *rows* of ``W`` (every row for ``None``): one CSR row
        slice, threaded on."""
        block = _thread(first[0] if rows is None else first[0][rows], first[1:], tally)
        tally[2] += block.shape[0]
        tally[3] += block.nnz
        return block

    w_q = thread(np.array([i], dtype=np.int64))
    diag_i = float(kernels.row_norms(w_q)[0])
    num = _thread(w_q, second, tally)
    n = num.shape[1]
    scores = np.zeros(n)
    if num.nnz == 0:
        return scores
    cols = num.indices.astype(np.int64, copy=False)
    vals = np.asarray(num.data, dtype=np.float64)

    cached = engine._cache.get(("pathsim", key))
    # The scan threads candidates' rows in blocks of `chunk` and up.  The
    # bound only dominates for non-negative numerators (the library's
    # weights are counts); anything else takes every candidate at once.
    pruned = need is not None and vals.min() >= 0.0
    chunk = max(4 * max(need, 1), 64) if pruned else cols.size
    auto = cached is None and engine.topk_mode == "auto"
    if auto and cols.size == n and chunk >= n:
        # The first block would be every row of W: keep it as the entry.
        cached = engine._pathsim_entry(thread())
        engine._cache.put(("pathsim", key), cached)
    elif auto and tally[0] > _FUSED_AUTO_THRESHOLD:
        # A path priced as staying fused: score from its held diagonal.
        held = engine._held_diag.get(key)
        if held is None:
            held = engine._held_diag[key] = half_norms(first)
        cached = (None, held)
    if cached is not None:
        scores[cols] = kernels.pathsim_scores(vals, diag_i + cached[1][cols])
        return scores

    def score_into(take: np.ndarray) -> np.ndarray:
        """Thread diagonals for candidate positions *take*, fill scores."""
        ccols, cvals = cols[take], vals[take]
        block = kernels.pathsim_scores(cvals, diag_i + kernels.row_norms(thread(ccols)))
        scores[ccols] = block
        return block

    if chunk >= cols.size:
        score_into(np.arange(cols.size))
        return scores

    order = np.lexsort((cols, -vals))  # descending numerator, then index
    pool = np.empty(0)  # running top-`need` computed scores
    done = 0
    while done < order.size:
        computed = score_into(order[done : done + chunk])
        done += computed.size
        if done >= order.size:
            break
        pool = np.concatenate([pool, computed])
        if pool.size > need:
            pool = np.partition(pool, pool.size - need)[pool.size - need :]
        if pool.size >= need and _suffix_bound(vals[order[done]], diag_i) < pool.min():
            break  # no unvisited candidate can strictly beat the cut
        chunk *= 2
    return scores
