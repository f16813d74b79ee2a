"""MetaPathEngine — shared materialization and top-k serving for meta-path queries.

Every flagship primitive of this library — PathSim similarity, the
rank-while-clustering loops of RankClus/NetClus, meta-path features for
classification — reduces to products of typed relation matrices along a
meta-path (*commuting matrices*).  Recomputing those products per query
is the dominant cost of a query-heavy workload, and it is pure waste:
the network changes far more slowly than the paths repeat.

The engine fixes this with five ideas:

1. **Canonical-path caching.**  Commuting matrices are materialized once
   into an LRU-bounded cache (:class:`repro.utils.cache.LRUCache`) keyed
   by the path's canonical step sequence
   (:meth:`~repro.networks.schema.MetaPath.canonical_key`), so every
   spelling of a path — and every *prefix* shared between paths — lands
   on one entry.  Materializing ``A-P-V-P-A`` after ``A-P-A`` reuses the
   cached ``A-P`` product instead of starting over.
2. **Symmetric decomposition.**  A symmetric path ``P = (P_l, P_l^-1)``
   has commuting matrix ``M = W W^T`` where ``W`` is the product of the
   first half only.  The engine stores ``W`` (much smaller than ``M``)
   and the diagonal of ``M`` (row-wise squared norms of ``W``), which is
   everything PathSim needs.
3. **Row-sliced top-k.**  A single-source query never builds the n x n
   matrix: one sparse row of ``W`` is pushed through ``W^T`` (or threaded
   through the step matrices for asymmetric paths), normalized, and the
   top-k selected with a partition (:func:`repro.engine.topk.top_k_indices`)
   instead of a full sort.  A batch is the same route over several
   queries: one block product, or that one mat-vec for a batch of one.
   Where ``Wᵀ`` is at hand for free (a one-step or a two-step
   palindromic half), a row whose reach is cheap skips both: only the
   objects it reaches are scored
   (:func:`repro.engine.kernels.pathsim_reach`).
4. **Cost-based association planning.**  Chain products are evaluated
   in the association order a matrix-chain DP picks from per-relation
   statistics (:mod:`repro.engine.planner`), seeded from cached
   prefixes, suffixes, infixes and reversed-path (transpose) entries —
   association never changes the answer, only the cost.
5. **Incremental maintenance.**  When the network mutates
   (``hin.apply()``/``hin.mutate()``), the update receipt reaches
   :meth:`MetaPathEngine.apply_update`, which patches every cached
   product with a *delta product* (cost scales with the update, not the
   network) instead of invalidating the cache wholesale; see the method
   docstring and ``docs/ARCHITECTURE.md``.

Answers are exactly those of dense full materialization — same scores,
same tie-breaking — which the engine test-suite and benchmark E5 assert.

Use :meth:`repro.networks.hin.HIN.engine` to get the per-network shared
instance rather than constructing one per call site.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from dataclasses import replace as _dc_replace

from repro.engine import kernels
from repro.engine.fused import fused_row_scores, half_norms
from repro.engine.planner import ChainPlanner, PlanReport, nnz_bound
from repro.exceptions import MetaPathError, NodeNotFoundError
from repro.networks.schema import MetaPath
from repro.networks.updates import AppliedUpdate, pad_csr
from repro.query.results import TopKResult
from repro.utils.cache import CacheInfo, LRUCache
from repro.utils.locks import RWLock
from repro.utils.sparse import _canonical, _take_rows, add_delta, nonempty_rows
from repro.utils.validation import check_k
from repro.engine.topk import finalize_top_k, top_k_support

__all__ = ["MetaPathEngine"]

#: Incremental maintenance pays off while an update's per-relation delta
#: is much sparser than the relation itself.  When ``delta.nnz / new.nnz``
#: exceeds this fraction for a relation, the cached products that
#: traverse it are evicted (they rebuild lazily) instead of computing a
#: delta denser than a rebuild.
_DELTA_REBUILD_THRESHOLD = 0.25

#: ``auto`` materializes a path on its first query while the count
#: bounding its ``nnz(W)`` (:func:`~repro.engine.planner.nnz_bound`) is at
#: most this many times the stored entries of the half's relations: a
#: build that costs about what the relations hold pays back within a few
#: queries, while one that multiplies them (``P-A-P-A-P``'s 6.94 M
#: entries from 2 × 90 K) costs a 255–310 ms build and 120 MiB for queries
#: that a held diagonal answers in about 1 ms.  At dblp_6k the ratio reads
#: 1.50–3.32 on the five deep paths that materialize and 38.95 on
#: ``P-A-P-A-P`` (``tools/kernel_costs.py`` ``bound/rel``, seeds 11 and
#: 21), so 10 sits about 3× from either side.
_MATERIALIZE_COST_RATIO = 10

#: A materialized row is scored over its reach
#: (:func:`~repro.engine.kernels.pathsim_reach`) while this many times
#: its multiply-adds are at most ``nnz(W)``, the mat-vec's.  A reach
#: multiply-add (a gather, a product and a scattered add) costs 10-16 ns
#: against 1.0-1.5 ns for a mat-vec entry at dblp_6k (one pinned vCPU
#: of a 2-vCPU x86-64 box, numpy 2.4, scipy 1.17); ``C*`` in
#: ``tools/kernel_costs.py`` read 13.5-21 on the paths with real reach
#: work.  Timing 900 rows of six paths both ways put every constant
#: from 8 to 16 within 1-5 % of the per-row best; 12 is the middle.
_REACH_COST = 12


#: What the engine knows of one symmetric path at this epoch: the count
#: bounding ``nnz(W)``, the kernel ``auto`` picked from it, and the path's
#: PathSim diagonal once a fused query has streamed it.  Replaced, never
#: written to.
_PathState = namedtuple("_PathState", "bound kernel diag", defaults=(None,))


def _check_mode(mode: str) -> str:
    """*mode* if it names a top-k kernel policy, else ``ValueError``."""
    if mode not in ("auto", "fused", "materialize"):
        raise ValueError(f"mode must be 'auto', 'fused' or 'materialize', got {mode!r}")
    return mode


def _reader(method):
    """Run *method* under the engine's read lock.

    Read-locked methods may nest freely (the lock is reentrant for
    readers), so every public query entry point carries this decorator
    and the internal helpers they call stay lock-free.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        """Read-locked pass-through to the wrapped method."""
        with self._rwlock.read():
            return method(self, *args, **kwargs)

    return wrapper


def _writer(method):
    """Run *method* under the engine's write lock (exclusive)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        """Write-locked pass-through to the wrapped method."""
        with self._rwlock.write():
            return method(self, *args, **kwargs)

    return wrapper


class MetaPathEngine:
    """Caching query engine for meta-path primitives over one HIN.

    Parameters
    ----------
    hin:
        The :class:`~repro.networks.hin.HIN` to serve queries on.  When
        the network changes through ``hin.apply()`` / ``hin.mutate()``,
        the network's shared engine receives the update receipt and
        maintains its cached matrices *incrementally*
        (:meth:`apply_update`); a detached engine notices the epoch
        mismatch on its next query and falls back to a full cache clear.
    max_cached_matrices:
        LRU bound on the number of cached materializations (prefix
        products, symmetric decompositions, type-pair matrices).
    mode:
        PathSim top-k kernel policy (:attr:`topk_mode`): ``"auto"``
        dispatches per request on cache state, ``"fused"`` /
        ``"materialize"`` pin one kernel (see :meth:`pathsim_top_k`).
        Answers are bit-identical across kernels.

    Example
    -------
    >>> engine = hin.engine()                                # doctest: +SKIP
    >>> engine.pathsim_top_k("venue-paper-author-paper-venue",
    ...                      "SIGMOD", k=5)                  # doctest: +SKIP
    [('VLDB', 0.98...), ('ICDE', 0.94...), ...]
    """

    def __init__(
        self,
        hin,
        *,
        max_cached_matrices: int = 64,
        mode: str = "auto",
    ):
        self.hin = hin
        self._cache = LRUCache(max_cached_matrices)
        self._rwlock = RWLock()
        self.topk_mode = _check_mode(mode)
        # Per symmetric path: auto's price and held diagonal (_PathState).
        self._paths: dict[tuple, _PathState] = {}
        # Fused-vs-materialized dispatch counters (see planner_info()).
        self.kernel_counters = {"fused": 0, "materialize": 0}
        self._planner = ChainPlanner(self)
        # The network version this engine's cache describes.  Kept in
        # lock-step by apply_update(); _sync() handles engines that missed
        # an epoch (detached engines, or matrices replaced behind our back).
        self._epoch = getattr(hin, "version", 0)
        # Parse/validation memos, kept separate from the matrix cache so
        # hot query paths never evict a materialization.  Entries are tiny
        # and the set of distinct paths a workload uses is small, so plain
        # containers are the right choice.
        self._parsed: dict[str, MetaPath] = {}
        self._validated: set[tuple] = set()

    @property
    def epoch(self) -> int:
        """Network version the cached materializations answer for."""
        return self._epoch

    @property
    def lock(self) -> RWLock:
        """The engine's read–write lock (see :mod:`repro.utils.locks`).

        Queries hold the read side (any number run concurrently);
        ``hin.apply()`` commits the network mutation *and* the cache
        maintenance under the write side, so every query executes
        entirely at one update epoch.  External callers that read
        several engine answers as one consistent unit (e.g. snapshot
        serialization) can hold ``engine.lock.read()`` across the
        whole sequence — but must compute directly, never by awaiting
        a :class:`~repro.serving.QueryService` future from inside the
        block: the lock is writer-priority, so if a writer queues
        behind your read hold, the service worker's own read acquire
        blocks behind the writer and the future never resolves.
        """
        return self._rwlock

    def _sync(self) -> None:
        """Safety net for engines that missed an update receipt.

        The shared engine is maintained push-style by ``hin.apply()``;
        an engine constructed with kwargs (detached cache) or a network
        mutated more than once between its queries lands here instead:
        on epoch mismatch the whole cache is dropped (correct, just not
        incremental).
        """
        version = getattr(self.hin, "version", 0)
        if version != self._epoch:
            self._cache.clear()
            self._paths = {}
            self._epoch = version

    # ------------------------------------------------------------------
    # Parsing / validation
    # ------------------------------------------------------------------
    def path(self, spec) -> MetaPath:
        """Resolve and validate *spec* against the network's schema.

        Parsing (string specs) and validation (``MetaPath`` objects) are
        both memoized — per-query re-checking is measurable overhead at
        serving rates.
        """
        if isinstance(spec, MetaPath):
            key = spec.canonical_key()
            if key not in self._validated:
                spec.validate(self.hin.schema)
                self._validated.add(key)
            return spec
        if isinstance(spec, str):
            mp = self._parsed.get(spec)
            if mp is None:
                mp = self.hin.meta_path(spec)
                self._parsed[spec] = mp
            return mp
        return self.hin.meta_path(spec)

    def symmetric_path(self, spec) -> MetaPath:
        """Like :meth:`path`, but requires a symmetric path (PathSim's domain)."""
        mp = self.path(spec)
        if not mp.is_symmetric():
            raise MetaPathError(f"PathSim requires a symmetric meta-path, got {mp}")
        return mp

    def _resolve(self, node_type: str, obj) -> int:
        """Index of *obj* — an index or a name — within *node_type*.  A
        bool is a name (and so not found), never index 0 or 1."""
        if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
            idx = int(obj)
            n = self.hin.node_count(node_type)
            if not 0 <= idx < n:
                raise NodeNotFoundError(f"{node_type!r} index {idx} out of range (n={n})")
            return idx
        return self.hin.index_of(node_type, obj)

    # ------------------------------------------------------------------
    # Materialization (cached)
    # ------------------------------------------------------------------
    def _auto_choice(self, mp: MetaPath) -> str:
        """The kernel auto-dispatch picks for *mp*'s next queries, however
        many.  The PathSim entry is only peeked, and the chain priced is
        the one the path's next fused query threads, so :meth:`explain`
        prices a path as that query would.

        ``"materialize"`` while the path's PathSim entry is cached.
        Otherwise the path is priced once per epoch, on first touch
        (:meth:`_path_state`), by the count bounding ``nnz(W)``
        (:func:`~repro.engine.planner.nnz_bound` over
        :meth:`~repro.engine.planner.ChainPlanner.row_chain`):
        ``"materialize"`` while it is at most ``_MATERIALIZE_COST_RATIO``
        times the stored entries of the half's relations, else
        ``"fused"``."""
        key = mp.canonical_key()
        if self._cache.peek(("pathsim", key)) is not None:
            return "materialize"
        return self._path_state(key).kernel

    def _path_state(self, key: tuple) -> _PathState:
        """*key*'s :class:`_PathState`, priced on first touch at this
        epoch.  Of two readers pricing at once, the first stored state
        stays."""
        state = self._paths.get(key)
        if state is None:
            half = key[: len(key) // 2]
            bound = nnz_bound(self._planner.row_chain(half))
            relations = sum(self.hin.relation_matrix(name).nnz for name, _ in half)
            kernel = "materialize" if bound <= _MATERIALIZE_COST_RATIO * relations else "fused"
            state = self._paths.setdefault(key, _PathState(bound, kernel))
        return state

    def _half_chains(self, key: tuple) -> tuple:
        """``(first, second)``: the row chains
        (:meth:`~repro.engine.planner.ChainPlanner.row_chain`) of *key*'s
        two symmetric halves.  ``first`` multiplies out to ``W``, and
        ``second`` to ``Wᵀ``."""
        half = len(key) // 2
        return self._planner.row_chain(key[:half]), self._planner.row_chain(key[half:])

    def _held_diagonal(self, key: tuple, first) -> np.ndarray:
        """The PathSim diagonal the path holds at this epoch, streamed
        through its first half chain *first*
        (:func:`~repro.engine.fused.half_norms`) by its first fused query
        without a cached entry, whichever mode forced or picked
        ``"fused"``.  An unpriced path is priced first, so holding a
        diagonal never sets or changes ``auto``'s pick."""
        state = self._path_state(key)
        if state.diag is None:
            state = self._paths[key] = state._replace(diag=half_norms(first))
        return state.diag

    def _topk_kernel(self, mp: MetaPath, mode: str | None = None) -> str:
        """The kernel to run for the next queries on *mp*: the engine's
        :attr:`topk_mode` (or :meth:`pathsim_top_k`'s per-call *mode*).

        ``"fused"`` and ``"materialize"`` are forced.  ``"auto"`` picks
        materialized when the path's PathSim entry is cached; otherwise
        it prices the path once per epoch, before its first query
        (:meth:`_auto_choice`).  A path whose count fits materializes on that
        first query: one SpGEMM that every later query amortizes.  Any
        other path stays fused and never builds ``W``.  However
        ``"fused"`` was chosen, a fused batch scores every candidate from
        one diagonal: the cached entry's, else the one the path's first
        fused query streams and holds (:meth:`_held_diagonal`).  The pick
        does not depend on how many queries a batch brings, so a cold
        burst runs the kernel a single query would.  Answers are
        bit-identical either way; only the cost differs.
        """
        self._sync()
        chosen = _check_mode(self.topk_mode if mode is None else mode)
        if chosen == "auto":
            chosen = self._auto_choice(mp)
        self.kernel_counters[chosen] += 1
        return chosen

    @_reader
    def commuting_matrix(self, path) -> sp.csr_matrix:
        """The commuting matrix ``M_P``, materialized once and cached.

        Symmetric paths are built as ``W W^T`` from the cached half
        product; asymmetric paths as the cached chain product in the
        association order the planner picks.
        """
        self._sync()
        mp = self.path(path)
        steps = mp.canonical_key()
        key = ("product", steps)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if mp.is_symmetric():
            w = self._planner.materialize(steps[: len(steps) // 2])
            m = _canonical(w.dot(w.T).tocsr())
        else:
            m = self._planner.materialize(steps)
        self._cache.put(key, m)
        return m

    @_reader
    def matrix_between(self, source: str, target: str) -> sp.csr_matrix:
        """Type-pair relation lookup, oriented ``source -> target``.

        Delegates to :meth:`~repro.networks.hin.HIN.matrix_between`, which
        is already cheap (schema lookup + the HIN's transpose cache), so
        these lookups never occupy LRU slots that commuting-matrix
        materializations need.
        """
        return self.hin.matrix_between(source, target)

    def _pathsim_parts(self, path):
        """``(W, diag)`` for a symmetric path: the half product and the
        commuting matrix's diagonal (row-wise squared norms of ``W``) —
        all a PathSim query needs.

        The half product goes through the chain planner, so a reversed
        spelling is a cache hit too: a cached ``A-P-V`` product answers
        the ``V-P-A`` half as its transpose instead of recomputing."""
        self._sync()
        mp = self.symmetric_path(path)
        key = ("pathsim", mp.canonical_key())

        def compute():
            """Materialize the half product and its row-norm diagonal,
            each row's squared norm summed in the stored order."""
            w = self._planner.materialize(key[1][: len(key[1]) // 2])
            diag = kernels.row_norms(w)
            return _canonical(w), diag

        return self._cache.get_or_compute(key, compute)

    @_reader
    def prewarm(self, paths: Sequence) -> "MetaPathEngine":
        """Materialize *paths* up front (symmetric ones as PathSim parts)."""
        for spec in paths:
            mp = self.path(spec)
            if mp.is_symmetric():
                self._pathsim_parts(mp)
            else:
                self.commuting_matrix(mp)
        return self

    # ------------------------------------------------------------------
    # PathSim serving
    # ------------------------------------------------------------------
    @_reader
    def pathsim(self, path, x, y) -> float:
        """PathSim score of one object pair (indices or names)."""
        mp = self.symmetric_path(path)
        w, diag = self._pathsim_parts(mp)
        i = self._resolve(mp.source_type, x)
        j = self._resolve(mp.source_type, y)
        m_ij = w.getrow(i).dot(w.getrow(j).T)[0, 0]
        return float(kernels.pathsim_scores(m_ij, diag[i] + diag[j]))

    @_reader
    def pathsim_row(self, path, query) -> np.ndarray:
        """Dense PathSim scores from *query* to every peer:
        ``pathsim_rows(path, [query])[0]``, one CSR mat-vec
        ``M[i, :] = W (W[i, :])^T`` — the full n x n matrix is never
        formed."""
        return self.pathsim_rows(path, [query])[0]

    @_reader
    def pathsim_partial_block(self, path, queries, candidates) -> np.ndarray:
        """PathSim scores from each of *queries* to just the *candidates*
        rows: one ``(len(queries), len(candidates))`` block.

        Bit-identical to ``pathsim_rows(path, queries)[:, candidates]``:
        CSR row slicing preserves each row's entries and their order, and
        the sparse partial kernel (:func:`~repro.engine.kernels.pathsim_partial`)
        accumulates every output cell in the same stored-entry order as
        the full product.  The
        standing-query maintainer (:mod:`repro.watch`) uses this to
        re-score only the candidates an update's delta can touch, for
        every watch on the same path in a single sparse product — cost
        proportional to the touched rows' nnz, not the network.  It
        always scores the materialized ``(W, diag)``, whatever the
        engine's :attr:`topk_mode`, and does not count as a top-k
        dispatch in :attr:`kernel_counters`.  So a watch on a path
        ``auto`` prices fused builds that path's ``W`` on the first
        commit that touches it: five watches on ``P-A-P-A-P`` at dblp_6k
        (2-vCPU x86-64) made that commit 334–392 ms (a 6.94 M-entry
        ``W``) and each later one 31–56 ms, maintaining it.  Re-streaming the diagonal on every
        commit (about 75 ms) is not clearly cheaper, so this stays.

        Parameters
        ----------
        path:
            A symmetric meta-path (any spelling).
        queries:
            Query objects — names or indices of the path's source type.
        candidates:
            Row indices to score (need not be sorted or unique).
        """
        mp = self.symmetric_path(path)
        w, diag = self._pathsim_parts(mp)
        rows = np.array([self._resolve(mp.source_type, q) for q in queries], dtype=np.int64)
        idx = np.asarray(candidates, dtype=np.int64)
        if rows.size == 0 or idx.size == 0:
            return np.zeros((rows.size, idx.size))
        return kernels.pathsim_partial(w, diag, idx, w[rows], diag[rows])

    @_reader
    def pathsim_rows(self, path, queries) -> np.ndarray:
        """Batched :meth:`pathsim_row`: one ``(len(queries), n)`` score
        block (:func:`~repro.engine.kernels.pathsim_rows`)."""
        mp = self.symmetric_path(path)
        w, diag = self._pathsim_parts(mp)
        idx = [self._resolve(mp.source_type, q) for q in queries]
        return kernels.pathsim_rows(w, diag, idx)

    @_reader
    def pathsim_query_rows(self, path, queries):
        """Scatter payload for shard-distributed PathSim top-k.

        Returns ``(indices, rows, diag)``: the resolved query indices,
        their rows of the half product ``W`` as one CSR block, and their
        PathSim diagonal entries.  This is everything a row-sharded
        worker (:mod:`repro.serving.shards`) cannot compute from its own
        slice — the query side of every dot product and denominator —
        extracted from the *parent-held* half product and diagonal, so
        per-shard partial scores merge bit-identically to
        :meth:`pathsim_top_k`.  The half product itself goes through the
        same planner-aware materialization (:meth:`_pathsim_parts`) as
        every single-process entry point.

        Parameters
        ----------
        path:
            A symmetric meta-path (any spelling).
        queries:
            Query objects — names or indices of the path's source type.
        """
        mp = self.symmetric_path(path)
        w, diag = self._pathsim_parts(mp)
        idx = np.array([self._resolve(mp.source_type, q) for q in queries], dtype=np.int64)
        return idx, w[idx].tocsr(), diag[idx]

    @_reader
    def pathsim_matrix(self, path) -> np.ndarray:
        """Dense all-pairs PathSim matrix (full materialization — prefer
        the row/top-k entry points for serving)."""
        mp = self.symmetric_path(path)
        m = self.commuting_matrix(mp)
        diag = m.diagonal()
        return kernels.pathsim_scores(m.toarray(), diag[:, None] + diag[None, :])

    @_reader
    def pathsim_top_k(
        self, path, query, k: int, *, exclude_query: bool = True,
        mode: str | None = None,
    ) -> TopKResult:
        """Top-*k* peers of *query* under *path*: a
        :class:`~repro.query.results.TopKResult` of ``(name, score)``
        pairs (a list subclass — iteration/indexing/equality unchanged).

        Results (including tie-breaking) are identical to ranking the full
        dense PathSim row with a stable sort; only the work differs.
        The kernel follows the engine's :attr:`topk_mode`:
        ``"materialize"`` serves from the cached symmetric
        decomposition, ``"fused"`` threads the query row through the
        relation chain without materializing it
        (:mod:`repro.engine.fused`), ``"auto"`` dispatches on cache
        state and on the path's price, counted before its first query
        (see :meth:`_topk_kernel`).  The kernel that ran is
        reported as ``result.mode``; answers are bit-identical.  A
        query of one is :meth:`pathsim_top_k_batch` over ``[query]``:
        both are one route.

        ``mode`` overrides :attr:`topk_mode` for this call.  It is the
        one per-call "how" left in the library and exists for a single
        caller, ``benchmarks/perf/layers.py`` (``engine.first_touch``
        forces ``"fused"`` on a shared engine), which a non-benchmark
        change may not edit; it goes the next time the benchmark
        contract is opened.  Everything else constructs the engine
        with the kernel it wants.  A fused call scores from the path's
        cached or held diagonal, streaming it on a miss, and leaves the
        path's ``auto`` pick as it was.
        """
        (result,) = self._pathsim_top_k(path, [query], k, exclude_query, mode)
        return result

    @_reader
    def pathsim_top_k_batch(
        self, path, queries, k: int, *, exclude_query: bool = True
    ) -> list[TopKResult]:
        """:meth:`pathsim_top_k` for many queries, one answer each, in
        order: one block product on the materialized kernel, one fused
        row per query on the fused one.  The kernel is the one a single
        query would get."""
        return self._pathsim_top_k(path, queries, k, exclude_query)

    def _pathsim_top_k(self, path, queries, k, exclude, mode=None) -> list[TopKResult]:
        """The one PathSim top-k route: resolve the queries, pick one
        kernel for all of them, score, select each row.  No query runs
        no kernel."""
        k = check_k(k)
        mp = self.symmetric_path(path)
        idx = [self._resolve(mp.source_type, q) for q in queries]
        if not idx:
            return []
        kernel = self._topk_kernel(mp, mode)
        rows = (self._fused_rows if kernel == "fused" else self._materialized_rows)(mp, idx)
        return [
            self._select(row, mp, mp.source_type, i, k, exclude, "pathsim", kernel)
            for row, i in zip(rows, idx)
        ]

    def _fused_rows(self, mp: MetaPath, idx: list) -> list:
        """Each query's dense fused row (:func:`~repro.engine.fused.fused_row_scores`),
        from chains and a diagonal resolved once for the batch: the
        cached entry's diagonal, else the path's held one."""
        key = mp.canonical_key()
        first, second = self._half_chains(key)
        cached = self._cache.get(("pathsim", key))
        diag = self._held_diagonal(key, first) if cached is None else cached[1]
        return [fused_row_scores(first, second, diag, i) for i in idx]

    def _materialized_rows(self, mp: MetaPath, idx: list) -> list:
        """Each query's scores on the cached ``(W, diag)``: a
        ``(reach, scores, n)`` triple where ``W`` can be read by column
        for free (:meth:`_columns`) and the reach is cheap
        (``_REACH_COST``), else a dense row of the mat-vec or block
        product."""
        w, diag = self._pathsim_parts(mp)
        wt = self._columns(mp, w)
        rows = {}
        for i in idx if wt is not None else ():
            if _REACH_COST * kernels.reach_flops(w, wt, i) <= w.nnz:
                rows[i] = (*kernels.pathsim_reach(w, wt, diag, i), w.shape[0])
        dense = [i for i in idx if i not in rows]
        if dense:
            rows.update(zip(dense, kernels.pathsim_rows(w, diag, dense)))
        return [rows[i] for i in idx]

    def _columns(self, mp: MetaPath, w):
        """``Wᵀ`` as CSR where *mp*'s half product *w* can be read by
        column at no cost, else ``None``.

        A one-step half's columns are the relation's reverse
        orientation while the network holds it: it caches that
        orientation for any backward traversal and maintains it through
        every commit that resizes nothing.  Deriving it here would read
        all of ``W`` (0.6-0.9 ms for ``writes`` at dblp_6k, 6-8
        mat-vecs), and without it even a row's flop count costs a pass
        over ``W``; so a dropped orientation is charged, and the rows
        keep the mat-vec until it is held again.  A two-step palindromic
        half ``R·Rᵀ`` is its own transpose, bit for bit: each entry sums
        the same products in ascending order, fresh or maintained.  Any
        other half would need a transpose built and kept, so it keeps
        the mat-vec."""
        key = mp.canonical_key()
        half = key[: len(key) // 2]
        if len(half) == 1:
            name, forward = half[0]
            return self.hin._transposes.get(name) if forward else self.hin.relation_matrix(name)
        return w if len(half) == 2 and self._steps_symmetric(half) else None

    def _select(self, scores, mp, node_type, query, k, exclude, measure, mode=None) -> TopKResult:
        """Rank a dense score row, or a ``(support, scores, n)`` triple
        whose length-*n* row is ``0.0`` off *support*; build the answer."""
        if not isinstance(scores, tuple):
            scores = (None, scores, scores.size)
        order, ranked = top_k_support(*scores, k + 1 if exclude else k)
        pairs = finalize_top_k(zip(order, ranked), k, query if exclude else None)
        epoch = getattr(self.hin, "version", None)
        return self._top_k_result(mp, node_type, query, pairs, measure, epoch, mode)

    def _top_k_result(self, mp, node_type, query, pairs, measure, epoch, mode) -> TopKResult:
        """Ranked ``(index, score)`` *pairs* as the public result: names
        through ``hin.name_of`` plus the stamps.  Every top-k answer —
        selected here, merged across shards, or patched by a watch — is
        built by this one function."""
        return TopKResult(
            [(self.hin.name_of(node_type, j), score) for j, score in pairs],
            node_type=node_type,
            query=self.hin.name_of(mp.source_type, query),
            path=str(mp),
            measure=measure,
            network_version=epoch,
            mode=mode,
        )

    # ------------------------------------------------------------------
    # Connectivity (path count) serving — works for asymmetric paths too
    # ------------------------------------------------------------------
    @_reader
    def connectivity_row(self, path, query) -> np.ndarray:
        """Path-instance counts from *query* to every target-type object.

        Slices the cached commuting matrix when available; otherwise
        threads one sparse row through the step matrices — the top-k
        cut pushed into the product: only the query's candidate row is
        ever computed, never the full ``M_P``.  The threading chain
        reuses the longest cached subchain (forward or reversed
        spelling) at each position instead of raw steps.
        """
        self._sync()
        mp = self.path(path)
        i = self._resolve(mp.source_type, query)
        key = mp.canonical_key()
        cached = self._cache.get(("product", key))
        if cached is not None:
            return np.asarray(cached.getrow(i).todense()).ravel()
        # Single get, not contains-then-get: a concurrent reader's
        # materialization may LRU-evict the entry between the two calls.
        pathsim = self._cache.get(("pathsim", key))
        if pathsim is not None:
            # A PathSim-warmed symmetric path: M[i, :] = W (W[i, :])^T.
            w, _ = pathsim
            return w.dot(kernels.dense_row(w, i))
        row = None
        for m in self._planner.row_chain(key):
            row = m.getrow(i) if row is None else row.dot(m)
        return np.asarray(row.todense()).ravel()

    @_reader
    def top_k_connectivity(
        self, path, query, k: int, *, exclude_query: bool = False
    ) -> TopKResult:
        """Top-*k* target objects by path-instance count from *query*.

        ``exclude_query`` only makes sense for round-trip paths (source
        and target type coincide); it drops the query object itself.
        """
        k = check_k(k)
        mp = self.path(path)
        i = self._resolve(mp.source_type, query)
        if exclude_query and mp.source_type != mp.target_type:
            raise MetaPathError(
                f"exclude_query needs a round-trip path, got "
                f"{mp.source_type!r} -> {mp.target_type!r}"
            )
        scores = self.connectivity_row(mp, i)
        return self._select(scores, mp, mp.target_type, i, k, exclude_query, "connectivity")

    # ------------------------------------------------------------------
    # Incremental maintenance under network updates
    # ------------------------------------------------------------------
    _EMPTY_REPORT = dict.fromkeys(
        ("updated", "padded", "evicted", "kept", "rows_touched", "rows_total"), 0
    )

    @_writer
    def apply_update(self, update: AppliedUpdate) -> dict:
        """Maintain every cached materialization under *update*.

        ``hin.apply()`` calls this on the network's shared engine with the
        update receipt.  For each cached product whose step tuple touches
        an updated relation, the new matrix is produced by a *delta
        product* instead of a rebuild:

        .. math::

            \\Delta M = \\sum_i W'_1 \\cdots W'_{i-1} \\,\\Delta W_i\\,
                        W_{i+1} \\cdots W_k

        — new matrices left of each delta, old matrices right of it, which
        telescopes exactly to ``M' - M``.  Each term threads a matrix with
        ``delta.nnz`` entries through the chain, so its cost scales with
        the *update*, not the network.  Installing the result follows
        the delta too: ``M + ΔM`` is summed on ``ΔM``'s rows only and
        spliced into one contiguous copy of ``M``
        (:func:`repro.utils.sparse.add_delta`), the PathSim diagonal is
        re-read on those rows from the patched ``W``, each distinct
        matrix is patched once however many keys hold it (a pathsim
        ``W`` and the cached half product receive the same object), and
        backward traversals read the pre-commit transposes the receipt
        carries instead of transposing a relation.  The pass computes
        every entry's successor from the cache as it stands, then
        installs them all; entries are replaced, never written to, so
        readers, snapshots and exports see whole values.
        Relations whose delta is denser than
        ``_DELTA_REBUILD_THRESHOLD`` (25%) of the relation get their
        dependent entries evicted instead (rebuild lazily beats a dense
        delta); untouched entries are kept, padded with zero rows/columns
        when an endpoint type grew.

        A commit drops every path's ``auto`` state, its price and held
        diagonal, as ``_sync()`` does; the path's next query prices it
        anew at the new epoch (:meth:`_topk_kernel`).

        How maintained matrices compare with rebuilt ones is the "Link
        weights" contract in ``docs/ARCHITECTURE.md``.

        Returns a maintenance report: counts of ``updated`` / ``padded`` /
        ``evicted`` / ``kept`` entries, plus ``rows_touched`` (rows the
        deltas of the updated entries touch) and ``rows_total`` (rows
        those entries have), both summed over the updated entries — the
        commit's reach against the size of what it maintains.
        """
        if update.epoch != self._epoch + 1:
            # A receipt from the wrong base epoch: a *replayed* receipt
            # (epoch already applied) is a no-op, while a *skipped* epoch
            # means incremental maintenance would corrupt — _sync() drops
            # everything in that case, and the report reflects which
            # happened.
            stale = getattr(self.hin, "version", 0) != self._epoch
            dropped = len(self._cache) if stale else 0
            kept = 0 if stale else len(self._cache)
            self._sync()
            return {**self._EMPTY_REPORT, "evicted": dropped, "kept": kept}
        dense_rels = {
            name
            for name, d in update.deltas.items()
            if d.density_vs_rebuild > _DELTA_REBUILD_THRESHOLD
        }
        # Per-call scratch shared across entries: oriented transposes of
        # the receipt's matrices, and one delta and one patched matrix per
        # distinct step tuple (a pathsim ``W`` and the cached half product
        # are one matrix under two keys).  Every successor is computed
        # from the cache as it stands, so a symmetric product reads its
        # *old* half product whatever the order, and installed after.
        scratch = {"transposes": {}, "delta_products": {}, "patched_products": {}}
        report = dict(self._EMPTY_REPORT)
        successors = {}
        for key in self._cache.keys():
            kind, full_steps = key
            steps = full_steps[: len(full_steps) // 2] if kind == "pathsim" else full_steps
            rels = {name for name, _ in steps}
            if rels & dense_rels:
                successors[key] = None
                report["evicted"] += 1
                continue
            grown_src = self._step_types(steps[0])[0] in update.node_growth
            grown_dst = self._step_types(steps[-1])[1] in update.node_growth
            if not (rels & update.deltas.keys()):
                if grown_src or grown_dst:
                    successors[key] = self._padded(key, kind, steps)
                    report["padded"] += 1
                else:
                    report["kept"] += 1
                continue
            successors[key], rows = self._maintain_entry(key, kind, steps, update, scratch)
            report["rows_touched"] += rows
            report["rows_total"] += self._entry_shape(steps)[0]
            report["updated"] += 1
        for key, value in successors.items():
            if value is None:
                self._cache.pop(key)
            else:
                self._cache.replace(key, value)
        self._paths = {}
        self._epoch = update.epoch
        return report

    def _step_types(self, step: tuple) -> tuple[str, str]:
        """``(from, to)`` node types of one ``(relation name, forward)`` step."""
        rel = self.hin.schema.relation(step[0])
        return (rel.source, rel.target) if step[1] else (rel.target, rel.source)

    def _entry_shape(self, steps: tuple) -> tuple[int, int]:
        """Post-update shape of the product over *steps*."""
        return (
            self.hin.node_count(self._step_types(steps[0])[0]),
            self.hin.node_count(self._step_types(steps[-1])[1]),
        )

    def _padded(self, key: tuple, kind: str, steps: tuple):
        """The cached value under *key*, grown to the post-update shape:
        zero rows/columns on the product, zeros on a pathsim diagonal."""
        shape = self._entry_shape(steps)
        if kind != "pathsim":
            return pad_csr(self._cache.peek(key), shape)
        w, diag = self._cache.peek(key)
        if shape[0] > diag.shape[0]:
            diag = np.concatenate([diag, np.zeros(shape[0] - diag.shape[0])])
        return pad_csr(w, shape), diag

    def _maintain_entry(
        self, key: tuple, kind: str, steps: tuple, update: AppliedUpdate, scratch: dict
    ) -> tuple:
        """``(pad(old) + delta, rows the delta touches)`` for one cached
        entry.  A pathsim diagonal is re-read on those rows from the
        patched ``W``, so it stays ``W``'s row norms in stored order."""
        delta = self._memo_delta(steps, update, scratch)
        rows = np.array([], dtype=np.int64) if delta is None else nonempty_rows(delta)
        value = self._padded(key, kind, steps)
        if kind != "pathsim":
            return self._patched_product(steps, value, delta, scratch), rows.size
        w = self._patched_product(steps, value[0], delta, scratch)
        diag = value[1].copy()
        diag[rows] = kernels.row_norms(_take_rows(w, rows))
        return (w, diag), rows.size

    def _patched_product(self, steps: tuple, padded, delta, scratch: dict):
        """``padded + delta``, once per distinct product per
        :meth:`apply_update` pass.

        A symmetric path's pathsim ``W`` and the cached half product
        hold the same matrix under two keys; the copy is the expensive
        part of maintenance for large products, so both keys receive the
        one patched object.  A single relation step is not patched at
        all: the network already holds its ``old + delta``.
        """
        memo = scratch["patched_products"]
        got = memo.get(steps)
        if got is None:
            if len(steps) == 1:
                got = self.hin.oriented_matrix(*steps[0])
            elif delta is None:
                got = padded
            else:
                got = add_delta(padded, delta)
            memo[steps] = got
        return got

    def _memo_delta(self, steps: tuple, update: AppliedUpdate, scratch: dict):
        """Canonical ``ΔM`` of the product over *steps* (``None`` when it
        vanishes), computed once per :meth:`apply_update` pass — from the
        half delta when the path is symmetric, else by the general
        telescoped delta product."""
        memo = scratch["delta_products"]
        if steps not in memo:
            delta = self._symmetric_delta(steps, update, scratch)
            if delta is NotImplemented:
                delta = self._delta_product(steps, update, scratch)
            memo[steps] = None if delta is None else _canonical(delta.tocsr())
        return memo[steps]

    def _symmetric_delta(self, steps: tuple, update: AppliedUpdate, scratch: dict):
        """``ΔM`` of a symmetric product from its *half* delta.

        For ``M = W Wᵀ`` (``W`` the half product), substituting
        ``W' = W + ΔW`` gives exactly

            ``ΔM = ΔW Wᵀ + W ΔWᵀ + ΔW ΔWᵀ``

        — two thin-times-full products instead of threading the delta
        through all ``k`` steps, whose backward half can reach most of the
        network even for a localized update.  Needs the *old* half
        product transposed: for a one-step half that is the relation's
        pre-update reverse orientation (CSR on the receipt, no
        conversion); longer halves read the pathsim entry's ``W`` or the
        cached half product from the cache, which the pass leaves as it
        stands until it installs the successors.
        Returns ``NotImplemented`` when the path is asymmetric or no old
        half is cached, so the caller falls back to the general delta
        product.
        """
        k = len(steps)
        if k < 2 or k % 2 or not self._steps_symmetric(steps):
            return NotImplemented
        half = steps[: k // 2]
        if len(half) == 1:
            name, forward = half[0]
            w_old_t = self._old_oriented((name, not forward), update, scratch)
        else:
            cached = self._cache.peek(("pathsim", steps))
            w_old = cached[0] if cached is not None else self._cache.peek(("product", half))
            if w_old is None:
                return NotImplemented
            w_old_t = pad_csr(w_old, self._entry_shape(half)).T
        dw = self._memo_delta(half, update, scratch)
        if dw is None:
            return None
        left = _canonical((dw @ w_old_t).tocsr())
        return left + left.T.tocsr() + _canonical((dw @ dw.T).tocsr())

    @staticmethod
    def _steps_symmetric(steps: tuple) -> bool:
        return steps == tuple((name, not fwd) for name, fwd in reversed(steps))

    def _delta_product(self, steps: tuple, update: AppliedUpdate, scratch: dict):
        """``Σ_i W'_1…W'_{i-1} ΔW_i W_{i+1}…W_k`` over *steps* (``None``
        when no step's relation changed).

        Every product in each term involves the sparse ``ΔW_i``, so the
        intermediate matrices stay thin (bounded by the delta's reach)
        and scipy's CSR multiply only pays for actual flops.
        """
        total = None
        for i, (name, forward) in enumerate(steps):
            d = update.deltas.get(name)
            if d is None or d.delta.nnz == 0:
                continue
            term = d.delta if forward else self._transposed(("delta", name), d.delta, scratch)
            # Old suffix first: a delta that only references newly added
            # nodes hits their all-zero rows in the old matrices and the
            # whole term vanishes structurally — stop multiplying the
            # moment it does.
            for j in range(i + 1, len(steps)):
                term = term @ self._old_oriented(steps[j], update, scratch)
                if term.nnz == 0:
                    break
            if term.nnz == 0:
                continue
            for j in range(i - 1, -1, -1):
                name_j, forward_j = steps[j]
                term = self.hin.oriented_matrix(name_j, forward_j) @ term
                if term.nnz == 0:
                    break
            if term.nnz == 0:
                continue
            total = term if total is None else total + term
        return total

    def _old_oriented(
        self, step: tuple, update: AppliedUpdate, scratch: dict
    ) -> sp.csr_matrix:
        """Pre-update matrix of *step*, oriented along the traversal.

        Unchanged relations read (already padded) from the network;
        changed ones come from the receipt: ``old`` forward, and backward
        the transpose the network had cached before the commit — or,
        for receipts without one, ``old`` transposed once per
        :meth:`apply_update` call.
        """
        name, forward = step
        d = update.deltas.get(name)
        if d is None:
            return self.hin.oriented_matrix(name, forward)
        if forward:
            return d.old
        if d.old_transposed is not None:
            return d.old_transposed
        return self._transposed(("old", name), d.old, scratch)

    @staticmethod
    def _transposed(key: tuple, matrix, scratch: dict) -> sp.csr_matrix:
        """``matrix.T`` as CSR, converted once per :meth:`apply_update`."""
        memo = scratch["transposes"]
        if key not in memo:
            memo[key] = matrix.T.tocsr()
        return memo[key]

    # ------------------------------------------------------------------
    # Warm-cache snapshots
    # ------------------------------------------------------------------
    @_reader
    def export_state(self) -> tuple[int, list[tuple]]:
        """One consistent ``(epoch, entries)`` read of the warm cache.

        Everything a snapshot or a peer process needs to serve this
        engine's answers — the update epoch plus stable ``(key, value)``
        pairs of every cached materialization — captured under a single
        read-lock hold, so the pair can never describe two different
        epochs.  Values are peeked (recency and hit counters untouched)
        and are the engine's *own* matrix objects (immutable by library
        convention); callers serialize or copy them into shared buffers
        after the lock releases.

        The read lock excludes *writers*, not other readers: a
        concurrent query may still materialize (and thereby LRU-evict)
        entries between the key listing and the peek, so keys whose
        value has vanished are skipped rather than returned as ``None``.
        """
        self._sync()
        sentinel = object()
        entries = []
        for key in self._cache.keys():
            value = self._cache.peek(key, sentinel)
            if value is not sentinel:
                entries.append((key, value))
        return self._epoch, entries

    @_writer
    def attach_state(self, epoch: int, entries) -> int:
        """Adopt pre-materialized *entries* into this engine's cache at *epoch*.

        The inverse of :meth:`export_state`, used when loading a
        snapshot or attaching a published generation: values may wrap
        buffers the process does not own (read-only mmap views), which
        is safe because the engine
        never mutates cached matrices in place — maintenance *replaces*
        entries.  The LRU bound grows if needed so that every installed
        entry survives (state from a larger-cached engine must not be
        silently half-evicted).

        Parameters
        ----------
        epoch:
            The update epoch *entries* describe.  The network this
            engine serves must be at that epoch; a mismatch raises
            ``ValueError`` rather than installing a cache that would
            corrupt every later answer.  That the entries describe this
            network's *content* at that epoch is the caller's to check
            (:func:`repro.serving.load_snapshot` restores both from one
            snapshot, and its eager path hash-verifies them).
        entries:
            ``(key, value)`` pairs as produced by :meth:`export_state`.

        Returns
        -------
        The number of entries installed.
        """
        version = getattr(self.hin, "version", 0)
        if int(epoch) != version:
            raise ValueError(
                f"attach_state() epoch {epoch} does not match the "
                f"network's version {version}"
            )
        self._sync()
        entries = list(entries)
        if len(entries) > self._cache.maxsize:
            self._cache.resize(len(entries))
        for key, value in entries:
            self._cache.put(key, value)
        return len(entries)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counters and occupancy of the matrix cache."""
        return self._cache.info()

    @_reader
    def explain(self, path) -> PlanReport:
        """The association plan a materialization of *path* would use.

        Returns a :class:`~repro.engine.planner.PlanReport` — the chosen
        association string (cached seeds bracketed, ``~`` marking a
        transpose of a reversed-path entry), the cost model's flop
        estimates for the plan vs strict left-to-right evaluation, and
        the seeds it would consume.  Nothing is materialized or cached;
        only counter-free peeks touch the cache.

        Symmetric paths report the plan for the half product ``W`` (the
        engine builds ``M = W W^T`` from it); asymmetric paths report
        the full chain.  On an ``auto`` engine a symmetric path not yet
        priced this epoch is priced here, as its next query would price
        it (:meth:`_auto_choice`), so ``report.kernel`` is the kernel that
        query runs.
        """
        self._sync()
        mp = self.path(path)
        steps = mp.canonical_key()
        symmetric = mp.is_symmetric()
        if symmetric:
            steps = steps[: len(steps) // 2]
        report = self._planner.report(steps, path=str(mp), symmetric=symmetric)
        if symmetric:
            # The top-k kernel the next query runs on: the forced one, or
            # auto's pick.
            kernel = self._auto_choice(mp) if self.topk_mode == "auto" else self.topk_mode
            report = _dc_replace(report, kernel=kernel)
        return report

    def planner_info(self) -> dict:
        """Planner counters: plans built, products planned, and seed
        reuse broken down by kind (prefix/suffix/infix/full, inverse),
        plus the fused-vs-materialized top-k dispatch counters
        (``kernels``)."""
        info = dict(self._planner.counters)
        info["kernels"] = dict(self.kernel_counters)
        return info

    @_writer
    def clear_cache(self) -> None:
        """Drop every materialized matrix (the blunt alternative to
        :meth:`apply_update`)."""
        self._cache.clear()
        self._paths = {}
        self._epoch = getattr(self.hin, "version", 0)

    def __repr__(self) -> str:
        info = self._cache.info()
        return (
            f"MetaPathEngine({self.hin!r}, cached={info.currsize}/{info.maxsize}, "
            f"hit_rate={info.hit_rate:.2f})"
        )
