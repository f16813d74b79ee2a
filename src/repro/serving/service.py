"""QueryService — the one client surface and the one request queue.

The facade (:class:`~repro.query.session.QuerySession`) answers one
query at a time on the calling thread.  A serving process has a
different shape: many clients issue small top-k queries concurrently,
most of them over the same handful of meta-paths, while a writer
occasionally lands an update batch.  The LDBC SIGMOD-2014 contest
analyses (PAPERS.md) locate the throughput on such workloads in two
places — *sharing* work between concurrent queries and *batching*
same-shape queries into single matrix operations — and this module
implements exactly those two moves on top of the engine's thread-safe
serving layer:

* **Worker pool.**  The verbs (``similar``, ``connected``, ``rank``,
  ``watch``) enqueue a request and return a
  :class:`concurrent.futures.Future`; a small pool of worker threads
  drains the queue.  Queries execute under the engine's read lock, so
  they interleave freely with each other and serialize only against
  update commits (``hin.apply()``), each answer computed entirely at
  one update epoch.
* **Request coalescing.**  Identical requests in flight at the same
  update epoch (same operation, same arguments — any spelling of the
  same meta-path) share one computation — a thundering herd of
  ``similar("SIGMOD", "V-P-A-P-V", k=10)`` costs one row slice.
* **Opportunistic batching.**  When a worker picks up a PathSim top-k
  request, it drains every queued request with the same shape —
  everything but the query object — (up to :data:`_MAX_BATCH`) and
  answers them with one call to
  :meth:`~repro.engine.MetaPathEngine.pathsim_top_k_batch` — one sparse
  × dense block product instead of one mat-vec per query.  Under load
  the batch assembles itself; an idle service degenerates to per-query
  execution with no added latency.

The process tiers (:class:`~repro.serving.ClusterService`,
:class:`~repro.serving.ShardedClusterService`) *are* query services:
they inherit the verbs, the queue and the coalescing, and override
:meth:`QueryService.run_group` — the one backend hook — to run each
job in a worker process.  Code written against one service class runs
unchanged against the others; only construction differs.

A request has exactly one form, wherever it runs: ``(shape, obj)``.
*shape* is a declarative, picklable tuple — the op plus everything that
is not the query object — and *obj* is the query object (the ranking
target, for ``rank``):

================================================  ===============
shape                                             built by
================================================  ===============
``("pathsim", path, k, exclude)``                 ``similar`` (PathSim)
``("similar", path, k, measure, exclude)``        ``similar`` (other measures)
``("connected", path, k, exclude)``               ``connected``
``("rank", kwargs)``                              ``rank``
``("watch", path, k, measure, exclude)``          ``watch``
================================================  ===============

A shape says *what* was asked, never *how* to compute it: association
order is the engine's planner's, the top-k kernel the serving engine's
policy (``MetaPathEngine(hin, mode=...)``), so two requests for the
same answer are always the same request.

The verbs are the only builders of shapes and :func:`_execute_spec`
their only interpreter, so this module is the one place that knows the
layouts.  The queue's batching identity *is* the shape, its coalescing
identity is ``(epoch, shape, type(obj), obj)``, and a job is
``(shape, objs)`` run by :func:`_execute_job` — in a worker process
against an attached generation, or in the parent against the live
``(hin, engine)`` pair.  *path* is always the resolved path's
schema-disambiguated DSL spelling and *k* always a plain non-negative
``int`` (:func:`~repro.utils.validation.check_k`), so every spelling of
a request shares work and every tier sees the same arguments.

Every verb returns a :class:`concurrent.futures.Future`.  Submission
never raises for bad arguments: path, ``k`` or object errors are
delivered through the future, and only a closed service raises at
submit time.

Batched answers are *bit-identical* to per-query answers (the block
product runs the same summation per row), which
``tests/serving/test_service.py::TestAnswers`` asserts; the benchmark's
``hot_read`` workload records what the sharing is worth
(``service.coalesce_ratio``, ``service.mean_batch``).

Example
-------
>>> from repro.serving import QueryService                # doctest: +SKIP
>>> with QueryService(hin, workers=2) as svc:             # doctest: +SKIP
...     futures = [svc.similar(v, "V-P-A-P-V", k=5) for v in venues]
...     answers = [f.result() for f in futures]
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from types import SimpleNamespace

from repro.utils.validation import check_k

__all__ = ["QueryService"]


def _pathsim_fields(shape: tuple) -> tuple | None:
    """``(path, k, exclude)`` of a PathSim top-k shape —
    the one op a single block product (or a scatter) answers for many
    query objects at once — else ``None``."""
    return shape[1:] if shape[0] == "pathsim" else None


def _is_registration(shape: tuple) -> bool:
    """Whether *shape* registers a standing query: such requests never
    coalesce (each caller gets its own subscription) and always run
    against the live pair, where ``hin.apply()`` commits."""
    return shape[0] == "watch"


def _execute_spec(state, shape: tuple, obj):
    """Run one request against *state* — anything with the network's
    ``hin`` and ``engine``.  Every branch takes the engine read lock
    itself, so the answer is computed at one epoch."""
    op, *args = shape
    if op == "pathsim":
        path, k, exclude = args
        return state.engine.pathsim_top_k(
            path, obj, k, exclude_query=exclude
        )
    if op == "similar":
        path, k, measure, exclude = args
        return state.hin.query().similar(
            obj, path, k, measure=measure, exclude_self=exclude
        )
    if op == "connected":
        path, k, exclude = args
        return state.engine.top_k_connectivity(
            path, obj, k, exclude_query=exclude
        )
    if op == "rank":
        (kwargs,) = args
        return state.hin.query().rank(obj, **dict(kwargs))
    if op == "watch":
        path, k, measure, exclude = args
        return state.hin.watches().watch(
            path, obj, k=k, measure=measure, exclude_self=exclude
        )
    raise ValueError(f"unknown request shape {op!r}")


def _execute_job(state, shape: tuple, objs) -> list[tuple]:
    """One job -> aligned ``("ok", value) | ("err", error)`` statuses.

    *state* is an attached generation in a worker process, or the live
    ``(hin, engine)`` pair in the parent.  Several PathSim objects are
    answered with one ``pathsim_top_k_batch`` call (the engine's one
    top-k route, so answers are bit-identical to one query each); when
    that raises, each object is retried alone, so one bad request
    cannot poison its co-batched neighbours — and a single object is
    never computed twice.
    """
    fields = _pathsim_fields(shape)
    if fields is not None and len(objs) > 1:
        path, k, exclude = fields
        try:
            results = state.engine.pathsim_top_k_batch(
                path, objs, k, exclude_query=exclude
            )
            return [("ok", result) for result in results]
        except Exception:
            pass  # retried below, per object
    statuses = []
    for obj in objs:
        try:
            statuses.append(("ok", _execute_spec(state, shape, obj)))
        except Exception as exc:
            statuses.append(("err", exc))
    return statuses


#: Most same-shape top-k requests one worker groups into a single job.
_MAX_BATCH = 64


@dataclass
class _Request:
    """One queued unit of work, fanned out to one future per submitter.

    Coalesced submitters share the computation but each holds its own
    :class:`~concurrent.futures.Future`, so one client cancelling its
    future never cancels another client's answer.

    ``(shape, obj)`` is the request itself, in the one declarative form
    this module defines: queued requests with equal shapes
    batch into one job, and the same ``(shape, objs)`` job runs in this
    process or in a worker process unchanged.
    """

    shape: tuple  # the op plus every argument but the query object
    obj: object  # the query object (the target, for a ranking)
    futures: list  # one Future per (coalesced) submitter
    key: tuple | None  # coalescing identity (None: never coalesce)


class QueryService:
    """Thread-safe query serving over one HIN's shared engine.

    The client verbs (``similar``, ``connected``, ``rank``, ``watch``)
    build ``(shape, obj)`` requests (see the module docstring); the
    queue coalesces and batches them, and a pool of worker threads runs
    the resulting ``(shape, objs)`` jobs through :meth:`run_group` —
    here, against the live network; in a process tier, in a worker
    process.  Coalescing and batching happen here either way, so a
    thundering herd costs one job.

    Parameters
    ----------
    hin:
        The network to serve.  The service always executes through the
        network's *shared* session and engine (``hin.query()`` /
        ``hin.engine()``), so its cache is the same one every other
        caller warms — and so update commits via ``hin.apply()``
        coordinate with in-flight queries through the engine's
        read–write lock.
    workers:
        Worker-thread count.  Batching does most of the work; a small
        pool (2–4) is usually right even for many clients.

    Use as a context manager, or call :meth:`close` explicitly; both
    drain queued work before returning.
    """

    def __init__(self, hin, *, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.hin = hin
        # Always the shared session and engine: hin.apply() commits
        # under the shared engine's lock, so serving through any other
        # engine could observe torn mid-commit network state.
        self._session = hin.query()
        self._engine = self._session.engine
        self._live = SimpleNamespace(hin=hin, engine=self._engine)
        self._spelled: dict[tuple, str] = {}
        self._cond = threading.Condition()
        self._work: deque[_Request] = deque()
        self._inflight: dict[tuple, _Request] = {}
        self._closed = False
        self._stats = {
            "submitted": 0,
            "coalesced": 0,
            "completed": 0,
            "cancelled": 0,
            "batches": 0,
            "batched_requests": 0,
            "largest_batch": 0,
        }
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(int(workers))
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # The verbs (one documented entry point each)
    # ------------------------------------------------------------------
    def _path_request(self, op: str, obj, path, k, *rest) -> Future:
        """Submit ``(op, path, k, *rest)`` for *obj*: the one place a
        path is resolved and ``k`` normalised, with any failure
        delivered through the future (the uniform error contract)."""
        try:
            shape = (op, self._spell(path), check_k(k), *rest)
        except Exception as exc:
            future = Future()
            future.set_exception(exc)
            return future
        return self._submit(shape, obj)

    def similar(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool = True,
    ) -> Future:
        """Enqueue a top-*k* similarity query; returns a future.

        ``measure="pathsim"`` requests are batchable: queued requests
        over the same ``(path, k, exclude_self)`` shape are
        answered by one block product (scattered across shards on a
        :class:`~repro.serving.ShardedClusterService`).  Other measures
        execute singly through the session.

        Parameters
        ----------
        obj:
            Query object — a name, or an index into the path's source
            type.
        path:
            Any meta-path spelling (DSL string, type list,
            ``MetaPath``); must be symmetric for ``pathsim``.
        k:
            How many peers to return — an ``int`` or numpy integer.
        measure:
            ``"pathsim"`` (engine-served, batchable) or any measure
            ``QuerySession.similar`` accepts.
        exclude_self:
            Drop the query object from its own answer.

        Raises
        ------
        RuntimeError
            When the service is already closed (the only submit-time
            raise).  Every other failure — bad path, non-integer *k*,
            unknown object, engine error — is delivered through the
            returned future, never raised on the submitting thread.
        """
        if measure == "pathsim":
            return self._path_request(
                "pathsim", obj, path, k, bool(exclude_self)
            )
        return self._path_request(
            "similar", obj, path, k, measure, bool(exclude_self)
        )

    def connected(
        self,
        obj,
        path,
        k: int = 10,
        *,
        exclude_self: bool = False,
    ) -> Future:
        """Enqueue a top-*k* connectivity (path-count) query; returns a
        future.

        Parameters
        ----------
        obj:
            Query object of the path's source type.
        path:
            Any meta-path spelling; asymmetric paths are fine
            (connectivity counts path instances, it does not normalize).
        k:
            How many targets to return.
        exclude_self:
            Drop the query object (round-trip paths only; enforced when
            the request executes, with the error on the future).

        Raises
        ------
        RuntimeError
            When the service is already closed; execution failures
            arrive through the future.
        """
        return self._path_request(
            "connected", obj, path, k, bool(exclude_self)
        )

    def rank(self, target, **kwargs) -> Future:
        """Enqueue a ranking query; returns a future.

        Parameters
        ----------
        target:
            A node type or meta-path, exactly as
            :meth:`repro.query.QuerySession.rank` takes it.
        **kwargs:
            Passed through to ``QuerySession.rank`` (``by=``, ``path=``,
            ``method=``, ...).

        Raises
        ------
        RuntimeError
            When the service is already closed; execution failures
            arrive through the future.
        """
        return self._submit(("rank", tuple(sorted(kwargs.items()))), target)

    def watch(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool | None = None,
    ) -> Future:
        """Enqueue a standing-query registration; the future resolves
        with a :class:`~repro.watch.Subscription`.

        The subscription's ``(epoch, result)`` pushes then flow through
        its own ``next()`` futures and ``drain()`` queue — the same
        futures machinery the query surface uses, but long-lived.
        Registrations never coalesce (each caller gets its own
        subscription) and always execute with the single writer: on a
        cluster, registration and maintenance run in the *parent* —
        where ``hin.apply()`` commits — and pushes fan out from there,
        while workers keep answering the one-shot query surface from
        their attached generations, untouched.

        Parameters
        ----------
        obj:
            Query object of the path's source type.
        path:
            Any meta-path spelling (symmetric for ``pathsim``).
        k:
            Result size to maintain.
        measure:
            ``"pathsim"`` or ``"connectivity"``.
        exclude_self:
            Defaults to the measure's convention (``True`` for pathsim,
            ``False`` for connectivity).
        """
        return self._path_request(
            "watch", obj, path, k, measure, exclude_self
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def prewarm(self, *paths) -> "QueryService":
        """Materialize *paths* into the shared cache before serving."""
        self._session.prewarm(*paths)
        return self

    def _spell(self, path) -> str:
        """*path* (any spelling) as the one DSL string requests carry:
        schema-disambiguated, so it parses back to the same path on any
        schema and in any process.  Memoised per canonical path — the
        spelling walk costs as much as a whole coalesced submit."""
        mp = self._session.path(path)
        key = mp.canonical_key()
        spelled = self._spelled.get(key)
        if spelled is None:
            spelled = self._spelled[key] = mp.to_string(self.hin.schema)
        return spelled

    def _submit(self, shape: tuple, obj) -> Future:
        """Coalesce onto the in-flight request for ``(epoch, shape, obj)``,
        or enqueue a new one.

        The epoch prefix is the whole epoch rule: ``hin.version`` moves
        only under the engine write lock, so a request keyed at epoch
        *e* executes at *e* or later, and a submitter who starts after
        ``hin.apply()`` returned reads the new epoch and can only join
        requests keyed at it — a post-update submitter never receives a
        pre-update answer, wherever the request runs.  The object's type
        is part of the identity: ``True`` and ``1.0`` equal ``1`` but
        name no author, so they must not share author 1's answer.
        """
        key = None
        if not _is_registration(shape):
            key = (self.epoch, shape, type(obj), obj)
            try:
                hash(key)
            except TypeError:  # an unhashable argument: answer it alone
                key = None
        # Share the computation, not the future: each coalesced
        # submitter gets its own, so cancelling one never cancels
        # another's answer.
        future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            existing = self._inflight.get(key)  # never holds a None key
            if existing is not None:
                self._stats["coalesced"] += 1
                existing.futures.append(future)
                return future
            request = _Request(shape, obj, [future], key)
            if key is not None:
                self._inflight[key] = request
            self._stats["submitted"] += 1
            self._work.append(request)
            self._cond.notify()
        return future

    # ------------------------------------------------------------------
    # Queue machinery
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._work and not self._closed:
                    self._cond.wait()
                if not self._work:
                    return  # closed and fully drained
                first = self._work.popleft()
                group = [first]
                if _pathsim_fields(first.shape) is not None and self._work:
                    # Bounded drain: scan at most a few batches' worth of
                    # queue — unbounded scanning would churn the whole
                    # deque under this lock for every batchable request
                    # (O(n²) on deep mixed-shape queues).  Requests past
                    # the window simply batch on a later pass.
                    scan_limit = max(_MAX_BATCH * 4, 256)
                    skipped: deque[_Request] = deque()
                    while (
                        self._work
                        and len(group) < _MAX_BATCH
                        and len(skipped) + len(group) <= scan_limit
                    ):
                        other = self._work.popleft()
                        if other.shape == first.shape:
                            group.append(other)
                        else:
                            skipped.append(other)
                    while skipped:  # restore non-matching requests in order
                        self._work.appendleft(skipped.pop())
                if len(group) > 1:
                    self._stats["batches"] += 1
                    self._stats["batched_requests"] += len(group)
                    self._stats["largest_batch"] = max(
                        self._stats["largest_batch"], len(group)
                    )
            self._execute(group)

    def _execute(self, group: list[_Request]) -> None:
        # Honour Future.cancel(): a submitter's cancelled future is
        # dropped (set_running_or_notify_cancel flips the survivors to
        # RUNNING, after which cancel() can no longer race set_result);
        # a request whose every submitter cancelled is retired without
        # computing.  All under the queue lock, so no duplicate can
        # join a request that is about to be retired.
        with self._cond:
            active = []
            for request in group:
                request.futures = [
                    f for f in request.futures if f.set_running_or_notify_cancel()
                ]
                if request.futures:
                    active.append(request)
                else:
                    self._retire_locked(request, cancelled=True)
        if active:
            self._run(active)

    def _run(self, group: list[_Request]) -> None:
        """Run *group* as one ``(shape, objs)`` job, retire it, deliver."""
        shape = group[0].shape
        objs = [request.obj for request in group]
        try:
            if _is_registration(shape):
                # Registration takes the registry mutex, then the engine
                # read lock inside the initial computation.  Taking the
                # read lock first (as run_group does) would invert that
                # order against the maintainer in a commit hook, and a
                # queued writer between the two would close the cycle.
                statuses = _execute_job(self._live, shape, objs)
            else:
                statuses = self.run_group(shape, objs)
        except BaseException as exc:  # noqa: BLE001 — futures carry failures
            statuses = [("err", exc)] * len(group)
        # Delivery happens outside every lock: a future's done-callbacks
        # run on this thread, and one that takes the write lock
        # (hin.apply, clear_cache) must not find a read lock held.
        for futures, (status, value) in zip(self._finish(group), statuses):
            for future in futures:
                self._resolve(future, status, value)

    def run_group(self, shape: tuple, objs) -> list[tuple]:
        """Run one ``(shape, objs)`` job; one ``("ok", value) |
        ("err", error)`` status per object.

        The backend hook: a process tier overrides it to run the job in
        a worker process.  Here it runs against the live network.  The
        engine's entry points take the read lock themselves; holding
        it across the whole job additionally covers facade operations
        that read network state outside the engine (degree rankings,
        projections) and keeps a batch's retries at the batch's epoch.
        """
        with self._engine.lock.read():
            return _execute_job(self._live, shape, objs)

    @staticmethod
    def _resolve(future: Future, status: str, value) -> None:
        """Deliver one status to one submitter, tolerating a mid-compute
        cancel.

        Futures that coalesced onto a request after its group started
        running are still PENDING here; setting their result is legal,
        but one cancelled in that window would raise InvalidStateError.
        """
        try:
            if status == "ok":
                future.set_result(value)
            else:
                future.set_exception(value)
        except InvalidStateError:
            pass  # the submitter cancelled while we computed

    def _finish(self, group: list[_Request]) -> list[list[Future]]:
        """Retire *group* from the coalescing window; return the futures
        to deliver to (snapshotted under the lock — once a request is
        out of ``_inflight``, no new submitter can join it)."""
        with self._cond:
            fan_out = []
            for request in group:
                self._retire_locked(request)
                fan_out.append(list(request.futures))
            return fan_out

    def _retire_locked(self, request: _Request, *, cancelled: bool = False) -> None:
        """Drop one request from the coalescing map (caller holds the lock).

        Cancelled-before-computing requests count as ``cancelled``, not
        ``completed`` — the counters describe work actually performed.
        """
        self._stats["cancelled" if cancelled else "completed"] += 1
        if request.key is not None and self._inflight.get(request.key) is request:
            del self._inflight[request.key]

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters: submitted/coalesced/completed/cancelled requests,
        batch shapes (``batches``, ``batched_requests``,
        ``largest_batch``), plus two nested sections — ``planner`` (the
        engine's association-order counters and default mode) and
        ``watches`` (the standing-query registry's maintenance
        counters; zeros when nothing was ever watched)."""
        with self._cond:
            out = dict(self._stats)
        out["planner"] = self._engine.planner_info()
        # Peek, never create: stats() on a watch-free service must not
        # install the registry's commit hook.
        manager = getattr(self.hin, "_watch_manager", None)
        out["watches"] = (
            manager.stats()
            if manager is not None
            else {"watches": 0, "subscriptions": 0}
        )
        return out

    def cache_info(self):
        """The shared engine's cache counters (hits/misses/evictions)."""
        return self._engine.cache_info()

    @property
    def epoch(self) -> int:
        """The served network's current update epoch."""
        return getattr(self.hin, "version", 0)

    def close(self) -> None:
        """Stop accepting work, drain the queue, and join the workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for t in self._threads:
            t.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"QueryService({self.hin!r}, workers={len(self._threads)}, "
            f"served={s['completed']}, coalesced={s['coalesced']}, "
            f"batches={s['batches']})"
        )
