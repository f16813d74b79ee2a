"""QueryService — a concurrent, batching front end over one network.

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

* **Worker pool.**  The :class:`~repro.serving.api.ServingAPI` verbs
  (``similar``, ``connected``, ``rank``, ``watch``) enqueue a request
  and return a :class:`concurrent.futures.Future`; a small pool of
  worker threads drains the queue.  Queries execute under the engine's read
  lock, so they interleave freely with each other and serialize only
  against update commits (``hin.apply()``), each answer computed
  entirely at one update epoch.
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

from .api import ServingAPI, _execute_job, _is_registration, _pathsim_fields

__all__ = ["QueryService"]

#: Most same-shape top-k requests one worker groups into a single job.
_MAX_BATCH = 64


@dataclass
class _Request:
    """One queued unit of work, fanned out to one future per submitter.

    Coalesced submitters share the computation but each holds its own
    :class:`~concurrent.futures.Future`, so one client cancelling its
    future never cancels another client's answer.

    ``(shape, obj)`` is the request itself, in the one declarative form
    :mod:`repro.serving.api` defines: queued requests with equal shapes
    batch into one job, and the same ``(shape, objs)`` job runs in this
    process or in a worker process unchanged.
    """

    shape: tuple  # the op plus every argument but the query object
    obj: object  # the query object (the target, for a ranking)
    futures: list  # one Future per (coalesced) submitter
    key: tuple | None  # coalescing identity (None: never coalesce)


class QueryService(ServingAPI):
    """Thread-safe query serving over one HIN's shared engine.

    The client verbs (``similar``, ``connected``, ``rank``, ``watch``)
    come from :class:`~repro.serving.api.ServingAPI` — this class is
    the *core* behind them: the queue their ``(shape, obj)`` requests
    coalesce and batch in, and the worker pool that runs the resulting
    ``(shape, objs)`` jobs through an execution backend.

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
    executor:
        Optional execution backend: an object with
        ``run_group(shape, objs) -> [("ok", value) | ("err", error)]``,
        one status per object — the process tiers pass themselves and
        run the job in a worker process.  The default backend is this
        service's own :meth:`run_group`: the same job against the live
        network, under one engine read-lock hold.  Coalescing and
        batching happen here either way, so a thundering herd costs
        one job.

    Use as a context manager, or call :meth:`close` explicitly; both
    drain queued work before returning.
    """

    def __init__(
        self,
        hin,
        *,
        workers: int = 2,
        executor=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.hin = hin
        self._executor = self if executor is None else executor
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
    # Submission core (behind the ServingAPI verbs)
    # ------------------------------------------------------------------
    def _serving_core(self) -> "QueryService":
        """This service *is* the core — the verbs submit to it directly."""
        return self

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
                raise RuntimeError("QueryService is closed")
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
                statuses = self._executor.run_group(shape, objs)
        except BaseException as exc:  # noqa: BLE001 — futures carry failures
            statuses = [("err", exc)] * len(group)
        # Delivery happens outside every lock: a future's done-callbacks
        # run on this thread, and one that takes the write lock
        # (hin.apply, clear_cache) must not find a read lock held.
        for futures, (status, value) in zip(self._finish(group), statuses):
            for future in futures:
                self._resolve(future, status, value)

    def run_group(self, shape: tuple, objs) -> list[tuple]:
        """The in-process backend: one job against the live network.

        The engine's entry points take the read lock themselves; holding
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
