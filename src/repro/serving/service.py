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
  time (same operation, same spelling of the arguments) share one
  computation and one future — a thundering herd of ``similar("SIGMOD",
  "V-P-A-P-V", k=10)`` costs one row slice.
* **Opportunistic batching.**  When a worker picks up a PathSim top-k
  request, it drains every queued request with the same
  ``(path, k, exclude)`` shape (up to ``max_batch``) and answers them
  with one call to
  :meth:`~repro.engine.MetaPathEngine.pathsim_top_k_batch` — one sparse
  × dense block product instead of one mat-vec per query.  Under load
  the batch assembles itself; an idle service degenerates to per-query
  execution with no added latency.

Batched answers are *bit-identical* to per-query answers (the block
product runs the same summation per row), which benchmark E17 asserts
while measuring the throughput gain.

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

from .api import ServingAPI

__all__ = ["QueryService"]


@dataclass
class _Request:
    """One queued unit of work, fanned out to one future per submitter.

    Coalesced submitters share the computation but each holds its own
    :class:`~concurrent.futures.Future`, so one client cancelling its
    future never cancels another client's answer.

    Every request carries two execution forms: closures (``call`` /
    ``batch_call``) for the in-process path, and a declarative,
    picklable ``spec`` for process-backed executors
    (:class:`~repro.serving.cluster.ClusterService`) — the same queued
    request can execute either way.
    """

    op: str
    call: object  # () -> result, for solo execution
    futures: list  # one Future per (coalesced) submitter
    key: tuple | None = None  # coalescing identity (None: never coalesce)
    batch_key: tuple | None = None  # grouping shape (None: not batchable)
    batch_call: object = None  # (queries) -> [results], for grouped execution
    query: object = None  # this request's query object within a batch
    spec: tuple | None = None  # declarative form for remote execution
    batch_spec: tuple | None = None  # (path, k, exclude, plan, mode): remote batching


class QueryService(ServingAPI):
    """Thread-safe query serving over one HIN's shared engine.

    The client verbs (``similar``, ``connected``, ``rank``, ``watch``)
    come from :class:`~repro.serving.api.ServingAPI` — this class is
    the *core* behind them: the ``_submit_*`` bodies below build each
    request's closure and picklable spec forms and feed the queue.

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
    max_batch:
        Upper bound on how many same-shape top-k requests one worker
        groups into a single block product.
    executor:
        Optional execution backend: an object with
        ``run_group(kind, payload) -> [("ok", value) | ("err", error)]``
        — :class:`~repro.serving.cluster.ClusterService` passes itself.
        When set, request groups are *dispatched* (as picklable specs)
        instead of computed under the engine read lock on this thread;
        coalescing and batching still happen here, so a thundering herd
        costs one dispatched job either way.  Coalescing keys are then
        epoch-prefixed: the in-process path guarantees "a post-update
        submitter never receives a pre-update answer" by retiring
        requests inside the read lock, and the executor path gets the
        same guarantee by never coalescing across an epoch boundary.

    Use as a context manager, or call :meth:`close` explicitly; both
    drain queued work before returning.
    """

    def __init__(
        self,
        hin,
        *,
        workers: int = 2,
        max_batch: int = 64,
        executor=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.hin = hin
        self._executor = executor
        # Always the shared session and engine: hin.apply() commits
        # under the shared engine's lock, so serving through any other
        # engine could observe torn mid-commit network state.
        self._session = hin.query()
        self._engine = self._session.engine
        self._max_batch = int(max_batch)
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

    def _submit_similar(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool = True,
        plan: str | None = None,
        mode: str | None = None,
    ) -> Future:
        """Build and enqueue a similarity request (see
        :meth:`ServingAPI.similar` for the client contract)."""
        if measure == "pathsim":
            try:
                mp = self._session.path(path)
            except Exception as exc:  # uniform error contract: via the future
                return self._failed(exc)
            shape = (
                "similar", mp.canonical_key(), int(k), bool(exclude_self),
                plan, mode,
            )
            return self._submit(
                self._safe_key("similar", shape[1:] + (obj,)),
                lambda key: _Request(
                    op="similar",
                    call=lambda: self._engine.pathsim_top_k(
                        mp, obj, k, exclude_query=exclude_self, plan=plan,
                        mode=mode,
                    ),
                    futures=[Future()],
                    key=key,
                    batch_key=shape,
                    batch_call=lambda queries: self._engine.pathsim_top_k_batch(
                        mp, queries, k, exclude_query=exclude_self, plan=plan,
                        mode=mode,
                    ),
                    query=obj,
                    spec=(
                        "pathsim", str(mp), obj, int(k), bool(exclude_self),
                        plan, mode,
                    ),
                    batch_spec=(str(mp), int(k), bool(exclude_self), plan, mode),
                ),
            )
        return self._submit(
            self._safe_key(
                "similar",
                (str(path), obj, int(k), measure, bool(exclude_self), plan),
            ),
            lambda key: _Request(
                op="similar",
                call=lambda: self._session.similar(
                    obj, path, k,
                    measure=measure, exclude_self=exclude_self, plan=plan,
                ),
                futures=[Future()],
                key=key,
                spec=(
                    "similar", obj, str(path), int(k), measure,
                    bool(exclude_self), plan,
                ),
            ),
        )

    def _submit_connected(
        self, obj, path, k: int = 10, *, exclude_self: bool = False,
        plan: str | None = None,
    ) -> Future:
        """Build and enqueue a connectivity request (see
        :meth:`ServingAPI.connected` for the client contract)."""
        try:
            mp = self._session.path(path)
        except Exception as exc:  # uniform error contract: via the future
            return self._failed(exc)
        return self._submit(
            self._safe_key(
                "connected",
                (mp.canonical_key(), int(k), bool(exclude_self), plan, obj),
            ),
            lambda key: _Request(
                op="connected",
                call=lambda: self._engine.top_k_connectivity(
                    mp, obj, k, exclude_query=exclude_self, plan=plan
                ),
                futures=[Future()],
                key=key,
                spec=(
                    "connected", obj, str(mp), int(k), bool(exclude_self), plan
                ),
            ),
        )

    def _submit_rank(self, target, **kwargs) -> Future:
        """Build and enqueue a ranking request (see
        :meth:`ServingAPI.rank` for the client contract)."""
        return self._submit(
            self._safe_key("rank", (target, tuple(sorted(kwargs.items())))),
            lambda key: _Request(
                op="rank",
                call=lambda: self._session.rank(target, **kwargs),
                futures=[Future()],
                key=key,
                spec=("rank", target, tuple(sorted(kwargs.items()))),
            ),
        )

    def _submit_watch(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool | None = None,
        plan: str | None = None,
    ) -> Future:
        """Build and enqueue a watch registration (see
        :meth:`ServingAPI.watch` for the client contract).

        Registrations never coalesce and always execute in this
        process, executor or not: result maintenance lives with the
        writer (:class:`~repro.serving.cluster.ClusterService` keeps it
        in the parent and fans results out from there).
        """
        return self._submit(
            None,
            lambda key: _Request(
                op="watch",
                call=lambda: self.hin.watches().watch(
                    path,
                    obj,
                    k=k,
                    measure=measure,
                    exclude_self=exclude_self,
                    plan=plan,
                ),
                futures=[Future()],
                key=key,
            ),
        )

    def prewarm(self, *paths) -> "QueryService":
        """Materialize *paths* into the shared cache before serving."""
        self._session.prewarm(*paths)
        return self

    @staticmethod
    def _failed(exc: BaseException) -> Future:
        """A pre-failed future: submit-time errors use the same channel
        as execution errors."""
        future = Future()
        future.set_exception(exc)
        return future

    def _safe_key(self, op: str, parts: tuple) -> tuple | None:
        """A coalescing key, or ``None`` when any argument is unhashable.

        With an executor, the key is epoch-prefixed: execution happens
        in another process outside this engine's read lock, so the
        retire-inside-the-lock guarantee does not apply — refusing to
        coalesce across an epoch boundary restores "a post-update
        submitter never receives a pre-update answer".
        """
        key = (op,) + parts
        if self._executor is not None:
            key = (getattr(self.hin, "version", 0),) + key
        try:
            hash(key)
        except TypeError:
            return None
        return key

    # ------------------------------------------------------------------
    # Queue machinery
    # ------------------------------------------------------------------
    def _submit(self, key: tuple | None, factory) -> Future:
        """Coalesce onto an in-flight request for *key*, or enqueue a new
        one built by *factory* — which only runs on a coalescing miss, so
        the hot duplicate path never constructs futures it throws away."""
        with self._cond:
            if self._closed:
                raise RuntimeError("QueryService is closed")
            if key is not None:
                existing = self._inflight.get(key)
                if existing is not None:
                    # Share the computation, not the future: each
                    # coalesced submitter gets its own, so cancelling
                    # one never cancels another's answer.
                    self._stats["coalesced"] += 1
                    future = Future()
                    existing.futures.append(future)
                    return future
            request = factory(key)
            if key is not None:
                self._inflight[key] = request
            self._stats["submitted"] += 1
            self._work.append(request)
            self._cond.notify()
        return request.futures[0]

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._work and not self._closed:
                    self._cond.wait()
                if not self._work:
                    return  # closed and fully drained
                first = self._work.popleft()
                group = [first]
                if first.batch_key is not None and self._work:
                    # Bounded drain: scan at most a few batches' worth of
                    # queue — unbounded scanning would churn the whole
                    # deque under this lock for every batchable request
                    # (O(n²) on deep mixed-shape queues).  Requests past
                    # the window simply batch on a later pass.
                    scan_limit = max(self._max_batch * 4, 256)
                    skipped: deque[_Request] = deque()
                    while (
                        self._work
                        and len(group) < self._max_batch
                        and len(skipped) + len(group) <= scan_limit
                    ):
                        other = self._work.popleft()
                        if other.batch_key == first.batch_key:
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
        # The engine's own entry points take the read lock; holding it
        # across the whole request additionally covers facade operations
        # that read network state outside the engine (degree rankings,
        # projections), so every answer is computed at one epoch.
        #
        # Retirement (_finish) happens INSIDE the read lock: an update
        # cannot commit until the lock is released, so every submitter
        # that coalesced onto this request did so before the next epoch
        # existed — a submitter arriving after a commit always starts a
        # fresh request and never receives a pre-update answer.
        # Delivery happens OUTSIDE the lock on every path: a future's
        # done-callbacks run on this thread, and one that takes the
        # write lock (hin.apply, clear_cache) would otherwise hit the
        # read-to-write upgrade guard.
        deliveries: list[tuple[Future, object, object]] = []
        if group[0].op == "watch":
            # Watch registration manages its own locking (registry
            # mutex, then the engine read lock inside the initial
            # computation — the canonical order).  Taking the read lock
            # here first would invert that order against the maintainer
            # running in a commit hook, and a queued writer between the
            # two would close the cycle into deadlock.  Executor or
            # not, registration is local: maintenance lives with the
            # writer.
            self._compute(group, deliveries)
        elif self._executor is not None:
            self._dispatch(group, deliveries)
        else:
            with self._engine.lock.read():
                self._compute(group, deliveries)
        for future, result, error in deliveries:
            self._resolve(future, result=result, error=error)

    def _dispatch(self, group: list[_Request], deliveries: list) -> None:
        """Execute *group* through the process-backed executor.

        The group travels as its declarative specs — one ``batch`` job
        when the worker can answer it with a single block product, else
        one ``solo`` job — and comes back as one aligned status per
        request (workers retry a failed batch per-query, so statuses
        never collapse).  Epoch consistency needs no lock here: workers
        attach immutable generations, so each job is answered entirely
        at one epoch, and epoch-prefixed coalescing keys (see
        :meth:`_safe_key`) keep post-update submitters off pre-update
        requests.
        """
        try:
            if len(group) > 1:
                path, k, exclude, plan, mode = group[0].batch_spec
                statuses = self._executor.run_group(
                    "batch",
                    (path, k, exclude, plan, mode, [r.query for r in group]),
                )
            else:
                statuses = self._executor.run_group("solo", [group[0].spec])
        except BaseException as exc:  # noqa: BLE001 — futures carry failures
            for futures in self._finish(group):
                for future in futures:
                    deliveries.append((future, None, exc))
            return
        for futures, (status, value) in zip(self._finish(group), statuses):
            for future in futures:
                if status == "ok":
                    deliveries.append((future, value, None))
                else:
                    deliveries.append((future, None, value))

    def _compute(self, group: list[_Request], deliveries: list) -> None:
        """Execute *group* (caller holds the read lock), retire it, and
        record the per-future deliveries for after the lock releases."""
        try:
            if len(group) == 1:
                results = [group[0].call()]
            else:
                results = group[0].batch_call([r.query for r in group])
        except BaseException as exc:  # noqa: BLE001 — futures carry failures
            if len(group) == 1:
                for future in self._finish(group)[0]:
                    deliveries.append((future, None, exc))
            else:
                # One bad request must not poison the co-batched ones:
                # retry each solo so every future gets its own result
                # or its own error.
                for request in group:
                    self._compute([request], deliveries)
            return
        for futures, result in zip(self._finish(group), results):
            for future in futures:
                deliveries.append((future, result, None))

    @staticmethod
    def _resolve(future: Future, *, result=None, error=None) -> None:
        """Deliver to one submitter, tolerating a mid-compute cancel.

        Futures that coalesced onto a request after its group started
        running are still PENDING here; setting their result is legal,
        but one cancelled in that window would raise InvalidStateError.
        """
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
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
