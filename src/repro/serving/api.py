"""ServingAPI — the one client-facing verb surface, and the one request form.

:class:`~repro.serving.QueryService`,
:class:`~repro.serving.ClusterService` and
:class:`~repro.serving.ShardedClusterService` inherit **one documented
entry point per verb** — :meth:`~ServingAPI.similar`,
:meth:`~ServingAPI.connected`, :meth:`~ServingAPI.rank`,
:meth:`~ServingAPI.watch` — from this mixin.  A service plugs in by
implementing :meth:`~ServingAPI._serving_core`, returning the
:class:`~repro.serving.QueryService` that owns its request queue (the
thread service returns itself; the clusters return their embedded
service).

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

The verbs below are the only builders of shapes and
:func:`_execute_spec` their only interpreter, so this module is the one
place that knows the layouts.  The queue's batching identity *is* the
shape, its coalescing identity is ``(epoch, shape, type(obj), obj)``,
and a job is ``(shape, objs)`` run by :func:`_execute_job` — in a
worker process against an attached generation, or in the parent
against the live ``(hin, engine)`` pair.  *path* is always the resolved
path's schema-disambiguated DSL spelling and *k* always a plain
non-negative ``int`` (:func:`~repro.utils.validation.check_k`), so
every spelling of a request shares work and every tier sees the same
arguments.

Every verb returns a :class:`concurrent.futures.Future`.  Submission
never raises for bad arguments: path, ``k`` or object errors are
delivered through the future, and only a closed service raises at
submit time.
"""

from __future__ import annotations

from concurrent.futures import Future

from repro.utils.validation import check_k

__all__ = ["ServingAPI"]


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


class ServingAPI:
    """Mixin: the unified serving verbs, shared by every service class.

    Subclasses implement :meth:`_serving_core`; each verb builds its
    request shape (see the module docstring) and submits it to the
    core's queue, handing back the future.
    """

    def _serving_core(self):
        """The :class:`~repro.serving.QueryService` owning the request
        queue these verbs submit to."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _serving_core()"
        )

    def _path_request(self, op: str, obj, path, k, *rest) -> Future:
        """Submit ``(op, path, k, *rest)`` for *obj*: the one place a
        path is resolved and ``k`` normalised, with any failure
        delivered through the future (the uniform error contract)."""
        core = self._serving_core()
        try:
            shape = (op, core._spell(path), check_k(k), *rest)
        except Exception as exc:
            future = Future()
            future.set_exception(exc)
            return future
        return core._submit(shape, obj)

    # ------------------------------------------------------------------
    # The verbs (one documented entry point each)
    # ------------------------------------------------------------------
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
        return self._serving_core()._submit(
            ("rank", tuple(sorted(kwargs.items()))), target
        )

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
