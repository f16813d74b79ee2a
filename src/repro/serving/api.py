"""ServingAPI — the one client-facing verb surface of every service.

:class:`~repro.serving.QueryService`,
:class:`~repro.serving.ClusterService` and
:class:`~repro.serving.ShardedClusterService` used to each spell out the
same five submission methods; the thread service carried the real
bodies and the clusters carried kwargs-forwarding copies that drifted
one docstring at a time.  This mixin is the collapse: **one documented
entry point per verb** — :meth:`similar`, :meth:`connected`,
:meth:`rank`, :meth:`watch` — implemented once, driven by the same
declarative picklable request specs that already travel to worker
processes, and inherited by every service.

A service plugs in by implementing :meth:`_serving_core`, returning the
:class:`~repro.serving.QueryService` that owns its request queue (the
thread service returns itself; the clusters return their embedded
service).  Everything else — coalescing, batching, futures, executor
dispatch — is the core's existing machinery.

Every verb returns a :class:`concurrent.futures.Future`.  Submission
never raises for bad arguments: path or object errors are delivered
through the future, and only a closed service raises at submit time.
"""

from __future__ import annotations

from concurrent.futures import Future

__all__ = ["ServingAPI"]


class ServingAPI:
    """Mixin: the unified serving verbs, shared by every service class.

    Subclasses implement :meth:`_serving_core`; the verbs here build the
    request (closure + picklable spec forms) through the core's
    submission machinery and hand back the future.
    """

    def _serving_core(self):
        """The :class:`~repro.serving.QueryService` owning the request
        queue these verbs submit to."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _serving_core()"
        )

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
        plan: str | None = None,
        mode: str | None = None,
    ) -> Future:
        """Enqueue a top-*k* similarity query; returns a future.

        ``measure="pathsim"`` requests are batchable: queued requests
        over the same ``(path, k, exclude_self, plan, mode)`` shape are
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
            How many peers to return.
        measure:
            ``"pathsim"`` (engine-served, batchable) or any measure
            ``QuerySession.similar`` accepts.
        exclude_self:
            Drop the query object from its own answer.
        plan:
            Association-order override (``"auto"``/``"left"``, default
            the engine's policy).  Part of the coalescing and batching
            identity — answers are plan-independent, but work sharing
            never silently overrides an explicit request.
        mode:
            Top-k kernel override (``"fused"``/``"materialize"``/
            ``"auto"``, default the engine's policy; pathsim only).
            Also part of the coalescing/batching identity, and also
            answer-independent — ``"fused"`` threads query rows through
            the relation chain without materializing the path, which
            ``"auto"`` picks by itself for cold paths.

        Raises
        ------
        RuntimeError
            When the service is already closed (the only submit-time
            raise).  Every other failure — bad path, unknown object,
            engine error — is delivered through the returned future,
            never raised on the submitting thread.
        """
        return self._serving_core()._submit_similar(
            obj, path, k, measure=measure, exclude_self=exclude_self,
            plan=plan, mode=mode,
        )

    def connected(
        self,
        obj,
        path,
        k: int = 10,
        *,
        exclude_self: bool = False,
        plan: str | None = None,
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
        plan:
            Association-order override (``"auto"``/``"left"``, default
            the engine's policy).

        Raises
        ------
        RuntimeError
            When the service is already closed; execution failures
            arrive through the future.
        """
        return self._serving_core()._submit_connected(
            obj, path, k, exclude_self=exclude_self, plan=plan
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
        return self._serving_core()._submit_rank(target, **kwargs)

    def watch(
        self,
        obj,
        path,
        k: int = 10,
        *,
        measure: str = "pathsim",
        exclude_self: bool | None = None,
        plan: str | None = None,
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
        plan:
            Association-order override for the watch's recomputations.
        """
        return self._serving_core()._submit_watch(
            obj, path, k, measure=measure, exclude_self=exclude_self, plan=plan
        )
