"""ClusterService — multi-process serving over shared-memory generations.

:class:`~repro.serving.QueryService` made serving concurrent, but its
worker pool lives in one Python process: the phase-fair lock buys
fairness while the GIL caps the dense-product hot paths at roughly one
core.  This module is the step past that ceiling — the shape the
SIGMOD-2014-contest analyses land on for graph query serving at scale:
**read-only index state shared across worker processes, updates
committed centrally by a single writer.**

Architecture
------------

* The **parent** owns the live, mutable network.  All updates keep
  flowing through the single-writer ``hin.apply()`` path; a commit hook
  (:meth:`repro.networks.hin.HIN.add_commit_hook`) exports every
  committed epoch as a new immutable shared-memory **generation**
  (:mod:`repro.serving.shm`) and bumps a shared generation counter.
* Each of N **worker processes** attaches the current generation
  zero-copy — relation matrices and the warm commuting-matrix cache are
  numpy views over the shared segment — and answers query jobs against
  it.  Before picking up each job a worker compares the shared counter
  with its attached generation and, when behind, attaches the new one
  and atomically swaps; generations are immutable, so a worker can
  never serve a torn matrix: it answers entirely at one epoch or
  entirely at the next.
* The parent-facing API is the **same futures surface** as
  :class:`~repro.serving.QueryService` — in fact it *is* a
  ``QueryService`` whose execution backend runs each ``(shape, objs)``
  job in a worker process instead of against the live network: the job,
  and the function that runs it (:func:`~repro.serving.api._execute_job`),
  are the same on every tier, so request coalescing and same-shape
  batching keep working unchanged (one block product per batch, now on
  a core of its own).

Warm starts attach straight off a snapshot:
``ClusterService(warm_snapshot=path)`` publishes a generation whose
payloads are the snapshot's npz files, memory-mapped by every worker
through the shared OS page cache — one page-in instead of N
deserializations.

Benchmark E18 measures the throughput against single-process
``QueryService`` serving and asserts bit-identical answers; see
``docs/GUIDE.md`` → "Cluster serving" for usage and
``docs/BENCHMARKS.md`` → "Deployment sizing" for how to size the
process count.
"""

from __future__ import annotations

import contextlib
import queue as _queue
import threading

from repro.exceptions import SnapshotError
from repro.serving.api import _execute_job
from repro.serving.shm import (
    attach_generation,
    generation_from_snapshot,
    publish_generation,
)
from repro.serving.workers import _ProcessTier

__all__ = ["ClusterService"]


class ClusterService(_ProcessTier):
    """Multi-process query serving with shared-memory state.

    Parameters
    ----------
    hin:
        The network to serve.  The parent keeps the only mutable copy;
        updates go through ``hin.apply()`` as usual and re-publish
        automatically.  Omit it (``None``) together with
        *warm_snapshot* to cold-start the parent from a snapshot too.
    processes:
        Worker-process count — size it to cores, not clients (the
        parent coalesces and batches, so a handful of processes absorbs
        many clients).  Defaults to the usable CPU count capped at 4.
    max_batch:
        Per-job bound on same-shape top-k batching, as in
        :class:`~repro.serving.QueryService`.
    warm_snapshot:
        Optional snapshot directory (from
        :func:`repro.serving.save_snapshot`).  Generation 0 then points
        at the snapshot's npz payloads and every worker memory-maps
        them zero-copy instead of deserializing — the cluster warm
        start.  Requires the snapshot to describe *hin*'s current
        epoch when *hin* is given.
    directory:
        Where generation descriptors live (a private temp directory by
        default).

    Workers start with ``fork`` where the platform offers it (else
    ``spawn``); with ``fork``, construct the cluster before starting
    your own threads.

    Raises
    ------
    ValueError
        On a non-positive process count, or when neither *hin* nor
        *warm_snapshot* is given.
    repro.exceptions.SnapshotError
        When *warm_snapshot* is unreadable or describes a different
        epoch than the live *hin*.

    Use as a context manager, or call :meth:`close` explicitly.  The
    futures surface is the shared :class:`~repro.serving.api.ServingAPI`
    (``similar``, ``connected``, ``rank``, ``watch``) — one client's
    code does not change when serving moves from threads to processes.
    Watch registration and maintenance always run in the *parent* — the
    single-writer process where ``hin.apply()`` commits — never on a
    worker: the maintainer's commit hook runs alongside the generation
    publish and pushes fan out from here, while workers keep answering
    the one-shot query surface from their attached generations.
    """

    def __init__(
        self,
        hin=None,
        *,
        processes: int | None = None,
        max_batch: int = 64,
        warm_snapshot=None,
        directory=None,
    ):
        if hin is None and warm_snapshot is None:
            raise ValueError("ClusterService needs a hin, a warm_snapshot, or both")
        self._warm_snapshot = warm_snapshot
        self._gen_counter = 0
        self._gen_value = None
        self._publish_mutex = threading.Lock()
        self._jobs_dispatched = 0
        self._generations_published = 0
        self._parent_state = None
        # A channel is checked out of this free-list for the duration
        # of one job.
        self._free: _queue.Queue = _queue.Queue()
        self._start(hin, processes, max_batch, directory)
        for channel in self._channels:
            self._free.put(channel)

    def _prepare(self, _count) -> None:
        """Generation 0: the live network, or the warm snapshot's files."""
        self._gen_value = self._ctx.Value("L", 0)
        if self._warm_snapshot is None:
            self._export(0)
            return
        first = generation_from_snapshot(
            self._warm_snapshot, directory=self._directory, generation=0
        )
        self._retain(0, first)
        if self.hin is None:
            # Cold parent: attach the same mmap-backed generation the
            # workers will use — one page-in warms everyone.
            self._parent_state = attach_generation(first.path)
            self.hin = self._parent_state.hin
        elif self.epoch != first.epoch:
            raise SnapshotError(
                f"warm_snapshot is at epoch {first.epoch} but the live "
                f"network is at epoch {self.epoch}; re-run save_snapshot() "
                f"after updates"
            )

    def _export(self, generation: int) -> None:
        """Publish the parent's current state as *generation*."""
        self._retain(
            0,
            publish_generation(
                self.hin,
                self.hin.engine(),
                directory=self._directory,
                generation=generation,
            ),
        )

    def _worker_spec(self, _worker: int) -> tuple:
        """Every worker follows the one ``gen-<n>.json`` series through
        the shared counter and runs the queue's ``(shape, objs)`` jobs
        (:func:`~repro.serving.api._execute_job`) against the whole
        network it attached."""
        return self._gen_value, "gen", _execute_job

    def _fence(self, _worker: int) -> tuple:
        """Jobs carry the parent's current epoch as a floor: dispatch
        happens at or after submission, so a worker that honours the
        floor can never hand a post-update submitter a pre-update
        answer, even while the commit's publish is still copying."""
        return self.epoch, None

    @contextlib.contextmanager
    def _exclusive(self):
        """Check every channel out of the free-list, then return all."""
        channels = [self._free.get() for _ in self._channels]
        try:
            yield
        finally:
            for channel in channels:
                self._free.put(channel)

    def prewarm(self, *paths) -> "ClusterService":
        """Materialize *paths* in the parent cache and republish, so
        every worker serves them warm from shared memory."""
        self.hin.engine().prewarm(list(paths))
        self.publish()
        return self

    # ------------------------------------------------------------------
    # Generation lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The latest published shared-memory generation counter."""
        return self._gen_counter

    def publish(self) -> int:
        """Export the parent's current state as a new generation.

        Runs automatically from the ``hin.apply()`` commit hook; call it
        manually after warming the parent cache out-of-band.  Returns
        the new generation counter.
        """
        with self._publish_mutex:
            self._gen_counter += 1
            self._export(self._gen_counter)
            self._generations_published += 1
            # Publication point: workers swap on their next job.
            self._gen_value.value = self._gen_counter
            return self._gen_counter

    def _on_commit(self, _applied) -> None:
        """Commit hook: every applied batch publishes a new generation."""
        self.publish()

    # ------------------------------------------------------------------
    # QueryService executor protocol
    # ------------------------------------------------------------------
    def run_group(self, shape: tuple, objs) -> list[tuple]:
        """Dispatch one ``(shape, objs)`` job to a free worker (blocking).

        The executor half of the :class:`~repro.serving.QueryService`
        contract: returns one ``("ok", value) | ("err", error)`` status
        per object.
        """
        channel = self._free.get()
        try:
            self._jobs_dispatched += 1
            return channel.call(shape, objs, len(objs), self._fence(0))
        finally:
            self._free.put(channel)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The embedded service's counters plus cluster-level ones
        (``processes``, ``jobs_dispatched``, ``generations_published``,
        ``generation``)."""
        out = self._service.stats()
        out.update(
            processes=len(self._channels),
            jobs_dispatched=self._jobs_dispatched,
            generations_published=self._generations_published,
            generation=self._gen_counter,
        )
        return out

    def close(self) -> None:
        """Drain queued work, stop the workers, retire every generation."""
        super().close()
        if self._parent_state is not None:
            # Keep serving the caller's hin object (it may outlive the
            # cluster) — only the attachment bookkeeping is dropped; the
            # mmap pages release with the matrices' last reference.
            self._parent_state._resources = []

    def __repr__(self) -> str:
        return (
            f"ClusterService({self.hin!r}, processes={len(self._channels)}, "
            f"generation={self._gen_counter}, epoch={self.epoch})"
        )
