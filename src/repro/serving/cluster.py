"""ClusterService — multi-process serving over mapped generations.

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
  committed epoch as a new immutable **generation** — one image file
  (:mod:`repro.serving.shm`) — and bumps a shared generation counter:
  one machine word with no lock, because the parent is its one writer
  (under the publish mutex) and workers only read it.
* Each of N **worker processes** attaches the current generation
  zero-copy — relation matrices and the warm commuting-matrix cache are
  numpy views over the mapped image — and answers query jobs against
  it over its one pipe to the parent.  Before picking up each job a
  worker compares the shared counter with its attached generation and,
  when behind, attaches the new one and atomically swaps; generations
  are immutable, so a worker can never serve a torn matrix: it answers
  entirely at one epoch or entirely at the next.
* The parent-facing API is the **same futures surface** as
  :class:`~repro.serving.QueryService` — in fact the class *is* a
  ``QueryService`` whose :meth:`~ClusterService.run_group` runs each
  ``(shape, objs)`` job in a worker process instead of against the
  live network: the job, and the function that runs it
  (:func:`~repro.serving.service._execute_job`), are the same on every
  tier, so request coalescing and same-shape batching keep working
  unchanged (one block product per batch, now on a core of its own).

Warm starts go through the one start-up route every tier shares:
``ClusterService(load_snapshot(path, mmap=True))`` maps the snapshot's
payloads into the parent and publishes them as generation 0.

``tests/serving/test_cluster.py`` and ``tests/serving/test_api.py`` pin
the answers bit-identical to a cold engine, and the benchmark's
``cluster.capacity_qps`` / ``service.capacity_qps`` rungs
(``benchmarks/perf/README.md``) measure the throughput against
single-process ``QueryService`` serving; see ``docs/GUIDE.md`` →
"Cluster serving" for usage.
"""

from __future__ import annotations

import contextlib
import queue as _queue
import threading

from repro.serving.service import _execute_job
from repro.serving.shm import publish_generation
from repro.serving.workers import _ProcessTier

__all__ = ["ClusterService"]


class ClusterService(_ProcessTier):
    """Multi-process query serving over mapped, shared state.

    Parameters
    ----------
    hin:
        The network to serve.  The parent keeps the only mutable copy;
        updates go through ``hin.apply()`` as usual and re-publish
        automatically.  To restart from a snapshot pass
        ``load_snapshot(path, mmap=True)``.
    processes:
        Worker-process count — size it to cores, not clients (the
        parent coalesces and batches, so a handful of processes absorbs
        many clients).  Defaults to the usable CPU count capped at 4.
    directory:
        Where generation descriptors live (a private temp directory by
        default).

    Workers start with ``fork`` where the platform offers it (else
    ``spawn``); with ``fork``, construct the cluster before starting
    your own threads.

    Raises
    ------
    ValueError
        On a non-positive process count.

    Use as a context manager, or call :meth:`close` explicitly.  The
    futures surface is the inherited :class:`~repro.serving.QueryService`
    one (``similar``, ``connected``, ``rank``, ``watch``) — one client's
    code does not change when serving moves from threads to processes.
    Watch registration and maintenance always run in the *parent* — the
    single-writer process where ``hin.apply()`` commits — never on a
    worker: the maintainer's commit hook runs alongside the generation
    publish and pushes fan out from here, while workers keep answering
    the one-shot query surface from their attached generations.
    """

    def __init__(
        self,
        hin,
        *,
        processes: int | None = None,
        directory=None,
    ):
        self._gen_counter = 0
        self._gen_value = None
        self._stale = False
        self._publish_mutex = threading.Lock()
        self._jobs_dispatched = 0
        self._generations_published = 0
        # A channel is checked out of this free-list for the duration
        # of one job.
        self._free: _queue.Queue = _queue.Queue()
        self._start(hin, processes, directory)
        for channel in self._channels:
            self._free.put(channel)

    def _prepare(self, _count) -> None:
        """Generation 0: the live network as it stands.  The counter
        takes no lock (see the module docstring); under ``spawn`` a
        lock would be a named semaphore that outlives ``close()``."""
        self._gen_value = self._ctx.Value("L", 0, lock=False)
        self._export(0)

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
        (:func:`~repro.serving.service._execute_job`) against the whole
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
        every worker serves them warm from the mapped image."""
        self.hin.engine().prewarm(list(paths))
        self.publish()
        return self

    # ------------------------------------------------------------------
    # Generation lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The latest published generation counter."""
        return self._gen_counter

    def publish(self) -> int:
        """Export the parent's current state as a new generation.

        Runs automatically from the ``hin.apply()`` commit hook; call it
        manually after warming the parent cache out-of-band.  Returns
        the new generation counter, which only a publish that succeeded
        advances.
        """
        with self._publish_mutex:
            # Until a publish lands, workers may hold an older epoch than
            # the parent's: jobs run parent-side (see run_group).
            self._stale = True
            self._export(self._gen_counter + 1)
            self._stale = False
            self._gen_counter += 1
            self._generations_published += 1
            # Publication point: workers swap on their next job.
            self._gen_value.value = self._gen_counter
            return self._gen_counter

    def _on_commit(self, _applied) -> None:
        """Commit hook: every applied batch publishes a new generation."""
        self.publish()

    # ------------------------------------------------------------------
    # The QueryService backend hook
    # ------------------------------------------------------------------
    def run_group(self, shape: tuple, objs) -> list[tuple]:
        """Dispatch one ``(shape, objs)`` job to a free worker (blocking);
        one ``("ok", value) | ("err", error)`` status per object.

        While a publish is running or after one failed, the workers'
        generation may be older than the parent's epoch, so until a
        publish succeeds the job runs parent-side
        (:meth:`QueryService.run_group`) instead of waiting out the
        worker fence.
        """
        if self._stale:
            return super().run_group(shape, objs)
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
        """The queue's counters (:meth:`QueryService.stats`) plus
        cluster-level ones (``processes``, ``jobs_dispatched``,
        ``generations_published``, ``generation``)."""
        out = super().stats()
        out.update(
            processes=len(self._channels),
            jobs_dispatched=self._jobs_dispatched,
            generations_published=self._generations_published,
            generation=self._gen_counter,
        )
        return out

    def __repr__(self) -> str:
        return (
            f"ClusterService({self.hin!r}, processes={len(self._channels)}, "
            f"generation={self._gen_counter}, epoch={self.epoch})"
        )
