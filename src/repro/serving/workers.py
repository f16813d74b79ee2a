"""What the multi-process serving tiers share: one worker loop, one
channel, one process-tier base class.

:class:`~repro.serving.ClusterService` (every worker attaches the whole
network) and :class:`~repro.serving.ShardedClusterService` (every
worker attaches its row slice) differ in *what* they publish and *how*
a request group is routed — nothing else.  Everything below is the
common remainder, written once:

* :func:`_worker_main` — the worker-process loop: fence on the right
  generation, run the job through the tier's executor, deliver one
  status per request no matter what failed;
* :class:`_WorkerChannel` — one worker process plus the one duplex
  pipe it answers on, and the post/collect protocol;
* :class:`_ProcessTier` — the :class:`~repro.serving.QueryService`
  subclass both tiers derive from: worker count default, start method,
  generation directory, generation retirement, the start and close
  orders, ``worker_memory()``.

See ``docs/ARCHITECTURE.md`` → "Generations, the worker loop and
fences" for the design.
"""

from __future__ import annotations

import multiprocessing.util
import os
import pickle
import shutil
import tempfile
import time
from collections import deque
from pathlib import Path

from repro.serving.service import QueryService
from repro.serving.shm import attach_generation, descriptor_path

_SHUTDOWN = None  # the job that stops a worker

#: Seconds a worker waits at the generation fence (for a descriptor to
#: become visible, or for a publish to reach the job's epoch floor).
_FENCE_DEADLINE_S = 60.0
#: Seconds the parent waits for a dispatched job's answer.
_JOB_TIMEOUT_S = 120.0
#: Published generations kept attachable per worker series (>= 2, so a
#: worker mid-swap never finds its target retired).
_KEEP_GENERATIONS = 2


def _default_start_method() -> str:
    """``fork`` where the platform offers it (fast, shares the imported
    interpreter), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _pickles(value) -> bool:
    """Whether *value* survives a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(value))
        return True
    except Exception:
        return False


def _picklable(error: BaseException) -> BaseException:
    """*error* itself when it survives pickling, else a faithful stand-in
    (a worker must never choke on an exotic exception)."""
    if _pickles(error):
        return error
    return RuntimeError(f"{type(error).__name__}: {error}")


def _answer(conn, job_id, statuses: list) -> None:
    """Send *statuses* as the answer to *job_id*; the parent always
    hears back.

    An error goes as its :func:`_picklable` stand-in.
    ``Connection.send`` pickles the whole answer before it writes a
    byte, so when a result cannot be pickled nothing was sent, and a
    second send carries an error naming it in its place."""
    statuses = [
        (status, _picklable(value)) if status == "err" else (status, value)
        for status, value in statuses
    ]
    try:
        conn.send((job_id, statuses))
    except OSError:
        raise  # the parent is gone, not a bad result
    except Exception:
        statuses = [
            (status, value)
            if _pickles(value)
            else ("err", RuntimeError(f"result not picklable: {value!r:.200}"))
            for status, value in statuses
        ]
        conn.send((job_id, statuses))


def _process_rss() -> int:
    """This process's resident set size in bytes.

    Reads ``/proc/self/status`` (current RSS) where it exists, falling
    back to ``getrusage`` peak RSS — no third-party dependency either
    way.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _worker_main(worker_id, conn, gen_value, gen_dir, stem, execute):
    """Worker loop: fence on a generation, run the job, always answer.

    Jobs arrive and answers leave on the one connection *conn*.  A job
    is ``(job_id, kind, payload, count, min_epoch, pinned)``.
    *count* is how many statuses the parent expects, so a job that
    fails before it ever runs — the attach itself, say — still answers
    every request in it with the typed error.  The two fences travel
    as data:

    * ``pinned`` names the exact generation to answer from (a scatter's
      partials must all come from the epoch its query rows were
      extracted at).  ``None`` means "whatever the shared counter
      *gen_value* says is current".
    * ``min_epoch`` is a floor: a commit's publish may still be copying
      when the next request arrives, so the worker waits for the
      counter to catch up rather than serve a pre-update answer.

    Generations are immutable and swaps happen *between* jobs, so a job
    is answered entirely at one epoch.  ``info`` jobs report the
    worker's memory footprint (process RSS plus the attached
    generation's shared payload bytes); every other kind goes to
    *execute* ``(state, kind, payload) -> statuses`` — for the queue's
    jobs that is :func:`~repro.serving.service._execute_job` with the
    request shape as *kind* and its query objects as *payload*.  The
    loop ends on ``_SHUTDOWN``, or on end-of-file: a parent that died
    without sending it.
    """
    current = None

    def ensure_generation(min_epoch, pinned):
        """The generation to answer from, attached (see above)."""
        nonlocal current
        deadline = time.monotonic() + _FENCE_DEADLINE_S
        while True:
            target = gen_value.value if pinned is None else pinned
            if current is None or current.generation != target:
                try:
                    state = attach_generation(descriptor_path(gen_dir, stem, target))
                except FileNotFoundError:
                    # Not visible yet, or raced a republish-and-retire:
                    # re-read the counter.
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"worker {worker_id} could not attach "
                            f"generation {target}"
                        ) from None
                    time.sleep(0.002)
                    continue
                # The worker-side half of generation retirement.
                previous, current = current, state
                if previous is not None:
                    previous.close()
            if current.epoch >= min_epoch:
                return current
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"worker {worker_id} waited for epoch {min_epoch} but "
                    f"generation {current.generation} is at epoch "
                    f"{current.epoch} (publish stalled?)"
                )
            time.sleep(0.002)

    while True:
        try:
            job = conn.recv()
        except EOFError:  # the parent is gone: every copy of its end closed
            break
        if job is _SHUTDOWN:
            break
        job_id, kind, payload, count, min_epoch, pinned = job
        try:
            state = ensure_generation(min_epoch, pinned)
            if kind == "info":
                statuses = [
                    (
                        "ok",
                        {
                            "rss_bytes": _process_rss(),
                            "payload_bytes": state.payload_bytes,
                            "generation": state.generation,
                            "epoch": state.epoch,
                        },
                    )
                ]
            else:
                statuses = execute(state, kind, payload)
        except BaseException as exc:  # noqa: BLE001 — deliver, don't die
            statuses = [("err", exc)] * count
        _answer(conn, job_id, statuses)
    if current is not None:
        current.close()


class _WorkerChannel:
    """One worker process plus the one duplex pipe it answers on.

    A channel carries one outstanding job at a time (each tier
    guarantees exclusive use for the round trip), so the send-then-recv
    protocol needs no response routing, and no queue: both ends pickle
    on the calling thread, once, before they write a byte.
    """

    def __init__(self, ctx, worker_id, gen_dir, gen_value, stem, execute):
        self.conn, child = ctx.Pipe()
        # A forked worker closes its copy of this end, and of every
        # earlier channel's, so a parent that dies unannounced (SIGKILL)
        # reads as EOF in each worker rather than as silence forever.
        multiprocessing.util.register_after_fork(self.conn, type(self.conn).close)
        self.jobs = 0
        self.process = ctx.Process(
            target=_worker_main,
            name=f"repro-cluster-{worker_id}",
            args=(worker_id, child, gen_value, str(gen_dir), stem, execute),
            daemon=True,
        )
        self.process.start()
        # The worker holds the only other end, so its death reads as
        # EOF here rather than as silence.
        child.close()

    def _died(self) -> RuntimeError:
        """The typed error for a worker found dead (reaped first, so the
        exit code is known)."""
        self.process.join(timeout=1.0)
        return RuntimeError(
            f"cluster worker {self.process.name} died (exit code {self.process.exitcode})"
        )

    def post(self, kind, payload, count: int, fence: tuple) -> int:
        """Send one job without waiting for its answer.

        *count* is how many statuses the job answers with; *fence* is
        its ``(min_epoch, pinned generation)`` pair (see
        :func:`_worker_main`).  A job that cannot be pickled is a
        ``TypeError`` here, on the calling thread, and leaves the pipe
        untouched.  A worker that died idle raises nothing here: the
        job counts as posted and its :meth:`collect` reports the typed
        "died" error, so a scatter that posts to every shard still
        collects every one.  Pair every ``post`` with a :meth:`collect`
        before the next one — the channel routes by a single
        outstanding job id.  Splitting the round trip is what lets a
        scatter send one job to *every* shard before collecting any
        answer, so shards compute concurrently instead of in sequence.
        """
        self.jobs += 1
        try:
            self.conn.send((self.jobs, kind, payload, count, *fence))
        except OSError:
            pass  # a dead worker: collect() reads its EOF
        except Exception as exc:
            raise TypeError(
                f"request arguments are not picklable for cluster dispatch: {exc}"
            ) from exc
        return self.jobs

    def collect(self):
        """Wait for the posted job's statuses; raises when the worker
        died (its end of the pipe closes) or stayed silent too long."""
        deadline = time.monotonic() + _JOB_TIMEOUT_S
        while True:
            try:
                if self.conn.poll(1.0):
                    job_id, statuses = self.conn.recv()
                    if job_id == self.jobs:
                        return statuses
                    continue  # a stale answer whose waiter gave up: drop it
            except (EOFError, OSError):
                raise self._died() from None
            if not self.process.is_alive():
                raise self._died()
            if time.monotonic() > deadline:
                raise TimeoutError(f"cluster worker {self.process.name} did not answer")

    def call(self, kind, payload, count: int, fence: tuple):
        """Synchronous job round trip (:meth:`post` + :meth:`collect`)."""
        self.post(kind, payload, count, fence)
        return self.collect()

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop the worker: sentinel, join, terminate stragglers."""
        try:
            self.conn.send(_SHUTDOWN)
        except OSError:
            pass  # already dead
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=join_timeout)
        self.process.close()
        self.conn.close()


class _ProcessTier(QueryService):
    """A :class:`QueryService` whose jobs run in N worker processes
    serving published generations.

    The queue, coalescing and batching are the inherited ones; a
    subclass overrides :meth:`~QueryService.run_group` to send each job
    to a worker, and says what else differs: ``_prepare(count)``
    (publish the generation(s) workers start on, before they fork),
    ``_worker_spec(i)`` (worker *i*'s ``(shared counter, descriptor
    stem, job executor)``),
    ``_fence(i)`` (the fence a job sent to worker *i* carries),
    ``_exclusive()`` (a context manager granting every channel) and
    ``_on_commit(update)``.
    """

    _label = "cluster"  # names the private descriptor directory

    def _start(self, hin, count: int | None, directory) -> None:
        """Acquire everything, in the one order that is sound; a failure
        part-way (failed publish, fork error) releases what was already
        acquired instead of leaking generation files, processes and
        temp directories until interpreter exit.

        Generations go into *directory* when the caller passes one, else
        into a private temporary directory that :meth:`close` removes.
        A parent killed before :meth:`close` (SIGKILL, say) leaves its
        generation files behind there."""
        if count is None:
            try:
                usable = len(os.sched_getaffinity(0))
            except AttributeError:
                usable = os.cpu_count() or 1
            count = max(1, min(usable, 4))
        if count < 1:
            raise ValueError(f"worker count must be >= 1, got {count}")
        self._ctx = multiprocessing.get_context(_default_start_method())
        self._directory = (
            Path(directory)
            if directory
            else Path(tempfile.mkdtemp(prefix=f"repro-{self._label}-"))
        )
        self._own_directory = directory is None
        self._stopped = False  # the tier's own flag; the queue's is _closed
        self._threads = []  # no service thread until the queue starts
        self._channels: list[_WorkerChannel] = []
        # One retirement queue per worker's generation series (a tier
        # whose workers all follow one series uses the first only).
        self._published = [deque() for _ in range(count)]
        self._hook = None
        self.hin = hin
        try:
            self._prepare(count)
            # Workers fork/spawn BEFORE any service thread exists (fork
            # while this object's own threads run would be unsound), so
            # the queue starts last.
            for i in range(count):
                self._channels.append(
                    _WorkerChannel(
                        self._ctx, i, self._directory, *self._worker_spec(i)
                    )
                )
            self._hook = self.hin.add_commit_hook(self._on_commit)
            super().__init__(hin, workers=count)
        except BaseException:
            self.close()
            raise

    def _retain(self, series: int, generation) -> None:
        """Record *generation* as the newest of *series*; retire (remove
        descriptor and image) whatever falls off the keep bound."""
        held = self._published[series]
        held.append(generation)
        while len(held) > _KEEP_GENERATIONS:
            held.popleft().dispose()

    def worker_memory(self) -> list[dict]:
        """One memory report per worker process.

        Each report carries ``rss_bytes`` (the worker's resident set —
        includes its share of the interpreter and of faulted shared
        pages), ``payload_bytes`` (the size of the attached generation's
        image file — the part that is *shared*, not copied, across
        processes), and the ``generation``/``epoch`` the
        worker is serving.  Calls interleave safely with serving (they
        just wait their turn for the channels).
        """
        with self._exclusive():
            reports = []
            for i, channel in enumerate(self._channels):
                status, value = channel.call("info", None, 1, self._fence(i))[0]
                if status != "ok":
                    raise value
                reports.append(value)
            return reports

    def close(self) -> None:
        """Drain queued work, stop the workers, retire every generation.

        Also the failure-path cleanup for a partially constructed
        service, so every branch tolerates resources that were never
        acquired.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._hook is not None:
            self.hin.remove_commit_hook(self._hook)
        if self._threads:  # the queue started: drain it and join
            super().close()
        for channel in self._channels:
            channel.shutdown()
        for held in self._published:
            while held:
                held.pop().dispose()
        if self._own_directory:
            shutil.rmtree(self._directory, ignore_errors=True)
