"""Reentrant read–write locking for the concurrent serving layer.

The meta-path engine serves many concurrent *readers* (queries) against
state that a single *writer* (``hin.apply()`` committing an update
batch) rewrites in multiple steps: the network's relation matrices, the
engine's cached materializations, and the update epoch all have to move
together.  A plain mutex would serialize queries against each other; a
bare ``threading.Lock`` around the cache would still let a query observe
new matrices next to not-yet-maintained cache entries.  :class:`RWLock`
gives the exact shape the serving layer needs:

* any number of readers run concurrently;
* one writer excludes all readers *and* other writers, so an update
  commits atomically from the readers' point of view — in-flight queries
  finish against the pre-update epoch, queries submitted during the
  write see the post-update epoch, never a mixture;
* admission is *phase-fair*: writers jump ahead of newly arriving
  readers (a steady query stream cannot starve the update path), but
  every writer release first admits the readers already waiting before
  the next writer enters — so a sustained update stream cannot starve
  queries either; the two sides alternate under contention.

Reentrancy rules (both directions the engine actually exercises):

* a thread holding the read lock may re-acquire it (query entry points
  nest: ``pathsim_row`` → ``pathsim_rows`` → ``_pathsim_parts``);
* a thread holding the write lock may re-acquire it
  (``hin.apply()`` holds the write lock while calling
  ``engine.apply_update()``), and may also acquire the read lock;
* upgrading — asking for the write lock while holding only the read
  lock — deadlocks by construction and raises ``RuntimeError`` instead.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    """A phase-fair, reentrant readers–writer lock.

    Use the :meth:`read` / :meth:`write` context managers; the bare
    ``acquire_*`` / ``release_*`` pairs exist for callers that need to
    span a lock across a non-lexical scope.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._active_readers = 0  # total read holds, reentrant included
        self._writer: int | None = None  # ident of the active writer
        self._writer_depth = 0
        self._writers_waiting = 0
        self._readers_waiting = 0
        # Readers owed entry from the last writer release (phase
        # fairness): while positive, the next writer yields to them.
        self._reader_cohort = 0
        self._local = threading.local()  # per-thread read hold count

    def _read_holds(self) -> int:
        return getattr(self._local, "holds", 0)

    def acquire_read(self) -> None:
        """Take (or re-enter) the read lock, blocking on an active writer."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or self._read_holds() > 0:
                # Reentrant entry (or a writer reading its own state):
                # must not block, or nested query calls would deadlock
                # against a waiting writer.
                self._active_readers += 1
                self._local.holds = self._read_holds() + 1
                return
            self._readers_waiting += 1
            waited = False
            try:
                # A pending cohort slot may only be consumed by a reader
                # that actually waited: newcomers arriving while a writer
                # queues must line up (they join the NEXT cohort) instead
                # of stealing admission from readers queued earlier.
                while self._writer is not None or (
                    self._writers_waiting
                    and not (waited and self._reader_cohort)
                ):
                    waited = True
                    self._cond.wait()
            except BaseException:
                # An async exception (KeyboardInterrupt) can land after a
                # writer release counted this reader into the pending
                # cohort; give the slot back so a writer never waits for
                # a reader that will not arrive.
                if self._reader_cohort:
                    self._reader_cohort -= 1
                    self._cond.notify_all()
                raise
            finally:
                self._readers_waiting -= 1
            if self._reader_cohort:
                self._reader_cohort -= 1
            self._active_readers += 1
            self._local.holds = 1

    def release_read(self) -> None:
        """Release one read hold, waking a waiting writer on the last one."""
        with self._cond:
            if self._read_holds() <= 0:
                raise RuntimeError("release_read() without a matching acquire")
            self._local.holds = self._read_holds() - 1
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Take (or re-enter) the write lock, excluding all other threads."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if self._read_holds() > 0:
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; release "
                    "the read lock first"
                )
            self._writers_waiting += 1
            try:
                # Yield to a pending reader cohort (phase fairness) as
                # well as to active readers and the current writer.
                while (
                    self._writer is not None
                    or self._active_readers
                    or self._reader_cohort
                ):
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        """Release one write hold, reopening the lock on the last one."""
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write() by a non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                # Phase fairness: the readers that queued behind this
                # writer enter before the next writer does.
                self._reader_cohort = self._readers_waiting
                self._cond.notify_all()

    @contextmanager
    def read(self):
        """Context manager holding the read lock for the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """Context manager holding the write lock for the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self) -> str:
        return (
            f"RWLock(readers={self._active_readers}, "
            f"writer={'held' if self._writer is not None else 'free'}, "
            f"writers_waiting={self._writers_waiting})"
        )
