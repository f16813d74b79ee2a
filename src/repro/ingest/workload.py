"""Open-world workload generation over a live (growing) HIN.

The LDBC SIGMOD-2014-contest analysis observation: what separates graph
serving systems is not any single query but the *mix* — skewed entity
popularity, mixed read verbs, and writes landing concurrently.  This
module packages that shape as a reusable, **seed-deterministic**
generator that runs against any
:class:`~repro.serving.api.ServingAPI` service (or a plain
:class:`~repro.query.QuerySession`):

* **Zipf-skewed entity selection** over the *live* node population —
  every op re-reads ``hin.node_count``, so entities committed by a
  writer mid-run immediately join the sampling domain (the "open world"
  part; low indices = earliest ingested = hottest, matching the
  rich-get-richer arrival order of real DBLP authors);
* a configurable **query mix** (:class:`WorkloadMix`) over ``similar`` /
  ``connected`` / ``rank`` / ``olap``;
* an optional **writer** — any iterator whose ``next()`` commits one
  update step (e.g. :meth:`repro.ingest.StreamIngestor.ingest_iter`) —
  interleaved deterministically every ``writer_every`` ops, or drained
  from a background thread with ``concurrent_writer=True`` when wall-
  clock realism matters more than replayability.

Determinism contract (pinned by ``tests/ingest/test_workload.py``): two
generators with the same seed over identical network states produce
identical :class:`QueryOp` streams, and a deterministic (interleaved)
writer keeps them identical *while the network grows* — so the same
workload replayed against :class:`~repro.serving.QueryService`,
:class:`~repro.serving.ClusterService` and
:class:`~repro.serving.ShardedClusterService` must return bit-identical
answers, which is exactly how
``tests/ingest/test_workload.py::TestReplayParity`` uses it.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import IngestError
from repro.networks.schema import as_metapath

__all__ = ["WorkloadMix", "QueryOp", "WorkloadRun", "OpenWorldWorkload"]


@dataclass(frozen=True)
class WorkloadMix:
    """Relative verb weights of the query mix (need not sum to 1).

    The defaults lean read-heavy the way a paper-search service would:
    mostly similarity lookups, some connectivity expansions, occasional
    rankings, and rare analytical cube builds.
    """

    similar: float = 0.70
    connected: float = 0.15
    rank: float = 0.10
    olap: float = 0.05

    def verbs_and_weights(self) -> tuple[list[str], np.ndarray]:
        pairs = [
            ("similar", self.similar),
            ("connected", self.connected),
            ("rank", self.rank),
            ("olap", self.olap),
        ]
        if any(w < 0 for _, w in pairs):
            raise IngestError("workload mix weights must be >= 0")
        total = sum(w for _, w in pairs)
        if total <= 0:
            raise IngestError("workload mix needs at least one positive weight")
        verbs = [v for v, w in pairs if w > 0]
        weights = np.array([w for _, w in pairs if w > 0]) / total
        return verbs, weights


@dataclass(frozen=True)
class QueryOp:
    """One sampled operation of the stream (comparable by value)."""

    verb: str
    node_type: str
    obj: int | None = None
    path: str | None = None
    k: int = 10
    kwargs: tuple = ()

    def describe(self) -> str:
        if self.verb in ("similar", "connected"):
            return f"{self.verb}({self.node_type}[{self.obj}], {self.path!r}, k={self.k})"
        if self.verb == "rank":
            return f"rank({self.path or self.node_type!r}{dict(self.kwargs) or ''})"
        return f"olap(by={self.node_type!r})"


@dataclass
class WorkloadRun:
    """The replayable transcript one :meth:`OpenWorldWorkload.run` leaves.

    Attributes
    ----------
    ops:
        The sampled :class:`QueryOp` stream, in submission order.
    answers:
        One normalized answer per op — plain lists of ``(name, score)``
        tuples (or ``(value, count)`` rows for olap), directly
        comparable ``==`` across services.
    epochs:
        The ``network_version`` each answer was computed at (``-1``
        where the result type carries none).
    seconds:
        Wall-clock duration of the run.
    """

    ops: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def qps(self) -> float:
        return len(self.ops) / self.seconds if self.seconds > 0 else float("inf")

    def signature(self) -> str:
        """SHA-256 over ops + answers — one string to compare replays."""
        h = hashlib.sha256()
        for op, answer in zip(self.ops, self.answers):
            h.update(repr(op).encode())
            h.update(repr(answer).encode())
        return h.hexdigest()


class OpenWorldWorkload:
    """Seeded Zipf query-stream generator bound to one live network.

    Parameters
    ----------
    hin:
        The network whose populations are sampled — typically the
        *writer-side* HIN a service was built over, so entities a
        concurrent ingest commits become routable immediately.
    paths:
        Meta-path spellings for ``similar`` ops (symmetric).  The
        path's source type is the sampled population.
    connected_paths:
        Spellings for ``connected`` ops (asymmetric welcome); defaults
        to *paths*.
    rank_specs:
        ``(target, kwargs_dict)`` choices for ``rank`` ops; defaults to
        degree-ranking authors and path-ranking venues through the
        first path's leading segment.
    olap_by:
        Node type whose membership dimensions olap ops cube over
        (default ``"venue"``); olap runs against the bound *hin* (cube
        construction is an analytical, writer-side operation, not a
        service verb).
    mix:
        The :class:`WorkloadMix` verb weights.
    k:
        Top-k size for similar/connected and rank normalization.
    zipf_s:
        Zipf exponent for entity selection (must be > 1; larger =
        more skew).  Draw *r* maps to node index ``(r - 1) % n`` over
        the live population *n*.
    seed:
        The determinism anchor: same seed + same network evolution =
        identical op stream.
    """

    def __init__(
        self,
        hin,
        paths,
        *,
        connected_paths=None,
        rank_specs=None,
        olap_by: str = "venue",
        mix: WorkloadMix | None = None,
        k: int = 10,
        zipf_s: float = 1.8,
        seed: int = 0,
    ):
        self.hin = hin
        self._paths = [str(p) for p in list(paths)]
        if not self._paths:
            raise IngestError("OpenWorldWorkload needs at least one meta-path")
        self._connected_paths = (
            [str(p) for p in connected_paths]
            if connected_paths is not None
            else list(self._paths)
        )
        self._source_types = {
            p: as_metapath(hin, p).source_type
            for p in {*self._paths, *self._connected_paths}
        }
        if rank_specs is None:
            rank_specs = [("author", {"method": "degree"})]
        self._rank_specs = [
            (target, tuple(sorted(dict(kw).items()))) for target, kw in rank_specs
        ]
        self._olap_by = hin.schema.resolve_type(olap_by)
        self._mix = mix if mix is not None else WorkloadMix()
        self._verbs, self._weights = self._mix.verbs_and_weights()
        if zipf_s <= 1.0:
            raise IngestError(f"zipf_s must be > 1, got {zipf_s}")
        self._k = int(k)
        self._zipf_s = float(zipf_s)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _zipf_index(self, n: int) -> int:
        """Zipf-skewed index over a live population of size *n*."""
        if n < 1:
            raise IngestError("cannot sample an empty node population")
        return int((int(self._rng.zipf(self._zipf_s)) - 1) % n)

    def sample_op(self) -> QueryOp:
        """Draw the next :class:`QueryOp` against the *current* population."""
        verb = self._verbs[
            int(self._rng.choice(len(self._verbs), p=self._weights))
        ]
        if verb == "similar":
            path = self._paths[int(self._rng.integers(len(self._paths)))]
            t = self._source_types[path]
            return QueryOp(
                "similar", t, self._zipf_index(self.hin.node_count(t)), path, self._k
            )
        if verb == "connected":
            path = self._connected_paths[
                int(self._rng.integers(len(self._connected_paths)))
            ]
            t = self._source_types[path]
            return QueryOp(
                "connected", t, self._zipf_index(self.hin.node_count(t)), path, self._k
            )
        if verb == "rank":
            target, kwargs = self._rank_specs[
                int(self._rng.integers(len(self._rank_specs)))
            ]
            return QueryOp("rank", target, None, None, self._k, kwargs)
        return QueryOp("olap", self._olap_by, None, None, self._k)

    def ops(self, n: int) -> list[QueryOp]:
        """Sample *n* ops against the current population (no execution)."""
        return [self.sample_op() for _ in range(n)]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(
        self,
        target,
        n_ops: int,
        *,
        writer=None,
        writer_every: int | None = None,
        concurrent_writer: bool = False,
        timeout: float = 120.0,
    ) -> WorkloadRun:
        """Sample and execute *n_ops* against *target*; returns the
        :class:`WorkloadRun` transcript.

        Parameters
        ----------
        target:
            A :class:`~repro.serving.api.ServingAPI` service (futures
            are resolved synchronously, preserving stream order) or any
            object with ``similar``/``connected``/``rank`` session
            verbs (e.g. ``hin.query()``).
        writer:
            Optional iterator whose ``next()`` commits one update step
            against the network — e.g.
            ``StreamIngestor(hin, ...).ingest_iter(more_xml)``.
            Exhaustion is fine; the run keeps querying.
        writer_every:
            Interleave one writer step every this many ops
            (deterministic mode — required when *writer* is given and
            *concurrent_writer* is false).
        concurrent_writer:
            Drain the writer from a background thread instead —
            realistic contention, no longer replay-deterministic.
        timeout:
            Per-answer future timeout against services.
        """
        import time as _time

        if writer is not None and not concurrent_writer and not writer_every:
            raise IngestError(
                "a deterministic writer needs writer_every (or set "
                "concurrent_writer=True)"
            )
        run = WorkloadRun()
        thread = None
        stop = threading.Event()
        writer_errors: list[BaseException] = []
        if writer is not None and concurrent_writer:

            def _drain():
                try:
                    for _ in writer:
                        if stop.is_set():
                            break
                except BaseException as exc:  # noqa: BLE001 - reported below
                    writer_errors.append(exc)

            thread = threading.Thread(target=_drain, daemon=True)
            thread.start()
        start = _time.perf_counter()
        try:
            for i in range(n_ops):
                if (
                    writer is not None
                    and thread is None
                    and i
                    and i % writer_every == 0
                ):
                    next(writer, None)
                op = self.sample_op()
                run.ops.append(op)
                answer, epoch = self._execute(target, op, timeout)
                run.answers.append(answer)
                run.epochs.append(epoch)
        finally:
            stop.set()
            if thread is not None:
                thread.join()
        run.seconds = _time.perf_counter() - start
        if writer_errors:
            raise writer_errors[0]
        return run

    def _execute(self, target, op: QueryOp, timeout: float):
        """Execute one op; returns ``(normalized_answer, epoch)``."""
        serving = hasattr(target, "_serving_core")
        if op.verb == "similar":
            result = target.similar(op.obj, op.path, op.k)
        elif op.verb == "connected":
            result = target.connected(op.obj, op.path, op.k)
        elif op.verb == "rank":
            result = target.rank(op.node_type, **dict(op.kwargs))
        else:
            return self._olap_answer(op), self.hin.version
        if serving:
            result = result.result(timeout=timeout)
        epoch = int(getattr(result, "network_version", -1))
        if op.verb == "rank":
            return [tuple(pair) for pair in result.top(op.k)], epoch
        return [tuple(pair) for pair in result], epoch

    def _olap_answer(self, op: QueryOp) -> list:
        """Cube the center objects by their *olap_by* membership and
        return the per-value ``(name, count)`` rows, sorted by name."""
        hin = self.hin
        center = hin.schema.center_type()
        rels = hin.schema.relations_between(center, self._olap_by)
        if len(rels) != 1:
            raise IngestError(
                f"olap_by={self._olap_by!r} needs exactly one relation to "
                f"the center type, found {len(rels)}"
            )
        m = hin.matrix_between(center, self._olap_by).tocsr()
        names = hin.names(self._olap_by) or list(range(hin.node_count(self._olap_by)))
        values = []
        for row in range(m.shape[0]):
            lo, hi = m.indptr[row], m.indptr[row + 1]
            values.append(
                str(names[m.indices[lo]]) if hi > lo else "<unassigned>"
            )
        cube = hin.query().olap({op.node_type: values})
        return sorted(
            (cell.coordinates[op.node_type], cell.count)
            for cell in cube.group_by(op.node_type)
            if cell.count
        )
