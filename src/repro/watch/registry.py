"""Watch registry — standing queries and their subscriber bookkeeping.

A *watch* is one registered standing query: a top-k PathSim or
connectivity query kept perpetually answered as the network mutates.
The :class:`WatchManager` (one per network, obtained through
:meth:`repro.networks.hin.HIN.watches`) owns the registry:

* :meth:`WatchManager.watch` registers a query — deduplicated by query
  identity, so a thousand subscribers to the same hot query cost one
  maintained result — and returns a
  :class:`~repro.watch.subscription.Subscription`.
* The first registration installs one ``hin.add_commit_hook`` that runs
  the :class:`~repro.watch.maintainer.ResultMaintainer` on every
  committed batch; a network that never watches (or whose last
  subscription cancelled) pays nothing per update.
* :meth:`WatchManager.spec_dicts` / :meth:`WatchManager.restore` are
  the snapshot half: the serving layer persists the registry in the
  snapshot manifest and re-registers it on restore, so a warm restart
  resumes every subscription at the restored epoch.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

from repro.utils.validation import check_k
from repro.watch.maintainer import ResultMaintainer
from repro.watch.subscription import Subscription

__all__ = ["WatchSpec", "Watch", "WatchManager"]

#: Spelling aliases accepted for the two maintained measures.
_MEASURE_ALIASES = {"similarity": "pathsim", "connected": "connectivity"}
_MEASURES = ("pathsim", "connectivity")


@dataclass(frozen=True)
class WatchSpec:
    """Declarative identity of one standing query (JSON-serializable).

    Attributes
    ----------
    measure:
        ``"pathsim"`` or ``"connectivity"``.
    path:
        The meta-path, in its canonical string spelling.
    query:
        The query object's display name (its index for anonymous
        types) — stable across snapshot round trips because updates
        only ever append nodes.
    k:
        Result size.
    exclude_self:
        Whether the query object is dropped from its own answer.
    """

    measure: str
    path: str
    query: object
    k: int
    exclude_self: bool

    def to_dict(self) -> dict:
        """Manifest form (plain JSON types)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WatchSpec":
        """Rebuild from :meth:`to_dict` output.  Unknown keys are
        ignored — manifests written before the per-watch ``plan`` field
        was removed carry one, and restore unchanged."""
        return cls(
            measure=data["measure"],
            path=data["path"],
            query=data["query"],
            k=int(data["k"]),
            exclude_self=bool(data["exclude_self"]),
        )


class Watch:
    """Mutable maintained state of one registered standing query.

    Alongside the public :class:`~repro.query.results.TopKResult`, the
    maintainer keeps the result's *row indices* and raw score array —
    the stored k-th entry is the score bound incremental re-ranking
    tests candidates against, and index identity is what makes the
    bound check exact under ties.
    """

    __slots__ = (
        "spec", "mp", "index", "key", "epoch",
        "result", "indices", "scores", "subscribers",
        "maintained_steps", "relations", "group_key",
    )

    def __init__(self, spec: WatchSpec, mp, index: int):
        self.spec = spec
        self.mp = mp
        self.index = int(index)
        self.key: tuple | None = None
        self.epoch = -1
        self.result = None
        self.indices = np.array([], dtype=np.int64)
        self.scores = np.array([], dtype=np.float64)
        self.subscribers: list[Subscription] = []
        # Everything the per-commit group decision derives from the
        # path alone is staged here.  PathSim maintenance analyzes the
        # half product's steps (they name every relation of a symmetric
        # path); connectivity analyzes the full chain.
        steps = tuple(mp.steps())
        self.maintained_steps = (
            steps[: len(steps) // 2] if spec.measure == "pathsim" else steps
        )
        self.relations = frozenset(
            rel.name for rel, _ in self.maintained_steps
        )
        # The path group: watches maintained by one decision per commit
        # share measure, path and query shape (one k, one self-exclusion).
        self.group_key = (
            spec.measure, mp.canonical_key(), spec.k, spec.exclude_self
        )

    def adopt(self, epoch: int, result, indices, scores) -> None:
        """Install a maintained ``(epoch, result)`` plus its rank arrays."""
        self.epoch = int(epoch)
        self.result = result
        self.indices = np.asarray(indices, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"Watch({self.spec!r}, epoch={self.epoch}, "
            f"subscribers={len(self.subscribers)})"
        )


class WatchManager:
    """Registry + maintenance driver for one network's standing queries.

    Obtained through :meth:`repro.networks.hin.HIN.watches`; one
    instance per network, shared by the facade
    (``hin.query().watch(...)``) and the serving layers
    (:meth:`repro.serving.QueryService.watch`,
    :meth:`repro.serving.ClusterService.watch`).

    Thread safety: the registry mutex serializes registration,
    cancellation, and maintenance with each other.  Maintenance runs on
    the writer's thread inside the ``hin.apply()`` commit hook — after
    the engine write lock released, so concurrent queries keep flowing
    — and a registration racing a commit lands cleanly on either side:
    its initial result is computed under the engine read lock at one
    epoch, and the maintainer skips any watch already at (or past) the
    committed epoch.
    """

    def __init__(self, hin):
        self.hin = hin
        self._mutex = threading.RLock()
        self._watches: dict[tuple, Watch] = {}
        self._maintainer = ResultMaintainer(self)
        self._hook = None
        self._counters = {
            "commits": 0,
            "untouched": 0,
            "incremental": 0,
            "fallback": 0,
            "recomputed": 0,
            "unchanged": 0,
            "pushes": 0,
        }

    # ------------------------------------------------------------------
    # Registration surface
    # ------------------------------------------------------------------
    def watch(
        self,
        path,
        query,
        *,
        k: int = 10,
        measure: str = "pathsim",
        exclude_self: bool | None = None,
    ) -> Subscription:
        """Register a standing query; returns a new subscription to it.

        Parameters
        ----------
        path:
            Any meta-path spelling (symmetric for ``pathsim``).
        query:
            Query object — name, or index into the path's source type.
        k:
            Result size to maintain — an ``int`` or numpy integer
            (anything else is a ``TypeError``, as on every query verb).
        measure:
            ``"pathsim"`` (alias ``"similarity"``) or ``"connectivity"``
            (alias ``"connected"``).
        exclude_self:
            Drop the query from its own answer; defaults to the
            measure's convention (``True`` for pathsim, ``False`` for
            connectivity).

        The initial result is computed immediately (at the current
        epoch, under the engine read lock); identical registrations —
        same measure, canonical path, resolved query, ``k`` and
        exclusion — share one maintained watch.
        """
        measure = _MEASURE_ALIASES.get(measure, measure)
        if measure not in _MEASURES:
            raise ValueError(
                f"measure must be one of {_MEASURES}, got {measure!r}"
            )
        k = check_k(k)
        engine = self.hin.engine()
        mp = (
            engine.symmetric_path(path)
            if measure == "pathsim"
            else engine.path(path)
        )
        if exclude_self is None:
            exclude_self = measure == "pathsim"
        index = engine._resolve(mp.source_type, query)
        key = (measure, mp.canonical_key(), index, k, bool(exclude_self))
        with self._mutex:
            watch = self._watches.get(key)
            if watch is None:
                spec = WatchSpec(
                    measure=measure,
                    path=str(mp),
                    query=self.hin.name_of(mp.source_type, index),
                    k=k,
                    exclude_self=bool(exclude_self),
                )
                watch = Watch(spec, mp, index)
                watch.key = key
                self._maintainer.initialize(watch)
                self._watches[key] = watch
                self._ensure_hook()
            subscription = Subscription(self, watch)
            watch.subscribers.append(subscription)
            return subscription

    def restore(self, spec_dicts) -> list[Subscription]:
        """Re-register persisted watch specs (snapshot restore path).

        Each spec not already in the registry is registered afresh —
        its initial result computed at the *current* (restored) epoch —
        and handed a subscription, which is both returned and retained
        (see :meth:`subscriptions`), so restored watches stay alive
        until explicitly cancelled.  Specs already registered are
        skipped: restoring twice never duplicates maintenance.  A
        persisted query on a named type is a name (an integer name
        included) and is resolved as one.
        """
        out = []
        for data in spec_dicts:
            spec = WatchSpec.from_dict(data)
            with self._mutex:
                known = {w.spec for w in self._watches.values()}
            if spec in known:
                continue
            query = spec.query
            source = self.hin.engine().path(spec.path).source_type
            if source in self.hin._name_index:
                query = self.hin.index_of(source, query)
            out.append(
                self.watch(
                    spec.path,
                    query,
                    k=spec.k,
                    measure=spec.measure,
                    exclude_self=spec.exclude_self,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def spec_dicts(self) -> list[dict]:
        """Manifest form of the registry (sorted for stable snapshots)."""
        with self._mutex:
            specs = [w.spec.to_dict() for w in self._watches.values()]
        return sorted(specs, key=lambda d: (d["measure"], d["path"], str(d["query"]), d["k"]))

    def subscriptions(self) -> list[Subscription]:
        """Every live subscription, across all watches (restored ones
        included) — registration order within each watch."""
        with self._mutex:
            return [s for w in self._watches.values() for s in w.subscribers]

    def current_of(self, watch: Watch) -> tuple:
        """The latest maintained ``(epoch, result)`` of *watch*."""
        with self._mutex:
            return watch.epoch, watch.result

    def stats(self) -> dict:
        """Maintenance counters plus registry sizes.

        ``commits`` counts maintained update batches; per-watch
        outcomes split into ``untouched`` (delta provably cannot reach
        the result, or ``k == 0`` — no work), ``incremental`` (touched
        candidates re-ranked against the stored bound), ``fallback`` (bound
        invalidated — full recompute), and ``recomputed`` (forced full
        recompute: epoch gaps, connectivity rows).  ``unchanged``
        counts maintained results that came out identical (no push);
        ``pushes`` counts deliveries to subscriptions.
        """
        with self._mutex:
            out = dict(self._counters)
            out["watches"] = len(self._watches)
            out["subscriptions"] = sum(
                len(w.subscribers) for w in self._watches.values()
            )
        return out

    def __len__(self) -> int:
        with self._mutex:
            return len(self._watches)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_hook(self) -> None:
        if self._hook is None:
            self._hook = self.hin.add_commit_hook(self._maintainer.on_commit)

    def _unsubscribe(self, watch: Watch, subscription: Subscription) -> None:
        """Drop one subscription; the watch (and, with it, the commit
        hook) is released when its last subscriber leaves."""
        with self._mutex:
            try:
                watch.subscribers.remove(subscription)
            except ValueError:
                return
            if not watch.subscribers and watch.key is not None:
                self._watches.pop(watch.key, None)
            if not self._watches and self._hook is not None:
                self.hin.remove_commit_hook(self._hook)
                self._hook = None

    def __repr__(self) -> str:
        with self._mutex:
            return (
                f"WatchManager({self.hin!r}, watches={len(self._watches)}, "
                f"commits={self._counters['commits']})"
            )
