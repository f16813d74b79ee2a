"""Standing queries: subscriptions with incremental result maintenance.

A *standing query* is a top-k meta-path query registered once and kept
perpetually answered while the network mutates: ``hin.watches().watch``
(or the facade ``hin.query().watch`` / serving ``service.watch``)
returns a :class:`Subscription` whose consumers receive an
``(epoch, result)`` push whenever a committed update batch changes the
answer — and pay nothing when it does not.

The subsystem splits four ways:

* :mod:`~repro.watch.registry` — :class:`WatchManager` +
  :class:`WatchSpec`: registration, deduplication, persistence.
* :mod:`~repro.watch.maintainer` — :class:`ResultMaintainer`: the
  commit hook that brings every watch to the new epoch by the cheapest
  exact route, decided once per path group (stamp / one vectorized
  partial re-rank / full recompute).
* :mod:`~repro.watch.analysis` — delta-to-candidate reasoning: which
  rows can an update's sparse deltas possibly touch along a path.
* :mod:`~repro.watch.subscription` — the consumer handle.
"""

from repro.watch.maintainer import ResultMaintainer
from repro.watch.registry import Watch, WatchManager, WatchSpec
from repro.watch.subscription import Subscription

__all__ = [
    "WatchManager",
    "WatchSpec",
    "Watch",
    "Subscription",
    "ResultMaintainer",
]
