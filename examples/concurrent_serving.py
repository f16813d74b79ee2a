#!/usr/bin/env python
"""Concurrent serving: eight clients, one live writer, one warm restart.

The production shape of the library: a :class:`repro.serving.QueryService`
worker pool serves top-k PathSim traffic from eight client threads —
coalescing duplicate in-flight requests and batching same-meta-path
queries into single block products — while the main thread streams
update batches through ``hin.apply()``.  The engine's read–write lock
makes every answer consistent with exactly one update epoch.  At the
end, the warm cache is snapshotted to disk and reloaded the way a
restarted process would, serving identical answers with zero
re-materialization.

Run:  python examples/concurrent_serving.py
"""

import tempfile
import threading
import time
from collections import Counter

import numpy as np

from repro import load_snapshot, save_snapshot
from repro.datasets import make_dblp_four_area
from repro.networks import UpdateBatch
from repro.serving import QueryService

VPAPV = "venue-paper-author-paper-venue"
APVPA = "author-paper-venue-paper-author"
N_CLIENTS = 8


def main() -> None:
    hin = make_dblp_four_area(seed=0).hin
    engine = hin.engine()
    engine.prewarm([VPAPV, APVPA])
    print("network:", hin)
    print()

    # -- eight clients, skewed traffic, a writer in the middle --------
    rng = np.random.default_rng(11)
    venues = hin.names("venue")
    hot = list(rng.choice(venues, size=3, replace=False))
    answered: list = []
    client_errors: list = []
    answered_lock = threading.Lock()
    stop = threading.Event()

    def client(seed: int) -> None:
        local_rng = np.random.default_rng(seed)
        try:
            while not stop.is_set():
                venue = (
                    hot[int(local_rng.integers(len(hot)))]
                    if local_rng.random() < 0.8
                    else venues[int(local_rng.integers(len(venues)))]
                )
                result = service.similar(venue, VPAPV, k=3).result(timeout=60)
                with answered_lock:
                    answered.append(result)
        except BaseException as exc:  # surface failures instead of dying silently
            client_errors.append(exc)

    with QueryService(hin, workers=2) as service:
        clients = [
            threading.Thread(target=client, args=(seed,))
            for seed in range(N_CLIENTS)
        ]
        for thread in clients:
            thread.start()

        # the writer: three small update batches land mid-traffic
        n_authors, n_papers = hin.node_count("author"), hin.node_count("paper")
        for _ in range(3):
            time.sleep(0.05)
            batch = UpdateBatch().add_edges(
                "writes",
                [
                    (int(a), int(p))
                    for a, p in zip(
                        rng.integers(0, n_authors, size=20),
                        rng.integers(0, n_papers, size=20),
                    )
                ],
            )
            hin.apply(batch)
        time.sleep(0.05)
        stop.set()
        for thread in clients:
            thread.join()
        stats = service.stats()

    assert not client_errors, f"client threads failed: {client_errors!r}"
    assert answered, "no answers were served concurrently"
    epochs = Counter(result.network_version for result in answered)
    print(f"{len(answered)} answers from {N_CLIENTS} clients while "
          f"{hin.version} update batches landed")
    print("answers per epoch:", dict(sorted(epochs.items())))
    print(f"service stats: {stats['submitted']} executed, "
          f"{stats['coalesced']} coalesced, largest batch "
          f"{stats['largest_batch']}")
    sigmod = hin.query().similar("SIGMOD", VPAPV, k=3)
    print(f"SIGMOD peers at epoch {sigmod.network_version}:", sigmod.labels)
    print()

    # -- warm restart from a snapshot ---------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-snapshot-") as snapshot_dir:
        manifest = save_snapshot(hin, snapshot_dir)
        print(f"snapshot: epoch {manifest['epoch']}, "
              f"{len(manifest['entries'])} cached materializations")
        restarted = load_snapshot(snapshot_dir)
    warm_engine = restarted.engine()
    misses_before = warm_engine.cache_info().misses
    restarted_answer = restarted.query().similar("SIGMOD", VPAPV, k=3)
    assert list(restarted_answer) == list(sigmod), "snapshot changed answers"
    assert warm_engine.cache_info().misses == misses_before, "cache was cold"
    print("restarted process serves identical answers straight from the "
          "snapshot (zero re-materialization)")


if __name__ == "__main__":
    main()
