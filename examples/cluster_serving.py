#!/usr/bin/env python
"""Cluster serving: worker processes, one live writer, a warm mmap restart.

The scale-out shape of the library: a :class:`repro.serving.ClusterService`
forks worker processes that attach the network's relation matrices and
warm commuting-matrix cache **zero-copy** from one mapped file, while
the parent keeps the only mutable copy and streams update batches
through ``hin.apply()``.  Every committed epoch publishes a new
immutable generation (an image file); workers swap atomically between
jobs, so each answer is consistent with exactly one epoch.  At the end,
the warm cache is snapshotted to disk and a *fresh* cluster restarts
from the snapshot alone — ``load_snapshot(dir, mmap=True)`` maps the
payload files instead of deserializing them, and the cluster publishes
that network to its workers like any other.

Run:  python examples/cluster_serving.py
"""

import tempfile
import threading
import time
from collections import Counter

import numpy as np

from repro.datasets import make_dblp_four_area
from repro.networks import UpdateBatch
from repro.serving import ClusterService, load_snapshot, save_snapshot

VPAPV = "venue-paper-author-paper-venue"
APVPA = "author-paper-venue-paper-author"
N_CLIENTS = 8
N_PROCESSES = 2


def main() -> None:
    hin = make_dblp_four_area(seed=0).hin
    engine = hin.engine()
    engine.prewarm([VPAPV, APVPA])
    print("network:", hin)
    print()

    # -- eight clients on two worker processes, a writer in the middle --
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
                result = cluster.similar(venue, VPAPV, k=3).result(timeout=60)
                with answered_lock:
                    answered.append(result)
        except BaseException as exc:  # surface failures instead of dying silently
            client_errors.append(exc)

    with ClusterService(hin, processes=N_PROCESSES) as cluster:
        clients = [
            threading.Thread(target=client, args=(seed,))
            for seed in range(N_CLIENTS)
        ]
        for thread in clients:
            thread.start()

        # the writer: three update batches land mid-traffic; each commit
        # publishes a new generation for the workers
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
        stats = cluster.stats()

    assert not client_errors, f"client threads failed: {client_errors!r}"
    assert answered, "no answers were served by the cluster"
    epochs = Counter(result.network_version for result in answered)
    print(f"{len(answered)} answers from {N_CLIENTS} clients on "
          f"{stats['processes']} worker processes while {hin.version} update "
          f"batches landed")
    print("answers per epoch:", dict(sorted(epochs.items())))
    print(f"cluster stats: {stats['jobs_dispatched']} jobs dispatched, "
          f"{stats['coalesced']} coalesced, largest batch "
          f"{stats['largest_batch']}, {stats['generations_published']} "
          f"generations published")
    sigmod = hin.query().similar("SIGMOD", VPAPV, k=3)
    print(f"SIGMOD peers at epoch {sigmod.network_version}:", sigmod.labels)
    print()

    # -- warm mmap restart of a whole cluster -------------------------
    # The cluster closes before the snapshot it maps is removed.
    with tempfile.TemporaryDirectory(prefix="repro-cluster-snapshot-") as snapshot_dir:
        manifest = save_snapshot(hin, snapshot_dir)
        print(f"snapshot: epoch {manifest['epoch']}, "
              f"{len(manifest['entries'])} cached materializations")

        start = time.perf_counter()
        with ClusterService(
            load_snapshot(snapshot_dir, mmap=True), processes=N_PROCESSES
        ) as restarted:
            restarted_answer = restarted.similar("SIGMOD", VPAPV, k=3).result(timeout=60)
            startup_ms = (time.perf_counter() - start) * 1000
            assert list(restarted_answer) == list(sigmod), "restart changed answers"
            print(f"restarted cluster serves identical answers {startup_ms:.0f} ms "
                  f"after cold start — the parent memory-maps the snapshot "
                  f"payloads instead of deserializing them")


if __name__ == "__main__":
    main()
