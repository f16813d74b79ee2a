#!/usr/bin/env python
"""Streaming updates: a DBLP network that changes while queries flow.

The "database as an information network" story only holds if the network
accepts traffic the way a database does.  This example streams three
waves of updates into the four-area DBLP network — a new author's first
paper, a venue's new proceedings, an erratum retracting a link — while
top-k PathSim queries keep serving between the waves.  The network's
shared engine maintains its cached commuting matrices *incrementally*
(delta products) instead of dropping them, every answer carries the
update epoch it was computed against, and the final answers are
identical to what a cold engine computes from scratch.

Run:  python examples/streaming_updates.py
"""

import numpy as np

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine
from repro.networks import UpdateBatch

VPAPV = "venue-paper-author-paper-venue"


def main() -> None:
    dblp = make_dblp_four_area(seed=0)
    hin = dblp.hin
    q = hin.query()
    q.prewarm(VPAPV, "A-P-V-P-A")

    print("=== epoch 0: the network as loaded ===")
    print(hin)
    answer = q.similar("SIGMOD", VPAPV, k=3)
    print(f"SIGMOD peers (epoch {answer.network_version}):", answer.labels)
    print()

    # -- wave 1: a new author's first paper ---------------------------
    papers_before = hin.node_count("paper")
    with hin.mutate() as m:
        m.add_nodes("author", ["brand_new_author"])
        m.add_nodes("paper", ["debut_paper"])
        m.add_edges("writes", [(hin.node_count("author"), papers_before)])
        m.add_edges("published_in", [(papers_before, hin.index_of("venue", "SIGMOD"))])
    print("=== epoch 1: a debut paper lands in SIGMOD ===")
    print(m.applied)

    # -- wave 2: a venue's proceedings (a bulk insert) ----------------
    rng = np.random.default_rng(7)
    venue = hin.index_of("venue", "KDD")
    authors = rng.choice(hin.node_count("author"), size=12, replace=False)
    batch = UpdateBatch().add_nodes("paper", [f"kdd_new_{i}" for i in range(6)])
    for i in range(6):
        paper = hin.node_count("paper") + i
        batch.add_edges("published_in", [(paper, venue)])
        batch.add_edges(
            "writes", [(int(a), paper) for a in rng.choice(authors, 2, replace=False)]
        )
    applied = hin.apply(batch)
    print("=== epoch 2: KDD proceedings ingested ===")
    print(applied)

    # -- wave 3: an erratum -------------------------------------------
    writes = hin.relation_matrix("writes").tocoo()
    hin.apply(UpdateBatch().remove_edges("writes", [(int(writes.row[0]), int(writes.col[0]))]))
    print("=== epoch 3: one authorship link retracted ===")
    print()

    answer = q.similar("SIGMOD", VPAPV, k=3)
    print(f"SIGMOD peers (epoch {answer.network_version}):", answer.labels)
    info = q.cache_info()
    print(
        f"engine cache: {info.currsize} entries, {info.evictions} evictions "
        f"— maintained, not rebuilt"
    )

    # -- proof: identical to a cold engine on the final network -------
    cold = MetaPathEngine(hin)
    for query in ("SIGMOD", "KDD", "ICML", "SIGIR"):
        warm_answer = q.similar(query, VPAPV, k=5)
        cold_answer = cold.pathsim_top_k(VPAPV, query, 5)
        assert list(warm_answer) == list(cold_answer), query
    print("incrementally maintained answers == cold rebuild answers (exact)")


if __name__ == "__main__":
    main()
