"""E16 — incremental commuting-matrix maintenance vs full re-materialization.

The dynamic-network acceptance benchmark: warm an engine with the
flagship meta-paths, stream in an update batch touching ~1% of the
network's edges, and maintain every cached materialization two ways:

* **incremental** — ``engine.apply_update(receipt)``: delta products
  (``ΔM = W'₁…ΔWᵢ…Wₖ``) patched onto the cached matrices;
* **rebuild** — a cold engine re-materializing the same paths from the
  mutated network, which is what every pre-update caller had to do
  (full cache invalidation on any change).

Acceptance: incremental maintenance is >= 5x faster with *identical*
top-k PathSim answers **and identical cached matrices** (DBLP link
weights are integer counts, so the maintained matrices are bit-for-bit
equal to rebuilt ones — same scores, same tie-breaking).  The network
is sized so the one update crosses the commit path's splice rule
(:func:`repro.utils.sparse.add_delta`) in both directions — the 30
touched author rows of the 245k-entry ``A-P-T`` half product (and the
``T-P-A`` and ``A-P-A`` halves) are spliced, the 10k-entry venue
products and the full commuting matrices, whose deltas reach every row,
take the whole-matrix add — and the ``config`` block of
``BENCH_e16.json`` records how many patches went each way, which the
perf-regression CI job gates together with ``identical``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from benchmarks.conftest import format_table, record_table
from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine
from repro.engine import engine as engine_module
from repro.networks import UpdateBatch
from repro.utils import sparse

PATHS = [
    "venue-paper-author-paper-venue",
    "author-paper-venue-paper-author",
    "author-paper-term-paper-author",
    "venue-paper-term-paper-venue",
    "author-paper-author-paper-author",
    "term-paper-author-paper-term",
]
VPAPV = PATHS[0]
K = 10
BATCH_FRACTION = 0.01


def _make_network():
    dblp = make_dblp_four_area(
        authors_per_area=225,
        papers_per_area=14400,
        terms_per_area=120,
        shared_terms=60,
        terms_per_paper=(8, 14),
        seed=0,
    )
    return dblp.hin


def _one_percent_batch(hin, rng) -> UpdateBatch:
    """A proceedings ingest totalling ~1% of the network's links.

    The realistic streaming shape: one venue's new edition arrives —
    new paper nodes, written by an existing community of authors, using
    that community's vocabulary — plus a handful of errata deletions.
    The update is *localized* (one venue, ~30 authors, ~40 terms), which
    is exactly when delta products shine; a batch of uniformly random
    edges would touch a third of all author rows and approach rebuild
    cost, and every deleted old paper drags its whole term set into the
    delta's reach — which is why errata trickle in while proceedings
    arrive in bulk.
    """
    budget = max(1, int(round(hin.total_links * BATCH_FRACTION)))
    community = rng.choice(hin.node_count("author"), size=30, replace=False)
    vocabulary = rng.choice(hin.node_count("term"), size=40, replace=False)
    venue = int(rng.integers(hin.node_count("venue")))
    n_papers = hin.node_count("paper")

    batch = UpdateBatch()
    writes_edges, venue_edges, term_edges = [], [], []
    n_del = 8
    spent = n_del
    new_papers = 0
    while spent < budget:
        paper = n_papers + new_papers
        new_papers += 1
        venue_edges.append((paper, venue))
        spent += 1
        for author in rng.choice(community, size=int(rng.integers(1, 4)), replace=False):
            writes_edges.append((int(author), paper))
            spent += 1
        for term in rng.choice(vocabulary, size=int(rng.integers(4, 8)), replace=False):
            term_edges.append((paper, int(term)))
            spent += 1
    batch.add_nodes("paper", [f"stream_paper_{i}" for i in range(new_papers)])
    batch.add_edges("writes", writes_edges)
    batch.add_edges("published_in", venue_edges)
    batch.add_edges("mentions", term_edges)

    # errata: retract a few of the community's existing author-paper links
    writes = hin.relation_matrix("writes").tocoo()
    community_set = set(community.tolist())
    community_links = [
        (int(u), int(v))
        for u, v in zip(writes.row, writes.col)
        if u in community_set
    ]
    pick = rng.choice(len(community_links), size=min(n_del, len(community_links)), replace=False)
    batch.remove_edges("writes", [community_links[i] for i in pick])
    return batch


def _warm(engine) -> None:
    """The serving state both strategies must reach: PathSim parts for
    top-k serving plus the full commuting matrices that connectivity,
    ranking and OLAP queries slice."""
    engine.prewarm(PATHS)
    for path in PATHS:
        engine.commuting_matrix(path)


def _arrays(entry) -> list:
    """The arrays of one cache entry: a product, or a pathsim ``(W, diag)``."""
    w, *diag = entry if isinstance(entry, tuple) else (entry,)
    return [w.indptr, w.indices, w.data, *diag]


def _experiment():
    hin = _make_network()
    # Detached engines: the benchmark delivers the update receipt by hand
    # so each maintenance strategy is timed in isolation.
    incremental = MetaPathEngine(hin)
    _warm(incremental)

    rng = np.random.default_rng(16)
    batch = _one_percent_batch(hin, rng)
    receipt = hin.apply(batch)

    # Count which side of add_delta's size rule each patch takes (two
    # pass-through calls per patch; nothing else in the timed region).
    splice = mock.Mock(side_effect=sparse._splice_rows)
    add = mock.Mock(side_effect=engine_module.add_delta)
    with mock.patch.object(sparse, "_splice_rows", splice), mock.patch.object(
        engine_module, "add_delta", add
    ):
        start = time.perf_counter()
        report = incremental.apply_update(receipt)
        incremental_s = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = MetaPathEngine(hin)
    _warm(rebuilt)
    rebuild_s = time.perf_counter() - start

    queries = list(range(hin.node_count("venue")))
    identical = True
    for path in (VPAPV, PATHS[3]):
        for q in queries:
            a = incremental.pathsim_top_k(path, q, K)
            b = rebuilt.pathsim_top_k(path, q, K)
            if list(a) != list(b):  # names AND exact scores
                identical = False
    # ... and every maintained matrix, array for array (the top-k legs
    # above read 20-row venue products only, which never splice).
    rebuilt_entries = dict(rebuilt.snapshot_entries())
    for key, value in incremental.snapshot_entries():
        identical &= all(
            np.array_equal(got, want)
            for got, want in zip(_arrays(value), _arrays(rebuilt_entries[key]))
        )
    return {
        "config": {
            "authors": hin.node_count("author"),
            "papers": hin.node_count("paper"),
            "terms": hin.node_count("term"),
            "paths": len(PATHS),
            "spliced": splice.call_count,
            "whole_adds": add.call_count - splice.call_count,
        },
        "total_links": hin.total_links,
        "batch_links": receipt.n_changed_links,
        "incremental_s": incremental_s,
        "rebuild_s": rebuild_s,
        "speedup": rebuild_s / incremental_s,
        "identical": identical,
        "report": report,
    }


@pytest.mark.benchmark(group="e16-updates")
def test_e16_incremental_maintenance_speedup(benchmark):
    # One untimed warm-up round: the timed comparison should measure the
    # two maintenance strategies, not the allocator's first touch of the
    # process's large-matrix arenas.
    r = benchmark.pedantic(_experiment, rounds=1, iterations=1, warmup_rounds=1)
    record_table(
        "e16_update_maintenance",
        format_table(
            ["maintenance strategy", "total s"],
            [
                ["full re-materialization (cold engine)", r["rebuild_s"]],
                ["incremental delta products", r["incremental_s"]],
                [
                    f"speedup: {r['speedup']:.1f}x on a "
                    f"{r['batch_links']}-link batch "
                    f"({100 * r['batch_links'] / r['total_links']:.1f}% of "
                    f"{r['total_links']} links)",
                    "",
                ],
            ],
            title="E16: cached commuting matrices under a streaming update",
        ),
    )
    benchmark.extra_info["speedup"] = r["speedup"]
    (Path(__file__).resolve().parent.parent / "BENCH_e16.json").write_text(
        json.dumps(
            {
                "speedup": r["speedup"],
                "identical": bool(r["identical"]),
                "config": r["config"],
                "batch_links": r["batch_links"],
                "total_links": r["total_links"],
                "maintenance_report": r["report"],
            },
            indent=2,
        )
    )

    assert r["identical"], "incremental answers diverged from rebuild"
    assert r["report"]["updated"] > 0, "nothing was maintained incrementally"
    assert r["config"]["spliced"] and r["config"]["whole_adds"], (
        f"the update no longer crosses the splice rule: {r['config']}"
    )
    assert r["speedup"] >= 5.0, (
        f"incremental maintenance speedup {r['speedup']:.2f}x < 5x"
    )
