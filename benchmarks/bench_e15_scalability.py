"""E15 — runtime scalability (RankClus EDBT'09 Fig. 9 / NetClus KDD'09 Fig. 8).

Wall-clock fit time of RankClus, NetClus and all-pairs SimRank as the
network grows.  Paper shape: the ranking-based clustering algorithms grow
roughly linearly in the number of links, while all-pairs SimRank grows
quadratically in the number of objects — the motivating gap for both
papers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import format_table, record_table
from repro.core import NetClus, RankClus
from repro.datasets import make_bitype_network, make_dblp_four_area
from repro.similarity import simrank


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run():
    rows = []
    for scale in (1, 2, 4):
        net = make_bitype_network(
            n_clusters=3,
            targets_per_cluster=10 * scale,
            attributes_per_cluster=100 * scale,
            seed=0,
        )
        dblp = make_dblp_four_area(
            authors_per_area=40 * scale, papers_per_area=100 * scale, seed=0
        )
        coauthor = dblp.hin.homogeneous_projection("author-paper-author")

        t_rank = _time(
            lambda: RankClus(n_clusters=3, n_init=2, seed=0).fit(
                net.w_xy, w_yy=net.w_yy
            )
        )
        t_net = _time(
            lambda: NetClus(n_clusters=4, n_init=2, seed=0).fit(dblp.hin)
        )
        t_sim = _time(lambda: simrank(coauthor, max_iter=10, tol=1e-4))
        rows.append(
            [f"x{scale}", net.w_xy.nnz, t_rank,
             dblp.hin.total_links, t_net,
             coauthor.n_nodes, t_sim]
        )
    return rows


@pytest.mark.benchmark(group="e15-scalability")
def test_e15_scalability(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["scale", "links (bi-type)", "RankClus s",
         "links (star)", "NetClus s", "authors", "SimRank s"],
        rows,
        title="E15: fit time vs network size",
    )
    record_table("e15_scalability", table)
    benchmark.extra_info["rows"] = rows

    # shape: quadrupling the network must not blow up the ranking-based
    # methods superquadratically, while all-pairs SimRank grows at least
    # quadratically in the object count
    r1, r4 = rows[0], rows[-1]
    link_growth = r4[1] / r1[1]
    rankclus_growth = r4[2] / max(r1[2], 1e-9)
    sim_growth = r4[6] / max(r1[6], 1e-9)
    node_growth = r4[5] / r1[5]

    # Machine-readable result, uploaded by CI's benchmark job (fields in
    # docs/BENCHMARKS.md).  E15 has no answer-identity notion, so
    # "identical" stays True by construction here (the file existing
    # proves the benchmark ran to completion).  There is likewise no
    # "speedup" to report — the headline number is the growth-rate gap
    # between SimRank and RankClus costs, under its own name so nobody
    # mistakes a slope ratio for a measured speedup; the scaling shape
    # lands in the "shape_held" field and is enforced by the asserts
    # below.
    (Path(__file__).resolve().parent.parent / "BENCH_e15.json").write_text(
        json.dumps(
            {
                "growth_gap": sim_growth / max(rankclus_growth, 1e-9),
                "identical": True,
                "shape_held": bool(
                    rankclus_growth < link_growth * 6
                    and sim_growth > node_growth
                ),
                "link_growth": link_growth,
                "rankclus_growth": rankclus_growth,
                "simrank_growth": sim_growth,
                "node_growth": node_growth,
                "rows": rows,
            },
            indent=2,
        )
    )

    assert rankclus_growth < link_growth * 6
    assert sim_growth > node_growth  # superlinear in nodes
