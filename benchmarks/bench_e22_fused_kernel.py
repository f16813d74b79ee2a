"""E22 — fused single-source PathSim top-k vs cold materialization.

The fused-kernel acceptance benchmark.  A *cold* single-source PathSim
query under ``mode="materialize"`` pays for the whole half product
``W = M_1 ... M_{l/2}`` before it can rank anything; the fused kernel
(:mod:`repro.engine.fused`) threads the one query row through the same
relation chain as vector-matrix products, touches only the candidate
rows for denominators, and never allocates a source-type x source-type
matrix.  Both kernels run on a DBLP-shaped network (6000 authors, 36000
papers) over the two chain shapes the paper serves most:

* ``author-paper-author-paper-author`` — co-authorship squared;
* ``author-paper-term-paper-author`` — the wide term bottleneck.

Acceptance: **bit-identical** answers (integer link weights make every
float64 accumulation exact — the gate is ``==``, never a tolerance) and
``fused_speedup >= 3x`` on cold single-source latency.  The serving-level
lift is recorded too: time-to-first-answer on a freshly started
:class:`~repro.serving.QueryService`, where ``mode="auto"`` picks the
fused kernel by itself.  Machine-readable results land in
``BENCH_e22.json``; the CI perf job gates ``identical`` hard and the
speedup at >= 2x (advisory on a single-cpu host, mirroring E18's
``parallel_gate`` escape hatch).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import format_table, record_table
from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine
from repro.serving import QueryService

PATHS = (
    "author-paper-author-paper-author",
    "author-paper-term-paper-author",
)
QUERIES = (3, 77, 201, 399, 1200, 3000)
K = 10
SPEEDUP_TARGET = 3.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _make_network():
    dblp = make_dblp_four_area(
        authors_per_area=1500,
        papers_per_area=9000,
        terms_per_area=800,
        shared_terms=200,
        seed=7,
    )
    return dblp.hin


def _cold_run(hin, path, query, mode):
    """One cold single-source query: fresh engine, nothing cached (the
    network's own relation/transpose matrices stay warm — both kernels
    read the same ones, and a serving restart keeps them too)."""
    engine = MetaPathEngine(hin, mode=mode)
    start = time.perf_counter()
    result = engine.pathsim_top_k(path, query, K)
    elapsed = time.perf_counter() - start
    assert result.mode == mode
    return elapsed, list(result)


def _experiment():
    hin = _make_network()
    hin.engine()  # touch the attached engine: warms relation transposes

    per_path = {}
    identical = True
    for path in PATHS:
        mat_s = fused_s = 0.0
        for query in QUERIES:
            m_t, m_ans = _cold_run(hin, path, query, "materialize")
            f_t, f_ans = _cold_run(hin, path, query, "fused")
            identical = identical and (f_ans == m_ans)
            mat_s += m_t
            fused_s += f_t
        per_path[path] = {
            "materialize_s": mat_s,
            "fused_s": fused_s,
            "speedup": mat_s / fused_s,
        }

    # Blocked variant: one fused block vs one materialized block.
    batch_identical = True
    for path in PATHS:
        fused = MetaPathEngine(hin, mode="fused").pathsim_top_k_batch(
            path, QUERIES, K
        )
        mat = MetaPathEngine(hin, mode="materialize").pathsim_top_k_batch(
            path, QUERIES, K
        )
        batch_identical = batch_identical and (
            [list(r) for r in fused] == [list(r) for r in mat]
        )

    # Serving lift (the E18-facing number): time-to-first-answer on a
    # cold service.  The engine's "auto" policy picks the fused kernel
    # on its own; the materialized run prewarms inside the timer, paying
    # the half product before answering.
    first_answer_ms = {}
    for mode in ("materialize", "auto"):
        with QueryService(hin) as svc:
            start = time.perf_counter()
            if mode == "materialize":
                svc.prewarm(PATHS[0])
            answer = svc.similar(QUERIES[0], PATHS[0], K).result(timeout=300)
            first_answer_ms[mode] = (time.perf_counter() - start) * 1000.0
            identical = identical and (
                list(answer)
                == list(
                    MetaPathEngine(hin, mode="materialize").pathsim_top_k(
                        PATHS[0], QUERIES[0], K
                    )
                )
            )

    fused_speedup = min(p["speedup"] for p in per_path.values())
    return {
        "total_links": hin.total_links,
        "authors": hin.node_count("author"),
        "cpus": _usable_cpus(),
        "per_path": per_path,
        "fused_speedup": fused_speedup,
        "identical": bool(identical and batch_identical),
        "batch_identical": batch_identical,
        "first_answer_ms": first_answer_ms,
        "first_answer_speedup": (
            first_answer_ms["materialize"] / first_answer_ms["auto"]
        ),
        "perf_gate": _usable_cpus() >= 2,
    }


@pytest.mark.benchmark(group="e22-fused-kernel")
def test_e22_fused_kernel_speedup(benchmark):
    # One untimed warm-up round so the timed pass compares kernels, not
    # the allocator's first touch of the dataset's sparse arenas.
    r = benchmark.pedantic(_experiment, rounds=1, iterations=1, warmup_rounds=1)
    rows = [
        [
            path,
            per["materialize_s"] * 1000.0 / len(QUERIES),
            per["fused_s"] * 1000.0 / len(QUERIES),
            f"{per['speedup']:.1f}x",
        ]
        for path, per in r["per_path"].items()
    ]
    rows.append(
        [
            f"cold service first answer: {r['first_answer_ms']['materialize']:.0f} ms "
            f"materialized -> {r['first_answer_ms']['auto']:.0f} ms auto(fused); "
            f"bit-identical={r['identical']}",
            "",
            "",
            "",
        ]
    )
    record_table(
        "e22_fused_kernel",
        format_table(
            ["meta path", "materialize ms/q", "fused ms/q", "speedup"],
            rows,
            title=(
                f"E22: cold single-source PathSim top-{K} on "
                f"{r['authors']} authors / {r['total_links']} links"
            ),
        ),
    )
    benchmark.extra_info["fused_speedup"] = r["fused_speedup"]
    (Path(__file__).resolve().parent.parent / "BENCH_e22.json").write_text(
        json.dumps(
            {
                "speedup": r["fused_speedup"],
                **{
                    key: r[key]
                    for key in (
                        "identical",
                        "batch_identical",
                        "fused_speedup",
                        "per_path",
                        "first_answer_ms",
                        "first_answer_speedup",
                        "perf_gate",
                        "cpus",
                        "authors",
                        "total_links",
                    )
                },
                "config": {
                    "paths": list(PATHS),
                    "queries": list(QUERIES),
                    "k": K,
                    "speedup_target": SPEEDUP_TARGET,
                },
            },
            indent=2,
        )
    )

    assert r["identical"], "fused answers diverged from materialized"
    assert r["batch_identical"], "fused batch diverged from materialized"
    if r["perf_gate"]:
        assert r["fused_speedup"] >= SPEEDUP_TARGET, (
            f"fused cold-query speedup {r['fused_speedup']:.2f}x < "
            f"{SPEEDUP_TARGET}x (worst path)"
        )
