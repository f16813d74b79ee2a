"""What each PathSim top-k kernel costs on the benchmark's long paths.

    python tools/kernel_costs.py                # dblp_6k, seed 11
    python tools/kernel_costs.py --seed 21
    python tools/kernel_costs.py --smoke        # tiny network, seconds

For every ``DEEP_PATHS`` entry of ``benchmarks/perf`` it serves the same
cold queries (as many as one ``deep_path`` round sends per path, k=50)
three ways, each on a fresh engine over the workload's network:

* ``mode="materialize"``: the first materialization of the half product
  ``W`` (ms), then the warm materialized query (ms per query);
* ``mode="fused"``: the fused query (ms per query) and the stored entries
  it threaded per query, from the engine's per-path tally;
* ``mode="auto"``: the kernel ``explain()`` names for the next query
  after those queries, and auto's estimate of ``nnz(W)``.

``nnz(W)`` is the materialized half product's.  Then it runs one
measured ``deep_path`` round, exactly as the benchmark does (seeded
ops, a ``QueryService`` on a cold engine), and prints which deep paths
ended it holding a ``("pathsim", …)`` cache entry.  Nothing is written
under the repository: the round's work directory is a temporary
directory, removed afterwards.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
USAGE = "python tools/kernel_costs.py [--seed N] [--smoke]"
K = 50  # deep_path's k


def _harness():
    """The benchmark's harness, imported from this checkout."""
    for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from perf import harness

    return harness


def _serve(engine, path, queries) -> float:
    """Milliseconds per query for *queries*, served one at a time."""
    start = time.perf_counter()
    for q in queries:
        engine.pathsim_top_k(path, q, K)
    return (time.perf_counter() - start) * 1e3 / len(queries)


def path_costs(hin, path, queries) -> dict:
    """One table row: the three kernels' costs for *queries* on *path*."""
    from repro.engine import MetaPathEngine

    mat = MetaPathEngine(hin, mode="materialize")
    start = time.perf_counter()
    mat.prewarm([path])
    first_ms = (time.perf_counter() - start) * 1e3
    mp = mat.symmetric_path(path)
    w_nnz = mat._pathsim_parts(mp)[0].nnz
    mat_ms = _serve(mat, path, queries)
    del mat

    fused = MetaPathEngine(hin, mode="fused")
    fused_ms = _serve(fused, path, queries)
    served, work, rows, row_nnz = fused._fused_tally[mp.canonical_key()]

    auto = MetaPathEngine(hin)
    for q in queries:
        auto.pathsim_top_k(path, q, K)
    return {
        "path": path,
        "first_mat_ms": first_ms,
        "mat_ms": mat_ms,
        "fused_ms": fused_ms,
        "nnz_w": w_nnz,
        "est_nnz_w": hin.node_count(mp.source_type) * row_nnz / rows,
        "entries_per_query": work / served,
        "auto": auto.explain(path).kernel,
    }


def round_entries(harness, ctx) -> tuple:
    """``({path: holds a ("pathsim", …) entry}, kernel counters, errors)``
    after one measured ``deep_path`` round."""
    workload = harness.WORKLOADS["deep_path"](ctx)
    last = workload.round(warmup=False)  # the same work as a measured round
    engine = last.hin.engine()
    held = {}
    for path in harness.DEEP_PATHS:
        key = ("pathsim", engine.symmetric_path(path).canonical_key())
        held[path] = engine._cache.peek(key) is not None
    return held, dict(engine.kernel_counters), last.errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(usage=USAGE, description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true", help="the harness self-test's tiny network")
    args = parser.parse_args(argv)
    harness = _harness()
    scale = harness.SMOKE if args.smoke else harness.FULL
    workdir = tempfile.mkdtemp(prefix="kernel-costs-")
    try:
        ctx = harness.Context(scale, args.seed, 1.0, workdir)
        rng = np.random.default_rng(args.seed)
        print(
            f"# kernel costs, {'smoke' if args.smoke else 'full'} network, "
            f"seed={args.seed}, {scale.deep_cold_per_path} cold queries per "
            f"path, k={K}"
        )
        print(
            f"{'path':<16}{'first_mat_ms':>13}{'mat_ms/q':>10}{'fused_ms/q':>11}"
            f"{'nnz(W)':>11}{'est_nnz(W)':>12}{'entries/q':>11}  auto"
        )
        for path in harness.DEEP_PATHS:
            count = ctx.base.node_count(harness._TYPE_OF[path[0]])
            queries = rng.integers(0, count, size=scale.deep_cold_per_path)
            row = path_costs(ctx.base, path, [int(q) for q in queries])
            print(
                f"{row['path']:<16}{row['first_mat_ms']:>13.1f}"
                f"{row['mat_ms']:>10.2f}{row['fused_ms']:>11.2f}"
                f"{row['nnz_w']:>11}{row['est_nnz_w']:>12.0f}"
                f"{row['entries_per_query']:>11.0f}  {row['auto']}"
            )
        held, kernels, errors = round_entries(harness, ctx)
        print(f"# one deep_path round: kernels {kernels}, errors={errors}")
        for path, cached in held.items():
            print(f"{path:<16}pathsim entry {'cached' if cached else 'absent'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
