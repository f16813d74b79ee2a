"""What each PathSim top-k kernel costs on the benchmark's long paths.

    python tools/kernel_costs.py                # dblp_6k, seed 11
    python tools/kernel_costs.py --seed 21
    python tools/kernel_costs.py --smoke        # tiny network, seconds

For every ``DEEP_PATHS`` entry of ``benchmarks/perf`` it serves the same
cold queries (as many as one ``deep_path`` round sends per path, k=50)
three ways, each on a fresh engine over the workload's network:

* ``mode="materialize"``: the first materialization of the half product
  ``W`` (ms), then the warm materialized query (ms per query);
* ``mode="fused"``: the queries cold (ms per query, the first query's
  stream of the diagonal included), then ``held_ms/q``: the same
  queries served again on that engine, every one scored from the
  diagonal it now holds;
* ``mode="auto"``: the kernel ``explain()`` names for the next query
  after those queries.

``stream_ms`` is one stream of the whole diagonal through the half
chain (what a fused path's first query pays to hold it).  ``nnz(W)`` is
the materialized half product's.  ``bound(W)`` is the count auto prices
the path by before its first query (``planner.nnz_bound``), and
``bound/rel`` is that count over the stored entries of the half's
relations: auto materializes while it is at most
``_MATERIALIZE_COST_RATIO``.  Then it runs one measured ``deep_path``
round, exactly as the benchmark does (seeded ops, a ``QueryService`` on a
cold engine), and prints which deep paths ended it holding a
``("pathsim", …)`` cache entry, which hold their diagonal instead, and
the kernel each path's price picked at its first touch.

Last comes the reach route (:func:`reach_main`).  Each ``HOT_PATHS`` or
``DEEP_PATHS`` entry whose half ``W`` the engine reads by column for
free (a one-step half whose reverse orientation the network holds, or
a two-step palindromic half) serves the same
uniform queries (k=50, warm ``W``) two ways: the reach kernel and the
mat-vec, each with its selection, in ms per query.  It prints the
median / p90 / max over all rows of ``flops(i) / nnz(W)``, where
``flops(i)`` is row *i*'s reach multiply-adds.  ``reach_rows`` is the
share of rows the engine's rule (``12·flops(i) ≤ nnz(W)``) sends to the
reach kernel.  ``C*`` is what one reach multiply-add costs in mat-vec
entries on these queries, the basis of that constant.

Nothing is written under the repository: the round's work directory is
a temporary directory, removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
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
    from repro.engine.fused import half_norms

    mat = MetaPathEngine(hin, mode="materialize")
    start = time.perf_counter()
    mat.prewarm([path])
    first_ms = (time.perf_counter() - start) * 1e3
    mp = mat.symmetric_path(path)
    key = mp.canonical_key()
    w_nnz = mat._pathsim_parts(mp)[0].nnz
    mat_ms = _serve(mat, path, queries)
    del mat

    first = MetaPathEngine(hin)._half_chains(key)[0]
    start = time.perf_counter()
    half_norms(first)
    stream_ms = (time.perf_counter() - start) * 1e3

    fused = MetaPathEngine(hin, mode="fused")
    fused_ms = _serve(fused, path, queries)
    held_ms = _serve(fused, path, queries)
    del fused

    auto = MetaPathEngine(hin)
    for q in queries:
        auto.pathsim_top_k(path, q, K)
    state = auto._paths[key]
    relations = sum(hin.relation_matrix(name).nnz for name, _ in key[: len(key) // 2])
    return {
        "path": path,
        "first_mat_ms": first_ms,
        "mat_ms": mat_ms,
        "fused_ms": fused_ms,
        "held_ms": held_ms,
        "stream_ms": stream_ms,
        "nnz_w": w_nnz,
        "bound_w": state.bound,
        "bound_rel": state.bound / relations,
        "auto": auto.explain(path).kernel,
    }


def round_entries(harness, ctx) -> tuple:
    """``({path: (holds a ("pathsim", …) entry, holds its diagonal, the
    kernel its first touch picked)}, kernel counters, errors)`` after one
    measured ``deep_path`` round."""
    workload = harness.WORKLOADS["deep_path"](ctx)
    last = workload.round(warmup=False)  # the same work as a measured round
    engine = last.hin.engine()
    held = {}
    for path in harness.DEEP_PATHS:
        key = engine.symmetric_path(path).canonical_key()
        state = engine._paths.get(key)
        cached = engine._cache.peek(("pathsim", key)) is not None
        held[path] = (cached, state is not None and state.diag is not None, state and state.kernel)
    return held, dict(engine.kernel_counters), last.errors


def _args(argv):
    parser = argparse.ArgumentParser(usage=USAGE, description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true", help="the harness self-test's tiny network")
    return parser.parse_args(argv)


@contextlib.contextmanager
def _world(argv):
    """``(args, harness, ctx)`` for one report; the run's work directory
    is removed afterwards."""
    args = _args(argv)
    harness = _harness()
    scale = harness.SMOKE if args.smoke else harness.FULL
    workdir = tempfile.mkdtemp(prefix="kernel-costs-")
    try:
        yield args, harness, harness.Context(scale, args.seed, 1.0, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    """Print the kernel table and one ``deep_path`` round's cache entries."""
    with _world(argv) as (args, harness, ctx):
        rng = np.random.default_rng(args.seed)
        cold = ctx.scale.deep_cold_per_path
        print(
            f"# kernel costs, {'smoke' if args.smoke else 'full'} network, "
            f"seed={args.seed}, {cold} cold queries per path, k={K}"
        )
        print(
            f"{'path':<16}{'first_mat_ms':>13}{'mat_ms/q':>10}{'fused_ms/q':>11}"
            f"{'held_ms/q':>10}{'stream_ms':>10}{'nnz(W)':>11}{'bound(W)':>11}"
            f"{'bound/rel':>10}  auto"
        )
        for path in harness.DEEP_PATHS:
            count = ctx.base.node_count(harness._TYPE_OF[path[0]])
            queries = rng.integers(0, count, size=cold)
            row = path_costs(ctx.base, path, [int(q) for q in queries])
            print(
                f"{row['path']:<16}{row['first_mat_ms']:>13.1f}"
                f"{row['mat_ms']:>10.2f}{row['fused_ms']:>11.2f}"
                f"{row['held_ms']:>10.2f}{row['stream_ms']:>10.1f}"
                f"{row['nnz_w']:>11}{row['bound_w']:>11}"
                f"{row['bound_rel']:>10.2f}  {row['auto']}"
            )
        held, kernels, errors = round_entries(harness, ctx)
        print(f"# one deep_path round: kernels {kernels}, errors={errors}")
        for path, (cached, diagonal, pick) in held.items():
            state = "cached" if cached else "absent"
            diag = "held" if diagonal else "absent"
            print(f"{path:<16}pathsim entry {state:<7}diagonal {diag:<7}first touch {pick or '-'}")
    return 0 if errors == 0 else 1


def _timed(queries, serve) -> float:
    """Milliseconds per query of ``serve(i)`` over *queries*."""
    start = time.perf_counter()
    for i in queries:
        serve(i)
    return (time.perf_counter() - start) * 1e3 / len(queries)


def reach_costs(hin, path, queries) -> dict:
    """One reach-table row for *path*, or ``None`` when its half product
    cannot be read by column for free."""
    from repro.engine import MetaPathEngine, kernels
    from repro.engine.engine import _REACH_COST
    from repro.engine.topk import top_k_indices, top_k_support

    engine = MetaPathEngine(hin, mode="materialize")
    mp = engine.symmetric_path(path)
    for name, _ in mp.canonical_key():  # held, as after any backward traversal
        hin.oriented_matrix(name, forward=False)
    w, diag = engine._pathsim_parts(mp)
    wt = engine._columns(mp, w)
    if wt is None:
        return None
    n = w.shape[0]
    flops = np.array([kernels.reach_flops(w, wt, i) for i in range(n)])
    reach_ms = _timed(
        queries, lambda i: top_k_support(*kernels.pathsim_reach(w, wt, diag, i), n, K)
    )
    matvec_ms = _timed(
        queries, lambda i: top_k_indices(kernels.pathsim_rows(w, diag, [i])[0], K)
    )
    ratio = flops / max(w.nnz, 1)
    return {
        "path": path,
        "nnz_w": w.nnz,
        "reach_ms": reach_ms,
        "matvec_ms": matvec_ms,
        "median": float(np.median(ratio)),
        "p90": float(np.percentile(ratio, 90)),
        "max": float(ratio.max()),
        "reach_rows": float(np.mean(_REACH_COST * flops <= w.nnz)),
        "c_star": (reach_ms / max(flops[queries].mean(), 1)) / (matvec_ms / max(w.nnz, 1)),
    }


def reach_main(argv=None) -> int:
    """Print the reach route's costs on every free-column hot or deep path."""
    with _world(argv) as (args, harness, ctx):
        rng = np.random.default_rng(args.seed)
        count = 4 * ctx.scale.deep_cold_per_path
        print(
            f"# reach route, {'smoke' if args.smoke else 'full'} network, "
            f"seed={args.seed}, {count} uniform queries per path, k={K}"
        )
        print(
            f"{'path':<16}{'nnz(W)':>11}{'reach_ms/q':>11}{'matvec_ms/q':>12}"
            f"{'flops/nnz_med':>14}{'p90':>8}{'max':>8}{'reach_rows':>11}{'C*':>6}"
        )
        for path in dict.fromkeys(harness.HOT_PATHS + harness.DEEP_PATHS):
            nodes = ctx.base.node_count(harness._TYPE_OF[path[0]])
            row = reach_costs(ctx.base, path, rng.integers(0, nodes, size=count))
            if row is not None:
                print(
                    f"{path:<16}{row['nnz_w']:>11}{row['reach_ms']:>11.3f}"
                    f"{row['matvec_ms']:>12.3f}{row['median']:>14.4f}{row['p90']:>8.4f}"
                    f"{row['max']:>8.4f}{row['reach_rows']:>11.3f}{row['c_star']:>6.1f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main() or reach_main())
