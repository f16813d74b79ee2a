"""Cost-based association planning for meta-path chain products.

:meth:`~repro.networks.hin.HIN.commuting_matrix` multiplies a chain
``W_1 · W_2 · … · W_k`` strictly left to right, uncached — the reference
every engine product is tested against.  Association order does not
change the answer (matrix multiplication is associative; for the
integer link counts this library stores, even the float64 results are
bit-identical) — but it dominates the *cost* of long asymmetric
paths.  On a bibliographic network, ``A-P-V-P-A-P-T`` evaluated left
to right materializes dense author x paper intermediates twice, while
routing the product through the tiny venue type (``(A·V) · (V·T)``)
keeps every intermediate no wider than the venue count.

:class:`ChainPlanner` picks that order with the classic matrix-chain
DP, costed from each relation matrix's shape and nnz (read off the
stored matrix when a plan is made; nothing is maintained for it):

* ``flops(A·B) ≈ nnz(A) · nnz(B) / rows(B)`` — each stored entry of
  ``A`` meets the average row of ``B``;
* ``nnz(A·B)`` is the collision-discounted estimate
  ``rows·cols · (1 - exp(-flops / (rows·cols)))``, which saturates at
  the dense bound for fan-out-heavy products.

The planner also *seeds* from the cache: every contiguous subchain is
probed against the engine's canonical ``("product", steps)`` keys — and
against the **inverse** spelling, because a cached product for steps
``S`` answers ``reversed(S)`` exactly via one transpose
(``(W_1 … W_k)^T = W_k^T … W_1^T`` and each step flips direction).
That turns the prefix-only reuse of left-to-right evaluation into
prefix, suffix, infix, and reversed-path reuse.  Seeds are probed with
counter-free peeks at plan time and consumed with ordinary ``get``\\ s
at execution time, so an entry evicted between the two is simply
recomputed from the recorded split — a plan can go stale, never wrong.

Execution caches every interval it materializes under the engine's
normal ``("product", steps)`` keys, so planner-created entries are
maintained by :meth:`~repro.engine.engine.MetaPathEngine.apply_update`,
exported by ``export_state`` and serialized into snapshots like any
other cache entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.sparse import _canonical

__all__ = ["ChainPlanner", "ChainPlan", "PlanReport", "nnz_bound"]


def _inverse_steps(names: tuple) -> tuple:
    """The canonical key of the reversed path: reversed order, flipped
    directions.  ``product(inverse) == product(names)^T``."""
    return tuple((name, not forward) for name, forward in reversed(names))


def _span_kind(i: int, j: int, n: int) -> str:
    """Where the span ``[i, j)`` of an *n*-step chain sits: ``"full"``,
    ``"prefix"``, ``"suffix"`` or ``"infix"``."""
    if i == 0:
        return "full" if j == n else "prefix"
    return "suffix" if j == n else "infix"


def _flops(a: tuple, b: tuple) -> float:
    """Estimated scalar multiplies of ``A·B`` from (rows, cols, nnz)."""
    za, zb = a[2], b[2]
    if za == 0 or zb == 0:
        return 0.0
    return za * (zb / max(b[0], 1))


def _combine(a: tuple, b: tuple) -> tuple:
    """Estimated (rows, cols, nnz) of ``A·B`` with collision discount."""
    rows, cols = a[0], b[1]
    work = _flops(a, b)
    cells = rows * cols
    if cells <= 0 or work == 0.0:
        return (rows, cols, 0)
    est = cells * (1.0 - math.exp(-work / cells))
    return (rows, cols, min(work, max(est, 1.0)))


def nnz_bound(mats) -> int:
    """An upper bound on the stored entries of the product of the CSR
    matrices *mats*, read off their degree vectors.

    Column *k* of the first matrix holds exactly ``col[k]`` entries.  A
    later step ``S`` multiplies ``Σₖ col[k]·rownnz(S)[k]`` pairs, and
    column *j* of the product can hold no more rows than ``S`` brings in
    from the columns it links to *j*, nor more than the product has:
    ``col ← min(Sᵀ·col, rows)`` on ``S``'s pattern.  The bound is the last
    step's pair count, capped at the product's size; after one step that
    count is exact.  One matrix is its own nnz."""
    first = mats[0]
    n, pairs = first.shape[0], int(first.nnz)
    col = np.bincount(first.indices, minlength=first.shape[1])
    for step in mats[1:]:
        per_row = np.diff(step.indptr)
        pairs = int(col @ per_row)
        col = np.minimum(np.bincount(step.indices, np.repeat(col, per_row), step.shape[1]), n)
    return min(pairs, n * mats[-1].shape[1])


@dataclass(frozen=True)
class _Seed:
    """A cached product usable for the span ``steps[i:j]``."""

    span: tuple
    inverse: bool
    shape: tuple
    nnz: int


@dataclass(frozen=True)
class PlanReport:
    """Picklable summary of one chain plan (see ``engine.explain()``).

    ``est_flops``/``left_flops`` are the cost model's estimates for the
    chosen association and for strict left-to-right evaluation of the
    same chain; ``seeds`` describes the cached entries the plan reuses.
    """

    path: str
    symmetric: bool
    association: str
    est_flops: float
    left_flops: float
    seeds: tuple
    # Which top-k kernel auto-dispatch would run for this path right now
    # ("fused"/"materialize"; None for asymmetric paths, which have no
    # PathSim kernel choice).  Filled in by engine.explain().
    kernel: str | None = None

    @property
    def estimated_speedup(self) -> float:
        """Left-to-right cost over planned cost (>= 1 when planning helps)."""
        return self.left_flops / max(self.est_flops, 1.0)

    def to_dict(self) -> dict:
        """Plain-JSON view (benchmark artifacts, result metadata)."""
        return {
            "path": self.path,
            "symmetric": self.symmetric,
            "association": self.association,
            "est_flops": self.est_flops,
            "left_flops": self.left_flops,
            "estimated_speedup": self.estimated_speedup,
            "seeds": list(self.seeds),
            "kernel": self.kernel,
        }

    def __str__(self) -> str:
        lines = [f"plan {self.path}"]
        if self.symmetric:
            lines.append("  symmetric: plan covers the half product W; M = W * W^T")
        lines.append(f"  association: {self.association}")
        lines.append(
            f"  est flops: {self.est_flops:.3g} "
            f"(left-to-right {self.left_flops:.3g}, "
            f"{self.estimated_speedup:.1f}x)"
        )
        lines.append("  seeds: " + (", ".join(self.seeds) if self.seeds else "none"))
        if self.kernel is not None:
            lines.append(f"  top-k kernel: {self.kernel}")
        return "\n".join(lines)


class ChainPlan:
    """The DP's output for one chain: split table, seeds, cost estimates.

    ``steps`` are the chain's ``(relation name, forward)`` pairs (a
    canonical key's form).  ``split[(i, j)]`` records the best
    association split for *every* interval — including seeded ones — so
    execution can always fall back to recomputation when a seed was
    evicted after planning.
    """

    def __init__(self, steps, types, split, seeds, used_seeds, cost, left_cost):
        self.steps = tuple(steps)
        self.types = tuple(types)
        self.split = split
        self.seeds = seeds
        self.used_seeds = used_seeds
        self.cost = float(cost)
        self.left_cost = float(left_cost)

    def _label(self, i: int, j: int) -> str:
        return "-".join(self.types[i : j + 1])

    def association(self) -> str:
        """Parenthesized association string, seeds bracketed (``~`` marks
        a transpose of a reversed-path entry)."""

        def render(i, j):
            """One interval: a bracketed seed, a leaf, or a split pair."""
            seed = self.used_seeds.get((i, j))
            if seed is not None:
                mark = "~" if seed.inverse else ""
                return f"[{mark}{self._label(i, j)}]"
            if j - i == 1:
                return self._label(i, j)
            m = self.split[(i, j)]
            return f"({render(i, m)} * {render(m, j)})"

        return render(0, len(self.steps))

    def seed_notes(self) -> tuple:
        """Human-readable description of each seed the plan consumes."""
        n = len(self.steps)
        notes = []
        for (i, j), seed in sorted(self.used_seeds.items()):
            via = " via transpose" if seed.inverse else ""
            notes.append(f"{_span_kind(i, j, n)} {self._label(i, j)} from cache{via}")
        return tuple(notes)


class ChainPlanner:
    """Plans and executes chain products for one engine.

    A chain is a tuple of ``(relation name, forward)`` steps: a
    :meth:`~repro.networks.schema.MetaPath.canonical_key` or a slice of one.

    Call sites hold the engine's read lock; the counters are advisory
    observability (plain int adds), exposed through
    :meth:`~repro.engine.engine.MetaPathEngine.planner_info`.
    """

    def __init__(self, engine):
        self._engine = engine
        self.counters = {
            "plans": 0,
            "planned_products": 0,
            "seeded_spans": 0,
            "prefix_seeds": 0,
            "suffix_seeds": 0,
            "infix_seeds": 0,
            "full_seeds": 0,
            "inverse_seeds": 0,
            "evicted_seed_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _leaf_stats(self, step) -> tuple:
        """``(rows, cols, nnz)`` of one oriented step, read off the stored
        matrix in O(1) — a backward step swaps the shape rather than
        building the transpose."""
        name, forward = step
        m = self._engine.hin.relation_matrix(name)
        rows, cols = m.shape if forward else m.shape[::-1]
        return (rows, cols, m.nnz)

    def _probe_seeds(self, names: tuple) -> dict:
        """Counter-free scan of the cache for every subchain of length
        >= 2, in forward and inverse spelling (O(k²) peeks, k <= path
        length — negligible next to one sparse product)."""
        cache = self._engine._cache
        n = len(names)
        seeds = {}
        for i in range(n):
            for j in range(i + 2, n + 1):
                sub = names[i:j]
                value = cache.peek(("product", sub))
                inverse = False
                if value is None:
                    value = cache.peek(("product", _inverse_steps(sub)))
                    inverse = True
                if value is None:
                    continue
                shape = value.shape if not inverse else value.shape[::-1]
                seeds[(i, j)] = _Seed((i, j), inverse, shape, int(value.nnz))
        return seeds

    def plan(self, steps) -> ChainPlan:
        """Matrix-chain DP over ``steps`` (``(relation name, forward)`` pairs).

        Ties break deterministically: a split only replaces the
        incumbent on strictly lower cost, scanning splits left to
        right, so equal-cost chains plan identically across runs.
        """
        names = tuple(steps)
        n = len(names)
        est = {}
        best = {}
        split = {}
        for i, step in enumerate(names):
            est[(i, i + 1)] = self._leaf_stats(step)
            best[(i, i + 1)] = 0.0
        seeds = self._probe_seeds(names)
        used = {}
        for length in range(2, n + 1):
            for i in range(n - length + 1):
                j = i + length
                bcost, bsplit = math.inf, i + 1
                for m in range(i + 1, j):
                    c = best[(i, m)] + best[(m, j)] + _flops(est[(i, m)], est[(m, j)])
                    if c < bcost:
                        bcost, bsplit = c, m
                split[(i, j)] = bsplit
                est[(i, j)] = _combine(est[(i, bsplit)], est[(bsplit, j)])
                seed = seeds.get((i, j))
                if seed is not None:
                    # A cached value's stats are exact — better than any
                    # estimate for everything built on top of this span.
                    est[(i, j)] = (seed.shape[0], seed.shape[1], seed.nnz)
                    scost = float(seed.nnz) if seed.inverse else 0.0
                    if scost <= bcost:
                        best[(i, j)] = scost
                        used[(i, j)] = seed
                        continue
                best[(i, j)] = bcost
        left_cost, acc = 0.0, est[(0, 1)]
        for m in range(1, n):
            left_cost += _flops(acc, est[(m, m + 1)])
            acc = _combine(acc, est[(m, m + 1)])
        types = [self._engine._step_types(names[0])[0]]
        types.extend(self._engine._step_types(s)[1] for s in names)
        self.counters["plans"] += 1
        # Prune seeds to the spans the chosen tree actually evaluates.
        reachable = set()

        def walk(i, j):
            """Collect the spans the plan tree evaluates, stopping at seeds."""
            reachable.add((i, j))
            if (i, j) in used or j - i == 1:
                return
            m = split[(i, j)]
            walk(i, m)
            walk(m, j)

        walk(0, n)
        used = {span: seed for span, seed in used.items() if span in reachable}
        return ChainPlan(names, types, split, seeds, used, best[(0, n)], left_cost)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def materialize(self, steps):
        """Planned, cached product over *steps*: the engine's one chain
        evaluator."""
        if len(steps) == 1:
            return self._engine.hin.oriented_matrix(*steps[0])
        plan = self.plan(steps)
        self._note_seeds(plan)
        self.counters["planned_products"] += 1
        return self.execute(plan)

    def execute(self, plan: ChainPlan):
        """Evaluate *plan*, consuming cached spans and caching every
        interval materialized along the way.

        Each interval re-checks the cache with a real ``get`` (hit
        counters reflect actual reuse); a seed evicted since planning
        falls through to the recorded split and is recomputed.
        """
        cache = self._engine._cache
        hin = self._engine.hin
        names = plan.steps

        def build(i, j):
            """Materialize one interval: leaf, cache hit, or recursive split."""
            if j - i == 1:
                return hin.oriented_matrix(*names[i])
            key = ("product", names[i:j])
            inverse_key = ("product", _inverse_steps(names[i:j]))
            found, value = cache.get_first((key, inverse_key))
            if found == key:
                return value
            if found is not None:
                out = _canonical(value.T.tocsr())
                cache.put(key, out)
                return out
            if (i, j) in plan.used_seeds:
                self.counters["evicted_seed_fallbacks"] += 1
            m = plan.split[(i, j)]
            out = _canonical(build(i, m).dot(build(m, j)).tocsr())
            cache.put(key, out)
            return out

        return build(0, len(names))

    def row_chain(self, steps) -> list:
        """Matrices to thread a single source row through, reusing the
        longest cached span (forward or inverse) at each position.

        This is how the top-k cut reaches single-source queries over
        uncached paths: only the query's candidate row is ever pushed
        through the chain, and cached subchains collapse several
        vector-matrix steps into one.  An inverse span is materialized
        forward (one transpose) and cached, so later queries — and
        incremental maintenance — see a normal product entry.
        """
        names = tuple(steps)
        cache = self._engine._cache
        mats, i, n = [], 0, len(names)
        while i < n:
            for j in range(n, i + 1, -1):
                key, inverse_key = ("product", names[i:j]), ("product", _inverse_steps(names[i:j]))
                # Peek first: a span nothing caches costs no miss.
                if cache.peek(key) is None and cache.peek(inverse_key) is None:
                    continue
                found, value = cache.get_first((key, inverse_key))
                if found is None:
                    continue
                if found == inverse_key:
                    value = _canonical(value.T.tocsr())
                    cache.put(key, value)
                    self.counters["inverse_seeds"] += 1
                self.counters["seeded_spans"] += 1
                mats.append(value)
                i = j
                break
            else:
                mats.append(self._engine.hin.oriented_matrix(*names[i]))
                i += 1
        return mats

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _note_seeds(self, plan: ChainPlan) -> None:
        n = len(plan.steps)
        for (i, j), seed in plan.used_seeds.items():
            self.counters["seeded_spans"] += 1
            self.counters["inverse_seeds"] += seed.inverse
            self.counters[f"{_span_kind(i, j, n)}_seeds"] += 1

    def report(self, steps, *, path: str, symmetric: bool) -> PlanReport:
        """:class:`PlanReport` for *steps* without executing anything."""
        if len(steps) == 1:
            label = "-".join(self._engine._step_types(steps[0]))
            return PlanReport(path, symmetric, label, 0.0, 0.0, ())
        plan = self.plan(steps)
        return PlanReport(
            path, symmetric, plan.association(),
            plan.cost, plan.left_cost, plan.seed_notes(),
        )
