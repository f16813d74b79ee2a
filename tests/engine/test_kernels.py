"""The PathSim kernels' identities — the argument for bit-identical serving.

Every serving path (engine, fused, shard workers) calls the functions
in :mod:`repro.engine.kernels`; what remains to show is that the
kernels agree *with each other* bitwise: a block row equals the solo
mat-vec, the kernel on a row slice equals the matching columns of the
kernel on the whole, and the partial kernel equals fancy-indexing the
block.  ``np.array_equal`` throughout — never a tolerance — except
for the fractional-weight contract's reordered routes, which agree to
the ``rtol`` the contract states.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MetaPathEngine, kernels
from repro.engine import engine as engine_module
from repro.engine.topk import merge_top_k, top_k_indices
from repro.networks import HIN, NetworkSchema, UpdateBatch
from repro.serving.shards import _execute_shard_job, _pack_queries
from tests.property.test_fused_properties import (
    _base_hin,
    symmetric_paths,
    update_batches,
)


#: Non-integral link weights: sums of products round, so only the order
#: of the terms decides the bits.
FLOAT_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 7.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def half_products(draw, weights=st.integers(0, 3)):
    """A random ``W`` (integer weights unless *weights* says otherwise;
    zero rows — hence zero diagonal entries — included) with its
    PathSim diagonal."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 6))
    cells = draw(st.lists(weights, min_size=n * dim, max_size=n * dim))
    dense = np.array(cells, dtype=np.float64).reshape(n, dim)
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        dense[row] = 0.0
    w = sp.csr_matrix(dense)
    diag = np.asarray(w.multiply(w).sum(axis=1)).ravel()
    return w, diag


@st.composite
def partitions(draw, n):
    """Contiguous ascending ``[lo, hi)`` ranges covering ``range(n)``,
    empty ranges included."""
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    return list(zip(bounds, bounds[1:]))


@st.composite
def kernel_cases(draw, weights=st.integers(0, 3)):
    w, diag = draw(half_products(weights))
    n = w.shape[0]
    queries = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    candidates = draw(st.lists(st.integers(0, n - 1), max_size=6))
    return w, diag, np.array(queries), np.array(candidates, dtype=np.int64), draw(
        partitions(n)
    )


class TestKernelIdentities:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_block_row_equals_solo(self, case):
        w, diag, queries, _candidates, _ranges = case
        block = kernels.pathsim_block(w, diag, w[queries], diag[queries])
        assert block.shape == (queries.size, w.shape[0])
        for r, q in enumerate(queries):
            solo = kernels.pathsim_solo(w, diag, kernels.dense_row(w, q), diag[q])
            assert np.array_equal(block[r], solo)

    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_kernel_on_a_slice_equals_columns_of_the_whole(self, case):
        w, diag, queries, _candidates, ranges = case
        q_rows, q_diag = w[queries], diag[queries]
        whole = kernels.pathsim_block(w, diag, q_rows, q_diag)
        solo = kernels.pathsim_solo(w, diag, kernels.dense_row(q_rows), q_diag[0])
        for lo, hi in ranges:
            part = kernels.pathsim_block(w[lo:hi], diag[lo:hi], q_rows, q_diag)
            assert np.array_equal(part, whole[:, lo:hi])
            part = kernels.pathsim_solo(
                w[lo:hi], diag[lo:hi], kernels.dense_row(q_rows), q_diag[0]
            )
            assert np.array_equal(part, solo[lo:hi])

    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_partial_equals_indexing_the_block(self, case):
        w, diag, queries, candidates, _ranges = case
        q_rows, q_diag = w[queries], diag[queries]
        whole = kernels.pathsim_block(w, diag, q_rows, q_diag)
        partial = kernels.pathsim_partial(w, diag, candidates, q_rows, q_diag)
        assert partial.shape == (queries.size, candidates.size)
        assert np.array_equal(partial, whole[:, candidates])

    @given(kernel_cases(FLOAT_WEIGHTS))
    @settings(max_examples=150, deadline=None)
    def test_partial_equals_indexing_the_block_under_float_weights(self, case):
        """The partial kernel's sparse product skips the zero query
        entries the block's dense operand multiplies in; with fractional
        weights every remaining term must still add in the same order."""
        w, diag, queries, candidates, _ranges = case
        q_rows, q_diag = w[queries], diag[queries]
        whole = kernels.pathsim_block(w, diag, q_rows, q_diag)
        partial = kernels.pathsim_partial(w, diag, candidates, q_rows, q_diag)
        assert np.array_equal(partial, whole[:, candidates])

    def test_partial_never_densifies_the_queries(self):
        """A wide inner dimension costs the partial kernel the sparse
        operands' size, not ``queries x dim`` dense floats."""
        rng = np.random.default_rng(7)
        n, dim = 64, 200_000
        w = sp.random(n, dim, density=5e-4, format="csr", random_state=rng)
        w.data = rng.uniform(0.1, 3.0, w.nnz)
        diag = np.asarray(w.multiply(w).sum(axis=1)).ravel()
        queries, candidates = np.arange(n), np.array([3, 9, 17, 40, 63])
        q_rows, q_diag = w[queries], diag[queries]
        tracemalloc.start()
        try:
            partial = kernels.pathsim_partial(w, diag, candidates, q_rows, q_diag)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < queries.size * dim * 8 / 20
        whole = kernels.pathsim_block(w, diag, q_rows, q_diag)
        assert np.array_equal(partial, whole[:, candidates])

    def test_zero_diagonals_score_exactly_zero(self):
        w = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]))
        diag = np.array([0.0, 5.0])
        block = kernels.pathsim_block(w, diag, w, diag)
        assert np.array_equal(block, np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert kernels.pathsim_block(w, diag, w[[]], diag[[]]).shape == (0, 2)


def test_fractional_weights_keep_the_link_weight_contract():
    """``docs/ARCHITECTURE.md`` → "Link weights": under fractional weights
    the routes that read one materialized ``W`` through these kernels
    (materialize, the partial block, the sharded scatter) stay bitwise
    equal, and the routes that sum or associate in another order (fused
    row threading, the diagonal a path ``auto`` keeps fused streams and
    holds, the left-to-right ``hin.commuting_matrix`` against the planned
    order, maintained vs rebuilt) agree to ``rtol=1e-12``."""
    rng = np.random.default_rng(5)
    counts = {"a": 60, "p": 150, "v": 6}

    def links(src, dst, n):
        return list(
            zip(
                rng.integers(0, counts[src], n).tolist(),
                rng.integers(0, counts[dst], n).tolist(),
                rng.uniform(0.01, 4.0, n).tolist(),
            )
        )

    schema = NetworkSchema(["a", "p", "v"], [("w", "a", "p"), ("pv", "p", "v")])
    hin = HIN.from_edges(
        schema, nodes=counts, edges={"w": links("a", "p", 400), "pv": links("p", "v", 150)}
    )
    path, queries, k = "a-p-v-p-a-p-v-p-a", np.arange(0, 60, 7), 10
    mat = MetaPathEngine(hin, mode="materialize")
    rows = mat.pathsim_rows(path, queries)
    assert np.array_equal(mat.pathsim_partial_block(path, queries, np.arange(60)), rows)

    w, diag = mat._pathsim_parts(path)
    _, q_rows, q_diag = mat.pathsim_query_rows(path, queries)
    state = SimpleNamespace(slices={0: (w[:25], diag[:25], 0), 1: (w[25:], diag[25:], 25)})
    shards = [
        _execute_shard_job(state, "block", (token, k, _pack_queries(q_rows, q_diag)))
        for token in (0, 1)
    ]
    for row, statuses in zip(rows, zip(*shards)):
        top, scores = merge_top_k([value for _, value in statuses], k)
        assert np.array_equal(top, top_k_indices(row, k))
        assert np.array_equal(scores, row[top])

    fused = MetaPathEngine(hin, mode="fused")
    for row, q in zip(rows, queries.tolist()):
        result = fused.pathsim_top_k(path, q, k)
        np.testing.assert_allclose(result.scores, row[result.labels], rtol=1e-12)

    # A path auto prices as staying fused streams its diagonal on its
    # first query and holds it: summed through the half chain, not the
    # plan's order.
    venues = "v-p-a-p-a-p-v"
    auto = MetaPathEngine(hin)
    with patch.object(engine_module, "_MATERIALIZE_COST_RATIO", 0):
        assert auto.explain(venues).kernel == "fused"
    for q, row in enumerate(mat.pathsim_rows(venues, range(counts["v"]))):
        result = auto.pathsim_top_k(venues, q, 3)
        assert result.mode == "fused"
        np.testing.assert_allclose(result.scores, row[result.labels], rtol=1e-12)
    key = auto.symmetric_path(venues).canonical_key()
    assert auto._cache.peek(("pathsim", key)) is None
    np.testing.assert_allclose(auto._paths[key].diag, mat._pathsim_parts(venues)[1], rtol=1e-12)
    m = hin.commuting_matrix(path).toarray()
    diag_m = np.diag(m)
    left = kernels.pathsim_scores(m[queries], diag_m[queries, None] + diag_m[None, :])
    np.testing.assert_allclose(left, rows, rtol=1e-12)

    live = hin.engine().prewarm([path])
    hin.apply(UpdateBatch().add_edges("w", links("a", "p", 5)).set_weights("w", [(0, 0, 0.37)]))
    np.testing.assert_allclose(
        live.pathsim_rows(path, queries),
        MetaPathEngine(hin).pathsim_rows(path, queries),
        rtol=1e-12,
    )


class TestEngineIsTheKernel:
    @given(symmetric_paths(), update_batches(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_engine_row_equals_kernel_on_the_parts(self, path, batches, query):
        """Across random update streams, the engine's answer is the
        kernel over its own ``(W, diag)`` — whole, or stitched from any
        two row slices, which is all a shard does."""
        hin = _base_hin()
        engine = hin.engine()  # incrementally maintained by hin.apply()
        for batch in [None, *batches]:
            if batch is not None:
                hin.apply(batch)
            n = hin.node_count(path.split("-")[0])
            q = query % n
            row = engine.pathsim_row(path, q)
            w, diag = engine._pathsim_parts(path)
            q_row = kernels.dense_row(w, q)
            cut = n // 2
            stitched = np.concatenate(
                [
                    kernels.pathsim_solo(w[:cut], diag[:cut], q_row, diag[q]),
                    kernels.pathsim_solo(w[cut:], diag[cut:], q_row, diag[q]),
                ]
            )
            assert np.array_equal(row, stitched)
            assert np.array_equal(engine.pathsim_rows(path, [q, q])[1], row)


@st.composite
def reach_cases(draw):
    """A random relation ``R`` (integer or fractional weights) as the
    half ``W`` of both free-column shapes: a one-step half ``R`` read
    through its transpose, and a two-step palindromic half ``R·Rᵀ``
    read through itself."""
    weights = draw(st.sampled_from([st.integers(0, 3), FLOAT_WEIGHTS]))
    r, _ = draw(half_products(weights))
    if draw(st.booleans()):
        w, wt = r.tocsr(), r.T.tocsr()
    else:
        w = (r @ r.T).tocsr()
        w.sum_duplicates()
        wt = w
    diag = np.asarray(w.multiply(w).sum(axis=1)).ravel()
    return w, wt, diag, draw(st.integers(0, w.shape[0] - 1))


@given(reach_cases())
@settings(max_examples=200, deadline=None)
def test_reach_equals_the_solo_row_on_the_reach_and_zero_off_it(case):
    """``pathsim_reach`` scores are the solo mat-vec's row at the reach
    entries, bit for bit, and that row is ``0.0`` everywhere else."""
    w, wt, diag, i = case
    reach, scores = kernels.pathsim_reach(w, wt, diag, i)
    row = kernels.pathsim_solo(w, diag, kernels.dense_row(w, i), diag[i])
    assert np.array_equal(reach, np.unique(reach))
    assert np.array_equal(scores, row[reach])
    off = np.ones(row.size, dtype=bool)
    off[reach] = False
    assert not row[off].any()
    assert kernels.reach_flops(w, wt, i) == wt[w[i].indices].nnz
