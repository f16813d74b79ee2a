"""Property-based oracle: the fused PathSim kernel is *invisible*.

For any symmetric meta path drawn over a random-ish schema, any query,
any ``k``, any exclusion flag, and any stream of random update batches
interleaved with queries, the fused single-source kernel must agree with
the materialized kernel **bit for bit** — list equality over the
``(name, float)`` pairs, never a tolerance.  Link weights are small
integers, so every float64 accumulation on either side is exact and the
final divisions see identical operands; any mismatch is a real kernel
bug, not roundoff.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MetaPathEngine, kernels
from repro.engine import engine as engine_module
from repro.engine.engine import _MATERIALIZE_COST_RATIO
from repro.networks import HIN, NetworkSchema, UpdateBatch


def _schema():
    return NetworkSchema(
        ["a", "b", "c"], [("r_ab", "a", "b"), ("r_bc", "b", "c")]
    )


def _base_hin():
    return HIN.from_edges(
        _schema(),
        nodes={"a": 4, "b": 3, "c": 2},
        edges={
            "r_ab": [(0, 0, 2), (1, 1, 1), (2, 2, 1), (0, 2, 1), (3, 1, 3)],
            "r_bc": [(0, 0, 1), (1, 1, 2), (2, 0, 1)],
        },
    )


# Half-walks over the schema type graph; mirroring one yields every
# symmetric path PathSim accepts.
_NEXT = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}


@st.composite
def symmetric_paths(draw):
    node = draw(st.sampled_from(["a", "b", "c"]))
    half = [node]
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(_NEXT[node]))
        half.append(node)
    return "-".join(half + half[-2::-1])


@st.composite
def update_batches(draw):
    """Random inserts, deletes, integer-weight upserts and node growth,
    kept index-valid (same shape as the planner property suite)."""
    counts = {"a": 4, "b": 3, "c": 2}
    relations = {"r_ab": ("a", "b"), "r_bc": ("b", "c")}
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = UpdateBatch()
        for t in ("a", "b", "c"):
            if draw(st.booleans()):
                added = draw(st.integers(1, 2))
                batch.add_nodes(t, added)
                counts[t] += added
        for rel, (src, dst) in relations.items():
            for _ in range(draw(st.integers(0, 4))):
                kind = draw(st.sampled_from(["insert", "delete", "upsert"]))
                u = draw(st.integers(0, counts[src] - 1))
                v = draw(st.integers(0, counts[dst] - 1))
                if kind == "insert":
                    batch.add_edges(rel, [(u, v, draw(st.integers(1, 3)))])
                elif kind == "delete":
                    batch.remove_edges(rel, [(u, v)])
                else:
                    batch.set_weights(rel, [(u, v, draw(st.integers(0, 3)))])
        batches.append(batch)
    return batches


def _identical(fused_engine, mat_engine, path, query, k, exclude):
    f = fused_engine.pathsim_top_k(path, query, k, exclude_query=exclude)
    m = mat_engine.pathsim_top_k(path, query, k, exclude_query=exclude)
    assert list(f) == list(m), (path, query, k, exclude)
    assert f.mode == "fused" and m.mode == "materialize"


class TestFusedOracle:
    @given(
        symmetric_paths(),
        st.integers(0, 3),
        st.integers(0, 6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_source_bit_identical(self, path, query, k, exclude):
        hin = _base_hin()
        _identical(
            MetaPathEngine(hin, mode="fused"),
            MetaPathEngine(hin, mode="materialize"),
            path,
            query % hin.node_count(path.split("-")[0]),
            k,
            exclude,
        )

    @given(symmetric_paths(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_batch_bit_identical(self, path, k):
        hin = _base_hin()
        queries = list(range(hin.node_count(path.split("-")[0])))
        fused = MetaPathEngine(hin, mode="fused").pathsim_top_k_batch(
            path, queries, k
        )
        mat = MetaPathEngine(hin, mode="materialize").pathsim_top_k_batch(
            path, queries, k
        )
        assert [list(r) for r in fused] == [list(r) for r in mat]

    @given(
        st.lists(symmetric_paths(), min_size=1, max_size=3),
        update_batches(),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_parity_survives_update_streams(self, paths, batches, k):
        """Warm both kernels, then interleave random update batches with
        queries: the fused kernel reads the *maintained* cached diagonal
        wherever one exists, so parity after updates is exactly the
        incremental-maintenance oracle the issue asks for."""
        hin = _base_hin()
        fused = MetaPathEngine(hin, mode="fused")
        mat = MetaPathEngine(hin, mode="materialize")
        for path in paths:  # warm: materialized caches (w, diag)
            mat.pathsim_top_k(path, 0, k)
        for batch in batches:
            hin.apply(batch)
            for path in paths:
                src = path.split("-")[0]
                for query in range(hin.node_count(src)):
                    _identical(fused, mat, path, query, k, True)

    @given(
        symmetric_paths(),
        st.lists(st.integers(0, 8), min_size=6, max_size=10),
        st.integers(1, 5),
        update_batches(),
        st.sampled_from([0, _MATERIALIZE_COST_RATIO, 10**9]),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_auto_across_the_threshold_and_an_update(
        self, path, picks, cut, batches, ratio, k
    ):
        """An ``auto`` engine's answers over a query sequence with
        ``apply()`` in between equal a cold materialized engine's at
        every epoch, whichever side of the price's threshold the path
        falls (the drawn ratio forces either side, or leaves it to the
        default).  At ratio 0 every path with a non-empty ``W`` stays
        fused and holds its diagonal from its first query, so a vector
        kept across the commit would be scored at the new epoch."""
        hin = _base_hin()
        engine = hin.engine()
        src = path.split("-")[0]
        with patch.object(engine_module, "_MATERIALIZE_COST_RATIO", ratio):
            for step, pick in enumerate(picks):
                if step == cut:
                    for batch in batches:
                        hin.apply(batch)
                query = pick % hin.node_count(src)
                got = engine.pathsim_top_k(path, query, k)
                cold = MetaPathEngine(hin, mode="materialize")
                assert list(got) == list(cold.pathsim_top_k(path, query, k))

    @given(symmetric_paths())
    @settings(max_examples=30, deadline=None)
    def test_partial_block_bit_identical(self, path):
        """Both top-k modes score the partial block bit-identically to
        the dense PathSim of the left-to-right reference product."""
        hin = _base_hin()
        src = path.split("-")[0]
        n = hin.node_count(src)
        rows = list(range(min(2, n)))
        candidates = list(range(n))
        m = hin.commuting_matrix(path).toarray()
        diag = np.diag(m)
        expected = kernels.pathsim_scores(m[rows], diag[rows, None] + diag[None, :])
        for mode in ("fused", "materialize"):
            got = MetaPathEngine(hin, mode=mode).pathsim_partial_block(
                path, rows, candidates
            )
            assert np.array_equal(got, expected)


@st.composite
def dense_hins(draw):
    """The property schema with every ``a-b`` and ``b-c`` pair linked at a
    drawn integer weight: every symmetric path's numerator reaches every
    source object, and every path's count fits."""
    counts = {"a": 4, "b": 3, "c": 2}

    def links(src, dst):
        return [
            (u, v, draw(st.integers(1, 3)))
            for u in range(counts[src])
            for v in range(counts[dst])
        ]

    return HIN.from_edges(
        _schema(), nodes=counts, edges={"r_ab": links("a", "b"), "r_bc": links("b", "c")}
    )


class TestFirstTouch:
    @given(dense_hins(), symmetric_paths(), update_batches(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_a_first_touch_build_is_maintained_like_a_built_one(self, hin, path, batches, k):
        """On these dense networks every path's count fits, so an ``auto``
        engine builds ``W`` on the path's first query, then takes a
        random update stream: every answer, before and after each
        commit, equals a cold ``mode="materialize"`` engine's at that
        epoch."""
        engine = hin.engine()  # incrementally maintained by hin.apply()
        key = ("pathsim", engine.symmetric_path(path).canonical_key())
        src = path.split("-")[0]
        assert engine.pathsim_top_k(path, 0, k).mode == "materialize"
        assert engine._cache.peek(key) is not None
        for batch in [None, *batches]:
            if batch is not None:
                hin.apply(batch)
            cold = MetaPathEngine(hin, mode="materialize")
            for query in range(hin.node_count(src)):
                got = engine.pathsim_top_k(path, query, k)
                assert list(got) == list(cold.pathsim_top_k(path, query, k))


@st.composite
def weighted_hins(draw):
    """The property schema with random links: integer weights, or
    fractional ones (the "Link weights" contract's other half)."""
    fractional = draw(st.booleans())
    weight = (
        st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False)
        if fractional
        else st.integers(1, 3)
    )
    counts = {"a": 4, "b": 3, "c": 2}

    def links(src, dst):
        cells = st.tuples(
            st.integers(0, counts[src] - 1), st.integers(0, counts[dst] - 1), weight
        )
        return draw(st.lists(cells, min_size=1, max_size=8))

    return HIN.from_edges(
        _schema(),
        nodes=counts,
        edges={"r_ab": links("a", "b"), "r_bc": links("b", "c")},
    )


class TestOneRoute:
    @given(
        weighted_hins(),
        symmetric_paths(),
        st.sampled_from(["auto", "fused", "materialize"]),
        st.booleans(),
        st.lists(st.integers(0, 8), min_size=1, max_size=4),
        st.data(),
        st.integers(0, 6),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_query_of_one_is_a_batch_of_one(
        self, hin, path, mode, warm, picks, data, k, exclude
    ):
        """``pathsim_top_k(q)``, ``pathsim_top_k_batch([q])[0]`` and row
        *i* of ``pathsim_top_k_batch(qs)`` are one answer — pairs,
        ``network_version`` and ``mode`` — under every kernel policy,
        and each call counts exactly one kernel dispatch.  Each call
        gets its own engine in the same cache state, so ``auto`` meets
        each request as the first one on the path."""
        n = hin.node_count(path.split("-")[0])
        qs = [p % n for p in picks]
        i = data.draw(st.integers(0, len(qs) - 1))

        def call(method, arg):
            engine = MetaPathEngine(hin, mode=mode)
            if warm:
                engine.prewarm([path])
            before = dict(engine.planner_info()["kernels"])
            out = getattr(engine, method)(path, arg, k, exclude_query=exclude)
            after = engine.planner_info()["kernels"]
            grown = {name: after[name] - before[name] for name in after}
            ran = out.mode if method == "pathsim_top_k" else out[0].mode
            assert grown == {name: int(name == ran) for name in after}
            return out

        answers = [
            call("pathsim_top_k", qs[i]),
            call("pathsim_top_k_batch", [qs[i]])[0],
            call("pathsim_top_k_batch", qs)[i],
        ]
        first = answers[0]
        for other in answers[1:]:
            assert list(other) == list(first)
            assert other.network_version == first.network_version
            assert other.mode == first.mode


#: For each source type: the relation that links a new node of it, and
#: whether the new node is that relation's source end.
_GROWTH_LINKS = {"a": ("r_ab", True), "b": ("r_bc", True), "c": ("r_bc", False)}


def _pair_count(a, b) -> int:
    """Multiply-add pairs of the sparse product ``a·b``, row by row."""
    per_row = np.diff(b.indptr)
    return sum(
        int(per_row[a.indices[a.indptr[i] : a.indptr[i + 1]]].sum()) for i in range(a.shape[0])
    )


class TestTheCount:
    @given(
        weighted_hins(),
        symmetric_paths(),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.floats(0.05, 4.0)),
            min_size=1,
            max_size=4,
            unique_by=lambda link: link[:2],
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_the_count_bounds_nnz_w_across_a_growth_commit(self, hin, path, links):
        """The count ``auto`` prices a path by is at least ``nnz(W)`` of a
        cold build, before and after a commit that grows the path's
        source type and links the new nodes in at fractional weights
        (the base network's are fractional on half the draws).  When the
        half's chain is two matrices, it is their product's exact pair
        count, capped at the product's size."""
        engine = hin.engine()
        key = engine.symmetric_path(path).canonical_key()
        src = path.split("-")[0]
        rel, new_is_source = _GROWTH_LINKS[src]
        for epoch in range(2):
            if epoch:
                n = hin.node_count(src)
                added = max(u for u, _, _ in links) + 1
                edges = [(n + u, v, w) if new_is_source else (v, n + u, w) for u, v, w in links]
                hin.apply(UpdateBatch().add_nodes(src, added).add_edges(rel, edges))
            assert engine.explain(path).kernel in ("fused", "materialize")
            bound = engine._paths[key].bound
            w = MetaPathEngine(hin, mode="materialize")._pathsim_parts(path)[0]
            assert bound >= w.nnz
            chain = engine._planner.row_chain(key[: len(key) // 2])
            if len(chain) == 2:
                first, last = chain
                assert bound == min(_pair_count(first, last), first.shape[0] * last.shape[1])
