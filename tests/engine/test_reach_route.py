"""The reach route: a materialized PathSim row scored over its reach.

Where the engine reads ``W`` by column for free — a one-step half
through the relation's cached reverse orientation, a two-step
palindromic half ``R·Rᵀ`` through itself — a row within the flop bound
is scored by ``kernels.pathsim_reach`` and selected without a dense
score vector.  These tests pin that route independently of the
benchmark oracle, which builds a materialize engine and so runs the
same route: which rows take it, that every answer it gives equals a
stable argsort of the engine's own mat-vec ``pathsim_rows`` under float
weights and update streams, and the two facts it rests on (a
maintained palindromic half is bitwise symmetric; a cached reverse
orientation is bitwise the forward matrix's transpose).
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine, kernels
from repro.engine import engine as engine_module
from repro.engine.engine import _REACH_COST
from repro.networks import HIN, NetworkSchema, UpdateBatch
from tests.property.test_fused_properties import symmetric_paths

APA = "author-paper-author"
APAPA = "author-paper-author-paper-author"
APVPA = "author-paper-venue-paper-author"
APTPA = "author-paper-term-paper-author"

_COUNTS = {"a": 6, "b": 8, "c": 3}
_RELATIONS = {"r_ab": ("a", "b"), "r_bc": ("b", "c")}
_WEIGHTS = st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False)


def _float_hin() -> HIN:
    """A small three-type network with fractional link weights: sums of
    products round, so only the order of the terms decides the bits."""
    rng = np.random.default_rng(3)
    edges = {}
    for rel, (src, dst) in _RELATIONS.items():
        cells = {
            (int(u), int(v)): float(x)
            for u, v, x in zip(
                rng.integers(0, _COUNTS[src], 24),
                rng.integers(0, _COUNTS[dst], 24),
                rng.uniform(0.05, 4.0, 24),
            )
        }
        edges[rel] = [(u, v, x) for (u, v), x in cells.items()]
    schema = NetworkSchema(["a", "b", "c"], list((r, s, d) for r, (s, d) in _RELATIONS.items()))
    return HIN.from_edges(schema, nodes=dict(_COUNTS), edges=edges)


@st.composite
def float_batches(draw):
    """Update batches of fractional weights: inserts, deletes and
    upserts, node growth (which drops cached transposes), and sometimes
    a batch dense enough that the engine evicts what it touches."""
    counts = dict(_COUNTS)
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = UpdateBatch()
        for t in counts:
            if draw(st.integers(0, 3)) == 0:
                added = draw(st.integers(1, 2))
                batch.add_nodes(t, added)
                counts[t] += added
        dense = draw(st.booleans())
        for rel, (src, dst) in _RELATIONS.items():
            for _ in range(draw(st.integers(8, 12) if dense else st.integers(0, 2))):
                kind = draw(st.sampled_from(["insert", "delete", "upsert"]))
                u = draw(st.integers(0, counts[src] - 1))
                v = draw(st.integers(0, counts[dst] - 1))
                if kind == "insert":
                    batch.add_edges(rel, [(u, v, draw(_WEIGHTS))])
                elif kind == "delete":
                    batch.remove_edges(rel, [(u, v)])
                else:
                    batch.set_weights(rel, [(u, v, draw(_WEIGHTS))])
        batches.append(batch)
    return batches


def _spied(monkeypatch):
    """Log the kernel each scored row goes through."""
    calls = []
    for name in ("pathsim_reach", "pathsim_solo", "pathsim_block"):
        real = getattr(kernels, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def _argsort_answer(row, query, k, exclude):
    order = [int(j) for j in np.argsort(-row, kind="stable") if not (exclude and j == query)]
    return order[:k], [float(row[j]) for j in order[:k]]


@pytest.fixture(scope="module")
def dblp():
    """The fixture network, holding ``writes``' reverse orientation
    (what any backward traversal of it leaves cached)."""
    hin = make_dblp_four_area(seed=0).hin
    hin.oriented_matrix("writes", forward=False)
    return hin


def _flops(engine, path):
    mp = engine.symmetric_path(path)
    w, _ = engine._pathsim_parts(mp)
    wt = engine._columns(mp, w)
    return w.nnz, np.array([kernels.reach_flops(w, wt, i) for i in range(w.shape[0])])


class TestWhichRowsTakeTheReach:
    @pytest.mark.parametrize("path", [APA, APAPA])
    def test_free_column_rows_within_the_bound_take_the_reach(self, dblp, path, monkeypatch):
        engine = MetaPathEngine(dblp, mode="materialize")
        nnz, flops = _flops(engine, path)
        cheap = [int(i) for i in np.flatnonzero((_REACH_COST * flops <= nnz) & (flops > 0))]
        assert len(cheap) > 10
        calls = _spied(monkeypatch)
        for i in cheap[:10]:
            calls.clear()
            engine.pathsim_top_k(path, i, 5)
            assert calls == ["pathsim_reach"]
        calls.clear()
        engine.pathsim_top_k_batch(path, cheap[:4], 5)
        assert calls == ["pathsim_reach"] * 4

    @pytest.mark.parametrize("path", [APVPA, APTPA])
    def test_other_halves_keep_the_mat_vec(self, dblp, path, monkeypatch):
        engine = MetaPathEngine(dblp, mode="materialize").prewarm([path])
        mp = engine.symmetric_path(path)
        assert engine._columns(mp, engine._pathsim_parts(mp)[0]) is None
        calls = _spied(monkeypatch)
        engine.pathsim_top_k(path, 3, 5)
        assert calls == ["pathsim_solo"]

    def test_a_reverse_orientation_the_network_dropped_is_not_derived(self, monkeypatch):
        """A one-step half reads its columns only while the network
        holds them: here it does not, so the row keeps the mat-vec and
        the query leaves the network as it found it."""
        hin = make_dblp_four_area(seed=0).hin
        assert "writes" not in hin._transposes
        engine = MetaPathEngine(hin, mode="materialize")
        calls = _spied(monkeypatch)
        engine.pathsim_top_k(APA, 3, 5)
        assert calls == ["pathsim_solo"] and "writes" not in hin._transposes
        hin.oriented_matrix("writes", forward=False)
        calls.clear()
        engine.pathsim_top_k(APA, 3, 5)
        assert calls == ["pathsim_reach"]

    def test_a_row_past_the_flop_bound_keeps_the_mat_vec(self, dblp, monkeypatch):
        engine = MetaPathEngine(dblp, mode="materialize")
        nnz, flops = _flops(engine, APAPA)
        heavy, light = int(np.argmax(flops)), int(np.argmin(np.where(flops > 0, flops, nnz)))
        assert _REACH_COST * flops[heavy] > nnz >= _REACH_COST * flops[light]
        calls = _spied(monkeypatch)
        engine.pathsim_top_k(APAPA, heavy, 5)
        assert calls == ["pathsim_solo"]
        calls.clear()
        mixed = engine.pathsim_top_k_batch(APAPA, [heavy, light, heavy], 5)
        assert calls == ["pathsim_reach", "pathsim_block"]
        rows = engine.pathsim_rows(APAPA, [heavy, light, heavy])
        for i, row, result in zip([heavy, light, heavy], rows, mixed):
            labels, scores = _argsort_answer(row, i, 5, True)
            assert [dblp.name_of("author", j) for j in labels] == result.labels
            assert scores == result.scores.tolist()


class TestReachRouteOracle:
    @given(symmetric_paths(), float_batches(), st.integers(1, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_answer_is_a_stable_argsort_of_the_mat_vec(self, path, batches, k, exclude):
        """With every free-column row sent to the reach (a zero cost
        constant), each top-k equals a stable argsort of the engine's
        own ``pathsim_rows`` — fractional weights, node growth and a
        dense-delta eviction included — and the reach ran wherever the
        half allows it."""
        hin = _float_hin()
        engine = hin.engine()  # maintained by hin.apply()
        engine.topk_mode = "materialize"
        real = kernels.pathsim_reach
        reached = []
        with (
            patch.object(engine_module, "_REACH_COST", 0),
            patch.object(kernels, "pathsim_reach", lambda *a: reached.append(a[3]) or real(*a)),
        ):
            for batch in [None, *batches]:
                if batch is not None:
                    hin.apply(batch)
                for rel in _RELATIONS:  # held again if a resizing commit dropped it
                    hin.oriented_matrix(rel, forward=False)
                n = hin.node_count(path.split("-")[0])
                queries = list(range(n))
                reached.clear()
                results = engine.pathsim_top_k_batch(path, queries, k, exclude_query=exclude)
                mp = engine.symmetric_path(path)
                free = engine._columns(mp, engine._pathsim_parts(mp)[0]) is not None
                assert reached == (queries if free else [])
                for i, row, result in zip(queries, engine.pathsim_rows(path, queries), results):
                    labels, scores = _argsort_answer(row, i, k, exclude)
                    assert result.labels == labels
                    assert result.scores.tolist() == scores


class TestWhatTheReachRestsOn:
    @given(float_batches())
    @settings(max_examples=60, deadline=None)
    def test_halves_and_reverse_orientations_stay_bitwise_transposes(self, batches):
        """A maintained two-step palindromic half equals its transpose
        bit for bit, and every reverse orientation the network caches
        equals its forward matrix's transpose, after every commit."""
        hin = _float_hin()
        engine = hin.engine()
        engine.topk_mode = "materialize"
        palindromes = ["a-b-a-b-a", "b-a-b-a-b", "b-c-b-c-b", "c-b-c-b-c"]
        for batch in [None, *batches]:
            if batch is not None:
                hin.apply(batch)
            for path in palindromes:
                engine.pathsim_top_k(path, 0, 3)
                w = engine._pathsim_parts(path)[0].toarray()
                assert np.array_equal(w, w.T)
            for rel, cached in hin._transposes.items():  # maintained, unless resized
                assert cached.has_sorted_indices
                assert np.array_equal(cached.toarray(), hin.relation_matrix(rel).T.toarray())
            for rel in _RELATIONS:
                hin.oriented_matrix(rel, forward=False)
