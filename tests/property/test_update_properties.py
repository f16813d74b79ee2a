"""Property-based invariants of the dynamic-update subsystem.

The central claim of incremental maintenance: *any* sequence of random
update batches, applied one at a time, leaves both the network and the
engine's cached commuting matrices identical to rebuilding everything
from the final state.  Hypothesis hunts for the interleaving that breaks
it (insert-after-delete on one cell, growth mid-sequence, dense deltas
that trip the eviction fallback, ...).

A batch replays its ops as arrays; :class:`TestArrayReplay` holds that
replay to the one-edge-at-a-time dict loop it replaced, bit for bit, and
:class:`TestColumnDoor` holds the edge door's ``(m x 2)`` array form to
its tuple form.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MetaPathEngine
from repro.exceptions import EdgeError
from repro.ingest import state_digest
from repro.networks import HIN, NetworkSchema, UpdateBatch
from repro.networks.graph import _check_bounds

PATHS = ["a-b-a", "a-b-c", "c-b-a", "a-b-c-b-a"]


def _schema():
    return NetworkSchema(
        ["a", "b", "c"], [("r_ab", "a", "b"), ("r_bc", "b", "c")]
    )


def _base_hin():
    return HIN.from_edges(
        _schema(),
        nodes={"a": 3, "b": 3, "c": 2},
        edges={
            "r_ab": [(0, 0), (1, 1), (2, 2), (0, 2)],
            "r_bc": [(0, 0), (1, 1), (2, 0)],
        },
    )


@st.composite
def update_batches(draw):
    """A list of batches whose edge ops stay in range *given* the node
    growth earlier batches (and the same batch) contribute."""
    counts = {"a": 3, "b": 3, "c": 2}
    relations = {"r_ab": ("a", "b"), "r_bc": ("b", "c")}
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        batch = UpdateBatch()
        for t in ("a", "b", "c"):
            if draw(st.booleans()) and draw(st.integers(0, 2)):
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


def _rebuilt_copy(hin):
    """A fresh HIN with the same final matrices, built from the edge list."""
    edges = {}
    for rel in hin.schema.relations:
        m = hin.relation_matrix(rel.name).tocoo()
        edges[rel.name] = [
            (int(u), int(v), float(w))
            for u, v, w in zip(m.row, m.col, m.data)
        ]
    counts = {t: hin.node_count(t) for t in hin.node_types}
    return HIN.from_edges(_schema(), nodes=counts, edges=edges)


class TestIncrementalEqualsRebuild:
    @given(update_batches())
    @settings(max_examples=40, deadline=None)
    def test_network_state_matches_rebuild(self, batches):
        hin = _base_hin()
        for batch in batches:
            hin.apply(batch)
        rebuilt = _rebuilt_copy(hin)
        for rel in hin.schema.relations:
            a = hin.relation_matrix(rel.name)
            b = rebuilt.relation_matrix(rel.name)
            assert a.shape == b.shape
            assert (a != b).nnz == 0

    @given(update_batches())
    @settings(max_examples=40, deadline=None)
    def test_cached_commuting_matrices_match_rebuild(self, batches):
        hin = _base_hin()
        engine = hin.engine()
        engine.prewarm(PATHS)
        for batch in batches:
            hin.apply(batch)
        fresh = MetaPathEngine(_rebuilt_copy(hin))
        for path in PATHS:
            a = engine.commuting_matrix(path)
            b = fresh.commuting_matrix(path)
            assert a.shape == b.shape
            assert (a != b).nnz == 0, f"{path} diverged from rebuild"

    @given(update_batches())
    @settings(max_examples=20, deadline=None)
    def test_epoch_counts_batches_and_results_know_it(self, batches):
        hin = _base_hin()
        q = hin.query()
        for batch in batches:
            hin.apply(batch)
        assert hin.version == len(batches)
        r = q.similar(0, "a-b-a", k=2)
        assert r.network_version == hin.version
        scores = q.rank("a")
        assert scores.network_version == hin.version
        assert np.isfinite(scores.scores).all()


def _replay_one_at_a_time(ops, old, where):
    """The reference replay: cells in first-touch order, then every
    ``(kind, u, v, w)`` op applied to a dict in issue order."""
    coords = list(dict.fromkeys((u, v) for _, u, v, _ in ops))
    if not coords:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.array([]), np.array([])
    rows = np.array([c[0] for c in coords], dtype=np.int64)
    cols = np.array([c[1] for c in coords], dtype=np.int64)
    _check_bounds(rows, cols, old.shape, where)
    current = np.asarray(old[rows, cols]).ravel().astype(np.float64)
    pending = {c: current[i] for i, c in enumerate(coords)}
    for kind, u, v, w in ops:
        if kind == "insert":
            pending[(u, v)] += w
        elif kind == "delete":
            pending[(u, v)] = 0.0
        else:  # upsert
            pending[(u, v)] = w
    final = np.array([pending[c] for c in coords], dtype=np.float64)
    return rows, cols, current, final


weights = st.one_of(
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 0.2, 0.3, 1e-300, 1e300, 0.0]),
)


@st.composite
def replay_cases(draw, out_of_range=False):
    """An old matrix with fractional weights plus one or more builder
    calls (some empty) of interleaved inserts, deletes and upserts that keep
    hitting the same few cells; with *out_of_range*, indices may fall
    one step outside the matrix."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    lo, extra = (-1, 1) if out_of_range else (0, 0)
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1), weights)
    base = draw(st.lists(cells, max_size=6))
    old = sp.coo_matrix(
        ([w for *_, w in base], ([u for u, *_ in base], [v for _, v, _ in base])),
        shape=shape,
    ).tocsr()
    ends = st.tuples(st.integers(lo, shape[0] - 1 + extra), st.integers(lo, shape[1] - 1 + extra))
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "upsert"]),
                st.lists(st.tuples(ends, weights, st.booleans()), max_size=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return old, calls


def _build(calls):
    """The batch the builder calls make, and the same ops as tuples."""
    batch, ops = UpdateBatch(), []
    for kind, entries in calls:
        if kind == "insert":
            # An insert may leave its weight to default to 1.0.
            edges = [(u, v, w) if weighted else (u, v) for (u, v), w, weighted in entries]
            batch.add_edges("r", edges)
            ops += [(kind, u, v, w if weighted else 1.0) for (u, v), w, weighted in entries]
        elif kind == "delete":
            batch.remove_edges("r", [(u, v) for (u, v), _, _ in entries])
            ops += [(kind, u, v, 0.0) for (u, v), _, _ in entries]
        else:
            batch.set_weights("r", [(u, v, w) for (u, v), w, _ in entries])
            ops += [(kind, u, v, w) for (u, v), w, _ in entries]
    return batch, ops


class TestArrayReplay:
    """``UpdateBatch._final_values`` against the sequential replay."""

    @given(replay_cases())
    @settings(max_examples=300, deadline=None)
    def test_array_replay_is_bit_equal_to_sequential_replay(self, case):
        old, calls = case
        batch, ops = _build(calls)
        got = batch._final_values("r", old)
        want = _replay_one_at_a_time(ops, old, "relation 'r'")
        for name, a, b in zip(("rows", "cols", "current", "final"), got, want):
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            # Bitwise, order included: -0.0 vs 0.0 or one ulp is a failure.
            assert a.tobytes() == b.tobytes(), name
        assert batch.touched_relations == ["r"]
        assert len(batch) == len(ops)

    @given(replay_cases(out_of_range=True))
    @settings(max_examples=300, deadline=None)
    def test_first_out_of_range_edge_is_named_alike(self, case):
        old, calls = case
        batch, ops = _build(calls)
        outcomes = []
        for replay in (
            lambda: batch._final_values("r", old),
            lambda: _replay_one_at_a_time(ops, old, "relation 'r'"),
        ):
            try:
                replay()
                outcomes.append(None)
            except EdgeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_an_empty_call_touches_the_relation_without_cells(self):
        batch = UpdateBatch().add_edges("r", [])
        assert batch.touched_relations == ["r"] and len(batch) == 0
        rows, cols, current, final = batch._final_values("r", sp.csr_matrix((2, 2)))
        assert rows.size == cols.size == current.size == final.size == 0
        with pytest.raises(EdgeError, match=r"edge \(2, 0\) out of range"):
            batch.add_edges("r", [(2, 0)])._final_values("r", sp.csr_matrix((2, 2)))


def _matrix_bytes(m):
    return (m.shape, m.dtype.str, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes())


class TestColumnDoor:
    @given(
        grow=st.integers(0, 2),
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=12),
        dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_and_tuple_forms_commit_bit_identically(self, grow, pairs, dtype):
        pairs = [(u, v) for u, v in pairs if u < 3 + grow]
        commits = []
        for edges in (pairs, np.array(pairs, dtype=dtype).reshape(-1, 2)):
            hin = _base_hin()
            batch = UpdateBatch().add_nodes("a", grow).add_edges("r_ab", edges)
            receipt = hin.apply(batch)
            commits.append(
                (
                    [_matrix_bytes(hin.relation_matrix(r.name)) for r in hin.schema.relations],
                    receipt.epoch,
                    dict(receipt.node_growth),
                    receipt.resized,
                    {
                        name: [_matrix_bytes(getattr(d, part)) for part in ("old", "new", "delta")]
                        for name, d in receipt.deltas.items()
                    },
                    state_digest(hin),
                )
            )
        assert commits[0] == commits[1]
