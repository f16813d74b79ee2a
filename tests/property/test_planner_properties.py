"""Property-based invariants of the cost-based chain planner.

Association order is algebraically irrelevant, so the planner must be
*invisible* in every answer: for any meta path — including ones drawn as
random walks over the schema's type graph — and any sequence of random
update batches, planned evaluation must match strict left-to-right
evaluation (``hin.commuting_matrix``, uncached) bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MetaPathEngine, kernels
from repro.networks import HIN, NetworkSchema, UpdateBatch


def _ranked(hin, node_type, row, k, exclude=None):
    """The top *k* ``(name, score)`` of a dense score *row* by a stable
    sort — score descending, index ascending — without *exclude*."""
    order = sorted((j for j in range(row.size) if j != exclude), key=lambda j: (-row[j], j))
    return [(hin.name_of(node_type, j), row[j]) for j in order[:k]]


def reference_top_k(hin, path, query, k):
    """PathSim top-*k* of *query* (an index) from the dense left-to-right
    reference product — what every engine route must equal bit for bit
    under integer weights."""
    m = hin.commuting_matrix(path).toarray()
    diag = np.diag(m)
    row = kernels.pathsim_scores(m[query], diag[query] + diag)
    return _ranked(hin, hin.meta_path(path).source_type, row, k, exclude=query)


def reference_connectivity(hin, path, query, k):
    """Top-*k* path-instance counts from *query* (an index) off the
    dense left-to-right reference product."""
    row = hin.commuting_matrix(path).toarray()[query]
    return _ranked(hin, hin.meta_path(path).target_type, row, k)


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


# Type adjacency of the schema: which node types a path may step to next.
_NEXT = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}


@st.composite
def random_paths(draw):
    """A meta path drawn as a random walk over the schema type graph."""
    node = draw(st.sampled_from(["a", "b", "c"]))
    types = [node]
    for _ in range(draw(st.integers(1, 5))):
        node = draw(st.sampled_from(_NEXT[node]))
        types.append(node)
    return "-".join(types)


@st.composite
def update_batches(draw):
    """Same shape as the dynamic-update property suite: random inserts,
    deletes, weight upserts and node growth, kept index-valid."""
    counts = {"a": 3, "b": 3, "c": 2}
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


def _same(a, b, label=""):
    assert a.shape == b.shape, label
    assert (a != b).nnz == 0, f"planned != left-to-right for {label}"


class TestPlannerParity:
    @given(st.lists(random_paths(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_paths_bit_identical(self, paths):
        hin = _base_hin()
        engine = MetaPathEngine(hin)
        for path in paths:
            _same(engine.commuting_matrix(path), hin.commuting_matrix(path), path)

    @given(random_paths(), st.integers(0, 2), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_top_k_identical(self, path, source, k):
        hin = _base_hin()
        engine = MetaPathEngine(hin)
        types = path.split("-")
        source %= hin.node_count(types[0])
        if types == types[::-1]:  # PathSim needs a symmetric path
            assert list(engine.pathsim_top_k(path, source, k)) == reference_top_k(
                hin, path, source, k
            )
        assert list(engine.top_k_connectivity(path, source, k)) == (
            reference_connectivity(hin, path, source, k)
        )

    @given(st.lists(random_paths(), min_size=1, max_size=3), update_batches())
    @settings(max_examples=40, deadline=None)
    def test_parity_survives_update_streams(self, paths, batches):
        """Warm the planner, mutate the network, then demand parity:
        maintained planner entries must still agree with the uncached
        left-to-right product on the final state."""
        hin = _base_hin()
        auto = hin.engine()  # attached: caches are delta-maintained
        for path in paths:
            auto.commuting_matrix(path)
        for batch in batches:
            hin.apply(batch)
        for path in paths:
            _same(auto.commuting_matrix(path), hin.commuting_matrix(path), path)
            types = path.split("-")
            if types == types[::-1]:
                assert list(auto.pathsim_top_k(path, 0, 3)) == reference_top_k(
                    hin, path, 0, 3
                ), path
