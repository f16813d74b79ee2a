"""Property-based invariants of the standing-query subsystem.

The maintenance contract: for *any* stream of random update batches and
*any* set of watched meta-paths, every result a watch holds (and every
push it delivers) is bit-identical to a cold engine recomputing the
query on the network state at that epoch.  Hypothesis hunts for the
delta/path interleaving that breaks a merge bound or a reachability
superset (deletions inside the top-k, growth of the source type,
same-cell delete-then-insert, ...).  One strategy packs a single path
group with every outcome — both measures on the same path, several
queries sharing one ``k`` below the source type's size, and batches
that grow the source type.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MetaPathEngine
from repro.networks import HIN, NetworkSchema, UpdateBatch

PATHSIM_PATHS = ["a-b-a", "a-b-c-b-a"]
CONNECTIVITY_PATHS = ["a-b", "a-b-c"]


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


GROUP_COUNTS = {"a": 6, "b": 4, "c": 2}


def _group_hin():
    """A source type larger than any drawn ``k``, so the cut applies."""
    return HIN.from_edges(
        _schema(),
        nodes=GROUP_COUNTS,
        edges={
            "r_ab": [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (0, 3)],
            "r_bc": [(0, 0), (1, 1), (2, 0), (3, 1)],
        },
    )


@st.composite
def watch_specs(draw):
    """2-4 watch registrations over the base network's source nodes."""
    specs = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            measure = "pathsim"
            path = draw(st.sampled_from(PATHSIM_PATHS))
        else:
            measure = "connectivity"
            path = draw(st.sampled_from(CONNECTIVITY_PATHS))
        specs.append(
            {
                "measure": measure,
                "path": path,
                "query": draw(st.integers(0, 2)),
                "k": draw(st.integers(0, 4)),
            }
        )
    return specs


@st.composite
def shared_group(draw):
    """Watches of one path group on the larger network: PathSim and
    connectivity on the same path, one ``k`` and one self-exclusion."""
    k = draw(st.integers(1, GROUP_COUNTS["a"] - 2))
    exclude = draw(st.booleans())
    queries = st.lists(st.integers(0, GROUP_COUNTS["a"] - 1), min_size=1, max_size=4, unique=True)
    return [
        dict(measure=measure, path="a-b-a", query=q, k=k, exclude_self=exclude)
        for measure in ("pathsim", "connectivity")
        for q in draw(queries)
    ]


@st.composite
def update_batches(draw, base=None, grow=None):
    """Batches whose edge ops stay in range given earlier node growth;
    the *grow* type, if given, grows in at least one batch."""
    counts = dict(base or {"a": 3, "b": 3, "c": 2})
    relations = {"r_ab": ("a", "b"), "r_bc": ("b", "c")}
    batches = []
    n_batches = draw(st.integers(1, 4))
    grow_at = draw(st.integers(0, n_batches - 1)) if grow else -1
    for b in range(n_batches):
        batch = UpdateBatch()
        for t in ("a", "b", "c"):
            if (t == grow and b == grow_at) or (
                draw(st.booleans()) and draw(st.integers(0, 2))
            ):
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
    """A fresh HIN with the same matrices, built from the edge list."""
    edges = {}
    for rel in hin.schema.relations:
        m = hin.relation_matrix(rel.name).tocoo()
        edges[rel.name] = [
            (int(u), int(v), float(w))
            for u, v, w in zip(m.row, m.col, m.data)
        ]
    counts = {t: hin.node_count(t) for t in hin.node_types}
    return HIN.from_edges(_schema(), nodes=counts, edges=edges)


def _cold_answer(hin, spec):
    """The watch's query answered by a cache-free engine on a rebuild."""
    engine = MetaPathEngine(_rebuilt_copy(hin))
    if spec.measure == "pathsim":
        return engine.pathsim_top_k(
            spec.path, spec.query, spec.k, exclude_query=spec.exclude_self
        )
    return engine.top_k_connectivity(
        spec.path, spec.query, spec.k, exclude_query=spec.exclude_self
    )


def _replay_against_cold(hin, specs, batches):
    """Register *specs*, apply *batches*, and check every held result
    and every push against a cold engine at its epoch."""
    subs = [
        hin.watches().watch(
            s["path"], s["query"], k=s["k"], measure=s["measure"],
            exclude_self=s.get("exclude_self"),
        )
        for s in specs
    ]
    for expected_epoch, batch in enumerate(batches, start=1):
        hin.apply(batch)
        for sub in subs:
            epoch, result = sub.current()
            assert epoch == expected_epoch
            assert result == _cold_answer(hin, sub.spec)
            for push_epoch, pushed in sub.drain():
                # One batch since the last drain: any push is ours.
                assert push_epoch == expected_epoch
                assert pushed.network_version == expected_epoch
                assert pushed == result


class TestMaintainedEqualsCold:
    @given(watch_specs(), update_batches())
    @settings(max_examples=25, deadline=None)
    def test_every_push_matches_cold_recompute_at_its_epoch(
        self, specs, batches
    ):
        _replay_against_cold(_base_hin(), specs, batches)

    @given(shared_group(), update_batches(base=GROUP_COUNTS, grow="a"))
    @settings(max_examples=25, deadline=None)
    def test_one_path_group_of_both_measures_matches_cold(
        self, specs, batches
    ):
        hin = _group_hin()
        _replay_against_cold(hin, specs, batches)
        stats = hin.watches().stats()
        dispositions = (
            stats["untouched"]
            + stats["incremental"]
            + stats["fallback"]
            + stats["recomputed"]
        )
        assert dispositions == len(batches) * len(hin.watches())

    @given(watch_specs(), update_batches())
    @settings(max_examples=15, deadline=None)
    def test_every_watch_gets_exactly_one_disposition_per_commit(
        self, specs, batches
    ):
        hin = _base_hin()
        manager = hin.watches()
        for s in specs:
            manager.watch(s["path"], s["query"], k=s["k"], measure=s["measure"])
        for batch in batches:
            hin.apply(batch)
        stats = manager.stats()
        assert stats["commits"] == len(batches)
        dispositions = (
            stats["untouched"]
            + stats["incremental"]
            + stats["fallback"]
            + stats["recomputed"]
        )
        assert dispositions == stats["commits"] * len(manager)
