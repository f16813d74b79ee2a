"""Dynamic HIN updates: UpdateBatch semantics, HIN.apply/mutate, receipts."""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import EdgeError, RelationNotFoundError, UpdateError
from repro.networks import HIN, Graph, NetworkSchema, UpdateBatch
from repro.networks.updates import pad_csr


@pytest.fixture
def bib():
    schema = NetworkSchema(
        ["author", "paper", "venue"],
        [("writes", "author", "paper"), ("published_in", "paper", "venue")],
    )
    return HIN.from_edges(
        schema,
        nodes={"author": ["a0", "a1"], "paper": 3, "venue": ["v0"]},
        edges={
            "writes": [(0, 0), (0, 1), (1, 2)],
            "published_in": [(0, 0), (1, 0), (2, 0)],
        },
    )


class TestPadCsr:
    def test_pads_rows_and_cols_with_zeros(self):
        m = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        p = pad_csr(m, (4, 3))
        assert p.shape == (4, 3)
        assert np.array_equal(p.toarray()[:2, :2], m.toarray())
        assert p.toarray()[2:].sum() == 0 and p.toarray()[:, 2:].sum() == 0

    def test_same_shape_is_identity(self):
        m = sp.csr_matrix(np.eye(3))
        assert pad_csr(m, (3, 3)) is m

    def test_shrinking_raises(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError, match="pad"):
            pad_csr(sp.csr_matrix(np.eye(3)), (2, 3))


class TestUpdateBatchBuilder:
    def test_chaining_and_len(self):
        batch = (
            UpdateBatch()
            .add_nodes("paper", 2)
            .add_edges("writes", [(0, 0), (0, 1, 2.0)])
            .remove_edges("writes", [(1, 1)])
            .set_weights("published_in", [(0, 0, 3.0)])
        )
        assert len(batch) == 5 and bool(batch)
        assert batch.touched_relations == ["writes", "published_in"]
        assert batch.node_additions == {"paper": 2}

    def test_empty_batch_is_falsy(self):
        assert not UpdateBatch()

    def test_negative_weight_rejected_eagerly(self):
        with pytest.raises(EdgeError, match=">= 0"):
            UpdateBatch().add_edges("writes", [(0, 0, -1.0)])
        with pytest.raises(EdgeError, match=">= 0"):
            UpdateBatch().set_weights("writes", [(0, 0, -2.0)])

    @pytest.mark.parametrize(
        "site, weight",
        [
            *[
                (site, weight)
                for site in ("add_edges", "set_weights", "HIN(validate=True)", "Graph")
                for weight in (float("nan"), float("inf"))
            ],
            *[
                (site, "x")
                for site in ("add_edges", "set_weights", "HIN(validate=True)", "Graph.from_edges")
            ],
        ],
    )
    def test_non_finite_weight_rejected(self, bib, site, weight):
        """A NaN or infinite weight would serve NaN scores, and a string
        weight is no number at all; every door rejects them like a
        negative weight, and a rejected batch commits nothing."""
        build = {
            "add_edges": lambda: bib.apply(
                UpdateBatch().add_edges("writes", [(0, 2, weight)])
            ),
            "set_weights": lambda: bib.apply(
                UpdateBatch().set_weights("writes", [(0, 2, weight)])
            ),
            "HIN(validate=True)": lambda: HIN.from_edges(
                bib.schema,
                nodes={"author": 1, "paper": 1, "venue": 1},
                edges={"writes": [(0, 0, weight)]},
            ),
            "Graph": lambda: Graph(np.array([[0.0, weight], [0.0, 0.0]]), directed=True),
            "Graph.from_edges": lambda: Graph.from_edges(2, [(0, 1, weight)]),
        }[site]
        with pytest.raises(EdgeError, match="finite|real"):
            build()
        assert bib.version == 0

    @pytest.mark.parametrize(
        "site, edges",
        [
            pytest.param("add_edges", [(0,)], id="add_edges-short"),
            pytest.param("add_edges", [5], id="add_edges-bare-int"),
            pytest.param("add_edges", [(1.9, 0)], id="add_edges-float-index"),
            pytest.param("add_edges", [("1", 0)], id="add_edges-str-index"),
            pytest.param("add_edges", [(True, 0)], id="add_edges-bool-index"),
            pytest.param("remove_edges", [(1, 0, 2)], id="remove_edges-triple"),
            pytest.param("remove_edges", [(1.5, 0)], id="remove_edges-float-index"),
            pytest.param("set_weights", [(1, 0)], id="set_weights-pair"),
            pytest.param("set_weights", [("1", 0, 2.0)], id="set_weights-str-index"),
            pytest.param("HIN.from_edges", [(1.7, 0)], id="HIN.from_edges-float-index"),
            pytest.param("HIN.from_edges", [5], id="HIN.from_edges-bare-int"),
            pytest.param("Graph.from_edges", [(0.9, 2)], id="Graph.from_edges-float-index"),
            pytest.param("Graph.from_edges", [(1, True)], id="Graph.from_edges-bool-index"),
        ],
    )
    def test_malformed_edge_rejected(self, bib, site, edges):
        """An item that is not a tuple of the door's arity, or whose
        indices are not integers, is EdgeError at every door — never
        rounded, coerced from a string, or left to a bare unpacking
        error — and a rejected batch commits nothing."""
        build = {
            "add_edges": lambda: bib.apply(UpdateBatch().add_edges("writes", edges)),
            "remove_edges": lambda: bib.apply(UpdateBatch().remove_edges("writes", edges)),
            "set_weights": lambda: bib.apply(UpdateBatch().set_weights("writes", edges)),
            "HIN.from_edges": lambda: HIN.from_edges(
                bib.schema,
                nodes={"author": 3, "paper": 3, "venue": 1},
                edges={"writes": edges},
            ),
            "Graph.from_edges": lambda: Graph.from_edges(3, edges),
        }[site]
        with pytest.raises(EdgeError):
            build()
        assert bib.version == 0

    def test_duplicate_node_adds_rejected(self):
        batch = UpdateBatch().add_nodes("paper", 1)
        with pytest.raises(UpdateError, match="already adds"):
            batch.add_nodes("paper", 2)

    def test_duplicate_new_names_rejected(self):
        with pytest.raises(UpdateError, match="unique"):
            UpdateBatch().add_nodes("author", ["x", "x"])

    @pytest.mark.parametrize(
        "nodes, kind",
        [
            ("alice", "str"),
            (b"alice", "bytes"),
            (True, "bool"),
            (np.bool_(False), "bool"),
            (2.5, "float"),
            (2.0, "float"),
            (None, "NoneType"),
        ],
    )
    def test_node_door_refuses_what_is_neither_count_nor_names(self, bib, nodes, kind):
        """A string is one name, not five one-letter authors; a bool or a
        float is no count.  Each is UpdateError naming the type, and the
        refused call records nothing."""
        batch = UpdateBatch()
        with pytest.raises(UpdateError, match=rf"not {kind}$"):
            batch.add_nodes("author", nodes)
        assert batch.node_additions == {} and not batch
        bib.apply(batch.add_nodes("author", ["alice"]).add_nodes("paper", np.int64(2)))
        assert bib.node_count("author") == 3 and bib.node_count("paper") == 5


class TestBatchStorage:
    def test_retained_blocks_grow_per_call_not_per_edge(self):
        """A builder call keeps the edge door's column arrays, not one
        Python tuple per edge."""
        edges = [(i % 997, i, 1.5) for i in range(50_000)]
        batch = UpdateBatch().add_edges("writes", edges[:10])
        grown = []
        for call in (batch.add_edges, batch.set_weights, batch.add_edges):
            gc.collect()
            before = sys.getallocatedblocks()
            call("writes", edges)
            gc.collect()
            grown.append(sys.getallocatedblocks() - before)
        assert max(grown) < 100, grown
        assert len(batch) == 150_010

    def test_len_and_repr_count_edges_across_calls(self):
        batch = (
            UpdateBatch()
            .add_edges("writes", [(0, 0), (0, 0, 2.0)])
            .remove_edges("writes", [(0, 0)])
            .add_edges("published_in", [])
        )
        assert len(batch) == 3
        assert batch.touched_relations == ["writes", "published_in"]
        assert "edge_ops={'writes': 3, 'published_in': 0}" in repr(batch)


class TestColumnDoor:
    """An integer ``(m x 2)`` array is the column form of ``(u, v)`` pairs."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_integer_pair_array_accepted(self, bib, dtype):
        edges = np.array([[1, 0], [1, 1], [1, 0]], dtype=dtype)
        bib.apply(UpdateBatch().add_edges("writes", edges))
        m = bib.relation_matrix("writes")
        assert (m[1, 0], m[1, 1], bib.version) == (2.0, 1.0, 1)

    def test_the_batch_keeps_its_own_copy(self, bib):
        edges = np.array([[1, 0]])
        batch = UpdateBatch().add_edges("writes", edges)
        edges[0, 0] = 99
        bib.apply(batch)
        assert bib.relation_matrix("writes")[1, 0] == 1.0

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param(np.array([[1.0, 0.0]]), id="float"),
            pytest.param(np.array([[True, False]]), id="bool"),
            pytest.param(np.array([1, 0]), id="1-D"),
            pytest.param(np.array([[1, 0, 2]]), id="m-by-3"),
            pytest.param(np.array([[1, 0]], dtype=object), id="object"),
        ],
    )
    def test_other_arrays_refused_naming_the_relation(self, bib, edges):
        with pytest.raises(EdgeError, match="relation 'writes'.*edge array"):
            UpdateBatch().add_edges("writes", edges)

    def test_set_weights_takes_no_pair_array(self):
        with pytest.raises(EdgeError, match="edge array"):
            UpdateBatch().set_weights("writes", np.array([[0, 0]]))

    def test_out_of_range_fails_at_apply_as_the_tuple_form_does(self, bib):
        messages = []
        for edges in ([(0, 2), (0, 99)], np.array([[0, 2], [0, 99]])):
            batch = UpdateBatch().add_edges("writes", edges)
            with pytest.raises(EdgeError, match="out of range") as err:
                bib.apply(batch)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert bib.version == 0

    def test_construction_checks_bounds_alike(self, bib):
        messages = []
        for edges in ([(0, 5)], np.array([[0, 5]])):
            with pytest.raises(EdgeError) as err:
                HIN.from_edges(
                    bib.schema,
                    nodes={"author": 1, "paper": 3, "venue": 1},
                    edges={"writes": edges},
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestApply:
    def test_insert_accumulates_and_bumps_version(self, bib):
        assert bib.version == 0
        applied = bib.apply(UpdateBatch().add_edges("writes", [(0, 0), (1, 0)]))
        assert bib.version == 1 and applied.epoch == 1
        m = bib.relation_matrix("writes")
        assert m[0, 0] == 2.0 and m[1, 0] == 1.0

    def test_delete_zeroes_cell_and_prunes_storage(self, bib):
        bib.apply(UpdateBatch().remove_edges("writes", [(0, 0)]))
        m = bib.relation_matrix("writes")
        assert m[0, 0] == 0.0 and m.nnz == 2

    def test_delete_absent_cell_is_noop(self, bib):
        applied = bib.apply(UpdateBatch().remove_edges("writes", [(1, 0)]))
        assert "writes" not in applied.deltas
        assert bib.version == 1  # still an applied (empty) batch

    def test_upsert_sets_exact_weight(self, bib):
        bib.apply(UpdateBatch().set_weights("writes", [(0, 0, 7.5), (1, 0, 2.0)]))
        m = bib.relation_matrix("writes")
        assert m[0, 0] == 7.5 and m[1, 0] == 2.0

    def test_ops_replay_in_issue_order(self, bib):
        batch = (
            UpdateBatch()
            .remove_edges("writes", [(0, 0)])
            .add_edges("writes", [(0, 0, 4.0)])
        )
        bib.apply(batch)
        assert bib.relation_matrix("writes")[0, 0] == 4.0

    def test_add_nodes_named_and_anonymous(self, bib):
        applied = bib.apply(
            UpdateBatch().add_nodes("author", ["a2"]).add_nodes("paper", 2)
        )
        assert bib.node_count("author") == 3 and bib.node_count("paper") == 5
        assert bib.index_of("author", "a2") == 2
        assert applied.node_growth == {"author": (2, 3), "paper": (3, 5)}
        assert applied.resized == {"writes", "published_in"}
        # relation matrices grew with the types
        assert bib.relation_matrix("writes").shape == (3, 5)

    def test_new_edges_may_reference_new_nodes(self, bib):
        batch = (
            UpdateBatch()
            .add_nodes("paper", 1)
            .add_edges("writes", [(1, 3)])
            .add_edges("published_in", [(3, 0)])
        )
        bib.apply(batch)
        assert bib.relation_matrix("writes")[1, 3] == 1.0

    def test_count_for_named_type_rejected(self, bib):
        with pytest.raises(UpdateError, match="needs names"):
            bib.apply(UpdateBatch().add_nodes("author", 1))

    def test_names_for_anonymous_type_rejected(self, bib):
        with pytest.raises(UpdateError, match="takes a count"):
            bib.apply(UpdateBatch().add_nodes("paper", ["p9"]))

    def test_clashing_name_rejected(self, bib):
        with pytest.raises(UpdateError, match="already exist"):
            bib.apply(UpdateBatch().add_nodes("author", ["a0"]))

    def test_out_of_range_edge_rejected_atomically(self, bib):
        batch = UpdateBatch().add_edges("writes", [(0, 2), (0, 99)])
        with pytest.raises(EdgeError, match="out of range"):
            bib.apply(batch)
        # nothing committed: the in-range edge did not land either
        assert bib.version == 0 and bib.relation_matrix("writes")[0, 2] == 0.0

    def test_unknown_relation_rejected(self, bib):
        with pytest.raises(RelationNotFoundError):
            bib.apply(UpdateBatch().add_edges("cites", [(0, 0)]))

    def test_non_batch_rejected(self, bib):
        with pytest.raises(UpdateError, match="UpdateBatch"):
            bib.apply({"writes": [(0, 0)]})

    def test_receipt_delta_is_exact_difference(self, bib):
        old = bib.relation_matrix("writes").toarray()
        applied = bib.apply(
            UpdateBatch()
            .add_edges("writes", [(1, 0)])
            .remove_edges("writes", [(0, 1)])
        )
        d = applied.deltas["writes"]
        assert np.array_equal(d.old.toarray(), old)
        assert np.array_equal(d.new.toarray(), bib.relation_matrix("writes").toarray())
        assert np.array_equal(d.delta.toarray(), d.new.toarray() - d.old.toarray())
        assert applied.n_changed_links == 2

    def test_transpose_cache_invalidated(self, bib):
        before = bib.oriented_matrix("writes", forward=False)
        bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        after = bib.oriented_matrix("writes", forward=False)
        assert after is not before
        assert after[0, 1] == 1.0


class TestMutate:
    def test_context_manager_commits_on_exit(self, bib):
        with bib.mutate() as m:
            m.add_edges("writes", [(1, 0)])
        assert m.applied is not None and bib.version == 1

    def test_explicit_commit_and_double_commit(self, bib):
        m = bib.mutate().add_edges("writes", [(1, 0)])
        m.commit()
        assert bib.version == 1
        with pytest.raises(UpdateError, match="already committed"):
            m.commit()

    def test_empty_mutation_does_not_commit(self, bib):
        with bib.mutate() as m:
            pass
        assert m.applied is None and bib.version == 0

    def test_raising_block_does_not_commit(self, bib):
        with pytest.raises(RuntimeError, match="boom"):
            with bib.mutate() as m:
                m.add_edges("writes", [(1, 0)])
                raise RuntimeError("boom")
        assert bib.version == 0


class TestRebuildEquivalence:
    def test_incremental_network_equals_rebuilt_network(self, bib):
        bib.apply(
            UpdateBatch()
            .add_nodes("paper", 1)
            .add_edges("writes", [(0, 3), (1, 3, 2.0)])
            .remove_edges("writes", [(0, 0)])
            .set_weights("published_in", [(3, 0, 1.0)])
        )
        rebuilt = HIN.from_edges(
            bib.schema,
            nodes={"author": ["a0", "a1"], "paper": 4, "venue": ["v0"]},
            edges={
                "writes": [(0, 1), (1, 2), (0, 3), (1, 3, 2.0)],
                "published_in": [(0, 0), (1, 0), (2, 0), (3, 0)],
            },
        )
        for rel in ("writes", "published_in"):
            a, b = bib.relation_matrix(rel), rebuilt.relation_matrix(rel)
            assert a.shape == b.shape and (a != b).nnz == 0


class TestCommitHooks:
    def test_hook_runs_after_commit_with_the_receipt(self, bib):
        seen = []

        def hook(applied):
            # The hook observes the committed state: version advanced,
            # matrices swapped, receipt epoch matching.
            seen.append((applied.epoch, bib.version, bib.total_links))

        assert bib.add_commit_hook(hook) is hook
        bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        assert seen == [(1, 1, 7)]

    def test_removed_hook_stops_firing(self, bib):
        calls = []
        hook = bib.add_commit_hook(lambda applied: calls.append(applied.epoch))
        bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        bib.remove_commit_hook(hook)
        bib.remove_commit_hook(hook)  # no-op, not an error
        bib.apply(UpdateBatch().add_edges("writes", [(0, 2)]))
        assert calls == [1]

    def test_raising_hook_propagates_but_update_stays_committed(self, bib):
        def hook(applied):
            raise RuntimeError("publish failed")

        bib.add_commit_hook(hook)
        with pytest.raises(RuntimeError, match="publish failed"):
            bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        assert bib.version == 1 and bib.total_links == 7

    def test_raising_hook_does_not_skip_later_hooks(self, bib):
        # Hook isolation: one raising hook must not starve the others —
        # every hook runs, the first failure re-raises afterwards.
        calls = []

        def bad(applied):
            raise RuntimeError("publish failed")

        bib.add_commit_hook(bad)
        bib.add_commit_hook(lambda applied: calls.append(applied.epoch))
        with pytest.raises(RuntimeError, match="publish failed"):
            bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        assert calls == [1]

    def test_first_exception_wins_and_carries_notes(self, bib):
        def first(applied):
            raise RuntimeError("first failure")

        def second(applied):
            raise ValueError("second failure")

        bib.add_commit_hook(first)
        bib.add_commit_hook(second)
        with pytest.raises(RuntimeError, match="first failure") as excinfo:
            bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        assert any("second failure" in note for note in excinfo.value.__notes__)

    def test_hook_can_query_without_deadlock(self, bib):
        # The hook runs outside the engine write lock, so read-locked
        # queries from inside it must not deadlock.
        answers = []
        engine = bib.engine()
        bib.add_commit_hook(
            lambda applied: answers.append(
                engine.pathsim_top_k("author-paper-author", 0, 2)
            )
        )
        bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        assert len(answers) == 1
        assert answers[0].network_version == 1


class TestTouchedRows:
    def test_touched_sources_and_targets_are_sorted_unique(self, bib):
        applied = bib.apply(
            UpdateBatch().add_edges("writes", [(1, 0), (1, 1), (0, 1)])
        )
        delta = applied.deltas["writes"]
        assert np.array_equal(delta.touched_sources, [0, 1])
        assert np.array_equal(delta.touched_targets, [0, 1])

    def test_touched_indices_equal_the_coo_round_trip_they_replaced(self, bib):
        applied = bib.apply(
            UpdateBatch()
            .add_nodes("paper", 2)
            .add_edges("writes", [(1, 4), (0, 3), (1, 0), (0, 4)])
            .remove_edges("writes", [(0, 1)])
        )
        delta = applied.deltas["writes"]
        coo = delta.delta.tocoo()
        for got, want in (
            (delta.touched_sources, np.unique(coo.row.astype(np.int64))),
            (delta.touched_targets, np.unique(coo.col.astype(np.int64))),
        ):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)


class TestTransposeMaintenance:
    def test_cached_transpose_rides_the_receipt_and_is_replaced_not_dropped(self, bib):
        before = bib.oriented_matrix("writes", False)
        applied = bib.apply(
            UpdateBatch().add_edges("writes", [(1, 0)]).remove_edges("writes", [(0, 1)])
        )
        assert applied.deltas["writes"].old_transposed is before
        after = bib._transposes["writes"]  # installed by the commit, no reader asked
        assert after is not before
        want = bib.relation_matrix("writes").T.tocsr()
        assert np.array_equal(after.indptr, want.indptr)
        assert np.array_equal(after.indices, want.indices)
        assert np.array_equal(after.data, want.data)

    def test_uncached_or_resized_transposes_keep_the_lazy_drop(self, bib):
        applied = bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        assert applied.deltas["writes"].old_transposed is None  # nobody had asked
        bib.oriented_matrix("writes", False)
        applied = bib.apply(
            UpdateBatch().add_nodes("paper", 1).add_edges("writes", [(1, 3)])
        )
        assert applied.deltas["writes"].old_transposed is None
        assert "writes" not in bib._transposes
        assert (
            bib.oriented_matrix("writes", False) != bib.relation_matrix("writes").T
        ).nnz == 0

    def test_receipt_without_a_transpose_still_maintains_the_engine(self, bib):
        from repro.engine import MetaPathEngine
        from repro.engine.engine import _DELTA_REBUILD_THRESHOLD
        from repro.networks.updates import AppliedUpdate, RelationDelta

        path = "author-paper-author"  # its delta needs the old writes, transposed
        engine = MetaPathEngine(bib)
        engine.commuting_matrix(path)
        applied = bib.apply(UpdateBatch().add_edges("writes", [(1, 0)]))
        d = applied.deltas["writes"]
        # 1 new link on 4: sparse enough to maintain rather than evict.
        assert d.density_vs_rebuild <= _DELTA_REBUILD_THRESHOLD
        bare = AppliedUpdate(
            applied.epoch, {"writes": RelationDelta("writes", d.old, d.new, d.delta)}
        )
        assert engine.apply_update(bare)["updated"] >= 1
        fresh = MetaPathEngine(bib)
        assert (engine.commuting_matrix(path) != fresh.commuting_matrix(path)).nnz == 0


class TestTrustedConstruction:
    def test_validate_false_adopts_arrays_without_writing(self, bib):
        matrices = {
            rel.name: bib.relation_matrix(rel.name) for rel in bib.schema.relations
        }
        for m in matrices.values():
            for arr in (m.data, m.indices, m.indptr):
                arr.flags.writeable = False
        counts = {t: bib.node_count(t) for t in bib.schema.node_types}
        trusted = HIN(bib.schema, counts, matrices, validate=False)
        for rel in bib.schema.relations:
            a, b = trusted.relation_matrix(rel.name), bib.relation_matrix(rel.name)
            assert (a != b).nnz == 0
        assert len(trusted.engine().pathsim_top_k("author-paper-author", 0, 2)) > 0

    def test_validate_false_still_checks_shapes(self, bib):
        from repro.exceptions import GraphError

        matrices = {"writes": sp.csr_matrix((1, 1))}
        counts = {t: bib.node_count(t) for t in bib.schema.node_types}
        with pytest.raises(GraphError, match="shape"):
            HIN(bib.schema, counts, matrices, validate=False)
