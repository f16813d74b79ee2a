"""Unit tests for the HIN container."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import (
    EdgeError,
    GraphError,
    NodeNotFoundError,
    RelationNotFoundError,
    SchemaError,
    TypeNotFoundError,
)
from repro.networks import HIN, NetworkSchema


class TestConstruction:
    def test_counts(self, small_bib):
        assert small_bib.node_count("author") == 4
        assert small_bib.node_count("paper") == 5
        assert small_bib.total_nodes == 4 + 5 + 2 + 4

    def test_total_links(self, small_bib):
        assert small_bib.total_links == 10 + 5 + 10

    def test_unknown_type_raises(self, small_bib):
        with pytest.raises(TypeNotFoundError):
            small_bib.node_count("nope")

    def test_missing_type_in_counts(self, bib_schema):
        with pytest.raises(TypeNotFoundError):
            HIN(bib_schema, {"author": 2}, {})

    def test_extra_type_in_counts(self, bib_schema):
        counts = {"author": 1, "paper": 1, "venue": 1, "term": 1, "zzz": 1}
        with pytest.raises(TypeNotFoundError):
            HIN(bib_schema, counts, {})

    def test_wrong_matrix_shape(self, bib_schema):
        counts = {"author": 2, "paper": 3, "venue": 1, "term": 1}
        with pytest.raises(GraphError, match="shape"):
            HIN(bib_schema, counts, {"writes": np.ones((3, 2))})

    def test_negative_weights_rejected(self, bib_schema):
        counts = {"author": 2, "paper": 3, "venue": 1, "term": 1}
        with pytest.raises(EdgeError):
            HIN(bib_schema, counts, {"writes": -np.ones((2, 3))})

    def test_missing_relations_become_empty(self, bib_schema):
        counts = {"author": 2, "paper": 3, "venue": 1, "term": 1}
        hin = HIN(bib_schema, counts, {})
        assert hin.relation_matrix("writes").nnz == 0

    def test_from_edges_out_of_range(self, bib_schema):
        with pytest.raises(EdgeError):
            HIN.from_edges(
                bib_schema,
                nodes={"author": 1, "paper": 1, "venue": 1, "term": 1},
                edges={"writes": [(0, 5)]},
            )

    def test_from_edges_weights_accumulate(self, bib_schema):
        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": 1, "paper": 1, "venue": 1, "term": 1},
            edges={"writes": [(0, 0), (0, 0, 2.0)]},
        )
        assert hin.relation_matrix("writes")[0, 0] == 3.0


class TestCanonicalDoor:
    """``HIN(validate=True)`` hands the kernels what they assume: a
    canonical ``csr_matrix`` — duplicates summed, never a sparse array."""

    COUNTS = {"author": 3, "paper": 2, "venue": 1, "term": 1}
    APA = "author-paper-author"

    @staticmethod
    def _inputs():
        # Row 0 stores paper 0 twice (weights 1 and 2).
        duplicated = sp.csr_matrix(
            (np.array([1.0, 2.0, 1.0, 1.0, 1.0]), [0, 0, 0, 0, 1], [0, 2, 3, 5]),
            shape=(3, 2),
        )
        assert duplicated.nnz == 5
        rows, cols = np.array([0, 1, 2, 2]), np.array([0, 0, 0, 1])
        array = sp.csr_array((np.array([3.0, 1.0, 1.0, 1.0]), (rows, cols)), shape=(3, 2))
        return {"duplicated": duplicated, "csr_array": array}

    @pytest.mark.parametrize("spelling", ["duplicated", "csr_array"])
    @pytest.mark.parametrize(
        "policy",
        [{"mode": "materialize"}, {"mode": "fused"}],
        ids=["materialize", "fused"],
    )
    def test_answers_equal_a_dense_recomputation(self, bib_schema, spelling, policy):
        from repro.engine import MetaPathEngine

        hin = HIN(bib_schema, self.COUNTS, {"writes": self._inputs()[spelling]})
        stored = hin.relation_matrix("writes")
        assert isinstance(stored, sp.csr_matrix) and stored.has_canonical_format
        dense = np.array([[3.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(stored.toarray(), dense)

        m = dense @ dense.T
        scores = 2 * m / (np.diag(m)[:, None] + np.diag(m)[None, :])
        engine = MetaPathEngine(hin, **policy)
        for query in range(3):
            others = [j for j in range(3) if j != query]
            want = sorted(others, key=lambda j: (-scores[query, j], j))
            got = list(engine.pathsim_top_k(self.APA, query, 2))
            assert [j for j, _ in got] == want
            assert [s for _, s in got] == [scores[query, j] for j in want]
            assert engine.pathsim(self.APA, query, others[0]) == scores[query, others[0]]
            top = list(engine.top_k_connectivity(self.APA, query, 3))
            assert sorted(top) == sorted((j, m[query, j]) for j in range(3))

    @pytest.mark.parametrize("spelling", ["duplicated", "csr_array"])
    def test_reference_product_equals_a_dense_recomputation(self, bib_schema, spelling):
        """The uncached left-to-right ``commuting_matrix`` — the tests'
        reference route — reads the same canonical matrix."""
        hin = HIN(bib_schema, self.COUNTS, {"writes": self._inputs()[spelling]})
        dense = np.array([[3.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        m = hin.commuting_matrix(self.APA)
        assert isinstance(m, sp.csr_matrix)
        assert np.array_equal(m.toarray(), dense @ dense.T)

    def test_trusted_construction_is_untouched(self, bib_schema):
        duplicated = self._inputs()["duplicated"]
        hin = HIN(bib_schema, self.COUNTS, {"writes": duplicated}, validate=False)
        assert hin.relation_matrix("writes") is duplicated and duplicated.nnz == 5


class TestNames:
    def test_round_trip(self, small_bib):
        assert small_bib.index_of("author", "a2") == 2
        assert small_bib.name_of("venue", 1) == "v1"
        assert small_bib.names("author") == ["a0", "a1", "a2", "a3"]

    def test_anonymous_type(self, bib_schema):
        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": 2, "paper": 1, "venue": 1, "term": 1},
            edges={},
        )
        assert hin.names("author") is None
        assert hin.name_of("author", 1) == 1
        with pytest.raises(GraphError):
            hin.index_of("author", "x")

    def test_unknown_name(self, small_bib):
        with pytest.raises(NodeNotFoundError):
            small_bib.index_of("author", "zz")

    def test_out_of_range_name_of(self, small_bib):
        with pytest.raises(NodeNotFoundError):
            small_bib.name_of("venue", 10)


class TestMatrices:
    def test_relation_matrix_orientation(self, small_bib):
        w = small_bib.relation_matrix("writes")
        assert w.shape == (4, 5)

    def test_matrix_between_forward_and_back(self, small_bib):
        ap = small_bib.matrix_between("author", "paper")
        pa = small_bib.matrix_between("paper", "author")
        assert ap.shape == (4, 5)
        assert (ap.T != pa).nnz == 0

    def test_matrix_between_missing(self, small_bib):
        with pytest.raises(RelationNotFoundError):
            small_bib.matrix_between("author", "venue")

    def test_matrix_between_ambiguous(self):
        schema = NetworkSchema(["u", "v"], [("r1", "u", "v"), ("r2", "u", "v")])
        hin = HIN.from_edges(schema, nodes={"u": 1, "v": 1}, edges={})
        with pytest.raises(SchemaError, match="relations join"):
            hin.matrix_between("u", "v")

    def test_unknown_relation(self, small_bib):
        with pytest.raises(RelationNotFoundError):
            small_bib.relation_matrix("nope")


class TestMetaPathOps:
    def test_commuting_matrix_counts_paths(self, small_bib):
        # author-paper-venue: a0 wrote p0,p1 (both venue v0) -> M[0,0] == 2.
        m = small_bib.commuting_matrix("author-paper-venue").toarray()
        assert m.shape == (4, 2)
        assert m[0, 0] == 2.0
        assert m[0, 1] == 0.0
        # a1 wrote p0,p1 in v0 and p2 in v0 -> 3 paths to v0.
        assert m[1, 0] == 3.0

    def test_commuting_matrix_symmetric_path(self, small_bib):
        m = small_bib.commuting_matrix("author-paper-author").toarray()
        assert np.allclose(m, m.T)
        # Diagonal counts papers per author.
        assert m[0, 0] == 2.0

    def test_projection_co_author(self, small_bib):
        g = small_bib.homogeneous_projection("author-paper-author")
        assert not g.directed
        assert g.edge_weight(0, 1) == 2.0  # a0,a1 share p0,p1
        assert g.edge_weight(1, 2) == 1.0  # share p2
        assert g.edge_weight(0, 3) == 0.0
        assert not g.has_edge(0, 0)  # self-loops removed

    def test_projection_keeps_self_loops_when_asked(self, small_bib):
        g = small_bib.homogeneous_projection(
            "author-paper-author", remove_self_loops=False
        )
        assert g.edge_weight(0, 0) == 2.0

    def test_projection_requires_round_trip(self, small_bib):
        with pytest.raises(SchemaError, match="round-trip"):
            small_bib.homogeneous_projection("author-paper-venue")

    def test_projection_carries_names(self, small_bib):
        g = small_bib.homogeneous_projection("venue-paper-venue")
        assert g.node_names == ["v0", "v1"]


class TestDegree:
    def test_degree_single_relation(self, small_bib):
        deg = small_bib.degree("author", "writes")
        assert np.allclose(deg, [2, 3, 3, 2])

    def test_degree_all_relations_center(self, small_bib):
        deg = small_bib.degree("paper")
        # papers touch authors + 1 venue + 2 terms each
        assert deg[0] == 2 + 1 + 2

    def test_degree_unweighted(self, bib_schema):
        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": 1, "paper": 2, "venue": 1, "term": 1},
            edges={"writes": [(0, 0, 5.0), (0, 1, 2.0)]},
        )
        assert np.allclose(hin.degree("author", "writes", weighted=False), [2])
        assert np.allclose(hin.degree("author", "writes"), [7])


class TestRestrictAndSubschema:
    def test_restrict_shrinks_one_type(self, small_bib):
        sub = small_bib.restrict("paper", [0, 1, 2])
        assert sub.node_count("paper") == 3
        assert sub.node_count("author") == 4
        assert sub.relation_matrix("writes").shape == (4, 3)
        assert sub.names("paper") == ["p0", "p1", "p2"]

    def test_restrict_drops_links(self, small_bib):
        sub = small_bib.restrict("paper", [0])
        assert sub.total_links == 2 + 1 + 2  # only p0's links survive

    def test_restrict_reorders(self, small_bib):
        sub = small_bib.restrict("paper", [4, 0])
        assert sub.names("paper") == ["p4", "p0"]

    def test_restrict_validates(self, small_bib):
        with pytest.raises(NodeNotFoundError):
            small_bib.restrict("paper", [99])
        with pytest.raises(GraphError):
            small_bib.restrict("paper", [0, 0])

    def test_subschema(self, small_bib):
        sub = small_bib.subschema(["author", "paper"])
        assert sub.schema.node_types == ["author", "paper"]
        assert [r.name for r in sub.schema.relations] == ["writes"]
        assert sub.node_count("author") == 4

    def test_subschema_unknown_type(self, small_bib):
        with pytest.raises(TypeNotFoundError):
            small_bib.subschema(["author", "zzz"])

    def test_repr(self, small_bib):
        assert "paper=5" in repr(small_bib)
