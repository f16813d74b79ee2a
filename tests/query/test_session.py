"""QuerySession facade: every miner reachable, typed results, shared cache."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import MetaPathError, SchemaError
from repro.networks import HIN, NetworkSchema
from repro.query import (
    ClassificationResult,
    ClusteringResult,
    RankingResult,
    TopKResult,
)

APA = "author-paper-author"
VPAPV = "venue-paper-author-paper-venue"


@pytest.fixture
def dblp():
    from repro.datasets import make_dblp_four_area

    return make_dblp_four_area(authors_per_area=15, papers_per_area=30, seed=0)


class TestSessionPlumbing:
    def test_shared_session_identity(self, small_bib):
        assert small_bib.query() is small_bib.query()
        assert repro.connect(small_bib) is small_bib.query()

    def test_session_uses_shared_engine(self, small_bib):
        assert small_bib.query().engine is small_bib.engine()

    def test_kwargs_make_fresh_session(self, small_bib):
        isolated = small_bib.query(engine=small_bib.engine(max_cached_matrices=4))
        assert isolated is not small_bib.query()
        assert isolated.engine is not small_bib.engine()

    def test_path_accepts_all_spellings(self, small_bib):
        q = small_bib.query()
        assert q.path("A-P-A") == q.path(["author", "paper", "author"])

    def test_prewarm_chains(self, small_bib):
        q = small_bib.query(engine=small_bib.engine(max_cached_matrices=8))
        assert q.prewarm(APA, "V-P-V") is q
        info = q.cache_info()
        assert info.currsize >= 2


class TestSimilarQueries:
    def test_similar_returns_topk_result(self, small_bib):
        r = small_bib.query().similar("a0", APA, k=2)
        assert isinstance(r, TopKResult)
        assert r.query == "a0" and r.measure == "pathsim"
        assert r == small_bib.engine().pathsim_top_k(APA, "a0", 2)

    def test_repeated_similar_rematerializes_nothing(self, small_bib):
        """Acceptance: facade queries hit the shared engine cache — a
        second query on the same path adds hits, zero misses.  Pinned to
        the materialized kernel, whose cache fill this test watches
        (mode="auto" would serve the cold queries fused, cache-free)."""
        q = small_bib.query(
            engine=small_bib.engine(max_cached_matrices=16, mode="materialize")
        )
        q.similar("v0", "V-P-A-P-V", k=2)  # warm via the abbreviated spelling
        before = q.cache_info()
        for query_obj in ("v0", "v1", "v0"):
            q.similar(query_obj, VPAPV, k=2)
        after = q.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_dsl_and_explicit_spellings_share_one_entry(self, small_bib):
        q = small_bib.query(engine=small_bib.engine(max_cached_matrices=16))
        q.similar("a0", "A-P-A", k=1)
        before = q.cache_info().currsize
        q.similar("a0", ["author", "paper", "author"], k=1)
        q.similar("a0", q.path(APA), k=1)
        assert q.cache_info().currsize == before

    def test_similar_batch_matches_singles(self, small_bib):
        q = small_bib.query()
        batch = q.similar_batch(["a0", "a1"], APA, k=2)
        assert batch == [q.similar("a0", APA, k=2), q.similar("a1", APA, k=2)]

    def test_similarity_pair_and_matrix(self, small_bib):
        q = small_bib.query()
        s = q.similarity("a0", "a1", APA)
        m = q.similarity_matrix(APA)
        assert s == pytest.approx(m[0, 1])

    def test_connected_serves_asymmetric_paths(self, small_bib):
        r = small_bib.query().connected("a0", "A-P-V", k=2)
        assert isinstance(r, TopKResult) and r.measure == "connectivity"
        assert r.node_type == "venue"

    def test_simrank_measure_memoizes(self, small_bib):
        q = small_bib.query(engine=small_bib.engine(max_cached_matrices=16))
        r1 = q.similar("a0", APA, k=2, measure="simrank")
        assert isinstance(r1, TopKResult) and r1.measure == "simrank"
        assert len(q._simrank) == 1
        r2 = q.similar("a1", APA, k=2, measure="simrank")
        assert len(q._simrank) == 1  # same fitted index reused
        assert r2.query == "a1"

    def test_simrank_requires_round_trip(self, small_bib):
        with pytest.raises(MetaPathError, match="round-trip"):
            small_bib.query().similar("a0", "A-P-V", k=2, measure="simrank")

    def test_unknown_measure(self, small_bib):
        with pytest.raises(ValueError, match="measure"):
            small_bib.query().similar("a0", APA, k=2, measure="zzz")


class TestRankQueries:
    def test_degree_ranking(self, small_bib):
        r = small_bib.query().rank("author")
        assert isinstance(r, RankingResult)
        assert r.method == "degree" and r.node_type == "author"
        assert r.scores.sum() == pytest.approx(1.0)

    def test_bi_type_ranking_matches_internal(self, small_bib):
        from repro.ranking.authority import _rank_bi_type

        r = small_bib.query().rank("venue", by="author", method="simple")
        expected = _rank_bi_type(
            small_bib,
            "venue",
            "author",
            target_attribute_path="venue-paper-author",
            method="simple",
        )
        assert np.allclose(r.scores, expected.target_scores)

    def test_indirect_pair_derives_shortest_path(self, small_bib):
        # venue and author only meet through paper; the facade finds that.
        r = small_bib.query().rank("venue", by="author", method="simple")
        assert r.node_type == "venue" and len(r) == 2

    def test_path_visibility_ranking(self, small_bib):
        r = small_bib.query().rank("A-P-V")
        assert r.node_type == "venue" and r.method == "path"
        # venue 0 hosts 3 papers with 6 author links, venue 1 hosts 2/4
        assert r.labels[0] == "v0"

    def test_abbreviated_type_token(self, small_bib):
        assert small_bib.query().rank("au").node_type == "author"

    def test_degree_branch_rejects_unusable_options(self, small_bib):
        q = small_bib.query()
        with pytest.raises(ValueError, match="degree ranking"):
            q.rank("venue", method="authority")
        with pytest.raises(ValueError, match="degree ranking"):
            q.rank("venue", attribute_path="A-P-A")
        with pytest.raises(ValueError, match="degree ranking"):
            q.rank("venue", alpha=0.9)

    def test_disconnected_pair_raises_schema_error(self):
        schema = NetworkSchema(["a", "b", "c"], [("r", "a", "b")])
        hin = HIN.from_edges(
            schema, nodes={"a": 2, "b": 2, "c": 2}, edges={"r": [(0, 0)]}
        )
        with pytest.raises(SchemaError, match="no meta-path connects"):
            hin.query().rank("a", by="c")


class TestClusterQueries:
    def test_netclus(self, dblp):
        r = dblp.hin.query().cluster("netclus", n_clusters=4, seed=0, n_init=2, max_iter=5)
        assert isinstance(r, ClusteringResult)
        assert r.algorithm == "netclus" and r.node_type == "paper"
        assert r.labels.shape == (dblp.hin.node_count("paper"),)
        assert r.scores is not None and len(r.top(3, 0)) == 3
        assert r.model.fitted

    def test_rankclus(self, small_bib):
        r = small_bib.query().cluster(
            "rankclus",
            n_clusters=2,
            target_type="venue",
            attribute_type="author",
            target_attribute_path="venue-paper-author",
            seed=0,
            n_init=1,
            max_iter=5,
        )
        assert r.algorithm == "rankclus" and r.node_type == "venue"
        assert sorted(r.labels.tolist()) == [0, 1]
        assert r.top(1, 0)[0][0] in ("v0", "v1")

    def test_scan(self, small_bib):
        r = small_bib.query().cluster("scan", path=APA, eps=0.4, mu=2)
        assert r.algorithm == "scan"
        assert r.extras["path"] == "author-paper-author"
        assert r.labels.shape == (4,)

    def test_linkclus(self):
        schema = NetworkSchema(["u", "i"], [("buys", "u", "i")])
        edges = [(a, b) for a in range(4) for b in range(3)]
        edges += [(a, b) for a in range(4, 8) for b in range(3, 6)]
        hin = HIN.from_edges(schema, nodes={"u": 8, "i": 6}, edges={"buys": edges})
        r = hin.query().cluster("linkclus", n_clusters=2, relation="buys", seed=0)
        assert r.algorithm == "linkclus" and r.node_type == "u"
        assert r.extras["target_type"] == "i"
        assert len(set(r.labels.tolist())) == 2

    def test_linkclus_requires_one_source(self, small_bib):
        with pytest.raises(ValueError, match="exactly one"):
            small_bib.query().cluster("linkclus", n_clusters=2)

    def test_crossclus(self, small_bib):
        from repro.datasets import make_relational_bank

        bank = make_relational_bank(n_clients=40, seed=0)
        r = small_bib.query().cluster(
            "crossclus",
            n_clusters=2,
            db=bank.db,
            target_table="client",
            guidance=(("client", "account", "district"), "economy"),
            exclude_columns=[("client", "risk")],
            seed=0,
        )
        assert isinstance(r, ClusteringResult)
        assert r.node_type == "client" and r.algorithm == "crossclus"
        assert r.labels.shape == (40,)
        assert r.extras["selected_features"]

    def test_unknown_algo(self, small_bib):
        with pytest.raises(ValueError, match="unknown clustering"):
            small_bib.query().cluster("zzz")


class TestClassifyQueries:
    def test_gnetmine_via_facade(self, dblp):
        hin = dblp.hin
        mask = np.ones(hin.node_count("venue"), dtype=bool)
        r = hin.query().classify({"venue": (dblp.venue_labels, mask)})
        assert isinstance(r, ClassificationResult)
        assert set(r.labels) == set(hin.schema.node_types)
        assert r.for_type("paper").shape == (hin.node_count("paper"),)
        top = r.top(3, "venue")
        assert len(top) == 3 and all(len(t) == 3 for t in top)

    def test_non_positive_max_iter_is_a_value_error(self, small_bib):
        # The solvers' one stop rule rejects it, whichever verb forwards it.
        seeds = {"venue": (np.array([0, 1]), np.array([True, True]))}
        with pytest.raises(ValueError, match="max_iter must be > 0"):
            small_bib.query().classify(seeds, max_iter=0)
        with pytest.raises(ValueError, match="max_iter must be > 0"):
            small_bib.query().rank("venue", by="author", max_iter=0)


class TestOlapQueries:
    def test_cube_from_mapping(self, dblp):
        hin = dblp.hin
        areas = [str(label) for label in dblp.paper_labels]
        cube = hin.query().olap({"area": areas})
        cells = cube.group_by("area")
        assert sum(c.count for c in cells) == hin.node_count("paper")
        d = cells[0].to_dict()
        assert d["kind"] == "cube_cell" and "link_count" in d

    def test_cube_with_hierarchy_tuple(self, dblp):
        hin = dblp.hin
        areas = [str(label) for label in dblp.paper_labels]
        mapping = {a: ("db" if a == "0" else "other") for a in set(areas)}
        cube = hin.query().olap({"area": (areas, {"coarse": mapping})})
        rolled = cube.roll_up("area", "coarse")
        assert {c.coordinates["area:coarse"] for c in rolled.group_by("area:coarse")} == {
            "db",
            "other",
        }

    def test_center_type_required_off_star(self):
        schema = NetworkSchema(["a", "b"], [("r", "a", "b")])
        hin = HIN.from_edges(schema, nodes={"a": 2, "b": 2}, edges={"r": [(0, 0)]})
        cube = hin.query().olap({"side": ["x", "y"]}, center_type="a")
        assert cube.n_center == 2
