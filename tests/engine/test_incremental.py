"""Incremental commuting-matrix maintenance under network updates.

The contract: after any ``hin.apply()``, the shared engine's cached
products answer exactly as a from-scratch engine on the mutated network
would — same matrices, same top-k lists, same tie-breaking — without
re-materializing anything the delta does not force.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine
from repro.networks import HIN, NetworkSchema, UpdateBatch

APA = "author-paper-author"
APV = "author-paper-venue"
VPAPV = "venue-paper-author-paper-venue"


@pytest.fixture
def bib():
    schema = NetworkSchema(
        ["author", "paper", "venue"],
        [("writes", "author", "paper"), ("published_in", "paper", "venue")],
    )
    return HIN.from_edges(
        schema,
        nodes={"author": ["a0", "a1", "a2"], "paper": 4, "venue": ["v0", "v1"]},
        edges={
            "writes": [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)],
            "published_in": [(0, 0), (1, 0), (2, 1), (3, 1)],
        },
    )


def assert_engine_matches_rebuild(engine, hin, paths):
    fresh = MetaPathEngine(hin)
    for path in paths:
        a = engine.commuting_matrix(path)
        b = fresh.commuting_matrix(path)
        assert a.shape == b.shape
        assert (a != b).nnz == 0, f"maintained {path} differs from rebuild"


class TestProductMaintenance:
    def test_insert_updates_cached_products(self, bib):
        engine = bib.engine()
        engine.prewarm([APA, APV])
        bib.apply(UpdateBatch().add_edges("writes", [(2, 0), (0, 3)]))
        assert_engine_matches_rebuild(engine, bib, [APA, APV])

    def test_delete_updates_cached_products(self, bib):
        engine = bib.engine()
        engine.prewarm([APA, APV])
        bib.apply(UpdateBatch().remove_edges("writes", [(0, 1), (1, 1)]))
        assert_engine_matches_rebuild(engine, bib, [APA, APV])

    def test_upsert_updates_cached_products(self, bib):
        engine = bib.engine()
        engine.prewarm([APA, APV])
        bib.apply(UpdateBatch().set_weights("published_in", [(0, 1, 5.0)]))
        assert_engine_matches_rebuild(engine, bib, [APA, APV])

    def test_update_of_untouched_relation_keeps_entries(self, bib):
        engine = bib.engine()
        engine.commuting_matrix(APA)  # only traverses "writes"
        before = engine.commuting_matrix(APA)
        report = bib.apply(
            UpdateBatch().set_weights("published_in", [(0, 1, 2.0)])
        )
        assert "published_in" in report.deltas
        after = engine.commuting_matrix(APA)
        assert after is before  # untouched entry survived, not rebuilt

    def test_node_growth_pads_cached_products(self, bib):
        engine = bib.engine()
        engine.prewarm([APA, APV])
        bib.apply(UpdateBatch().add_nodes("author", ["a3"]))
        m = engine.commuting_matrix(APA)
        assert m.shape == (4, 4)
        assert_engine_matches_rebuild(engine, bib, [APA, APV])

    def test_growth_plus_edges_in_one_batch(self, bib):
        engine = bib.engine()
        engine.prewarm([APA, APV, VPAPV])
        with bib.mutate() as m:
            m.add_nodes("author", ["a3"]).add_nodes("paper", 1)
            m.add_edges("writes", [(3, 4), (0, 4)])
            m.add_edges("published_in", [(4, 1)])
        assert_engine_matches_rebuild(engine, bib, [APA, APV, VPAPV])

    def test_pathsim_answers_identical_to_rebuild(self, bib):
        engine = bib.engine()
        engine.prewarm([APA])
        bib.apply(UpdateBatch().add_edges("writes", [(2, 1)]))
        fresh = MetaPathEngine(bib)
        for q in range(bib.node_count("author")):
            assert engine.pathsim_top_k(APA, q, 3) == fresh.pathsim_top_k(APA, q, 3)

    def test_epoch_advances_with_updates(self, bib):
        engine = bib.engine()
        assert engine.epoch == 0
        bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        assert engine.epoch == 1 == bib.version
        bib.apply(UpdateBatch().add_edges("writes", [(0, 2)]))
        assert engine.epoch == 2 == bib.version


class TestFallbacks:
    def test_dense_delta_evicts_instead_of_updating(self, bib):
        from repro.engine.engine import _DELTA_REBUILD_THRESHOLD

        engine = MetaPathEngine(bib)
        engine.prewarm([APA])
        applied = bib.apply(
            UpdateBatch().add_edges("writes", [(2, 0), (2, 1), (0, 2)])
        )
        # 3 new links on the 5-link writes: 3/8 of the relation is more
        # delta than incremental maintenance is worth.
        assert applied.deltas["writes"].density_vs_rebuild > _DELTA_REBUILD_THRESHOLD
        report = engine.apply_update(applied)
        # already notified via hin.apply?  A constructed engine is
        # detached, so it sees the receipt exactly once — here.
        assert report["evicted"] >= 1 and report["updated"] == 0
        assert_engine_matches_rebuild(engine, bib, [APA])

    def test_detached_engine_falls_back_to_clear(self, bib):
        detached = MetaPathEngine(bib)
        detached.prewarm([APA])
        bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        # no receipt was delivered; the next query notices the epoch gap
        assert_engine_matches_rebuild(detached, bib, [APA])
        assert detached.epoch == bib.version

    def test_replayed_receipt_is_a_reported_noop(self, bib):
        engine = bib.engine()
        engine.prewarm([APA])
        applied = bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        # hin.apply already delivered the receipt to the shared engine;
        # replaying it must change nothing and say so.
        size = engine.cache_info().currsize
        report = engine.apply_update(applied)
        assert report == {
            "updated": 0, "padded": 0, "evicted": 0, "kept": size,
            "rows_touched": 0, "rows_total": 0,
        }
        assert engine.cache_info().currsize == size
        assert_engine_matches_rebuild(engine, bib, [APA])

    def test_skipped_epoch_receipt_clears_cache(self, bib):
        detached = MetaPathEngine(bib)
        detached.prewarm([APA])
        bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        second = bib.apply(UpdateBatch().add_edges("writes", [(0, 3)]))
        report = detached.apply_update(second)  # missed the first receipt
        assert report["updated"] == 0 and report["evicted"] >= 1
        assert_engine_matches_rebuild(detached, bib, [APA])

    def test_connectivity_row_consistent_after_update(self, bib):
        engine = bib.engine()
        engine.commuting_matrix(APV)
        bib.apply(UpdateBatch().add_edges("published_in", [(3, 0)]))
        row = engine.connectivity_row(APV, 2)
        fresh_row = MetaPathEngine(bib).connectivity_row(APV, 2)
        assert np.array_equal(row, fresh_row)


class TestSessionEpochThreading:
    def test_results_carry_network_version(self, bib):
        q = bib.query()
        assert q.epoch == 0
        r0 = q.similar("a0", APA, k=2)
        assert r0.network_version == 0
        bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        r1 = q.similar("a0", APA, k=2)
        assert r1.network_version == 1 == q.epoch
        assert q.rank("author").network_version == 1
        assert r1.to_dict()["network_version"] == 1

    def test_simrank_memo_invalidated_by_update(self, bib):
        q = bib.query()
        q.similar("a0", APA, k=2, measure="simrank")
        assert len(q._simrank) == 1
        bib.apply(UpdateBatch().add_edges("writes", [(2, 0)]))
        r = q.similar("a0", APA, k=2, measure="simrank")
        assert len(q._simrank) == 2  # new epoch fitted a fresh index
        assert r.network_version == 1


class TestDblpEndToEnd:
    def test_streamed_batches_match_rebuild_on_dblp(self):
        dblp = make_dblp_four_area(
            authors_per_area=20, papers_per_area=40, seed=0
        )
        hin = dblp.hin
        engine = hin.engine()
        engine.prewarm([VPAPV, "A-P-V-P-A"])
        rng = np.random.default_rng(7)
        for _ in range(3):
            n_a, n_p = hin.node_count("author"), hin.node_count("paper")
            batch = UpdateBatch().add_edges(
                "writes",
                [
                    (int(rng.integers(n_a)), int(rng.integers(n_p)))
                    for _ in range(10)
                ],
            )
            hin.apply(batch)
        assert_engine_matches_rebuild(engine, hin, [VPAPV, "A-P-V-P-A"])
        fresh = MetaPathEngine(hin)
        for q in range(hin.node_count("venue")):
            assert engine.pathsim_top_k(VPAPV, q, 5) == fresh.pathsim_top_k(
                VPAPV, q, 5
            )


HOT_PATHS = ["A-P-A", "A-P-V-P-A", "A-P-T-P-A", "A-P-A-P-A"]


def _cold_product(hin, steps):
    """The chain product over *steps*, multiplied out from the relations."""
    m = None
    for name, forward in steps:
        step = hin.relation_matrix(name)
        step = step if forward else step.T.tocsr()
        m = step if m is None else m @ step
    m = m.tocsr()
    m.sum_duplicates()
    return m


def _assert_same_arrays(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got.indptr, want.indptr), what
    assert np.array_equal(got.indices, want.indices), what
    assert np.array_equal(got.data, want.data), what
    # The commit path's invariant, re-derived from the arrays rather
    # than read from the flag the path itself sets.
    unflagged = sp.csr_matrix((got.data, got.indices, got.indptr), shape=got.shape)
    assert unflagged.has_canonical_format and 0 not in got.data, what


def _assert_everything_matches_cold_rebuild(hin, engine):
    entries = dict(engine.export_state()[1])
    assert entries
    for (kind, steps), value in entries.items():
        if kind == "product":
            _assert_same_arrays(value, _cold_product(hin, steps), (kind, steps))
        else:
            w, diag = value
            cold = _cold_product(hin, steps[: len(steps) // 2])
            _assert_same_arrays(w, cold, (kind, steps))
            cold_diag = np.asarray(cold.multiply(cold).sum(axis=1)).ravel()
            assert np.array_equal(diag, cold_diag), (kind, steps)
    for rel in hin.schema.relations:
        _assert_same_arrays(
            hin.oriented_matrix(rel.name, False),
            hin.relation_matrix(rel.name).T.tocsr(),
            rel.name,
        )
    # One half product under two keys is one object, patched once.
    apa = (("writes", True), ("writes", False))
    assert entries[("product", apa)] is entries[("pathsim", apa + apa)][0]


class TestSpliceSizedNetwork:
    """The oracles above run on products of a few hundred entries, where
    every patch takes the whole-matrix add; this network is big enough
    that one commit stream crosses the size rule in both directions."""

    def test_stream_matches_rebuild_on_both_sides_of_the_crossover(self, monkeypatch):
        from repro.engine import engine as engine_module
        from repro.networks import hin as hin_module
        from repro.utils import sparse

        spliced, added = set(), set()
        real_splice, real_add = sparse._splice_rows, sparse.add_delta

        def spy_splice(matrix, delta, rows):
            spliced.add(matrix.shape)
            return real_splice(matrix, delta, rows)

        def spy_add(matrix, delta):
            if delta.nnz:
                added.add(matrix.shape)
            return real_add(matrix, delta)

        monkeypatch.setattr(sparse, "_splice_rows", spy_splice)
        monkeypatch.setattr(engine_module, "add_delta", spy_add)
        monkeypatch.setattr(hin_module, "add_delta", spy_add)

        hin = make_dblp_four_area(
            authors_per_area=300, papers_per_area=1500, seed=0
        ).hin
        engine = hin.engine()
        engine.prewarm(HOT_PATHS)
        for rel in hin.schema.relations:  # cache every transpose, as readers do
            hin.oriented_matrix(rel.name, False)
        writes = hin.relation_matrix("writes")
        mentions = hin.relation_matrix("mentions")
        n_a, n_p, n_t = (hin.node_count(t) for t in ("author", "paper", "term"))

        def own(author):
            return [int(p) for p in writes[author].indices]

        term_of_11 = int(mentions[11].indices[0])
        localized = UpdateBatch()  # three authors, two papers' terms
        localized.add_edges("writes", [(5, 11), (6, 11), (7, 12), (5, own(6)[0])])
        localized.set_weights("mentions", [(11, term_of_11, 3.0), (12, 0, 2.0)])
        growth = UpdateBatch()  # two new papers, linked on every relation
        growth.add_nodes("paper", ["grown_0", "grown_1"])
        growth.add_edges("writes", [(5, n_p), (8, n_p), (8, n_p + 1)])
        growth.add_edges("published_in", [(n_p, 3), (n_p + 1, 3)])
        growth.add_edges("mentions", [(n_p, 0), (n_p, 7), (n_p + 1, 7)])
        deletes = UpdateBatch()  # down to emptied rows and exact cancellations
        deletes.remove_edges("writes", [(9, p) for p in own(9)] + [(5, 11), (8, n_p + 1)])
        deletes.remove_edges("mentions", [(11, term_of_11)])
        deletes.set_weights("writes", [(10, own(10)[0], 2.0)])
        stream = [localized, growth, deletes]
        for batch in stream:
            hin.apply(batch)
            _assert_everything_matches_cold_rebuild(hin, engine)
        assert (n_a, n_t) in spliced, "the A-P-T half product never took the splice"
        assert (n_p, n_t) in spliced and (n_t, n_p) in spliced  # mentions, transposed
        assert (n_a, 20) in added - spliced, "A-P-V never took the whole add"


class TestCommitReach:
    def test_rows_touched_stay_flat_while_the_network_grows(self):
        """ROADMAP gate: the rows a commit rewrites follow the batch's
        reach, asserted at three network sizes (1.5k / 3k / 6k authors)."""
        edges = [(a, p) for a in range(5) for p in range(a, a + 4)]
        reports = []
        for authors_per_area in (375, 750, 1500):
            hin = make_dblp_four_area(
                authors_per_area=authors_per_area,
                papers_per_area=3 * authors_per_area,
                seed=7,
            ).hin
            engine = MetaPathEngine(hin)  # detached: gets the receipt once, here
            engine.prewarm(HOT_PATHS)
            applied = hin.apply(UpdateBatch().add_edges("writes", edges))
            reports.append(engine.apply_update(applied))
        small, mid, large = reports
        assert small["updated"] == mid["updated"] == large["updated"] == 7
        for report, n_authors in zip(reports, (1500, 3000, 6000)):
            assert report["rows_total"] == 7 * n_authors
        touched = [r["rows_touched"] for r in reports]
        # 5 edited authors per entry, plus their co-authors where a path
        # walks back through papers: the batch's reach, not the network.
        assert min(touched) >= 7 * 5
        assert max(touched) <= 2 * min(touched), touched
        assert max(touched) * 100 < large["rows_total"]
