"""Cost-based chain planner: parity, seeds, eviction safety, explain.

Association order never changes an answer — every test here pins the
planner's output bit-for-bit against ``hin.commuting_matrix``, the
uncached strict left-to-right reference — so what's actually under
test is the reuse machinery: prefix/suffix/infix seeds, reversed-path
(transpose) seeds, eviction robustness, and the observability surface
(``explain()``, ``planner_info()``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine, PlanReport
from repro.engine.planner import _combine, _flops, _inverse_steps
from tests.property.test_planner_properties import (
    reference_connectivity,
    reference_top_k,
)

APV = "author-paper-venue"
VPA = "venue-paper-author"
APVPA = "author-paper-venue-paper-author"
VPAPV = "venue-paper-author-paper-venue"
LONG = "author-paper-venue-paper-author-paper-term"


@pytest.fixture(scope="module")
def dblp():
    return make_dblp_four_area(
        authors_per_area=30, papers_per_area=60, terms_per_area=20,
        shared_terms=10, seed=3,
    )


def _same(a, b):
    assert a.shape == b.shape
    assert (a != b).nnz == 0


class TestCostModel:
    def test_flops_is_nnz_times_avg_row(self):
        # 10 nnz in A, B has 100 nnz over 20 rows -> 5 per row.
        assert _flops((4, 20, 10), (20, 7, 100)) == 50.0

    def test_flops_zero_for_empty_operand(self):
        assert _flops((4, 20, 0), (20, 7, 100)) == 0.0
        assert _flops((4, 20, 10), (20, 7, 0)) == 0.0

    def test_combine_bounded_by_dense_and_flops(self):
        rows, cols, nnz = _combine((4, 20, 10), (20, 7, 100))
        assert (rows, cols) == (4, 7)
        assert 0 < nnz <= min(50.0, 4 * 7)

    def test_inverse_steps_round_trips(self):
        names = (("writes", True), ("published_in", True), ("writes", False))
        assert _inverse_steps(_inverse_steps(names)) == names


class TestParity:
    PATHS = [APV, VPA, APVPA, LONG, "term-paper-venue", "venue-paper-term"]

    def test_commuting_matrix_bit_identical(self, dblp):
        engine = MetaPathEngine(dblp.hin)
        for path in self.PATHS:
            _same(engine.commuting_matrix(path), dblp.hin.commuting_matrix(path))

    def test_pathsim_top_k_identical(self, dblp):
        engine = MetaPathEngine(dblp.hin)
        for a in range(0, 120, 17):
            assert list(engine.pathsim_top_k(APVPA, a, 5)) == reference_top_k(
                dblp.hin, APVPA, a, 5
            )

    def test_connectivity_identical(self, dblp):
        engine = MetaPathEngine(dblp.hin)
        for a in range(0, 120, 29):
            assert list(engine.top_k_connectivity(LONG, a, 5)) == (
                reference_connectivity(dblp.hin, LONG, a, 5)
            )

    def test_association_is_no_knob(self, small_bib):
        """The planner is the engine's one chain evaluator: no query
        method takes ``plan=`` (an unknown keyword, like any other)."""
        engine = MetaPathEngine(small_bib)
        with pytest.raises(TypeError, match="plan"):
            engine.commuting_matrix(APV, plan="left")
        _same(engine.commuting_matrix(APV), small_bib.commuting_matrix(APV))
        _same(engine.commuting_matrix(VPA), small_bib.commuting_matrix(VPA))

    def test_invalid_plan_rejected(self, small_bib):
        # Every association policy value, the former default included,
        # is an unknown keyword of the engine.
        for plan in ("left", "auto", "right"):
            with pytest.raises(TypeError, match="plan"):
                MetaPathEngine(small_bib, plan=plan)


class TestSeeds:
    def test_cached_prefix_answers_reversed_spelling(self, small_bib):
        # The satellite case: a cached A-P-V product must serve V-P-A as
        # its transpose instead of recomputing.
        engine = MetaPathEngine(small_bib)
        apv = engine.commuting_matrix(APV)
        before = engine.cache_info()
        vpa = engine.commuting_matrix(VPA)
        after = engine.cache_info()
        _same(vpa, apv.T.tocsr())
        assert after.hits > before.hits
        assert engine.planner_info()["inverse_seeds"] == 1

    def test_suffix_seed_reused(self, dblp):
        # Warm venue-paper-author; the plan for T-P-V-P-A should consume
        # it as a suffix without recomputing the span.
        engine = MetaPathEngine(dblp.hin)
        engine.commuting_matrix(VPA)
        report = engine.explain("term-paper-venue-paper-author")
        assert any("suffix" in s and VPA in s for s in report.seeds)
        path = "term-paper-venue-paper-author"
        _same(engine.commuting_matrix(path), dblp.hin.commuting_matrix(path))
        assert engine.planner_info()["suffix_seeds"] >= 1

    def test_connectivity_row_reuses_inverse_span(self, small_bib):
        engine = MetaPathEngine(small_bib)
        engine.commuting_matrix(APV)
        row_auto = engine.connectivity_row(VPA, 0)
        assert engine.planner_info()["inverse_seeds"] >= 1
        np.testing.assert_array_equal(
            row_auto, small_bib.commuting_matrix(VPA).toarray()[0]
        )

    def test_eviction_of_seed_does_not_corrupt_plan(self, small_bib):
        # Build a plan that believes in a cached seed, evict the seed,
        # then execute: the recorded split recomputes the span exactly.
        engine = MetaPathEngine(small_bib)
        engine.commuting_matrix(APV)
        planner = engine._planner
        mp = engine.path(LONG)
        plan = planner.plan(mp.canonical_key())
        assert plan.used_seeds  # the warmed A-P-V span is in the plan
        for key in list(engine._cache.keys()):
            engine._cache.pop(key)
        got = planner.execute(plan)
        assert planner.counters["evicted_seed_fallbacks"] >= 1
        _same(got, small_bib.commuting_matrix(LONG))

    def test_planner_entries_are_lru_bounded(self, small_bib):
        engine = MetaPathEngine(small_bib, max_cached_matrices=2)
        engine.commuting_matrix(LONG)
        info = engine.cache_info()
        assert info.currsize <= 2
        assert info.evictions > 0
        # and the bounded cache still answers correctly
        _same(engine.commuting_matrix(APVPA), small_bib.commuting_matrix(APVPA))


class TestPathsimReversedSpellingRegression:
    def test_reversed_half_hits_cache(self, small_bib):
        # Regression: _pathsim_parts used to recompute W for V-P-A-P-V
        # even when A-P-V (the reversed half) was already cached.
        # Pinned to the materialized kernel: _pathsim_parts only runs
        # there (mode="auto" would serve this cold path fused).
        engine = MetaPathEngine(small_bib, mode="materialize")
        engine.prewarm([APVPA])
        before = engine.cache_info()
        got = engine.pathsim_top_k(VPAPV, 0, 2)
        after = engine.cache_info()
        assert after.hits == before.hits + 1  # the transpose seed
        assert engine.planner_info()["inverse_seeds"] == 1
        assert list(got) == reference_top_k(small_bib, VPAPV, 0, 2)


class TestExplain:
    def test_report_fields_and_str(self, dblp):
        engine = MetaPathEngine(dblp.hin)
        report = engine.explain(LONG)
        assert isinstance(report, PlanReport)
        assert not report.symmetric
        assert report.est_flops <= report.left_flops
        assert report.estimated_speedup >= 1.0
        text = str(report)
        assert text.startswith(f"plan {LONG}")
        assert "association:" in text and "est flops:" in text
        json.dumps(report.to_dict())

    def test_long_asymmetric_plan_beats_left_on_estimates(self, dblp):
        report = MetaPathEngine(dblp.hin).explain(LONG)
        assert report.estimated_speedup > 2.0

    def test_symmetric_path_reports_half_plan(self, small_bib):
        report = small_bib.engine().explain(APVPA)
        assert report.symmetric
        assert "W * W^T" in str(report)

    # Association and flop estimates of fresh engines on the dblp
    # fixture, recorded when the planner still read a maintained
    # per-relation statistics container: reading (rows, cols, nnz) off
    # each matrix must plan exactly the same.
    PINNED = {
        VPA: ("(venue-paper * paper-author)", 601.0, 601.0),
        APVPA: ("(author-paper * paper-venue)", 601.0, 601.0),
        VPAPV: ("(venue-paper * paper-author)", 601.0, 601.0),
        LONG: (
            "((author-paper * paper-venue) * "
            "(((venue-paper * paper-author) * author-paper) * paper-term))",
            64107.27804250688,
            205924.81229867818,
        ),
        "term-paper-venue-paper-author": (
            "((term-paper * paper-venue) * (venue-paper * paper-author))",
            28660.493748028548,
            36533.897278288845,
        ),
    }

    @pytest.mark.parametrize("path", list(PINNED))
    def test_plans_are_pinned(self, dblp, path):
        report = MetaPathEngine(dblp.hin).explain(path)
        assert (report.association, report.est_flops, report.left_flops) == (
            self.PINNED[path]
        )

    def test_seeded_plan_is_pinned(self, dblp):
        engine = MetaPathEngine(dblp.hin)
        engine.commuting_matrix(VPA)
        report = engine.explain("term-paper-venue-paper-author")
        assert (report.association, report.est_flops, report.left_flops) == (
            "((term-paper * paper-venue) * [venue-paper-author])",
            17320.33475399649,
            36533.897278288845,
        )

    def test_explain_does_not_materialize(self, small_bib):
        engine = MetaPathEngine(small_bib)
        transposes = set(small_bib._transposes)
        engine.explain(LONG)
        assert engine.cache_info().currsize == 0
        # Backward steps are costed from the stored matrix's shape, not
        # from a transpose built at plan time.
        assert set(small_bib._transposes) == transposes

    def test_session_explain_delegates(self, small_bib):
        report = small_bib.query().explain(APV)
        assert isinstance(report, PlanReport)
        assert report.path == APV

    def test_planner_info_shape(self, small_bib):
        info = MetaPathEngine(small_bib).planner_info()
        for key in (
            "plans", "planned_products", "seeded_spans", "prefix_seeds",
            "suffix_seeds", "infix_seeds", "full_seeds", "inverse_seeds",
            "evicted_seed_fallbacks", "kernels",
        ):
            assert key in info
        assert "mode" not in info


class TestResultPlanSurfacing:
    def test_planless_results_omit_the_key(self, small_bib):
        """Results say what was answered and which kernel ran; the
        association order is the planner's, never a result field."""
        for r in (
            MetaPathEngine(small_bib).pathsim_top_k(APVPA, 0, 2),
            MetaPathEngine(small_bib).top_k_connectivity(APV, 0, 2),
        ):
            assert not hasattr(r, "plan")
            assert "plan" not in r.to_dict()


class TestMaintenanceWithPlannerEntries:
    def test_planner_materialized_entries_survive_updates(self, dblp):
        from repro.networks import UpdateBatch

        hin = make_dblp_four_area(
            authors_per_area=20, papers_per_area=40, terms_per_area=10,
            shared_terms=5, seed=11,
        ).hin
        engine = hin.engine()  # attached: caches are delta-maintained
        engine.commuting_matrix(LONG)
        engine.prewarm([APVPA])
        hin.apply(
            UpdateBatch()
            .add_edges("writes", [(0, 3), (5, 7, 2.0)])
            .remove_edges("published_in", [(0, 0)])
        )
        _same(engine.commuting_matrix(LONG), hin.commuting_matrix(LONG))
        assert list(engine.pathsim_top_k(APVPA, 2, 4)) == reference_top_k(hin, APVPA, 2, 4)
