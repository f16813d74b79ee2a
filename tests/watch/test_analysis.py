"""Delta-to-candidate analysis: reachability supersets are exact-safe."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.networks import UpdateBatch
from repro.networks.stats import reach_sources, row_support
from repro.watch.analysis import touched_chain_rows


class TestRowSupport:
    def test_union_of_selected_rows(self):
        m = sp.csr_matrix(
            np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
        )
        assert np.array_equal(row_support(m, np.array([0])), [0, 2])
        assert np.array_equal(row_support(m, np.array([0, 1])), [0, 1, 2])
        assert row_support(m, np.array([2])).size == 0

    def test_duplicates_and_order_are_normalized(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(row_support(m, np.array([1, 0, 1])), [0, 1])

    def test_empty_seed(self):
        m = sp.csr_matrix(np.eye(2))
        assert row_support(m, np.array([], dtype=np.int64)).size == 0


class TestReachSources:
    def test_step_zero_is_identity(self, watch_hin):
        mp = watch_hin.engine().path("A-P-V")
        steps = tuple(mp.steps())
        seed = np.array([1, 3])
        assert np.array_equal(
            reach_sources(watch_hin, steps, 0, seed), seed
        )

    def test_walks_backwards_through_prefix(self, watch_hin):
        mp = watch_hin.engine().path("A-P-V")
        steps = tuple(mp.steps())
        # published_in changed on paper rows {0}: authors reaching paper
        # 0 through writes are ada (0) and bob (1).
        reached = reach_sources(watch_hin, steps, 1, np.array([0]))
        assert np.array_equal(reached, [0, 1])

    def test_empty_seed_short_circuits(self, watch_hin):
        mp = watch_hin.engine().path("A-P-V")
        steps = tuple(mp.steps())
        reached = reach_sources(
            watch_hin, steps, 1, np.array([], dtype=np.int64)
        )
        assert reached.size == 0

    def test_orphan_paper_reaches_no_author(self, watch_hin):
        from repro.networks import UpdateBatch

        # Grow a paper nobody writes; a published_in change on it
        # cannot reach any author through the writes prefix.
        watch_hin.apply(UpdateBatch().add_nodes("paper", ["orphan"]))
        mp = watch_hin.engine().path("A-P-V")
        steps = tuple(mp.steps())
        orphan = watch_hin.node_count("paper") - 1
        assert reach_sources(watch_hin, steps, 1, np.array([orphan])).size == 0


class TestTouchedChainRows:
    def test_superset_covers_exact_changed_rows(self, watch_hin):
        """Backward reachability covers every row whose product row
        actually changed (the one-sided exactness guarantee)."""
        mp = watch_hin.engine().symmetric_path("A-P-V-P-A")
        steps = tuple(mp.steps())
        half = steps[: len(steps) // 2]
        before = (
            watch_hin.relation_matrix("writes")
            .dot(watch_hin.relation_matrix("published_in"))
            .toarray()
        )
        applied = watch_hin.apply(
            UpdateBatch().add_edges("published_in", [(0, 1)])
        )
        after = (
            watch_hin.relation_matrix("writes")
            .dot(watch_hin.relation_matrix("published_in"))
            .toarray()
        )
        exact = np.where((before != after).any(axis=1))[0]
        touched = touched_chain_rows(watch_hin, half, applied)
        assert set(exact) <= set(touched.tolist())

    def test_disjoint_delta_misses_the_chain(self, watch_hin):
        mp = watch_hin.engine().symmetric_path("A-P-A")
        half = tuple(mp.steps())[:1]
        applied = watch_hin.apply(
            UpdateBatch().add_edges("published_in", [(0, 1)])
        )
        assert touched_chain_rows(watch_hin, half, applied).size == 0

    def test_localized_delta_stays_localized(self, watch_hin):
        half = tuple(watch_hin.engine().symmetric_path("A-P-A").steps())[:1]
        applied = watch_hin.apply(UpdateBatch().add_edges("writes", [(3, 3)]))
        touched = touched_chain_rows(watch_hin, half, applied)
        # Only dee's row changed; ada and bob are untouched.
        assert np.array_equal(touched, [3])
