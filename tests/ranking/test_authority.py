"""Unit tests for simple and authority ranking on bi-typed networks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ranking import authority_ranking, simple_ranking


@pytest.fixture
def venue_author_matrix() -> np.ndarray:
    """3 venues x 4 authors; venue 0 is clearly strongest."""
    return np.array(
        [
            [5.0, 4.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )


class TestSimpleRanking:
    def test_distributions(self, venue_author_matrix):
        r = simple_ranking(venue_author_matrix)
        assert r.target_scores.sum() == pytest.approx(1.0)
        assert r.attribute_scores.sum() == pytest.approx(1.0)

    def test_degree_share(self, venue_author_matrix):
        r = simple_ranking(venue_author_matrix)
        assert r.target_scores[0] == pytest.approx(10 / 16)
        assert r.attribute_scores[0] == pytest.approx(6 / 16)

    def test_top_helpers(self, venue_author_matrix):
        r = simple_ranking(venue_author_matrix)
        assert r.top_targets(1)[0][0] == 0
        assert [i for i, _ in r.top_attributes(2)] == [0, 1]

    def test_empty_matrix_uniform(self):
        r = simple_ranking(np.zeros((2, 3)))
        assert np.allclose(r.target_scores, 0.5)
        assert np.allclose(r.attribute_scores, 1 / 3)


class TestAuthorityRanking:
    def test_distributions(self, venue_author_matrix):
        r = authority_ranking(venue_author_matrix)
        assert r.target_scores.sum() == pytest.approx(1.0)
        assert r.attribute_scores.sum() == pytest.approx(1.0)
        assert r.convergence.converged

    def test_strong_venue_wins(self, venue_author_matrix):
        r = authority_ranking(venue_author_matrix)
        assert r.target_scores[0] == r.target_scores.max()

    def test_authority_sharpen_vs_simple(self):
        # Venue 1 has many links to *low-rank* authors; venue 0 has fewer
        # links but to authors who also publish in the strong venue 2.
        w = np.array(
            [
                [0.0, 3.0, 3.0, 0.0, 0.0],
                [6.0, 0.0, 0.0, 3.0, 3.0],
                [0.0, 5.0, 5.0, 0.0, 0.0],
            ]
        )
        simple = simple_ranking(w)
        auth = authority_ranking(w)
        # simple ranks venue 1 highest (most links)
        assert simple.target_scores[1] == simple.target_scores.max()
        # authority promotes venue 2/0's shared elite authors over volume
        assert (
            auth.target_scores[2] > auth.target_scores[1]
        )

    def test_coauthor_propagation_changes_ranks(self, venue_author_matrix):
        w_yy = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 9.0],
                [0.0, 0.0, 9.0, 0.0],
            ]
        )
        base = authority_ranking(venue_author_matrix, alpha=1.0)
        prop = authority_ranking(venue_author_matrix, w_yy, alpha=0.5)
        # authors 2,3 boost each other via co-author links
        assert (
            prop.attribute_scores[2] + prop.attribute_scores[3]
            > base.attribute_scores[2] + base.attribute_scores[3]
        )

    def test_wyy_shape_validated(self, venue_author_matrix):
        with pytest.raises(ValueError):
            authority_ranking(venue_author_matrix, np.ones((2, 2)))

    def test_alpha_validated(self, venue_author_matrix):
        with pytest.raises(ValueError):
            authority_ranking(venue_author_matrix, alpha=2.0)

    def test_reproducible(self, venue_author_matrix):
        a = authority_ranking(venue_author_matrix)
        b = authority_ranking(venue_author_matrix)
        assert np.allclose(a.target_scores, b.target_scores)


class TestRankBiType:
    """Bi-type ranking through its one spelling, ``hin.query().rank``."""

    def test_direct_relation(self, small_bib):
        r = small_bib.query().rank("paper", by="author", method="simple")
        assert r.node_type == "paper"
        assert r.scores.shape == (5,)

    def test_meta_path_venue_author(self, small_bib):
        r = small_bib.query().rank(
            "venue",
            by="author",
            path="venue-paper-author",
            attribute_path="author-paper-author",
        )
        assert r.scores.shape == (2,)
        assert r.scores.sum() == pytest.approx(1.0)
        # v0 hosts 3 papers vs v1's 2 -> higher authority
        assert r.scores[0] > r.scores[1]

    def test_wrong_path_endpoints(self, small_bib):
        with pytest.raises(ValueError, match="does not go"):
            small_bib.query().rank("venue", by="author", path="author-paper-venue")
        with pytest.raises(ValueError, match="does not go"):
            small_bib.query().rank(
                "venue",
                by="author",
                path="venue-paper-author",
                attribute_path="venue-paper-venue",
            )

    def test_bad_method(self, small_bib):
        with pytest.raises(ValueError, match="method"):
            small_bib.query().rank("paper", by="author", method="zzz")
