"""Unit tests for repro.utils (rng, sparse helpers, convergence, validation)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConvergenceWarning
from repro.utils import (
    ConvergenceInfo,
    column_normalize,
    ensure_rng,
    fixed_point,
    is_binary,
    row_normalize,
    safe_divide,
    spawn_rngs,
    symmetric_normalize,
    to_csr,
)
from repro.utils.sparse import _canonical, degree_vector
from repro.utils.validation import (
    check_in_range,
    check_nonnegative_matrix,
    check_positive,
    check_probability,
    check_square,
)


class TestEnsureRng:
    def test_int_seed_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_bad_type_raises(self):
        with pytest.raises(TypeError, match="seed"):
            ensure_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_children_independent_and_reproducible(self):
        first = [g.random() for g in spawn_rngs(3, 3)]
        second = [g.random() for g in spawn_rngs(3, 3)]
        assert np.allclose(first, second)
        assert len(set(np.round(first, 12))) == 3

    def test_from_generator(self):
        gens = spawn_rngs(np.random.default_rng(0), 2)
        assert len(gens) == 2

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestToCsr:
    def test_from_dense(self):
        m = to_csr([[1, 0], [0, 2]])
        assert sp.issparse(m) and m.format == "csr"
        assert m[1, 1] == 2.0

    def test_from_csc(self):
        m = to_csr(sp.csc_matrix(np.eye(3)))
        assert m.format == "csr"

    def test_dtype_conversion(self):
        m = to_csr(sp.csr_matrix(np.eye(2, dtype=np.int32)))
        assert m.dtype == np.float64

    def test_sparse_arrays_become_matrices(self):
        for array in (sp.csr_array(np.eye(2)), sp.coo_array(np.eye(2))):
            m = to_csr(array)
            assert isinstance(m, sp.csr_matrix) and np.array_equal(m.toarray(), np.eye(2))
        already = sp.csr_matrix(np.eye(2))
        assert to_csr(already) is already  # still no defensive copy

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            to_csr([1, 2, 3])


class TestNormalizations:
    def test_row_normalize_stochastic(self):
        m = row_normalize([[1, 1], [3, 1]])
        assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), [1.0, 1.0])

    def test_row_normalize_zero_row_stays_zero(self):
        m = row_normalize([[0, 0], [1, 1]])
        row = np.asarray(m.sum(axis=1)).ravel()
        assert row[0] == 0.0 and row[1] == 1.0
        assert not np.any(np.isnan(m.toarray()))

    def test_column_normalize_stochastic(self):
        m = column_normalize([[1, 0], [1, 2]])
        assert np.allclose(np.asarray(m.sum(axis=0)).ravel(), [1.0, 1.0])

    def test_symmetric_normalize_eigenvalue_bound(self):
        # Normalized adjacency of a connected graph has spectral radius <= 1.
        adj = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        m = symmetric_normalize(adj).toarray()
        eigs = np.linalg.eigvalsh(m)
        assert eigs.max() <= 1.0 + 1e-12

    def test_symmetric_normalize_rectangular(self):
        m = symmetric_normalize(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
        assert m.shape == (3, 2)
        assert not np.any(np.isnan(m.toarray()))

    def test_original_not_mutated(self):
        orig = sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 0.0]]))
        before = orig.toarray().copy()
        row_normalize(orig)
        assert np.allclose(orig.toarray(), before)


class TestSafeDivide:
    def test_zero_denominator_gives_zero(self):
        out = safe_divide(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_broadcasting(self):
        out = safe_divide(np.ones((2, 2)), np.array([1.0, 0.0]))
        assert out.shape == (2, 2)
        assert np.allclose(out[:, 1], 0.0)


class TestIsBinary:
    def test_binary(self):
        assert is_binary([[0, 1], [1, 0]])

    def test_weighted(self):
        assert not is_binary([[0, 2], [1, 0]])

    def test_empty(self):
        assert is_binary(sp.csr_matrix((3, 3)))


class TestDegreeVector:
    def test_row_and_column(self):
        m = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.allclose(degree_vector(m, axis=1), [3.0, 3.0])
        assert np.allclose(degree_vector(m, axis=0), [1.0, 5.0])


class TestCanonical:
    def test_sorts_and_merges_in_place(self):
        # Unsorted column indices with a duplicate entry, as a raw
        # product or a hand-built CSR can come back.
        m = sp.csr_matrix(
            (np.array([1.0, 2.0, 3.0]), np.array([2, 0, 2]), np.array([0, 3, 3])),
            shape=(2, 3),
        )
        dense = m.toarray()
        out = _canonical(m)
        assert out is m
        assert m.has_canonical_format
        assert m.indices.tolist() == [0, 2] and m.data.tolist() == [2.0, 4.0]
        assert np.array_equal(m.toarray(), dense)


def _replay(residuals, *, tol=1e-3, max_iter=10):
    """Run ``fixed_point`` over a scripted residual sequence."""
    feed = iter(residuals)
    _, info = fixed_point(
        lambda n: (n + 1, next(feed)), 0, max_iter=max_iter, tol=tol, name="toy"
    )
    return info


class TestConvergence:
    def test_converges(self):
        info = _replay([1.0, 0.1, 1e-4])
        assert info.converged and bool(info)
        assert info.n_iter == 3
        assert info.residual == pytest.approx(1e-4)
        assert info.history == [1.0, 0.1, 1e-4]

    def test_max_iter_warns(self):
        with pytest.warns(ConvergenceWarning):
            info = _replay([1.0] * 3, max_iter=3)
        assert not info.converged
        assert info.n_iter == 3

    def test_info_is_falsy_when_not_converged(self):
        info = ConvergenceInfo(False, 5, 1.0, 1e-6)
        assert not info


class TestValidation:
    def test_check_positive(self):
        check_positive(1, "x")
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")
        check_positive(0, "x", strict=False)
        with pytest.raises(ValueError):
            check_positive(-1, "x", strict=False)
        with pytest.raises(TypeError):
            check_positive("1", "x")

    def test_check_probability(self):
        check_probability(0.0, "p")
        check_probability(1.0, "p")
        with pytest.raises(ValueError, match="p"):
            check_probability(1.5, "p")
        with pytest.raises(TypeError):
            check_probability(None, "p")

    def test_check_in_range(self):
        check_in_range(5, "k", 1, 10)
        with pytest.raises(ValueError):
            check_in_range(0, "k", 1, 10)
        with pytest.raises(ValueError):
            check_in_range(1, "k", 1, 10, inclusive=False)

    def test_check_square(self):
        check_square(np.eye(3))
        with pytest.raises(ValueError, match="square"):
            check_square(np.ones((2, 3)))

    def test_check_nonnegative_matrix(self):
        check_nonnegative_matrix(np.eye(2))
        check_nonnegative_matrix(sp.csr_matrix((2, 2)))
        with pytest.raises(ValueError):
            check_nonnegative_matrix(np.array([[-1.0]]))
        with pytest.raises(ValueError):
            check_nonnegative_matrix(sp.csr_matrix(np.array([[-1.0]])))
