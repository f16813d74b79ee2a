"""Property-based identity of the commit path's row splice.

``repro.utils.sparse.add_delta`` chooses between scipy's whole-matrix
add and a splice of the delta's rows from the operands' sizes; the
networks the update oracles run on are far too small to reach the
splice, so this file calls it unconditionally (``_splice_rows``) and
holds it to the whole add array for array — inserts, exact
cancellations, emptied rows, first/last/adjacent touched rows, both
index widths, integer and fractional weights.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.sparse import _splice_rows, add_delta, nonempty_rows


def _canonical(dense: np.ndarray, index_dtype) -> sp.csr_matrix:
    m = sp.csr_matrix(dense)
    m = sp.csr_matrix(
        (m.data, m.indices.astype(index_dtype), m.indptr.astype(index_dtype)),
        shape=m.shape,
    )
    m.has_canonical_format = True
    return m


@st.composite
def operands(draw, weights):
    """A canonical ``(matrix, delta)`` pair; every *delta* cell is an
    insert, an exact cancellation of the matrix cell, or an adjustment."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    cells = st.one_of(st.just(0.0), weights)
    dense = np.array(
        draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    ).reshape(n_rows, n_cols)
    # first, last and runs of adjacent rows all come up at these sizes
    touched = draw(st.lists(st.integers(0, n_rows - 1), unique=True, min_size=1))
    delta = np.zeros_like(dense)
    for i in touched:
        for j in draw(st.lists(st.integers(0, n_cols - 1), unique=True, min_size=1)):
            kind = draw(st.sampled_from(["cancel", "adjust", "insert"]))
            if dense[i, j] and kind == "cancel":
                delta[i, j] = -dense[i, j]
            elif dense[i, j] and kind == "adjust":
                delta[i, j] = draw(weights)
            elif not dense[i, j]:
                delta[i, j] = draw(weights)
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    return _canonical(dense, index_dtype), _canonical(delta, index_dtype)


def _whole_add(matrix, delta):
    out = (matrix + delta).tocsr()
    out.eliminate_zeros()
    return out


def _assert_spliced_equals_whole(matrix, delta):
    before = [a.copy() for m in (matrix, delta) for a in (m.indptr, m.indices, m.data)]
    rows = nonempty_rows(delta)
    if rows.size == 0:  # nothing net to add: the helper hands the operand back
        assert add_delta(matrix, delta) is matrix
        return
    got, want = _splice_rows(matrix, delta, rows), _whole_add(matrix, delta)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)  # bit for bit, fractions too
    assert got.has_canonical_format
    assert 0 not in got.data
    after = [a for m in (matrix, delta) for a in (m.indptr, m.indices, m.data)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestSpliceEqualsWholeAdd:
    @given(operands(st.integers(1, 4).map(float)))
    @settings(max_examples=300, deadline=None)
    def test_integer_weights(self, pair):
        _assert_spliced_equals_whole(*pair)

    @given(operands(st.floats(0.01, 4.0, allow_nan=False, width=64)))
    @settings(max_examples=300, deadline=None)
    def test_fractional_weights_add_no_divergence(self, pair):
        _assert_spliced_equals_whole(*pair)


class TestCrossover:
    """One big matrix, both sides of the size rule, through the public helper."""

    def test_narrow_delta_splices_and_wide_delta_adds_to_the_same_arrays(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(400, 300, density=0.25, format="csr", random_state=5)
        matrix.data = np.ceil(matrix.data * 4)
        matrix.sum_duplicates()
        assert matrix.nnz > 20_000 + 1_200 * 3
        for n_touched in (3, 200):  # splice side, whole-add side
            rows = rng.choice(400, size=n_touched, replace=False)
            delta = sp.lil_matrix(matrix.shape)
            for i in rows:
                j = int(rng.integers(300))
                delta[i, j] = -matrix[i, j] if matrix[i, j] else 2.0
            delta = delta.tocsr()
            got, want = add_delta(matrix, delta), _whole_add(matrix, delta)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
            assert got.has_canonical_format

    def test_non_canonical_operand_takes_the_general_add(self):
        # duplicate column entries: the splice's sorted-rows premise is void
        matrix = sp.csr_matrix(
            (np.ones(30_000), np.zeros(30_000, dtype=np.int32), [0, 30_000, 30_000]),
            shape=(2, 3),
        )
        delta = sp.csr_matrix(([1.0], [1], [0, 0, 1]), shape=(2, 3))
        assert (add_delta(matrix, delta) != matrix + delta).nnz == 0
