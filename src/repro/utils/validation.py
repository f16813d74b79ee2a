"""Argument-validation helpers.

Small, explicit checks used at public API boundaries.  They raise
``ValueError``/``TypeError`` with messages that name the offending argument,
so user mistakes fail at the call site rather than deep inside a solver.
"""

from __future__ import annotations

import operator

import numpy as np
import scipy.sparse as sp

__all__ = [
    "check_k",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_square",
    "check_nonnegative_matrix",
]


def check_k(k) -> int:
    """*k* of a top-k request as a plain ``int >= 0``.

    An integer (``operator.index``) is accepted; a bool is refused
    (``True`` is not a result size) and so is a float, even an
    integral one — never rounded, the rule the edge door applies to
    indices.
    """
    if isinstance(k, (bool, np.bool_)):
        raise TypeError(f"k must be an integer, got {k!r}")
    try:
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return k


def check_positive(value, name: str, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless *value* is a positive (or >= 0) number."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_probability(value, name: str) -> None:
    """Raise ``ValueError`` unless 0 <= value <= 1."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def check_in_range(value, name: str, low, high, *, inclusive: bool = True) -> None:
    """Raise ``ValueError`` unless low <= value <= high (or strict < when not inclusive)."""
    if inclusive:
        if not low <= value <= high:
            raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    else:
        if not low < value < high:
            raise ValueError(f"{name} must be in ({low}, {high}), got {value}")


def check_square(matrix, name: str = "matrix") -> None:
    """Raise ``ValueError`` unless *matrix* is 2-D square."""
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square, got shape {shape}")


def check_nonnegative_matrix(matrix, name: str = "matrix") -> None:
    """Raise ``ValueError`` when *matrix* holds any negative entry."""
    if sp.issparse(matrix):
        if matrix.nnz and matrix.data.min() < 0:
            raise ValueError(f"{name} must be non-negative")
    else:
        arr = np.asarray(matrix)
        if arr.size and arr.min() < 0:
            raise ValueError(f"{name} must be non-negative")
