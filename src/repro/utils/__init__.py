"""Shared utilities: seeded randomness, sparse-matrix helpers, convergence
tracking, and argument validation.

These helpers are internal plumbing used across every subpackage; the stable
public names are re-exported here.
"""

from repro.utils.cache import CacheInfo, LRUCache
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.locks import RWLock
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.sparse import (
    column_normalize,
    is_binary,
    row_normalize,
    safe_divide,
    symmetric_normalize,
    to_csr,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_square,
)

__all__ = [
    "CacheInfo",
    "LRUCache",
    "RWLock",
    "ConvergenceInfo",
    "fixed_point",
    "ensure_rng",
    "spawn_rngs",
    "to_csr",
    "row_normalize",
    "column_normalize",
    "symmetric_normalize",
    "safe_divide",
    "is_binary",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_square",
]
