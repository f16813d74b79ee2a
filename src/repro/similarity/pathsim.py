"""PathSim — meta-path-based top-k similarity search (tutorial §7(b)).

PathSim measures how two *peers* relate under a symmetric meta-path P:

    s(x, y) = 2 · M[x, y] / (M[x, x] + M[y, y])

where ``M`` is the commuting matrix of P.  Unlike raw path counts or
random-walk measures, the normalization by self-visibility stops hugely
prolific objects (e.g. mega-conferences) from dominating every ranking —
the property the PathSim case study ("who is similar to SIGMOD?")
demonstrates.

Queries are served by the network's shared
:class:`~repro.engine.MetaPathEngine` (``hin.engine()``): the symmetric
half-product ``W`` (``M = W W^T``) is materialized once into the engine's
LRU cache, single-source queries slice one sparse row of ``W`` instead of
building the n×n matrix, and every other consumer of the same meta-path
(or of a shared prefix) reuses the materialization.
"""

from __future__ import annotations

import numpy as np

from repro.networks.hin import HIN
from repro.query.estimator import Estimator
from repro.query.results import TopKResult

__all__ = ["PathSim", "pathsim_matrix"]


def pathsim_matrix(hin: HIN, path, *, engine=None) -> np.ndarray:
    """Dense all-pairs PathSim matrix for a symmetric meta-path.

    Values are in [0, 1] with unit diagonal for every object that has at
    least one path instance to itself; objects with zero self-count (no
    participation in the path) have similarity 0 everywhere, diagonal
    included — they are invisible under this meta-path.

    This is the full-materialization entry point; for serving queries use
    :class:`PathSim` or the engine's row/top-k methods directly.

    Parameters
    ----------
    hin:
        The network to measure.
    path:
        Any *symmetric* meta-path spelling the DSL accepts.
    engine:
        Override the network's shared engine; defaults to ``hin.engine()``.
    """
    engine = engine if engine is not None else hin.engine()
    return engine.pathsim_matrix(path)


class PathSim(Estimator):
    """Reusable PathSim index over one HIN and one symmetric meta-path.

    A thin, sklearn-style view over the network's shared
    :class:`~repro.engine.MetaPathEngine`: :meth:`fit` validates the path
    and materializes its symmetric decomposition into the engine's cache;
    queries then run on sparse row slices, so repeated top-k searches stay
    cheap — and two ``PathSim`` objects on the same HIN share the work.

    Parameters
    ----------
    path:
        The symmetric meta-path to index, in any DSL spelling; resolved
        and validated against the network at :meth:`fit` time.

    Example
    -------
    >>> ps = PathSim("venue-paper-author-paper-venue")   # doctest: +SKIP
    >>> ps.fit(dblp.hin)                                 # doctest: +SKIP
    >>> ps.top_k("SIGMOD", 5)                            # doctest: +SKIP
    """

    def __init__(self, path):
        self.path = path
        self._engine = None
        self._mp = None
        self._type: str | None = None

    def fit(self, hin: HIN, *, engine=None) -> "PathSim":
        """Validate the path and materialize its commuting-matrix parts.

        The path (set in ``__init__``) may be any spelling the DSL
        accepts — ``"A-P-V-P-A"``, a type list, or a ``MetaPath``.
        ``engine`` overrides the network's shared engine (useful for an
        isolated cache in tests); by default ``hin.engine()`` is used.
        """
        eng = engine if engine is not None else hin.engine()
        mp = eng.symmetric_path(self.path)
        eng.prewarm([mp])
        self._engine = eng
        self._mp = mp
        self._type = mp.source_type
        return self

    # ------------------------------------------------------------------
    def _is_fitted(self) -> bool:
        return self._engine is not None

    @property
    def object_type(self) -> str:
        """The node type this index ranks (source/target of the path)."""
        self._check_fitted()
        return self._type

    def similarity(self, x, y) -> float:
        """PathSim score between two objects (indices or names)."""
        self._check_fitted()
        return self._engine.pathsim(self._mp, x, y)

    def similarities_from(self, x) -> np.ndarray:
        """PathSim scores from *x* to every object of the type."""
        self._check_fitted()
        return self._engine.pathsim_row(self._mp, x)

    def top_k(self, x, k: int, *, exclude_self: bool = True) -> TopKResult:
        """Top-*k* most similar objects to *x*.

        Returns a :class:`~repro.query.results.TopKResult` of
        ``(name_or_index, score)`` pairs (a list subclass), names when
        the type has them.  Candidates are restricted to objects sharing
        at least one path instance with *x* (others score 0 and are
        omitted unless needed to fill *k*).
        """
        self._check_fitted()
        return self._engine.pathsim_top_k(
            self._mp, x, k, exclude_query=exclude_self
        )

    def matrix(self) -> np.ndarray:
        """Dense all-pairs PathSim matrix (see :func:`pathsim_matrix`)."""
        self._check_fitted()
        return self._engine.pathsim_matrix(self._mp)
