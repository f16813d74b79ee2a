"""Ranking functions for bi-typed information networks (RankClus, EDBT'09).

Given a bi-typed network — target objects X (e.g. venues) linked to
attribute objects Y (e.g. authors), with optional Y–Y links (co-author
graph) — two conditional rank distributions over X and Y are produced:

* **Simple ranking** — degree share: objects are ranked by their link
  counts.  Cheap, but rank leaks to prolific-but-unselective objects.
* **Authority ranking** — mutual reinforcement: highly ranked venues
  confer rank on their authors, co-authors propagate rank to each other
  (weight ``alpha``), and highly ranked authors confer rank back on
  venues.  This is the ranking RankClus and the DBLP case study use.

Both return probability distributions (scores sum to 1), which is what
RankClus's mixture model consumes as component parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.networks.hin import HIN
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.sparse import to_csr
from repro.utils.validation import check_probability

__all__ = ["BiTypeRanking", "simple_ranking", "authority_ranking"]


@dataclass
class BiTypeRanking:
    """Conditional rank distributions for a bi-typed network.

    Attributes
    ----------
    target_scores:
        Distribution over target objects (sums to 1).
    attribute_scores:
        Distribution over attribute objects (sums to 1).
    convergence:
        Iteration record (simple ranking converges in one step).
    """

    target_scores: np.ndarray
    attribute_scores: np.ndarray
    convergence: ConvergenceInfo

    def top_targets(self, k: int) -> list[tuple[int, float]]:
        """Top-*k* target objects as ``(index, score)`` pairs."""
        order = np.argsort(-self.target_scores, kind="stable")[:k]
        return [(int(i), float(self.target_scores[i])) for i in order]

    def top_attributes(self, k: int) -> list[tuple[int, float]]:
        """Top-*k* attribute objects as ``(index, score)`` pairs."""
        order = np.argsort(-self.attribute_scores, kind="stable")[:k]
        return [(int(i), float(self.attribute_scores[i])) for i in order]

    def to_dict(self) -> dict:
        """JSON-able form (typed-result protocol of :mod:`repro.query`)."""
        return {
            "kind": "bi_type_ranking",
            "target_scores": self.target_scores.tolist(),
            "attribute_scores": self.attribute_scores.tolist(),
            "converged": bool(self.convergence.converged),
            "n_iter": int(self.convergence.n_iter),
        }


def _normalize(v: np.ndarray) -> np.ndarray:
    s = v.sum()
    if s <= 0:
        # Degenerate sub-network (no links): fall back to uniform so the
        # EM layers above never divide by zero.
        return np.full(v.shape, 1.0 / max(len(v), 1))
    return v / s


def simple_ranking(w_xy) -> BiTypeRanking:
    """Degree-share ranking: ``r_X(i) ∝ Σ_j W_XY[i, j]`` and symmetrically.

    Parameters
    ----------
    w_xy:
        Target-by-attribute link matrix (counts or weights).
    """
    w = to_csr(w_xy)
    r_x = _normalize(np.asarray(w.sum(axis=1)).ravel())
    r_y = _normalize(np.asarray(w.sum(axis=0)).ravel())
    return BiTypeRanking(r_x, r_y, ConvergenceInfo(True, 1, 0.0, 0.0))


def authority_ranking(
    w_xy,
    w_yy=None,
    *,
    alpha: float = 0.95,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> BiTypeRanking:
    """Mutual-reinforcement authority ranking (RankClus eq. 4–6).

    Iterates until the rank vectors stabilize::

        r_Y ∝ W_YX · r_X                       (authors inherit venue rank)
        r_Y ∝ alpha * r_Y + (1-alpha) * W_YY · r_Y   (co-author smoothing)
        r_X ∝ W_XY · r_Y                       (venues inherit author rank)

    Parameters
    ----------
    w_xy:
        Target-by-attribute link matrix.
    w_yy:
        Optional attribute-by-attribute matrix (e.g. co-author counts).
    alpha:
        Weight of the direct target-attribute evidence versus the
        attribute-attribute propagation (1.0 disables propagation).
    """
    check_probability(alpha, "alpha")
    w = to_csr(w_xy)
    wt = w.T.tocsr()
    yy = None if w_yy is None else to_csr(w_yy)
    if yy is not None and yy.shape != (w.shape[1], w.shape[1]):
        raise ValueError(
            f"w_yy has shape {yy.shape}, expected ({w.shape[1]}, {w.shape[1]})"
        )

    def step(state):
        r_x, r_y = state
        r_y_new = _normalize(wt.dot(r_x))
        if yy is not None and alpha < 1.0:
            r_y_new = _normalize(alpha * r_y_new + (1 - alpha) * yy.dot(r_y_new))
        r_x_new = _normalize(w.dot(r_y_new))
        residual = np.abs(r_x_new - r_x).sum() + np.abs(r_y_new - r_y).sum()
        return (r_x_new, r_y_new), residual

    n_x, n_y = w.shape
    start = (np.full(n_x, 1.0 / max(n_x, 1)), np.full(n_y, 1.0 / max(n_y, 1)))
    (r_x, r_y), info = fixed_point(
        step, start, max_iter=max_iter, tol=tol, name="authority ranking"
    )
    return BiTypeRanking(r_x, r_y, info)


def _link_matrices(
    hin: HIN,
    target_type: str,
    attribute_type: str,
    target_attribute_path=None,
    attribute_attribute_path=None,
):
    """``(w_xy, w_yy)`` of a target/attribute type pair, from the shared
    engine: ``w_xy`` is the direct relation between the two types or the
    commuting matrix of *target_attribute_path*; ``w_yy`` is that of
    *attribute_attribute_path*, or ``None`` without one.  A path that does
    not run between the named types is a ``ValueError``."""
    engine = hin.engine()

    def commuting(path, source: str, target: str):
        mp = engine.path(path)
        if (mp.source_type, mp.target_type) != (source, target):
            raise ValueError(f"path {mp} does not go {source!r} -> {target!r}")
        return engine.commuting_matrix(mp)

    if target_attribute_path is None:
        w_xy = engine.matrix_between(target_type, attribute_type)
    else:
        w_xy = commuting(target_attribute_path, target_type, attribute_type)
    if attribute_attribute_path is None:
        return w_xy, None
    return w_xy, commuting(attribute_attribute_path, attribute_type, attribute_type)


def _rank_bi_type(
    hin: HIN,
    target_type: str,
    attribute_type: str,
    *,
    target_attribute_path=None,
    attribute_attribute_path=None,
    method: str = "authority",
    alpha: float = 0.95,
    **kwargs,
) -> BiTypeRanking:
    """Rank a target/attribute type pair of *hin* — the implementation
    behind ``QuerySession.rank(target, by=attribute)``, which documents
    the parameters."""
    w_xy, w_yy = _link_matrices(
        hin, target_type, attribute_type, target_attribute_path, attribute_attribute_path
    )
    if method == "simple":
        return simple_ranking(w_xy)
    if method != "authority":
        raise ValueError(f"method must be 'simple' or 'authority', got {method!r}")
    return authority_ranking(w_xy, w_yy, alpha=alpha, **kwargs)
