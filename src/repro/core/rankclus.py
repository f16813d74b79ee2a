"""RankClus — integrating clustering with ranking (Sun et al., EDBT'09).

The tutorial's centrepiece for §4(c): on a bi-typed information network
(target objects X, e.g. venues; attribute objects Y, e.g. authors),
clustering and ranking are not two tasks but one loop —

1. **Rank** — compute conditional rank distributions ``p(Y | cluster)``
   on each cluster's sub-network (simple or authority ranking);
2. **Estimate** — treat each cluster's attribute ranking as a component
   of a mixture model and EM-estimate, for every target object, its
   posterior membership ``π(x, k)`` from the links it owns;
3. **Adjust** — re-assign each target object to the nearest cluster
   centre in the K-dimensional membership space (cosine), and repeat.

Good ranking needs good clusters and good clusters need good ranking;
iterating the loop sharpens both, which is exactly the phenomenon the
benchmark E1 measures against a one-shot spectral baseline.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.networks.hin import HIN
from repro.query.estimator import Estimator
from repro.query.results import ClusteringResult
from repro.ranking.authority import (
    BiTypeRanking,
    _link_matrices,
    authority_ranking,
    simple_ranking,
)
from repro.utils.sparse import to_csr
from repro.utils.validation import check_positive, check_probability

__all__ = ["RankClus"]


class RankClus(Estimator):
    """Ranking-based clustering of the target side of a bi-typed network.

    Parameters
    ----------
    n_clusters:
        Number of target clusters K.
    ranking:
        ``"authority"`` (mutual reinforcement, the paper's default) or
        ``"simple"`` (degree share).
    alpha:
        Authority-ranking mixing weight for the attribute–attribute
        propagation term (ignored for simple ranking).
    em_iter:
        Inner EM rounds per outer iteration.
    max_iter:
        Outer rank–estimate–adjust rounds.
    smoothing:
        Mixing weight of the global attribute distribution into each
        cluster's component (avoids zero-probability links).
    n_init:
        Independent restarts; the partition with the highest mixture
        log-likelihood wins (a single random partition can stall in a
        poor local optimum on weakly separated data).
    init:
        ``"smart"`` (default) seeds the first restart with a cosine
        k-means partition of the raw link vectors and the rest randomly;
        ``"random"`` uses random partitions only, as in the original
        paper's description.
    seed:
        Seeds the initial partitions and empty-cluster repair.

    Attributes
    ----------
    labels_:
        Cluster id per target object.
    posterior_:
        ``(n_x, K)`` membership matrix π.
    rankings_:
        Per-cluster conditional :class:`BiTypeRanking` on the final
        partition.
    n_iter_:
        Outer iterations executed.

    Example
    -------
    >>> model = RankClus(n_clusters=2, seed=0)          # doctest: +SKIP
    >>> model.fit(w_xy)                                  # doctest: +SKIP
    >>> model.labels_, model.rankings_[0].top_targets(5) # doctest: +SKIP
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        ranking: str = "authority",
        alpha: float = 0.95,
        em_iter: int = 5,
        max_iter: int = 30,
        smoothing: float = 0.1,
        n_init: int = 4,
        init: str = "smart",
        seed=None,
    ):
        check_positive(n_clusters, "n_clusters")
        if ranking not in ("authority", "simple"):
            raise ValueError(
                f"ranking must be 'authority' or 'simple', got {ranking!r}"
            )
        check_probability(alpha, "alpha")
        check_probability(smoothing, "smoothing")
        check_positive(em_iter, "em_iter")
        check_positive(max_iter, "max_iter")
        check_positive(n_init, "n_init")
        if init not in ("smart", "random"):
            raise ValueError(f"init must be 'smart' or 'random', got {init!r}")
        self.n_init = int(n_init)
        self.init = init
        self.n_clusters = int(n_clusters)
        self.ranking = ranking
        self.alpha = float(alpha)
        self.em_iter = int(em_iter)
        self.max_iter = int(max_iter)
        self.smoothing = float(smoothing)
        self.seed = seed

        self.labels_: np.ndarray | None = None
        self.posterior_: np.ndarray | None = None
        self.rankings_: list[BiTypeRanking] | None = None
        self.n_iter_: int = 0
        self._hin: HIN | None = None
        self._target_type: str | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        w_xy,
        *,
        w_yy=None,
        target_type: str | None = None,
        attribute_type: str | None = None,
        target_attribute_path=None,
        attribute_attribute_path=None,
    ) -> "RankClus":
        """Cluster the target objects.

        The estimator-protocol form passes the network first —
        ``fit(hin, target_type=..., attribute_type=...)`` — with optional
        meta-paths selecting indirect link matrices.  The matrix form
        ``fit(w_xy, w_yy=...)`` takes the bi-type link matrix directly.
        """
        if isinstance(w_xy, HIN):
            hin = w_xy
            if target_type is None or attribute_type is None:
                raise ValueError(
                    "target_type and attribute_type are required with a HIN"
                )
            self._hin = hin
            self._target_type = target_type
            # The matrices come from the network's shared engine:
            # refitting (other K, other paths over shared prefixes) reuses
            # materialized products instead of rebuilding them.
            w_xy, path_yy = _link_matrices(
                hin, target_type, attribute_type, target_attribute_path, attribute_attribute_path
            )
            w_yy = w_yy if path_yy is None else path_yy
        if w_xy is None:
            raise ValueError("fit() needs a HIN or a link matrix, got None")
        w = to_csr(w_xy)
        n_x, n_y = w.shape
        k = self.n_clusters
        if k > n_x:
            raise ValueError(f"n_clusters={k} exceeds number of targets {n_x}")
        yy = None if w_yy is None else to_csr(w_yy)
        global_rank = simple_ranking(w).attribute_scores

        from repro.utils.rng import spawn_rngs

        best = None  # (log_likelihood, labels, posterior, n_iter)
        for restart, rng in enumerate(spawn_rngs(self.seed, self.n_init)):
            if restart == 0 and self.init == "smart":
                labels = self._kmeans_partition(w, rng)
            else:
                labels = self._initial_partition(n_x, rng)
            posterior = np.full((n_x, k), 1.0 / k)
            n_iter = 0
            for iteration in range(self.max_iter):
                p_y = self._component_distributions(w, yy, labels, global_rank)
                posterior = self._em_posteriors(w, p_y, posterior)
                new_labels = self._adjust(posterior, labels, rng)
                n_iter = iteration + 1
                if np.array_equal(new_labels, labels):
                    labels = new_labels
                    break
                labels = new_labels
            p_y = self._component_distributions(w, yy, labels, global_rank)
            ll = self._log_likelihood(w, p_y, posterior)
            if best is None or ll > best[0]:
                best = (ll, labels, posterior, n_iter)

        _, labels, posterior, self.n_iter_ = best
        self.labels_ = labels
        self.posterior_ = posterior
        self.rankings_ = self._conditional_rankings(w, yy, labels)
        return self

    def _component_distributions(
        self, w: sp.csr_matrix, yy, labels: np.ndarray, global_rank: np.ndarray
    ) -> np.ndarray:
        """Per-cluster attribute distributions, smoothed with global ranks."""
        components = self._conditional_rankings(w, yy, labels)
        return np.stack(
            [
                (1 - self.smoothing) * comp.attribute_scores
                + self.smoothing * global_rank
                for comp in components
            ]
        )

    @staticmethod
    def _log_likelihood(
        w: sp.csr_matrix, p_y: np.ndarray, posterior: np.ndarray
    ) -> float:
        """Mixture log-likelihood Σ_x Σ_y w_xy · log Σ_k π_xk p_k(y)."""
        log_mix = 0.0
        coo = w.tocoo()
        mix = posterior[coo.row] * p_y[:, coo.col].T  # (nnz, k)
        per_link = np.log(np.maximum(mix.sum(axis=1), 1e-300))
        log_mix = float((coo.data * per_link).sum())
        return log_mix

    # ------------------------------------------------------------------
    def _initial_partition(self, n_x: int, rng) -> np.ndarray:
        """Random partition guaranteeing every cluster is non-empty."""
        labels = rng.integers(0, self.n_clusters, size=n_x)
        # force one member per cluster
        forced = rng.permutation(n_x)[: self.n_clusters]
        labels[forced] = np.arange(self.n_clusters)
        return labels.astype(np.int64)

    def _kmeans_partition(self, w: sp.csr_matrix, rng) -> np.ndarray:
        """Smart init: cosine k-means on the targets' raw link vectors."""
        from repro.clustering.kmeans import kmeans

        result = kmeans(
            w.toarray(), self.n_clusters, metric="cosine", n_init=4, seed=rng
        )
        labels = result.labels.astype(np.int64)
        # guarantee non-empty clusters (kmeans reseeding usually suffices)
        for c in range(self.n_clusters):
            if not (labels == c).any():
                labels[int(rng.integers(0, labels.size))] = c
        return labels

    def _conditional_rankings(
        self, w: sp.csr_matrix, yy, labels: np.ndarray
    ) -> list[BiTypeRanking]:
        """Rank each cluster's sub-network (cluster targets, all attributes).

        Transient non-convergence of the per-cluster authority ranking is
        expected while the partition is still moving, so its
        ConvergenceWarning is silenced here; the final rankings exposed on
        ``rankings_`` are computed from the settled partition.
        """
        import warnings as _warnings

        from repro.exceptions import ConvergenceWarning as _CW

        out: list[BiTypeRanking] = []
        for c in range(self.n_clusters):
            members = np.flatnonzero(labels == c)
            sub = w[members]
            if self.ranking == "simple":
                ranking = simple_ranking(sub)
            else:
                with _warnings.catch_warnings():
                    _warnings.simplefilter("ignore", _CW)
                    ranking = authority_ranking(
                        sub, yy, alpha=self.alpha, max_iter=200, tol=1e-7
                    )
            out.append(ranking)
        return out

    def _em_posteriors(
        self, w: sp.csr_matrix, p_y: np.ndarray, posterior: np.ndarray
    ) -> np.ndarray:
        """EM for per-target mixture coefficients π(x, k).

        E-step responsibilities per link, M-step re-estimates π from the
        link mass each component explains.  Works in the sparse structure
        of ``w`` only.
        """
        n_x, k = posterior.shape
        w = w.tocsr()
        log_p = np.log(np.maximum(p_y, 1e-300))  # (k, n_y)
        pi = posterior.copy()
        for _ in range(self.em_iter):
            new_pi = np.zeros_like(pi)
            for x in range(n_x):
                start, end = w.indptr[x], w.indptr[x + 1]
                ys = w.indices[start:end]
                ws = w.data[start:end]
                if ys.size == 0:
                    new_pi[x] = 1.0 / k
                    continue
                # responsibilities: z[k, y] ∝ pi[x,k] * p_y[k, y]
                weights = pi[x][:, None] * np.exp(log_p[:, ys])  # (k, deg)
                denom = weights.sum(axis=0)
                denom[denom == 0] = 1.0
                z = weights / denom
                mass = (z * ws[None, :]).sum(axis=1)
                total = mass.sum()
                new_pi[x] = mass / total if total > 0 else 1.0 / k
            pi = new_pi
        return pi

    def _adjust(
        self, posterior: np.ndarray, labels: np.ndarray, rng
    ) -> np.ndarray:
        """Re-assign targets to the nearest cluster centre (cosine) in
        membership space; repair empty clusters by stealing the weakest
        members of the largest cluster."""
        k = self.n_clusters
        norms = np.linalg.norm(posterior, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        x = posterior / norms
        centers = np.zeros((k, k))
        for c in range(k):
            members = x[labels == c]
            centers[c] = members.mean(axis=0) if members.shape[0] else 0.0
        c_norms = np.linalg.norm(centers, axis=1, keepdims=True)
        c_norms[c_norms == 0] = 1.0
        centers /= c_norms
        sims = x.dot(centers.T)
        new_labels = sims.argmax(axis=1).astype(np.int64)
        # repair empties
        for c in range(k):
            if not (new_labels == c).any():
                largest = int(np.bincount(new_labels, minlength=k).argmax())
                candidates = np.flatnonzero(new_labels == largest)
                # weakest affinity to its own centre moves
                weakest = candidates[np.argmin(sims[candidates, largest])]
                new_labels[weakest] = c
        return new_labels

    # ------------------------------------------------------------------
    def _is_fitted(self) -> bool:
        return self.labels_ is not None

    def result(self) -> ClusteringResult:
        """The typed partition of the target objects.

        Membership strengths are the max mixture posteriors; when the
        model was fitted from a HIN, members carry their node names and
        the result records the clustered type.
        """
        self._check_fitted()
        names = (
            self._hin.names(self._target_type)
            if self._hin is not None and self._target_type is not None
            else None
        )
        return ClusteringResult(
            self.labels_,
            n_clusters=self.n_clusters,
            scores=self.posterior_.max(axis=1),
            names=names,
            node_type=self._target_type,
            algorithm="rankclus",
            model=self,
        )

    def cluster_members(self, cluster: int) -> np.ndarray:
        """Indices of target objects in *cluster*."""
        self._check_fitted()
        return np.flatnonzero(self.labels_ == cluster)

    def top_targets(self, cluster: int, k: int) -> list[tuple[int, float]]:
        """Top-*k* target objects of *cluster* by conditional rank,
        reported with their original (global) indices."""
        self._check_fitted()
        members = self.cluster_members(cluster)
        ranking = self.rankings_[cluster]
        pairs = ranking.top_targets(min(k, members.size))
        return [(int(members[i]), score) for i, score in pairs]

    def top_attributes(self, cluster: int, k: int) -> list[tuple[int, float]]:
        """Top-*k* attribute objects of *cluster* by conditional rank."""
        self._check_fitted()
        return self.rankings_[cluster].top_attributes(k)
