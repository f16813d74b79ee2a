"""TruthFinder — veracity analysis by link mining (Yin, Han & Yu, TKDE'08).

Tutorial §3(d): when many sources claim conflicting values for the same
object ("what year was this book published?"), naive voting trusts the
crowd; TruthFinder instead iterates over the bipartite source–fact
network:

* a fact is confident when **trustworthy** sources assert it (and when
  similar facts about the same object support it);
* a source is trustworthy when the facts it asserts are **confident**.

Scores travel through the log-domain transform ``τ = −ln(1 − t)`` so that
independent supporting sources add, and a dampened logistic keeps mutual
reinforcement from diverging — both straight from the paper.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.exceptions import NotFittedError
from repro.utils.convergence import ConvergenceInfo, fixed_point
from repro.utils.validation import check_in_range, check_positive, check_probability

__all__ = ["TruthFinder", "majority_vote"]

Claim = "tuple[source, object, value]"


def majority_vote(claims: Iterable[tuple]) -> dict:
    """Baseline: per object, the value asserted by the most sources.

    Ties break toward the value first claimed (stable), mirroring how a
    naive pipeline would behave.
    """
    votes: dict = {}
    order: dict = {}
    for i, (source, obj, value) in enumerate(claims):
        votes.setdefault(obj, {}).setdefault(value, set()).add(source)
        order.setdefault((obj, value), i)
    return {
        obj: max(
            values.items(),
            key=lambda item: (len(item[1]), -order[(obj, item[0])]),
        )[0]
        for obj, values in votes.items()
    }


class TruthFinder:
    """Iterative source-trust / fact-confidence propagation.

    Parameters
    ----------
    rho:
        Weight of the influence between facts about the same object
        (0 disables inter-fact influence).
    gamma:
        Dampening factor of the logistic that maps accumulated confidence
        scores back to probabilities.
    base_trust:
        Initial trustworthiness of every source.
    similarity:
        Optional ``f(value_a, value_b) -> [0, 1]`` between different
        values of one object; the *implication* of fact *f'* on fact *f*
        is ``2·similarity − 1`` in [−1, 1]: near-identical values support
        each other, unrelated values oppose.  Without a similarity
        function, every pair of different values gets implication −1
        (categorical conflict), as in the paper's default setting.
    max_iter, tol:
        Stop when the max change of any source's trust falls below *tol*.

    Attributes
    ----------
    source_trust_:
        ``{source: trust}`` learned trustworthiness.
    fact_confidence_:
        ``{(object, value): confidence}``.
    truth_:
        ``{object: value}`` the highest-confidence value per object.
    convergence_:
        Iteration record.

    Example
    -------
    >>> tf = TruthFinder().fit([
    ...     ("s1", "book", 1999), ("s2", "book", 1999), ("s3", "book", 2001),
    ... ])
    >>> tf.truth_["book"]
    1999
    """

    def __init__(
        self,
        *,
        rho: float = 0.5,
        gamma: float = 0.3,
        base_trust: float = 0.9,
        similarity: Callable | None = None,
        max_iter: int = 100,
        tol: float = 1e-6,
    ):
        check_probability(rho, "rho")
        check_positive(gamma, "gamma")
        check_in_range(base_trust, "base_trust", 0.0, 1.0, inclusive=False)
        self.rho = float(rho)
        self.gamma = float(gamma)
        self.base_trust = float(base_trust)
        self.similarity = similarity
        self.max_iter = int(max_iter)
        self.tol = float(tol)

        self.source_trust_: dict | None = None
        self.fact_confidence_: dict | None = None
        self.truth_: dict | None = None
        self.convergence_: ConvergenceInfo | None = None

    # ------------------------------------------------------------------
    def fit(self, claims: Iterable[tuple]) -> "TruthFinder":
        """Run the propagation on ``(source, object, value)`` claims."""
        claims = list(claims)
        if not claims:
            raise ValueError("claims must be non-empty")

        sources: dict = {}
        facts: dict = {}  # (object, value) -> fact index
        fact_keys: list[tuple] = []
        provides: list[tuple[int, int]] = []
        for source, obj, value in claims:
            s = sources.setdefault(source, len(sources))
            key = (obj, value)
            if key not in facts:
                facts[key] = len(facts)
                fact_keys.append(key)
            provides.append((s, facts[key]))
        n_s, n_f = len(sources), len(facts)

        provider_lists: list[list[int]] = [[] for _ in range(n_f)]
        source_facts: list[set[int]] = [set() for _ in range(n_s)]
        for s, f in set(provides):
            provider_lists[f].append(s)
            source_facts[s].add(f)

        # facts grouped per object, with pairwise influence weights
        by_object: dict = {}
        for f, (obj, _) in enumerate(fact_keys):
            by_object.setdefault(obj, []).append(f)
        influence: list[list[tuple[int, float]]] = [[] for _ in range(n_f)]
        for obj, fs in by_object.items():
            for f in fs:
                for f2 in fs:
                    if f2 == f:
                        continue
                    va, vb = fact_keys[f2][1], fact_keys[f][1]
                    sim = (
                        self.similarity(va, vb)
                        if self.similarity is not None
                        else 0.0
                    )
                    influence[f].append((f2, 2.0 * sim - 1.0))

        def step(state):
            trust, _ = state
            tau = -np.log(np.maximum(1.0 - trust, 1e-12))
            sigma = np.zeros(n_f)
            for f in range(n_f):
                sigma[f] = tau[provider_lists[f]].sum()
            adjusted = sigma.copy()
            if self.rho > 0:
                for f in range(n_f):
                    adjusted[f] += self.rho * sum(
                        w * sigma[f2] for f2, w in influence[f]
                    )
            confidence = 1.0 / (1.0 + np.exp(-self.gamma * adjusted))
            new_trust = np.array(
                [
                    confidence[list(fs)].mean() if fs else self.base_trust
                    for fs in source_facts
                ]
            )
            return (new_trust, confidence), np.abs(new_trust - trust).max()

        start = (np.full(n_s, self.base_trust), np.zeros(n_f))
        (trust, confidence), self.convergence_ = fixed_point(
            step, start, max_iter=self.max_iter, tol=self.tol, name="TruthFinder"
        )

        inv_sources = {idx: name for name, idx in sources.items()}
        self.source_trust_ = {inv_sources[i]: float(trust[i]) for i in range(n_s)}
        self.fact_confidence_ = {
            fact_keys[f]: float(confidence[f]) for f in range(n_f)
        }
        self.truth_ = {}
        for obj, fs in by_object.items():
            best = max(fs, key=lambda f: confidence[f])
            self.truth_[obj] = fact_keys[best][1]
        return self

    # ------------------------------------------------------------------
    def predict(self, obj):
        """The believed value of *obj* (requires :meth:`fit`)."""
        if self.truth_ is None:
            raise NotFittedError("call fit() first")
        if obj not in self.truth_:
            raise KeyError(f"no claims were made about {obj!r}")
        return self.truth_[obj]
