"""Delta-to-candidate analysis: which rows can an update batch touch?

The maintainer's first question on every commit is *which watched
results can this batch possibly change* — answered here without
computing a single score.  The tools are the update receipt's
per-relation sparse deltas (:class:`~repro.networks.updates.RelationDelta`)
and backward reachability over a meta-path's relation steps
(:func:`repro.networks.stats.reach_sources`).

The guarantee is one-sided and exact in the safe direction:
:func:`touched_chain_rows` returns a **superset** of the source rows
whose chain-product row differs between the pre- and post-update
network.  A row outside the set multiplies only unchanged matrix
entries along every path instance, so its product row — and any score
derived from it — is unchanged to the bit.  The proof is the same
telescoping the engine's delta products use
(:meth:`repro.engine.MetaPathEngine.apply_update`), read structurally:
``M' - M = Σ_t A'_1…A'_{t-1} ΔA_t A_{t+1}…A_k`` has row ``i`` support
only when ``i`` reaches a changed row of some step ``t`` through the
post-update prefix.
"""

from __future__ import annotations

import numpy as np

from repro.networks.stats import reach_sources

__all__ = ["touched_chain_rows"]


def _oriented_seed(delta, forward: bool) -> np.ndarray:
    """Changed oriented-row indices of one step's matrix under *delta*."""
    return delta.touched_sources if forward else delta.touched_targets


def touched_chain_rows(hin, steps, update) -> np.ndarray:
    """Source rows whose product over *steps* the *update* can touch.

    For every step whose relation carries a delta, the delta's changed
    oriented rows are walked backwards to the chain's source type with
    :func:`~repro.networks.stats.reach_sources`; the union over steps is
    returned as sorted unique indices.  Cost scales with the deltas'
    reach, not the network: an update touching nothing a watched path
    traverses costs a set intersection.

    Parameters
    ----------
    hin:
        The post-update network (the receipt's matrices are already
        committed when the maintainer runs).
    steps:
        ``(relation, forward)`` pairs — a full path for connectivity
        watches, the half product's steps for PathSim watches.
    update:
        The :class:`~repro.networks.updates.AppliedUpdate` receipt.
    """
    parts = []
    for t, (rel, forward) in enumerate(steps):
        delta = update.deltas.get(rel.name)
        if delta is None or delta.delta.nnz == 0:
            continue
        seed = _oriented_seed(delta, forward)
        reached = reach_sources(hin, steps, t, seed)
        if reached.size:
            parts.append(reached)
    if not parts:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(parts))
