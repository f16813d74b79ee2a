"""Meta-path query engine: shared materialization + top-k serving.

This package is the serving layer between the network structures
(:mod:`repro.networks`) and the algorithms that consume meta-path
products (:mod:`repro.similarity`, :mod:`repro.core`, :mod:`repro.olap`).
See :mod:`repro.engine.engine` for the design and
``docs/ARCHITECTURE.md`` for how it fits the layer diagram.
"""

from repro.engine.engine import MetaPathEngine
from repro.engine.fused import fused_row_scores
from repro.engine.planner import ChainPlan, ChainPlanner, PlanReport
from repro.engine.topk import finalize_top_k, top_k_indices

__all__ = [
    "MetaPathEngine",
    "ChainPlanner",
    "ChainPlan",
    "PlanReport",
    "top_k_indices",
    "finalize_top_k",
    "fused_row_scores",
]
