"""The one stop rule for iterative solvers.

Every residual-driven fixed-point iteration in the library — PageRank,
HITS, authority ranking, both SimRanks, label propagation, GNetMine,
tag-graph propagation, TruthFinder and eigenvector centrality — is a
``step`` closure run by :func:`fixed_point`, which alone decides when to
stop: it rejects ``max_iter <= 0``, records the residual after each step,
stops on ``residual <= tol``, warns once with
:class:`repro.exceptions.ConvergenceWarning` when ``max_iter`` runs out,
and builds the :class:`ConvergenceInfo` the solver reports.  Loops that
stop on something other than a residual (the RankClus / NetClus / k-means
outer loops: partition stability or centre shift, no warning) are not
fixed-point solvers in this sense and do not come through here.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.exceptions import ConvergenceWarning
from repro.utils.validation import check_positive

__all__ = ["ConvergenceInfo", "fixed_point"]


@dataclass
class ConvergenceInfo:
    """How an iterative solver terminated.

    Attributes
    ----------
    converged:
        ``True`` when the residual dropped below the solver tolerance.
    n_iter:
        Number of iterations actually executed.
    residual:
        Final residual (solver-specific norm of the last update).
    tol:
        The tolerance the solver was run with.
    history:
        Residual after each iteration; useful for plotting convergence
        curves in the benchmarks.
    """

    converged: bool
    n_iter: int
    residual: float
    tol: float
    history: list[float] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.converged


def fixed_point(
    step: Callable[[object], tuple[object, float]],
    state,
    *,
    max_iter: int,
    tol: float,
    name: str,
) -> tuple[object, ConvergenceInfo]:
    """Iterate ``state, residual = step(state)`` until ``residual <= tol``.

    Parameters
    ----------
    step:
        One iteration: takes the current state (any value — a vector, a
        tuple of matrices, a dict) and returns the next state and the
        residual of the move, a solver-specific norm of the update.
    state:
        The starting state.
    max_iter:
        Iteration budget; ``ValueError`` unless positive.
    tol:
        The iteration stops after the first step whose residual is at most
        *tol*.
    name:
        The solver's name in the warning text.

    Returns
    -------
    (state, info):
        The last state reached and how the iteration stopped.  When
        *max_iter* steps ran without meeting *tol*, one
        :class:`~repro.exceptions.ConvergenceWarning` is emitted, attributed
        to the caller of the solver that called this function.
    """
    check_positive(max_iter, "max_iter")
    history: list[float] = []
    for _ in range(max_iter):
        state, residual = step(state)
        history.append(float(residual))
        if history[-1] <= tol:
            break
    else:
        warnings.warn(
            f"{name} did not converge in {max_iter} iterations "
            f"(final residual {history[-1]:.3g} > tol {tol:.3g})",
            ConvergenceWarning,
            stacklevel=3,
        )
    info = ConvergenceInfo(history[-1] <= tol, len(history), history[-1], tol, history)
    return state, info
