"""Oracle phase states, probabilistic-cloning feasibility, and task scores."""

from .funcspace import BooleanFunction, TaskFamily, TaskInstance, family
from .phasestate import (GramMatrix, StateVector, case_gram, gram, inner, measure,
                         phase_state)
from .feasibility import (EfficiencyVector, FeasibilityPoint, FlagOverlaps,
                          ReducedCoordinates, build_matrix, gamma2_on_slice,
                          gammas_from_xy, intersection_x0, is_psd, reduce,
                          stationary_x1, vw_boundary)
from .optimize import (OptimumReport, analytic_optimum, equal_gamma_optimum,
                       numeric_search)
from .gamesim import (ScoreReport, clone_intermediates, score_clone_enumerated,
                      score_clone_exact, score_no_clone_enumerated,
                      score_no_clone_exact, simulate_clone, simulate_no_clone)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction", "TaskFamily", "TaskInstance", "family",
    "GramMatrix", "StateVector", "gram", "inner", "measure", "phase_state",
    "EfficiencyVector", "FeasibilityPoint", "FlagOverlaps", "ReducedCoordinates",
    "build_matrix",
    "gamma2_on_slice", "gammas_from_xy", "intersection_x0", "is_psd", "reduce",
    "stationary_x1", "vw_boundary", "OptimumReport", "analytic_optimum",
    "case_gram", "equal_gamma_optimum", "numeric_search", "ScoreReport",
    "clone_intermediates", "score_clone_enumerated", "score_clone_exact",
    "score_no_clone_enumerated", "score_no_clone_exact", "simulate_clone",
    "simulate_no_clone",
]
