"""Optimal cloning efficiencies: closed-form corner points and numeric search.

Every optimum that is reported as analytic is a closed form at the corner
q = -q_bound, s = s_cap(q) of the (q, s) region, realised by extremal
real flags. The slice maximum of gamma2 there is exact rational and is
certified by a feasibility matrix whose determinant is exactly zero. The
equal-efficiency optimum is the parabola-line intersection x0 at the same
corner, a quadratic surd reported as exact text and certified in floats.
The numeric route is an independent check: the best point of a coarse
grid over (gamma1, gamma2, gamma3, P12, P13) with real flags, filtered
by the PSD test, with only the verdicts computed that can decide it,
refined by pattern search with shrinking steps over Gamma alone; one
kernel pass gives each sweep its move, and a walk that joins an earlier
walk takes that walk's end.
Both are reported side by side. The slice value is the optimum over all
efficiencies and flags: by the sign-flag and symmetrisation lemmas in
``feasibility``, no flags beat the corner flags P_1j = sign(G_1j)
(``feasibility.case_params(case).signs``, read off the exact case Gram)
and no unequal gamma2, gamma3 beat their mean, so the search is an
independent check. Real flags lose nothing: by the sign-flag lemma, the
corner flags are feasible wherever any complex flags are.

Every report comes from one certified path, ``_certified``: it builds M at
the reported efficiencies and flags and raises unless ``is_psd`` accepts it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import feasibility as fz
from .feasibility import (EfficiencyVector, FeasibilityPoint, FlagOverlaps,
                          build_matrix, gamma2_on_slice, intersection_x0,
                          intersection_x0_text, is_psd)

OBJECTIVES = ("gamma23", "gamma1")

#: sweeps after which a pattern-search walk stops, whatever its shrinks
MAX_SWEEPS = 20000

#: the largest grid resolution: each of resolution gamma1 slabs gets up to
#: resolution**2 block verdicts, and a slab that ties the best walk end as
#: many flag verdicts, so that ``optimize --mode numeric --resolution 200``
#: takes 0.5-0.8 s (Python 3.11.7, 2 vCPUs)
MAX_RESOLUTION = 200


@dataclass(frozen=True)
class OptimumReport:
    case: str
    objective: str
    mode: str                       # "analytic" | "numeric"
    value: float
    gammas: tuple[float, float, float]
    flags: FlagOverlaps
    certificate: FeasibilityPoint
    value_exact: str | None = None
    gammas_exact: tuple[str, str, str] | None = None
    evaluations: int = 0
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "objective": self.objective,
            "mode": self.mode,
            "value": self.value,
            "value_exact": self.value_exact,
            "gammas": list(self.gammas),
            "gammas_exact": list(self.gammas_exact) if self.gammas_exact else None,
            "P12": [float(self.flags.p12[0]), float(self.flags.p12[1])],
            "P13": [float(self.flags.p13[0]), float(self.flags.p13[1])],
            "certificate": self.certificate.to_json(),
        }
        if self.mode == "numeric":
            out["evaluations"] = self.evaluations
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


def _certified(case: str, objective: str, mode: str, gammas, flags: FlagOverlaps,
               **fields) -> OptimumReport:
    """The report of an optimum at ``gammas`` and ``flags``, with M built on
    ``case`` as its certificate; raises AssertionError unless ``is_psd``."""
    cert = build_matrix(case, EfficiencyVector(gammas), flags)
    if not is_psd(cert):
        raise AssertionError(f"{mode} optimum failed its own feasibility certificate "
                             f"({objective})")
    return OptimumReport(case=case, objective=objective, mode=mode,
                         gammas=tuple(float(g) for g in gammas), flags=flags,
                         certificate=cert, **fields)


def analytic_optimum(case: str, objective: str = "gamma23") -> OptimumReport:
    """Exact slice optimum at the corner (q, s) with its realizing flags.

    For the gamma2+gamma3 objective the corner yields the published exact
    efficiencies; the gamma1 objective is the mirrored problem (swap the
    roles of state 1 and the equal pair) and shares the same corner.
    """
    obj = _objective_fn(objective)
    flags = FlagOverlaps(*fz.case_params(case).signs)
    q, s, _ = fz.corner(case)
    g_small, g_big = gamma2_on_slice(q, s, case)
    gammas = ((g_small, g_big, g_big) if objective == "gamma23"
              else (g_big, g_small, g_small))
    value = obj(gammas)
    return _certified(case, objective, "analytic", gammas, flags,
                      value=float(value), value_exact=str(value),
                      gammas_exact=tuple(str(g) for g in gammas),
                      meta={"q": str(q), "s": str(s)})


# ---------------------------------------------------------------------------
# numeric search
# ---------------------------------------------------------------------------

def _objective_fn(objective: str):
    if objective == "gamma23":
        return lambda p: p[1] + p[2]
    if objective == "gamma1":
        return lambda p: p[0]
    raise ValueError(f"objective must be one of {OBJECTIVES}")


def numeric_search(case: str, objective: str = "gamma23", resolution: int = 9,
                   iterations: int = 40) -> OptimumReport:
    """Grid-plus-pattern-search maximisation over (Gamma, P) with real P.

    Deterministic for fixed arguments: ties are broken by lexicographic
    argmax over (objective, point). The flags are real (module docstring).

    Every verdict comes from one ``feasibility.ArrowKernel``:
    ``first_block`` gives a grid slab's block verdicts from per-slab
    tables, ``slack`` a flag walk's and the refine's start point's, and
    ``move`` the move of a whole refine sweep in one pass, from its
    candidates' verdicts, each bit for bit what ``slack`` gives. M is an
    arrow matrix (G_23 = 0), so the PSD verdict is the sign of one
    determinant of M + t*I, with t half of the fixed
    ``feasibility.DEFAULT_TOL``. The reported optimum
    is certified with ``is_psd`` at the full margin, as every reported
    optimum is (``_certified``).

    On the grid only the verdicts that can change the result are
    computed. This rests on one fact: the objective depends only on the
    point, and on the grid only on the gammas. So the best point of a
    gamma1 slab lies in the first (g2, g3) block, in descending
    (objective, gammas) order, that has a feasible flag, paired with
    that block's largest feasible flag. By the sign-flag lemma, a block
    has a feasible flag iff it is feasible at the corner flags
    sign(G_1j), so each block gets one verdict there, and later blocks
    none. The lemma holds for the computed determinant too, since the
    computed |M_1j| is smallest at sign(G_1j) and rounding is monotone.
    The (g2, g3) block order is sorted once: it is the same in every
    slab. The refine walks Gamma alone from each slab's best grid gammas
    at the corner flags: there a flag move leaves the objective as it is
    and, by the same monotone rounding, never raises the slack, so it
    could never be accepted. A walk never ends below its start, so a
    slab's grid point can win the final max over (value, point) only if
    its value ties the best walk end; only such a slab's flags are then
    tried, in descending lexicographic order, and the first feasible
    pair is its largest. At the default settings no slab ties, and the
    report carries the walk end's corner flags. The resolution**5 grid
    count is that of the whole grid, whatever verdicts it skips. A
    refine sweep gives a verdict to every candidate whose objective is
    not below the current point's, since each shares most of its terms
    with the point; the others are never accepted (``_compass_refine``).
    Each call keeps one memo, and nothing is kept between calls: the end
    of the refine's walk from each state (point, shrinks) it swept, since
    refines started in different slabs join the same trajectories, and a
    walk that reaches a stored state takes its end (``_compass_refine``).
    Verdicts are recomputed: a memo of them by point would hit on 9-19%
    of its lookups, cost more than it saves, and grow as resolution**3.
    ``evaluations`` counts the points the search considers, each grid
    point and each refine candidate that differs from its current point,
    not the kernel calls; a walk that takes a stored end counts that
    end's candidates again, so the count is that of walking every slab
    in full.

    The objective is flat in gamma1 (or gamma2 and gamma3), so the
    pattern search ranks moves by (objective, PSD slack)
    lexicographically, the slack being the kernel's Schur complement:
    flat coordinates walk towards a larger one, away from the boundary
    where it is 0, which opens room for the next objective step.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    obj = _objective_fn(objective)
    kernel = fz.ArrowKernel(case)

    gamma_axis = [i / (resolution - 1) for i in range(resolution)]
    evaluations = resolution ** 5

    corner_flags = tuple(float(x) for x in fz.case_params(case).signs)

    # the (g2, g3) blocks of a gamma1 slab, as axis index pairs, in
    # descending (obj(gammas), gammas) order, the same in every slab: the
    # objective is g2 + g3, which gamma1 does not change, or gamma1,
    # constant in a slab; the axis ascends, so index order is gamma order
    order = sorted(product(range(resolution), repeat=2),
                   key=lambda ij: (obj((0.0, gamma_axis[ij[0]], gamma_axis[ij[1]])), ij),
                   reverse=True)
    slab_best = []
    for g1 in gamma_axis:
        # the gammas of this gamma1 slab's best feasible point: the first
        # block that is feasible at the corner flags
        block = kernel.first_block(g1, gamma_axis, order, corner_flags)
        if block is not None:
            gammas = (g1,) + block
            slab_best.append((obj(gammas), gammas))
    if not slab_best:
        raise AssertionError("grid found no feasible point (gamma = 0 is always feasible)")

    tails = {}
    ends = [_compass_refine(gammas + corner_flags, objective, kernel, 1.0 / (resolution - 1),
                            iterations, tails)
            for _, gammas in sorted(slab_best, reverse=True)]
    evaluations += sum(n_ev for _, _, n_ev in ends)
    best_val, best_point = max(end[:2] for end in ends)

    # a walk never ends below its start, so only a slab whose grid value
    # ties the best end can win the max over (value, point); its flags are
    # the first feasible flag pair in descending order
    for v, gammas in slab_best:
        if v >= best_val:
            flag_axis = [-1.0 + 2.0 * i / (resolution - 1) for i in reversed(range(resolution))]
            top = next(f for f in product(flag_axis, repeat=2)
                       if kernel.slack(gammas + f) is not None)
            best_val, best_point = max((best_val, best_point), (v, gammas + top))

    return _certified(case, objective, "numeric", best_point[:3],
                      FlagOverlaps(p12=best_point[3], p13=best_point[4]),
                      value=float(best_val), evaluations=evaluations,
                      meta={"resolution": resolution, "iterations": iterations})


def _compass_refine(start, objective, kernel, step, iterations, tails=None):
    """Coordinate-wise pattern search over Gamma, step halving on stall.

    ``kernel`` is the search's ``ArrowKernel``: ``kernel.slack(point)`` is
    the Schur complement of M + t*I at a feasible point, else None, and
    ``kernel.move(point, step, value, objective)`` gives one sweep's
    candidate count and its best move, which keeps the point's flags. A
    move is accepted when it improves the objective, or keeps it equal
    while strictly improving the PSD slack (flat coordinates would be
    frozen otherwise). Both orders strictly increase, so no cycling and
    no state (point, shrinks) is swept twice. The chosen move is the
    feasible candidate with the largest (objective, slack, point);
    candidates with a lower objective than the current point can never
    be accepted, so the kernel gives them no verdict.

    ``tails`` maps a state (point, shrinks) at the start of a sweep to
    the rest of a walk from it: (value, point, candidates, sweeps). The
    rest of a walk is a pure function of its state, since the step is
    ``step`` halved ``shrinks`` times, so one dict may be shared by calls
    with the same ``objective``, ``kernel``, ``step`` and ``iterations``.
    A walk that reaches a stored state takes its tail only if the tail's
    sweeps fit in what is left of ``MAX_SWEEPS``, and else walks on; a
    walk stopped by ``MAX_SWEEPS`` stores no tail, since the rest of a
    walk from its states depends on the sweeps before them. So every walk
    returns what it would without the dict. Without ``tails`` the call
    keeps its own.

    A sweep with no candidate (every step below its gamma's ulp) ends
    the walk: steps only shrink, so every later one is empty too.
    """
    point = tuple(start)
    value = _objective_fn(objective)(point)
    point_slack = kernel.slack(point)
    if tails is None:
        tails = {}
    swept = []          # (point, shrinks, evals, walked) at each computed sweep
    shrinks = 0
    evals = 0
    walked = 0
    while shrinks < iterations:
        if walked >= MAX_SWEEPS:
            return value, point, evals
        tail = tails.get((point, shrinks))
        if tail is not None and walked + tail[3] <= MAX_SWEEPS:
            value, point, tail_evals, tail_sweeps = tail
            evals += tail_evals
            walked += tail_sweeps
            break
        swept.append((point, shrinks, evals, walked))
        walked += 1
        n, best = kernel.move(point, step, value, objective)
        if not n:       # every step is below its gamma's ulp
            break
        evals += n
        if best and (best[0] > value or best[1] > point_slack + 1e-15):
            value, point_slack, point = best
        else:           # a stall
            step /= 2.0
            shrinks += 1
    for state_point, state_shrinks, state_evals, state_walked in swept:
        tails[state_point, state_shrinks] = (value, point, evals - state_evals,
                                             walked - state_walked)
    return value, point, evals


# ---------------------------------------------------------------------------
# equal efficiencies
# ---------------------------------------------------------------------------

def equal_gamma_optimum(case: str) -> OptimumReport:
    """Maximum common gamma with gamma1 = gamma2 = gamma3 over all flags.

    Equal efficiencies sit on the y = 2x line, so the common gamma is the
    smaller root x0 of f(x) = s*x^2 - (2 + q)*x + c0, where f'(x0) < 0.
    Implicit differentiation gives dx0/ds = -x0^2 / f'(x0) > 0, so the
    optimum lies on the cap s = s_cap(q) = 1 - k*q^2, along which
    dx0/dq = x0 * (1 + 2*k*q*x0) / f'(x0) < 0 because 2*k*q_bound < 1
    (1/4 for 3-bit, 1/2 for 2-bit) and x0 <= 1. The maximum is therefore
    the corner q = -q_bound, s = s_cap(q), ``feasibility.corner(case)``,
    that the flags sign(G_1j) realise: (6 - 2*sqrt(2))/7 for 2-bit and
    (124 - 24*sqrt(2))/127 for 3-bit.
    """
    flags = FlagOverlaps(*fz.case_params(case).signs)
    q, s, _ = fz.corner(case)
    x0 = float(intersection_x0(q, s, case))
    return _certified(case, "equal", "analytic", (x0, x0, x0), flags,
                      value=x0, value_exact=intersection_x0_text(q, s, case),
                      meta={"q": float(q), "s": float(s)})
