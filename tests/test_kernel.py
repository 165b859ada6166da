"""The numeric search's arrow-matrix kernel against the closed-form eigenvalues.

The reference is the per-point route the search used before the kernel:
assemble M in complex arithmetic and test ``hermitian3_eigvals(M)[0]``
against the kernel's margin -t, t = ``DEFAULT_TOL`` / 2. The kernel's
determinant verdict must reproduce every one of its verdicts on the
search grids, and its slack is the Schur complement of M + t*I. A
refine sweep's move is the best of its candidates by the objective and
the slack ``slack`` gives each of them.
"""
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probclone import feasibility
from probclone.feasibility import (ArrowKernel, EfficiencyVector, FlagOverlaps,
                                   build_matrix, case_params, hermitian3_eigvals)
from probclone.optimize import _objective_fn, numeric_search
from probclone.phasestate import case_gram

CASES = ("3bit", "2bit")


def kernel_margin():
    """The kernel's shift t, read as the kernel reads it."""
    return feasibility.DEFAULT_TOL / 2


def exact_schur(m, t):
    """det(M + t*I) / (d2*d3) of a float arrow matrix M, in Fractions from its floats."""
    d1, d2, d3 = (F(m[i][i].real) + F(t) for i in range(3))
    n12, n13 = (F(z.real) ** 2 + F(z.imag) ** 2 for z in (m[0][1], m[0][2]))
    return (d1 * d2 * d3 - n12 * d3 - n13 * d2) / (d2 * d3)


def check_slack(kernel, point, m):
    """``kernel.slack(point)`` against the float M the reference assembles there:
    the exact Schur complement to 1e-15, and None iff the closed-form
    lambda_min(M) < -t outside a 1e-12 band. Returns whether the verdict
    was checked."""
    t = kernel_margin()
    got = kernel.slack(point)
    if got is not None:
        assert abs(got - exact_schur(m, t)) <= 1e-15, point
    lam = hermitian3_eigvals(m)[0]
    if abs(lam + t) <= 1e-12:
        return False
    assert (got is None) == (lam < -t), point
    return True


def reference_matrix(gf, point):
    """M at real flags, assembled in complex arithmetic."""
    g1, g2, g3, a, c = point
    x12 = math.sqrt(g1 * g2)
    x13 = math.sqrt(g1 * g3)
    m = [[0j] * 3 for _ in range(3)]
    m[0][0] = complex(gf[0][0] - g1)
    m[1][1] = complex(gf[1][1] - g2)
    m[2][2] = complex(gf[2][2] - g3)
    m[0][1] = gf[0][1] - x12 * gf[0][1] ** 2 * complex(a)
    m[1][0] = m[0][1].conjugate()
    m[0][2] = gf[0][2] - x13 * gf[0][2] ** 2 * complex(c)
    m[2][0] = m[0][2].conjugate()
    m[1][2] = complex(gf[1][2])
    m[2][1] = m[1][2].conjugate()
    return m


def reference_ok(gf, point):
    return hermitian3_eigvals(reference_matrix(gf, point))[0] >= -kernel_margin()


def float_gram(case):
    g = case_gram(case)
    return tuple(tuple(complex(g.entry(i, j)) for j in range(3)) for i in range(3))


def axes(resolution):
    gamma_axis = [i / (resolution - 1) for i in range(resolution)]
    flag_axis = [-1.0 + 2.0 * i / (resolution - 1) for i in range(resolution)]
    return gamma_axis, flag_axis


def grid_points(resolution):
    gamma_axis, flag_axis = axes(resolution)
    return itertools.product(gamma_axis, gamma_axis, gamma_axis, flag_axis, flag_axis)


def corner_flags(case):
    return tuple(float(x) for x in case_params(case).signs)


#: the search box: each gamma in [0, 1], both flags in [-1, 1]
BOX_LO, BOX_HI = (0.0,) * 3 + (-1.0,) * 2, (1.0,) * 5
#: the refine's box: it moves the gammas only, each in [0, 1]
GAMMA_LO, GAMMA_HI = BOX_LO[:3], BOX_HI[:3]


def _clamp(x, lo, hi):
    return lo if x < lo else hi if x > hi else x


def compass_candidates(point, steps, lo, hi):
    """A pattern-search sweep's candidates around ``point``: each of its
    first len(steps) coordinates moved by +-its step, then gamma2 and
    gamma3 together by (+-, +-), each moved coordinate clamped to
    [lo, hi]; those the clamp leaves at the point are dropped. The other
    coordinates are carried unchanged."""
    moves = [((d, sgn),) for d in range(len(steps)) for sgn in (1.0, -1.0)]
    moves += [((1, s2), (2, s3)) for s2 in (1.0, -1.0) for s3 in (1.0, -1.0)]
    cands = []
    for move in moves:
        cand = list(point)
        for d, sgn in move:
            cand[d] = _clamp(cand[d] + sgn * steps[d], lo[d], hi[d])
        if tuple(cand) != tuple(point):
            cands.append(tuple(cand))
    return cands


@pytest.mark.parametrize("resolution", [8, 9, 10])
@pytest.mark.parametrize("case", CASES)
def test_real_grid_verdicts_match_closed_form(case, resolution):
    gf = float_gram(case)
    kernel = ArrowKernel(case)
    for p in grid_points(resolution):
        assert (kernel.slack(p) is not None) == reference_ok(gf, p), p


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("resolution", [8, 9, 10, 11, 12])
@pytest.mark.parametrize("case", CASES)
def test_sign_flag_lemma_on_the_grid(case, resolution, tol, monkeypatch):
    # the float form of the lemma the numeric search's block verdict rests
    # on: a grid block infeasible at the corner flags is infeasible at
    # every grid flag pair. The monotonicity behind it does not depend on
    # the shift, so it is checked at a wider tolerance than the search's too
    monkeypatch.setattr(feasibility, "DEFAULT_TOL", tol)
    kernel = ArrowKernel(case)
    gamma_axis, flag_axis = axes(resolution)
    assert all(f in flag_axis for f in corner_flags(case))
    rejected = 0
    for gammas in itertools.product(gamma_axis, repeat=3):
        if kernel.slack(gammas + corner_flags(case)) is None:
            rejected += 1
            for flags in itertools.product(flag_axis, repeat=2):
                assert kernel.slack(gammas + flags) is None, (gammas, flags)
    assert rejected > 0


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(CASES),
       gammas=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       flags=st.tuples(*[st.floats(-1.0, 1.0)] * 2))
def test_sign_flag_lemma_off_the_grid(case, gammas, flags):
    # the computed determinant is monotone in |M_12| and |M_13|, whose
    # computed values are smallest at the corner flags, so the lemma
    # holds for the float verdict at every point, not only on the grid
    kernel = ArrowKernel(case)
    if kernel.slack(gammas + corner_flags(case)) is None:
        assert kernel.slack(gammas + flags) is None


@pytest.mark.parametrize("resolution", [8, 9, 10])
@pytest.mark.parametrize("case", CASES)
def test_grid_phase_finds_the_exhaustive_grid_maximum(case, resolution):
    # with no refine, the search returns the largest (objective, point)
    # over every grid point the kernel finds feasible
    kernel = ArrowKernel(case)
    feasible = [p for p in grid_points(resolution) if kernel.slack(p) is not None]
    for objective in ("gamma23", "gamma1"):
        obj = _objective_fn(objective)
        value, best = max((obj(p), p) for p in feasible)
        r = numeric_search(case, objective, resolution=resolution, iterations=0)
        assert (r.value, r.gammas, r.flags.p12, r.flags.p13) == (
            value, best[:3], (best[3], 0.0), (best[4], 0.0))
        assert r.evaluations == resolution ** 5


@pytest.mark.parametrize("case", CASES)
def test_search_asks_only_about_points_in_the_box(case, monkeypatch):
    # the kernel does not check the flags' modulus: every point the search
    # hands it, on the grid and in the refine, and every move its sweeps
    # return has each gamma in [0, 1] and both flags in [-1, 1].
    # Every walk starts at the corner flags and never moves a flag, so
    # each swept point and move carries them
    slack, move = ArrowKernel.slack, ArrowKernel.move
    asked = swept = 0

    def check(point):
        nonlocal asked
        asked += 1
        assert all(0.0 <= g <= 1.0 for g in point[:3]), point
        assert all(-1.0 <= f <= 1.0 for f in point[3:]), point

    def slack_in_box(self, point):
        check(point)
        return slack(self, point)

    def move_in_box(self, point, step, value, objective):
        nonlocal swept
        swept += 1
        check(point)
        assert point[3:] == corner_flags(case), point
        got = move(self, point, step, value, objective)
        if got[1]:
            cand = got[1][2]
            check(cand)
            assert cand[3:] == point[3:], (point, cand)
        return got

    monkeypatch.setattr(ArrowKernel, "slack", slack_in_box)
    monkeypatch.setattr(ArrowKernel, "move", move_in_box)
    for objective in ("gamma23", "gamma1"):
        for resolution, iterations in ((8, 0), (9, 40), (12, 80)):
            numeric_search(case, objective, resolution=resolution, iterations=iterations)
    assert asked > 0 and swept > 0


def feasible_edge(kernel, point):
    """``point`` with its gammas scaled towards 0 by the largest factor in
    [0, 1], bisected to 60 bits, at which ``slack`` accepts: Gamma = 0 is
    always feasible, and where a refine walk ends, its sweeps meet the
    edge of the feasible set."""
    gammas, flags = point[:3], point[3:]
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if kernel.slack(tuple(g * mid for g in gammas) + flags) is None:
            hi = mid
        else:
            lo = mid
    return tuple(g * lo for g in gammas) + flags


@st.composite
def move_setups(draw):
    """A kernel, a point of the box, a refine sweep's step, an objective
    and the value a move must not fall below: each coordinate a grid
    value, a box edge or any value in the box, the flags included, and
    half the points moved to the edge of the feasible set; the
    step ``cell`` at a resolution halved 0 to 40 times; the value the
    point's objective, the adjacent floats, a step away or anywhere
    within two steps."""
    kernel = ArrowKernel(draw(st.sampled_from(CASES)))
    resolution = draw(st.integers(8, 12))
    gamma_axis, flag_axis = axes(resolution)
    point = tuple(draw(st.one_of(st.sampled_from(axis), st.sampled_from((lo, hi)),
                                 st.floats(lo, hi)))
                  for axis, lo, hi in zip([gamma_axis] * 3 + [flag_axis] * 2,
                                          BOX_LO, BOX_HI))
    if draw(st.booleans()):
        point = feasible_edge(kernel, point)
    step = 1.0 / (resolution - 1) / 2.0 ** draw(st.integers(0, 40))
    objective = draw(st.sampled_from(("gamma23", "gamma1")))
    at = _objective_fn(objective)(point)
    value = draw(st.one_of(
        st.just(at),
        st.sampled_from((math.nextafter(at, -math.inf), math.nextafter(at, math.inf),
                         at - step, at + step)),
        st.floats(at - 2 * step, at + 2 * step)))
    return kernel, point, step, value, objective


def reference_move(kernel, point, step, value, objective):
    """``ArrowKernel.move`` from the exhaustive refine's candidates over the
    gammas: the count of all, and the largest (objective, slack,
    candidate), first of equals, over those not below ``value`` with a
    ``slack``."""
    obj = _objective_fn(objective)
    candidates = compass_candidates(point, [step] * 3, GAMMA_LO, GAMMA_HI)
    best = ()
    for cand in candidates:
        v, e = obj(cand), kernel.slack(cand)
        if v >= value and e is not None and (v, e, cand) > best:
            best = v, e, cand
    return len(candidates), best


@settings(max_examples=1500, deadline=None)
@given(setup=move_setups())
def test_move_is_the_best_candidate_slack_accepts(setup):
    # the move's candidates are the exhaustive refine's over the gammas,
    # in its order, each carrying the point's flags; its objective and
    # slack are obj(cand) and slack(cand) to the bit (repr tells signed
    # zeros apart), and skipped candidates still count
    kernel, point, step, value, objective = setup
    assert (repr(kernel.move(point, step, value, objective))
            == repr(reference_move(kernel, point, step, value, objective)))


def block_orders(resolution):
    """The grid's (g2, g3) index pairs in each objective's block order:
    descending g2 + g3 then (i2, i3) for gamma23, descending (i2, i3) for
    gamma1, whose objective is constant in a slab."""
    gamma_axis, _ = axes(resolution)
    pairs = list(itertools.product(range(resolution), repeat=2))
    return {"gamma23": sorted(pairs, key=lambda ij: (gamma_axis[ij[0]] + gamma_axis[ij[1]], ij),
                              reverse=True),
            "gamma1": sorted(pairs, reverse=True)}


def check_first_block(kernel, g1, axis, order, flags):
    """``first_block`` against ``slack`` block by block: it returns the
    first block ``slack`` accepts, and None on the blocks before it."""
    blocks = [(axis[i2], axis[i3]) for i2, i3 in order]
    first = next((k for k, block in enumerate(blocks)
                  if kernel.slack((g1,) + block + flags) is not None), None)
    got = kernel.first_block(g1, axis, order, flags)
    assert got == (None if first is None else blocks[first]), (g1, got)
    if first is not None:
        assert kernel.first_block(g1, axis, order[:first], flags) is None, g1


@pytest.mark.parametrize("case", CASES)
def test_first_block_is_the_first_block_slack_accepts(case):
    # every gamma1 slab of every grid from resolution 8 to 40, in both
    # objectives' block orders, at the corner flags the search passes
    kernel = ArrowKernel(case)
    flags = corner_flags(case)
    for resolution in range(8, 41):
        gamma_axis, _ = axes(resolution)
        for order in block_orders(resolution).values():
            for g1 in gamma_axis:
                check_first_block(kernel, g1, gamma_axis, order, flags)


@pytest.mark.parametrize("case", CASES)
def test_first_block_where_a_verdict_flips(case):
    # gamma1 bisected to the two adjacent floats between which a block's
    # slack verdict flips: there the determinant rounds to within a few
    # ulps of 0, often to 0 itself, so a verdict from reassociated float
    # operations or from det > 0 would differ from slack's on some block
    kernel = ArrowKernel(case)
    flags = corner_flags(case)
    flips = 0
    for resolution in (8, 9, 13, 20):
        gamma_axis, _ = axes(resolution)
        for i2, i3 in itertools.product(range(resolution), repeat=2):
            def feasible(g1):
                return kernel.slack((g1, gamma_axis[i2], gamma_axis[i3]) + flags) is not None
            lo, hi = 0.0, 1.0
            if not feasible(lo) or feasible(hi):
                continue
            while math.nextafter(lo, hi) < hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            flips += 1
            for g1 in (lo, hi):
                check_first_block(kernel, g1, gamma_axis, [(i2, i3)], flags)
    assert flips > 0


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), resolution=st.integers(8, 40),
       objective=st.sampled_from(("gamma23", "gamma1")), g1=st.floats(0.0, 1.0),
       flags=st.one_of(st.none(), st.tuples(*[st.floats(-1.0, 1.0)] * 2)))
def test_first_block_off_the_grid(case, resolution, objective, g1, flags):
    # any float gamma1 in [0, 1], at the corner flags (None) or any flags
    # of the box: the verdicts are slack's to the bit wherever they come from
    kernel = ArrowKernel(case)
    gamma_axis, _ = axes(resolution)
    check_first_block(kernel, g1, gamma_axis, block_orders(resolution)[objective],
                      corner_flags(case) if flags is None else flags)


def boundary_points(case):
    """Points on and within 1e-9 of the analytic optimum's boundary."""
    gam = {"3bit": (F(7, 127), F(112, 127)), "2bit": (F(1, 7), F(4, 7))}[case]
    a, c = corner_flags(case)
    pts = []
    for scale in (1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9):
        g1, g2 = float(gam[0]), min(1.0, float(gam[1]) * scale)
        pts.append((g1, g2, g2, a, c))
        pts.append((g2, g1, g1, a, c))
    return pts


@pytest.mark.parametrize("case", CASES)
def test_slack_on_the_boundary(case):
    gf = float_gram(case)
    kernel = ArrowKernel(case)
    # each point's lambda_min is at least 1.6e-10 from -t, so every verdict is checked
    assert all(check_slack(kernel, p, reference_matrix(gf, p)) for p in boundary_points(case))


@pytest.mark.parametrize("case", CASES)
def test_closed_form_error_against_lapack(case):
    # the closed form every float certificate uses, measured against
    # LAPACK over the search box
    rng = random.Random(f"eig-err:{case}")
    worst = 0.0
    for _ in range(3000):
        gammas = [rng.random() for _ in range(3)]
        r12, r13 = math.sqrt(rng.random()), math.sqrt(rng.random())
        t12, t13 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        flags = FlagOverlaps(p12=(r12 * math.cos(t12), r12 * math.sin(t12)),
                             p13=(r13 * math.cos(t13), r13 * math.sin(t13)))
        m = build_matrix(case, EfficiencyVector(gammas), flags).matrix
        want = np.linalg.eigvalsh(np.array(m))[0]
        worst = max(worst, abs(hermitian3_eigvals(m)[0] - want))
    assert worst < 2 ** -18 / 1000
