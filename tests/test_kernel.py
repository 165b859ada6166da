"""The numeric search's arrow-matrix kernel against the closed-form eigenvalues.

The reference is the per-point route the search used before the kernel:
assemble M in complex arithmetic and test ``hermitian3_eigvals(M)[0]``
against the kernel's margin -t, t = ``DEFAULT_TOL`` / 2. The kernel's
determinant verdict must reproduce every one of its verdicts on the
search grids, and its slack is the Schur complement of M + t*I. A
refine sweep's move is the best of its candidates by the objective and
the slack ``slack`` gives each of them.

The kernel takes Gamma alone, at the corner flags. ``flag_slack`` is the
same determinant test with real flags as arguments: the sign-flag lemma
is checked in its computed form on it, and the kernel must give its
slack at the corner flags to the bit.
"""
import functools
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


@functools.cache
def _flag_terms(case):
    g12, g13 = (float(x) for x in case_gram(case).entries[0][1:])
    return g12, g13, g12 * g12, g13 * g13


def flag_slack(case, point):
    """``ArrowKernel.slack`` with the flags as arguments: the Schur
    complement det(A) / (d2*d3) of A = M + t*I at a real point
    (gamma1, gamma2, gamma3, a, c) with P12 = a, P13 = c, else None, M_1j
    formed from the signed Gram entry G_1j and the flag. Its float
    operations are the kernel's, with the products by the flags kept."""
    g12, g13, s12, s13 = _flag_terms(case)
    g1, g2, g3, a, c = point
    t = feasibility.DEFAULT_TOL / 2
    t12 = math.sqrt(g1 * g2) * s12
    t13 = math.sqrt(g1 * g3) * s13
    u, w = g12 - t12 * a, g13 - t13 * c
    d2, d3 = 1.0 - g2 + t, 1.0 - g3 + t
    det = (1.0 - g1 + t) * d2 * d3 - u * u * d3 - w * w * d2
    if det < 0:
        return None
    return det / (d2 * d3)


def check_slack(slack, point, m):
    """``slack(point)`` against the float M the reference assembles there:
    the exact Schur complement to 1e-15, and None iff the closed-form
    lambda_min(M) < -t outside a 1e-12 band. Returns whether the verdict
    was checked."""
    t = kernel_margin()
    got = slack(point)
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


def gamma_points(resolution):
    return itertools.product(axes(resolution)[0], repeat=3)


def corner_flags(case):
    return tuple(float(x) for x in case_params(case).signs)


#: the box of real points (Gamma, a, c): each gamma in [0, 1], both flags in [-1, 1]
BOX_LO, BOX_HI = (0.0,) * 3 + (-1.0,) * 2, (1.0,) * 5
#: the search box: each gamma in [0, 1]
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
    # flag_slack at every real flag pair of the grid, the kernel at the corner flags
    gf = float_gram(case)
    kernel = ArrowKernel(case)
    for p in grid_points(resolution):
        assert (flag_slack(case, p) is not None) == reference_ok(gf, p), p
    for gammas in gamma_points(resolution):
        assert (kernel.slack(gammas) is not None) == reference_ok(
            gf, gammas + corner_flags(case)), gammas


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("resolution", [8, 9, 10, 11, 12])
@pytest.mark.parametrize("case", CASES)
def test_sign_flag_lemma_on_the_grid(case, resolution, tol, monkeypatch):
    # the float form of the lemma the numeric search's Gamma grid rests
    # on: a grid Gamma infeasible at the corner flags is infeasible at
    # every grid flag pair. The monotonicity behind it does not depend on
    # the shift, so it is checked at a wider tolerance than the search's too
    monkeypatch.setattr(feasibility, "DEFAULT_TOL", tol)
    _, flag_axis = axes(resolution)
    assert all(f in flag_axis for f in corner_flags(case))
    rejected = 0
    for gammas in gamma_points(resolution):
        if flag_slack(case, gammas + corner_flags(case)) is None:
            rejected += 1
            for flags in itertools.product(flag_axis, repeat=2):
                assert flag_slack(case, gammas + flags) is None, (gammas, flags)
    assert rejected > 0


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(CASES),
       gammas=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       flags=st.tuples(*[st.floats(-1.0, 1.0)] * 2))
def test_sign_flag_lemma_off_the_grid(case, gammas, flags):
    # the computed determinant is monotone in |M_12| and |M_13|, whose
    # computed values are smallest at the corner flags, so the lemma
    # holds for the float verdict at every point, not only on the grid
    if flag_slack(case, gammas + corner_flags(case)) is None:
        assert flag_slack(case, gammas + flags) is None


@pytest.mark.parametrize("resolution", [8, 9, 10])
@pytest.mark.parametrize("case", CASES)
def test_grid_phase_finds_the_exhaustive_grid_maximum(case, resolution):
    # with no refine, the search returns the largest (objective, Gamma)
    # over every grid Gamma the kernel finds feasible, at the corner flags
    kernel = ArrowKernel(case)
    feasible = [p for p in gamma_points(resolution) if kernel.slack(p) is not None]
    a, c = corner_flags(case)
    for objective in ("gamma23", "gamma1"):
        obj = _objective_fn(objective)
        value, best = max((obj(p), p) for p in feasible)
        r = numeric_search(case, objective, resolution=resolution, iterations=0)
        assert (r.value, r.gammas, r.flags.p12, r.flags.p13) == (value, best, (a, 0), (c, 0))
        assert r.evaluations == resolution ** 5


@pytest.mark.parametrize("case", CASES)
def test_search_asks_only_about_points_in_the_box(case, monkeypatch):
    # the kernel does not check the box: every point the search hands
    # it, on the grid and in the refine, and every move its sweeps return
    # is a Gamma triple with each gamma in [0, 1]
    slack, move = ArrowKernel.slack, ArrowKernel.move
    asked = swept = 0

    def check(point):
        nonlocal asked
        asked += 1
        assert len(point) == 3 and all(0.0 <= g <= 1.0 for g in point), point

    def slack_in_box(self, point):
        check(point)
        return slack(self, point)

    def move_in_box(self, point, step, value, objective):
        nonlocal swept
        swept += 1
        check(point)
        got = move(self, point, step, value, objective)
        if got[1]:
            check(got[1][2])
        return got

    monkeypatch.setattr(ArrowKernel, "slack", slack_in_box)
    monkeypatch.setattr(ArrowKernel, "move", move_in_box)
    for objective in ("gamma23", "gamma1"):
        for resolution, iterations in ((8, 0), (9, 40), (12, 80)):
            numeric_search(case, objective, resolution=resolution, iterations=iterations)
    assert asked > 0 and swept > 0


def edge_points(slack, gammas):
    """``gammas`` scaled towards 0 by the largest factor lo in [0, 1],
    bisected to 60 bits, at which ``slack`` accepts, and by hi, the
    bisection's other end (1 if ``slack`` accepts ``gammas``): Gamma = 0
    is always feasible, and where a refine walk ends, its sweeps meet the
    edge of the feasible set."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if slack(tuple(g * mid for g in gammas)) is None:
            hi = mid
        else:
            lo = mid
    return tuple(g * lo for g in gammas), tuple(g * hi for g in gammas)


@st.composite
def move_setups(draw):
    """A kernel, a point of the box, a refine sweep's step, an objective
    and the value a move must not fall below: each gamma a grid value, a
    box edge or any value in [0, 1], and half the points moved to the
    edge of the feasible set; the
    step ``cell`` at a resolution halved 0 to 40 times; the value the
    point's objective, the adjacent floats, a step away or anywhere
    within two steps."""
    kernel = ArrowKernel(draw(st.sampled_from(CASES)))
    resolution = draw(st.integers(8, 12))
    gamma_axis, _ = axes(resolution)
    point = tuple(draw(st.one_of(st.sampled_from(gamma_axis), st.sampled_from((0.0, 1.0)),
                                 st.floats(0.0, 1.0)))
                  for _ in range(3))
    if draw(st.booleans()):
        point = edge_points(kernel.slack, point)[0]
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
    # in its order; its objective and
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


def check_first_block(kernel, g1, axis, order):
    """``first_block`` against ``slack`` block by block: it returns the
    first block ``slack`` accepts, and None on the blocks before it."""
    blocks = [(axis[i2], axis[i3]) for i2, i3 in order]
    first = next((k for k, block in enumerate(blocks)
                  if kernel.slack((g1,) + block) is not None), None)
    got = kernel.first_block(g1, axis, order)
    assert got == (None if first is None else blocks[first]), (g1, got)
    if first is not None:
        assert kernel.first_block(g1, axis, order[:first]) is None, g1


@pytest.mark.parametrize("case", CASES)
def test_first_block_is_the_first_block_slack_accepts(case):
    # every gamma1 slab of every grid from resolution 8 to 40, in both
    # objectives' block orders
    kernel = ArrowKernel(case)
    for resolution in range(8, 41):
        gamma_axis, _ = axes(resolution)
        for order in block_orders(resolution).values():
            for g1 in gamma_axis:
                check_first_block(kernel, g1, gamma_axis, order)


@pytest.mark.parametrize("case", CASES)
def test_first_block_where_a_verdict_flips(case):
    # gamma1 bisected to the two adjacent floats between which a block's
    # slack verdict flips: there the determinant rounds to within a few
    # ulps of 0, often to 0 itself, so a verdict from reassociated float
    # operations or from det > 0 would differ from slack's on some block
    kernel = ArrowKernel(case)
    flips = 0
    for resolution in (8, 9, 13, 20):
        gamma_axis, _ = axes(resolution)
        for i2, i3 in itertools.product(range(resolution), repeat=2):
            def feasible(g1):
                return kernel.slack((g1, gamma_axis[i2], gamma_axis[i3])) is not None
            lo, hi = 0.0, 1.0
            if not feasible(lo) or feasible(hi):
                continue
            while math.nextafter(lo, hi) < hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            flips += 1
            for g1 in (lo, hi):
                check_first_block(kernel, g1, gamma_axis, [(i2, i3)])
    assert flips > 0


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), resolution=st.integers(8, 40),
       objective=st.sampled_from(("gamma23", "gamma1")), g1=st.floats(0.0, 1.0))
def test_first_block_off_the_grid(case, resolution, objective, g1):
    # any float gamma1 in [0, 1]: the verdicts are slack's to the bit
    # wherever they come from
    kernel = ArrowKernel(case)
    gamma_axis, _ = axes(resolution)
    check_first_block(kernel, g1, gamma_axis, block_orders(resolution)[objective])


def boundary_points(case):
    """Points on and within 1e-9 of the analytic optimum's boundary."""
    gam = {"3bit": (F(7, 127), F(112, 127)), "2bit": (F(1, 7), F(4, 7))}[case]
    pts = []
    for scale in (1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9):
        g1, g2 = float(gam[0]), min(1.0, float(gam[1]) * scale)
        pts.append((g1, g2, g2))
        pts.append((g2, g1, g1))
    return pts


@pytest.mark.parametrize("case", CASES)
def test_slack_on_the_boundary(case):
    gf = float_gram(case)
    kernel = ArrowKernel(case)
    # each point's lambda_min is at least 1.6e-10 from -t, so every verdict is checked
    assert all(check_slack(kernel.slack, p, reference_matrix(gf, p + corner_flags(case)))
               for p in boundary_points(case))


@pytest.mark.parametrize("case", CASES)
def test_slack_is_flag_slack_at_the_corner_flags(case):
    # the kernel drops the products by the corner flags +-1, which are
    # exact: its slack is flag_slack's at the corner flags to the bit (repr
    # tells signed zeros apart), on the grids of resolution 8 to 13, at
    # random points with gammas of 0 or 1 among them, and either side of
    # where the verdict flips along rays from Gamma = 0
    kernel = ArrowKernel(case)
    corner = corner_flags(case)
    rng = random.Random(f"corner-slack:{case}")
    points = [p for resolution in range(8, 14) for p in gamma_points(resolution)]
    points += [tuple(rng.random() for _ in range(3)) for _ in range(10000)]
    points += [tuple(rng.choice((0.0, 1.0, rng.random())) for _ in range(3))
               for _ in range(10000)]
    for _ in range(1000):
        points += edge_points(lambda p: flag_slack(case, p + corner),
                              tuple(rng.random() for _ in range(3)))
    rejected = 0
    for p in points:
        want = flag_slack(case, p + corner)
        rejected += want is None
        assert repr(kernel.slack(p)) == repr(want), p
    assert 0 < rejected < len(points)


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
