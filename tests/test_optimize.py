import functools
import itertools
import math
import re
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probclone import gamesim, optimize
from probclone.feasibility import (ArrowKernel, EfficiencyVector, FlagOverlaps,
                                   build_matrix, case_params, corner,
                                   intersection_x0, intersection_x0_text, is_psd,
                                   reduce, s_cap, vw_boundary)
from probclone._exact import SURD_TRIAL_BOUND, surd_text
from probclone.optimize import (_compass_refine, _objective_fn, analytic_optimum,
                                equal_gamma_optimum, numeric_search)
from probclone.phasestate import case_gram
from test_kernel import BOX_HI, BOX_LO, check_slack, compass_candidates


def test_case_gram_matches_display():
    g3 = case_gram("3bit")
    assert g3.entries == ((1, F(-1, 4), F(1, 4)), (F(-1, 4), 1, 0), (F(1, 4), 0, 1))
    g2 = case_gram("2bit")
    assert g2.entries == ((1, F(-1, 2), F(-1, 2)), (F(-1, 2), 1, 0), (F(-1, 2), 0, 1))


# ---------------------------------------------------------------------------
# analytic optima
# ---------------------------------------------------------------------------

def test_analytic_three_bit():
    t0 = time.perf_counter()
    r = analytic_optimum("3bit")
    elapsed = time.perf_counter() - t0
    assert r.gammas_exact == ("7/127", "112/127", "112/127")
    assert r.value_exact == "224/127"
    assert r.certificate.is_exact
    assert r.certificate.det() == 0
    assert is_psd(r.certificate)
    assert elapsed < 1.0


def test_analytic_two_bit():
    r = analytic_optimum("2bit")
    assert r.gammas_exact == ("1/7", "4/7", "4/7")
    assert r.value_exact == "8/7"
    assert r.certificate.det() == 0
    assert is_psd(r.certificate)


def test_analytic_gamma1_mirror():
    # swapping which efficiency is maximised mirrors the same corner
    r3 = analytic_optimum("3bit", "gamma1")
    assert r3.gammas_exact == ("112/127", "7/127", "7/127")
    assert r3.certificate.det() == 0 and is_psd(r3.certificate)
    r2 = analytic_optimum("2bit", "gamma1")
    assert r2.gammas_exact == ("4/7", "1/7", "1/7")
    assert r2.certificate.det() == 0 and is_psd(r2.certificate)


def test_optimum_sits_on_feasibility_boundary():
    # bumping the two large efficiencies by epsilon breaks feasibility
    for case, gam in (("3bit", (F(7, 127), F(112, 127), F(112, 127))),
                      ("2bit", (F(1, 7), F(4, 7), F(4, 7)))):
        flags = FlagOverlaps(*case_params(case).signs)
        for eps in (1e-4, 1e-3):
            bumped = EfficiencyVector((float(gam[0]), float(gam[1]) + eps,
                                       float(gam[2]) + eps))
            point = build_matrix(case, bumped, flags)
            assert not is_psd(point)


def test_monotone_tradeoff_along_boundary():
    # along the slice parabola, pushing gamma2 up forces gamma1 down
    from probclone.feasibility import gammas_from_xy, reduce as reduce_qs
    for case in ("2bit", "3bit"):
        flags = FlagOverlaps(*case_params(case).signs)
        q, s = reduce_qs(flags, case)
        c0 = case_params(case).c0
        xs = [0.02 + 0.9 * float(intersection_x0(q, s, case)) * i / 30
              for i in range(31)]
        pairs = []
        for x in xs:
            y = float(c0) - float(q) * x + float(s) * x * x
            pairs.append(gammas_from_xy(x, min(y, 2 * 1.0)))
        for (a1, a2), (b1, b2) in zip(pairs, pairs[1:]):
            if b2 < a2:     # gamma2 decreasing in x
                assert b1 > a1


# ---------------------------------------------------------------------------
# numeric search
# ---------------------------------------------------------------------------

def test_numeric_three_bit_reaches_corner():
    t0 = time.perf_counter()
    r = numeric_search("3bit", "gamma23", resolution=9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    assert abs(r.value - 224 / 127) <= 1e-4
    assert r.gammas[1] >= 0.88188
    assert r.value <= 224 / 127 + 1e-6
    assert is_psd(r.certificate)


def test_numeric_two_bit_beats_published_numeric_baseline():
    r = numeric_search("2bit", "gamma23", resolution=9)
    assert r.gammas[1] >= 0.571228
    assert r.value >= 2 * 0.57122
    assert r.value <= 8 / 7 + 1e-6


def test_numeric_gamma1_objective():
    # the achievable single-state efficiency is capped by the same corner,
    # mirrored; it does not approach 1
    r = numeric_search("2bit", "gamma1", resolution=9)
    assert abs(r.value - 4 / 7) <= 1e-4
    r3 = numeric_search("3bit", "gamma1", resolution=9)
    assert abs(r3.value - 112 / 127) <= 1e-4


def test_numeric_deterministic():
    # a call with another kernel and objective in between would change the
    # second result if any refine state outlived its call
    a = numeric_search("2bit", "gamma23", resolution=8)
    numeric_search("3bit", "gamma1", resolution=8)
    b = numeric_search("2bit", "gamma23", resolution=8)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("case", ("3bit", "2bit"))
def test_numeric_search_keeps_no_per_point_memo(case):
    # without refine sweeps the search's only state is its grid scan; a memo
    # of verdicts by point grows as resolution**3 and held 5.5-6.1 MB at this size
    tracemalloc.start()
    try:
        numeric_search(case, resolution=32, iterations=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


#: (resolution, iterations, case, objective) whose numeric optimum, found by
#: a kernel that accepted det(M + DEFAULT_TOL*I) >= 0, sat at closed-form
#: lambda_min -1.0000001e-9 and failed its own certificate
CERTIFICATE_EDGE_SEARCHES = [
    (resolution, iterations, "3bit", "gamma23")
    for resolution in (8, 9, 13) for iterations in (50, 60, 80)
] + [(12, iterations, "3bit", "gamma1") for iterations in (50, 60, 80)] + [
    (13, iterations, "2bit", "gamma23") for iterations in (50, 60, 80)]


@pytest.mark.parametrize("resolution, iterations, case, objective",
                         CERTIFICATE_EDGE_SEARCHES)
def test_numeric_optimum_passes_its_certificate(resolution, iterations, case, objective):
    # the kernel's margin is half the certificate's, so the closed form's
    # rounding near lambda_min = -t cannot fail the reported optimum
    r = numeric_search(case, objective, resolution=resolution, iterations=iterations)
    assert is_psd(r.certificate)
    assert r.to_json()["certificate"]["psd"] is True


def test_numeric_search_checks_its_certificate(monkeypatch):
    # a slack that accepts every point leaves the grid's block verdicts to
    # first_block, but at 0 iterations no walk moves, so the best slab ties
    # its walk end and its flag walk takes the first pair, (1, 1): the grid
    # point first_block found feasible at the corner flags, (2/7, 6/7, 6/7)
    # at resolution 8, is not feasible there, and the search must not report it
    monkeypatch.setattr(ArrowKernel, "slack", lambda self, point: 0.0)
    with pytest.raises(AssertionError, match="numeric optimum failed"):
        numeric_search("3bit", resolution=8, iterations=0)


def test_numeric_search_checks_its_certificate_from_the_block_tables(monkeypatch):
    # the grid's block verdicts come from first_block, not slack: when both
    # accept every point, every slab's best block is (1, 1) and every slab
    # ties, so the flag walk leads the grid to Gamma = (1, 1, 1) and flags (1, 1)
    monkeypatch.setattr(ArrowKernel, "slack", lambda self, point: 0.0)
    monkeypatch.setattr(ArrowKernel, "first_block",
                        lambda self, g1, axis, order, flags: (axis[-1], axis[-1]))
    with pytest.raises(AssertionError, match="numeric optimum failed"):
        numeric_search("3bit", resolution=8, iterations=0)


@pytest.mark.parametrize("construct", [
    analytic_optimum, equal_gamma_optimum,
    functools.partial(numeric_search, resolution=8, iterations=0)])
def test_every_optimum_checks_its_certificate(monkeypatch, construct):
    # each constructor reports through the one certified path, so a failing
    # verdict raises whatever the route
    monkeypatch.setattr(optimize, "is_psd", lambda point: False)
    with pytest.raises(AssertionError,
                       match="optimum failed its own feasibility certificate"):
        construct("3bit")


OPT3 = (F(7, 127), F(112, 127), F(112, 127))

CASE_ENTRIES = {
    "analytic_optimum": analytic_optimum,
    "equal_gamma_optimum": equal_gamma_optimum,
    "numeric_search": numeric_search,
    "case_gram": case_gram,
    "build_matrix": lambda case: build_matrix(case, EfficiencyVector((0, 0, 0)),
                                              FlagOverlaps()),
    "ArrowKernel": ArrowKernel,
    "case_params": case_params,
    "corner": corner,
    "reduce": functools.partial(reduce, FlagOverlaps()),
    "vw_boundary_max_s": lambda case: vw_boundary(case, "max_s", 0),
    "vw_boundary_min_s": lambda case: vw_boundary(case, "min_s", 0),
    "score_no_clone_exact": gamesim.score_no_clone_exact,
    "score_no_clone_enumerated": gamesim.score_no_clone_enumerated,
    "score_clone_exact": lambda case: gamesim.score_clone_exact(OPT3, case),
    "score_clone_enumerated": lambda case: gamesim.score_clone_enumerated(OPT3, case),
    "simulate_no_clone": lambda case: gamesim.simulate_no_clone(case, trials=10),
    "simulate_clone": lambda case: gamesim.simulate_clone(OPT3, case, trials=10),
}


@pytest.mark.parametrize("entry", CASE_ENTRIES)
@pytest.mark.parametrize("case", ["4bit", "x", ""])
def test_unknown_case_is_a_value_error(entry, case):
    with pytest.raises(ValueError, match=r"^case must be one of \('2bit', '3bit'\), got "):
        CASE_ENTRIES[entry](case)


@pytest.mark.parametrize("entry", [analytic_optimum, numeric_search])
def test_unknown_objective_is_a_value_error(entry):
    with pytest.raises(ValueError, match=r"^objective must be one of \('gamma23', 'gamma1'\)"):
        entry("3bit", "equal")


def test_numeric_resolution_floor():
    with pytest.raises(ValueError):
        numeric_search("2bit", resolution=4)


def test_slack_is_the_schur_complement_of_the_point_api_matrix():
    # the kernel's slack is the Schur complement of the point API's float M
    # plus t*I and its verdict is the point API's closed form against -t, at
    # uniform points, at points with a zero flag component or an efficiency
    # of 0 or 1, and at refine-sized steps off the resolution-9 grid
    import random
    rng = random.Random(13)
    grid = [i / 8 for i in range(9)]
    for case in ("2bit", "3bit"):
        kernel = ArrowKernel(case)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1),
                   rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2000)]
        for _ in range(2000):
            p = [rng.choice((0.0, 1.0, rng.uniform(0, 1))) for _ in range(3)]
            p += [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            p[rng.choice((3, 4))] = 0.0
            points.append(tuple(p))
        for _ in range(3000):
            p = [rng.choice(grid) for _ in range(3)] + [2 * rng.choice(grid) - 1
                                                        for _ in range(2)]
            d = rng.randrange(5)
            p[d] += rng.choice((1.0, -1.0)) / 8 / 2 ** rng.randrange(40)
            p[d] = min(max(p[d], 0.0 if d < 3 else -1.0), 1.0)
            points.append(tuple(p))
        checked = 0
        for p in points:
            point = build_matrix(case, EfficiencyVector(p[:3]),
                                 FlagOverlaps(p12=p[3], p13=p[4]))
            checked += check_slack(kernel, p, point.matrix)
        assert checked == len(points)    # no point lies in the 1e-12 band


def exhaustive_refine(start, objective, kernel, lo, hi, cell, iterations):
    """Reference pattern search for ``_compass_refine`` over the box
    [lo, hi] of the first len(cell) coordinates: every candidate gets a
    ``kernel.slack`` verdict, and nothing is memoised. With three steps
    it walks the gammas as ``_compass_refine`` does; with five it also
    moves both flags, 14 candidates a sweep."""
    obj = _objective_fn(objective)
    point = tuple(start)
    value = obj(point)
    slack = kernel.slack(point)
    steps = list(cell)
    shrinks = 0
    evals = 0
    sweeps = 0
    while shrinks < iterations and sweeps < optimize.MAX_SWEEPS:
        sweeps += 1
        best_move = None
        for cand in compass_candidates(point, steps, lo, hi):
            evals += 1
            eig = kernel.slack(cand)
            if eig is None:
                continue
            key = (obj(cand), eig, cand)
            if best_move is None or key > best_move:
                best_move = key
        accepted = False
        if best_move is not None:
            v, e, cand = best_move
            if v > value or (v == value and e > slack + 1e-15):
                point, value, slack = cand, v, e
                accepted = True
        if not accepted:
            steps = [s_ / 2.0 for s_ in steps]
            shrinks += 1
    return value, point, evals


def _draw_refine_box(draw):
    """A kernel, objective, grid axes and the refine's gamma box at a
    resolution, and a shrink budget. The flag axes are the grid's: a walk
    carries its start's flags, whatever they are."""
    case = draw(st.sampled_from(("3bit", "2bit")))
    objective = draw(st.sampled_from(("gamma23", "gamma1")))
    resolution = draw(st.integers(8, 12))
    iterations = draw(st.integers(1, 40))
    gamma_axis = [i / (resolution - 1) for i in range(resolution)]
    flag_axis = [-1.0 + 2.0 * i / (resolution - 1) for i in range(resolution)]
    box = ([0.0] * 3, [1.0] * 3, [1.0 / (resolution - 1)] * 3)
    return (ArrowKernel(case), objective, [gamma_axis] * 3 + [flag_axis] * 2, box,
            iterations)


@st.composite
def refine_setups(draw):
    """A kernel, objective, gamma box at a resolution, shrink budget and
    feasible start point: gammas in the box and flags in [-1, 1], each a
    grid value or an arbitrary float."""
    kernel, objective, axes, box, iterations = _draw_refine_box(draw)
    start = tuple(draw(st.one_of(st.sampled_from(axis), st.floats(lo, hi)))
                  for axis, lo, hi in zip(axes, BOX_LO, BOX_HI))
    assume(kernel.slack(start) is not None)
    return kernel, objective, start, box, iterations


@st.composite
def shared_refine_setups(draw):
    """A ``refine_setups`` kernel, objective, box and shrink budget with 2-6
    feasible start points. Each lies on the grid within one cell of a
    drawn grid point, so that walks meet as the neighbouring slabs' walks
    of ``numeric_search`` do, or anywhere in the box."""
    kernel, objective, axes, box, iterations = _draw_refine_box(draw)
    centre = [draw(st.integers(0, len(axis) - 1)) for axis in axes]
    near = st.tuples(*(st.integers(max(i - 1, 0), min(i + 1, len(axis) - 1))
                       .map(axis.__getitem__) for i, axis in zip(centre, axes)))
    anywhere = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(BOX_LO, BOX_HI)))
    starts = draw(st.lists(st.one_of(near, anywhere), min_size=2, max_size=12))
    starts = [s for s in starts if kernel.slack(s) is not None][:6]
    assume(len(starts) >= 2)
    return kernel, objective, starts, box, iterations


@settings(max_examples=60, deadline=None)
@given(setup=refine_setups())
def test_pruned_search_matches_exhaustive(setup):
    kernel, objective, start, (lo, hi, cell), iterations = setup
    # the refine that skips verdicts finds what the exhaustive one does,
    # with the same evaluation count
    want = exhaustive_refine(start, objective, kernel, lo, hi, cell, iterations)
    assert _compass_refine(start, objective, kernel, cell[0], iterations) == want


def _walk_with_shared_tails(setup):
    # one tails dict for every walk, as numeric_search shares it across its
    # slabs; each walk must find what a lone exhaustive walk from its start
    # does, evaluation count included
    kernel, objective, starts, (lo, hi, cell), iterations = setup
    tails = {}
    for start in starts:
        want = exhaustive_refine(start, objective, kernel, lo, hi, cell, iterations)
        assert _compass_refine(start, objective, kernel, cell[0], iterations, tails) == want


@settings(max_examples=60, deadline=None)
@given(setup=shared_refine_setups())
def test_shared_tails_match_exhaustive(setup):
    _walk_with_shared_tails(setup)


@settings(max_examples=100, deadline=None)
@given(setup=refine_setups(), data=st.data())
def test_shared_tails_keep_the_sweep_cap(setup, data):
    # the walk from start passes a later state before its first shrink and
    # ends after `total` sweeps, each computed once. Under a cap below
    # `total`, walking the later state first stores a tail that the walk
    # from start reaches with too few sweeps left, so it must walk on to
    # the cap; walking start first stops it on the cap, so it must store
    # no tail for the later state's walk to reuse. Under a cap of `total`
    # the walk that goes second takes the other's tail and still finds
    # what a lone exhaustive walk does
    kernel, objective, start, (lo, hi, cell), iterations = setup
    move, moves = kernel.move, []
    kernel.move = lambda *args: moves.append(args) or move(*args)
    trail = {}
    _compass_refine(start, objective, kernel, cell[0], iterations, trail)
    del kernel.move
    # a walk stopped by the cap stores no tail, so it has no `total`: from
    # some off-grid starts the walk reaches the cap before the shrink budget
    assume((start, 0) in trail)
    total = trail[start, 0][3]
    assert total == len(moves) == len(trail)
    later = [point for point, shrinks in trail if shrinks == 0 and point != start]
    assume(later)
    walks = data.draw(st.permutations([start, data.draw(st.sampled_from(later))]))
    cap = data.draw(st.integers(1, total))
    tails = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "MAX_SWEEPS", cap)
        for point in walks:
            stored = dict(tails)
            want = exhaustive_refine(point, objective, kernel, lo, hi, cell, iterations)
            assert _compass_refine(point, objective, kernel, cell[0], iterations, tails) == want
            if cap < trail[point, 0][3]:
                assert tails == stored


@st.composite
def corner_refine_setups(draw):
    """A kernel, objective, resolution, shrink budget and feasible start at
    the corner flags, its gammas grid values or arbitrary floats in [0, 1]."""
    case = draw(st.sampled_from(("3bit", "2bit")))
    kernel, objective = ArrowKernel(case), draw(st.sampled_from(optimize.OBJECTIVES))
    resolution = draw(st.integers(8, 13))
    gamma_axis = [i / (resolution - 1) for i in range(resolution)]
    gammas = tuple(draw(st.one_of(st.sampled_from(gamma_axis), st.floats(0.0, 1.0)))
                   for _ in range(3))
    start = gammas + tuple(float(x) for x in case_params(case).signs)
    assume(kernel.slack(start) is not None)
    return kernel, objective, resolution, draw(st.integers(1, 40)), start


@settings(max_examples=60, deadline=None)
@given(setup=corner_refine_setups())
def test_flag_moves_change_no_walk_from_the_corner_flags(setup):
    # the lemma the refine's gamma-only box rests on: a flag move leaves the
    # objective as it is, and from the corner flags its computed slack is
    # never above the point's, so it is never accepted. The 5-D walk that
    # also moves both flags (14 candidates a sweep) ends where the gamma
    # walk does; only its candidate count differs
    kernel, objective, resolution, iterations, start = setup
    cell = [1.0 / (resolution - 1)] * 3
    flagged = exhaustive_refine(start, objective, kernel, BOX_LO, BOX_HI,
                                cell + [2.0 / (resolution - 1)] * 2, iterations)
    assert _compass_refine(start, objective, kernel, cell[0], iterations)[:2] == flagged[:2]


@pytest.mark.parametrize("case", ("3bit", "2bit"))
@pytest.mark.parametrize("objective", optimize.OBJECTIVES)
def test_shared_tails_leave_the_search_report_unchanged(case, objective,
                                                         monkeypatch):
    # numeric_search shares one tails dict among its slabs' walks; searches
    # whose walks each keep their own memo report the same JSON, the
    # evaluation count included
    runs = [(r, i) for r in (8, 9, 10) for i in (0, 1, 40)]

    def reports():
        return [numeric_search(case, objective, resolution=r, iterations=i).to_json()
                for r, i in runs]
    shared = reports()
    refine = optimize._compass_refine

    def unshared(*args):
        assert isinstance(args[5], dict)
        return refine(*args[:5], None)
    monkeypatch.setattr(optimize, "_compass_refine", unshared)
    assert reports() == shared


@pytest.mark.parametrize("case", ("3bit", "2bit"))
@pytest.mark.parametrize("objective", optimize.OBJECTIVES)
def test_walks_end_once_every_step_is_below_its_ulp(case, objective, monkeypatch):
    # a sweep with no candidate leaves every later sweep empty too, since
    # steps only shrink: the walk ends there and sweeps no more states. At
    # 2,000 shrinks every step is already below its gamma's ulp, so a
    # budget of 10**6 reports the same and stores no more tails
    refine = optimize._compass_refine
    memos = []

    def keep_memo(*args):
        memos.append(args[5])
        return refine(*args)
    monkeypatch.setattr(optimize, "_compass_refine", keep_memo)
    reports, sizes = [], []
    for iterations in (2000, 10**6):
        memos.clear()
        report = numeric_search(case, objective, resolution=8, iterations=iterations).to_json()
        assert report["meta"].pop("iterations") == iterations
        reports.append(report)
        sizes.append(max(len(memo) for memo in memos))
    assert reports[0] == reports[1]
    assert sizes[1] <= sizes[0]


def always_walk_search(case, objective, resolution, iterations):
    """Reference for ``numeric_search``'s grid: every block and flag verdict
    from ``slack``, and every feasible gamma1 slab's flag walk run, whether
    or not its grid point can win the final max over (value, point)."""
    obj = _objective_fn(objective)
    kernel = ArrowKernel(case)
    gamma_axis = [i / (resolution - 1) for i in range(resolution)]
    flag_axis = [-1.0 + 2.0 * i / (resolution - 1) for i in range(resolution)]
    corner_flags = tuple(float(x) for x in case_params(case).signs)
    flag_pairs = list(itertools.product(flag_axis[::-1], repeat=2))
    blocks = sorted(itertools.product(gamma_axis, repeat=2),
                    key=lambda block: (obj((0.0,) + block), block), reverse=True)
    slab_best = []
    for g1 in gamma_axis:
        block = next((b for b in blocks if kernel.slack((g1,) + b + corner_flags) is not None),
                     None)
        if block is not None:
            gammas = (g1,) + block
            top = next(f for f in flag_pairs if kernel.slack(gammas + f) is not None)
            slab_best.append((obj(gammas), gammas + top))
    tails = {}
    ends = [_compass_refine(best[:3] + corner_flags, objective, kernel, 1.0 / (resolution - 1),
                            iterations, tails)
            for _, best in sorted(slab_best, reverse=True)]
    value, point = max(slab_best + [end[:2] for end in ends])
    return optimize._certified(
        case, objective, "numeric", point[:3], FlagOverlaps(p12=point[3], p13=point[4]),
        value=float(value),
        evaluations=resolution ** 5 + sum(n_ev for _, _, n_ev in ends),
        meta={"resolution": resolution, "iterations": iterations})


@pytest.mark.parametrize("case", ("3bit", "2bit"))
@pytest.mark.parametrize("objective", optimize.OBJECTIVES)
def test_grid_skips_only_verdicts_that_cannot_change_the_report(case, objective):
    # the search's grid takes its block verdicts from per-slab tables and
    # walks the flags only of slabs whose grid value ties the best walk
    # end; it reports the JSON of the grid that asks slack about every
    # block and walks every slab's flags. At 0 iterations no walk moves,
    # so the best slab ties and its flag walk decides the reported flags
    for resolution in range(8, 14):
        for iterations in (0, 1, 40):
            assert (numeric_search(case, objective, resolution, iterations).to_json()
                    == always_walk_search(case, objective, resolution, iterations).to_json())


def test_default_search_asks_slack_only_at_the_corner_flags(monkeypatch):
    # at the default resolution and shrink budget every best walk end lies
    # above every grid value, so no slab's flag walk runs
    slack = ArrowKernel.slack
    asked = []

    def record(self, point):
        asked.append(point)
        return slack(self, point)
    monkeypatch.setattr(ArrowKernel, "slack", record)
    for case in ("3bit", "2bit"):
        corner_flags = tuple(float(x) for x in case_params(case).signs)
        for objective in optimize.OBJECTIVES:
            asked.clear()
            numeric_search(case, objective, resolution=9, iterations=40)
            assert asked and all(point[3:] == corner_flags for point in asked), (case, objective)


# ---------------------------------------------------------------------------
# equal efficiencies
# ---------------------------------------------------------------------------

def test_equal_gamma_two_bit():
    r = equal_gamma_optimum("2bit")
    assert abs(r.value - (6 - 2 * math.sqrt(2)) / 7) <= 1e-9
    assert r.value == pytest.approx(0.4530818393219728, abs=1e-12)
    assert r.value_exact == "(6-2*sqrt(2))/7"
    assert is_psd(r.certificate)


def test_equal_gamma_three_bit():
    r = equal_gamma_optimum("3bit")
    # independent closed form at the corner: (124 - 24*sqrt(2)) / 127
    assert r.value == pytest.approx((124 - 24 * math.sqrt(2)) / 127, abs=1e-6)
    assert is_psd(r.certificate)
    assert r.gammas[0] == r.gammas[1] == r.gammas[2]


@pytest.mark.parametrize("case, value, text", [
    ("2bit", 0.4530818393219728, "(6-2*sqrt(2))/7"),
    ("3bit", 0.7091249960869742, "(124-24*sqrt(2))/127"),
])
def test_equal_gamma_closed_form_pinned(case, value, text):
    # the bits the earlier golden-section search and 2-bit override gave
    r = equal_gamma_optimum(case)
    assert r.value == value and r.gammas == (value, value, value)
    assert r.mode == "analytic" and r.value_exact == text
    assert r.meta == {"q": -float(case_params(case).q_bound),
                      "s": float(s_cap(-case_params(case).q_bound, case))}
    # the exact text, evaluated to 40 digits, lands within 1 ulp of value
    a, b, d, c = map(int, re.fullmatch(r"\((\d+)-(\d+)\*sqrt\((\d+)\)\)/(\d+)",
                                       text).groups())
    with localcontext() as ctx:
        ctx.prec = 40
        exact = (a - b * Decimal(d).sqrt()) / c
        assert abs(Decimal(value) - exact) <= Decimal(math.ulp(value))


def test_surd_text_forms():
    assert surd_text(F(3, 2), F(1, 2), F(7, 4)) == "(6-2*sqrt(2))/7"
    assert surd_text(F(31, 16), F(9, 32), F(127, 64)) == "(124-24*sqrt(2))/127"
    # 288 = 12^2 * 2 and a perfect-square discriminant
    assert surd_text(F(1), F(288), F(1)) == "(1-12*sqrt(2))/1"
    assert surd_text(F(3), F(4), F(2)) == "1/2"


SURD = re.compile(r"\((-?\d+)-(-?\d+)\*sqrt\((\d+)\)\)/(\d+)")


def rationals(lo, hi):
    """Fractions n/m with n in [lo, hi] and m in [1, hi], small or large."""
    return st.builds(F, st.integers(lo, hi) | st.integers(max(lo, -30000), 30000),
                     st.integers(1, hi) | st.integers(1, 30000))


@settings(max_examples=500, deadline=None)
@given(p=rationals(-10**30, 10**30), r=rationals(-10**30, 10**30).filter(bool),
       disc=rationals(1, 10**40))
# a square of a prime above the trial bound, left for the cofactor test
@example(p=F(0), disc=F(3 * 1009 ** 2), r=F(1))
def test_surd_text_is_exact(p, disc, r):
    # parsed back, (A - B*sqrt(d))/C is (p - sqrt(disc))/r: A/C = p/r and
    # B/C = sqrt(disc)/r, so (B/C)^2 * d = disc/r^2 with B/C of r's sign
    text = surd_text(p, disc, r)
    parts = SURD.fullmatch(text)
    if parts is None:
        root = F(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
        assert root * root == disc and F(text) == (p - root) / r
        return
    a, b, d, c = map(int, parts.groups())
    assert F(a, c) == p / r
    assert F(b, c) ** 2 * d == disc / r ** 2 and (b > 0) == (r > 0)
    if disc.numerator * disc.denominator < SURD_TRIAL_BOUND ** 3:
        # the docstring's guarantee: d is squarefree
        squares = np.arange(2, math.isqrt(d) + 1, dtype=np.int64) ** 2
        assert not np.any(d % squares == 0), d


def test_surd_text_of_a_large_radicand_returns_promptly():
    # the square part of n*m = 55421888100506841682944 (76 bits) was once
    # found by scanning k down from isqrt(n*m), about 2^38 steps
    q, s = F(-469, 16032), F(1270509, 1280384)
    start = time.perf_counter()
    text = intersection_x0_text(q, s, "3bit")
    assert time.perf_counter() - start < 1.0
    assert text == "(632089570-14*sqrt(215628374381581))/636525009"
    a, b, d, c = map(int, SURD.fullmatch(text).groups())
    x0 = intersection_x0(q, s, "3bit")
    assert abs((a - b * math.sqrt(d)) / c - x0) <= 1e-15


def test_equal_gamma_corner_is_the_max():
    # sweep oracle over the cap curve: nothing beats the corner
    for case in ("2bit", "3bit"):
        qb = float(case_params(case).q_bound)
        corner = float(intersection_x0(-qb, s_cap(-qb, case), case))
        for i in range(200):
            q = -qb + 2 * qb * i / 199
            assert intersection_x0(q, s_cap(q, case), case) <= corner + 1e-12
