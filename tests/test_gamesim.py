import copy
import random
from bisect import bisect_right
from fractions import Fraction as F
from functools import lru_cache
from math import nextafter, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probclone import gamesim
from probclone.feasibility import EfficiencyVector
from probclone.funcspace import TaskFamily, TaskInstance, family
from probclone.gamesim import (CLAIMED_GUESS_CHANCE, _slot_table,
                               clone_intermediates, score_clone_enumerated,
                               score_clone_exact, score_no_clone_enumerated,
                               score_no_clone_exact, simulate_clone,
                               simulate_no_clone)
from probclone.phasestate import overlap2, phase_state

OPT3 = EfficiencyVector((F(7, 127), F(112, 127), F(112, 127)))
OPT2 = EfficiencyVector((F(1, 7), F(4, 7), F(4, 7)))


def binom_band(p, n):
    return 3 * sqrt(float(p) * (1 - float(p)) / n)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_no_clone_exact():
    assert score_no_clone_exact("3bit") == F(43, 64)
    assert float(score_no_clone_exact("3bit")) == 0.671875
    assert score_no_clone_exact("2bit") == F(11, 16)


def test_chance_term_values():
    assert CLAIMED_GUESS_CHANCE["3bit"] == F(1, 64)
    assert CLAIMED_GUESS_CHANCE["2bit"] == F(1, 16)


def test_clone_exact_at_optimum():
    assert score_clone_exact(OPT3, "3bit") == F(3749, 4064)
    inter = clone_intermediates(OPT3)
    assert inter["p_success"] == F(77, 127)
    assert inter["posterior"] == F(4, 5)
    assert score_clone_exact(OPT2, "2bit") == F(41, 56)


def literal_score_clone(eff, case):
    """The published cloning scores as the per-case literals they reduce to."""
    s = eff[1] + eff[2]
    return (22 + 21 * s) / 64 if case == "3bit" else (6 + 5 * s) / 16


_GAMMA = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310,
                                    0.5, 1.0)),
                   st.floats(0.0, 1.0), st.fractions(0, 1, max_denominator=10**6))


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(("3bit", "2bit")), gammas=st.tuples(_GAMMA, _GAMMA, _GAMMA))
def test_clone_exact_keeps_every_digit(case, gammas):
    # the score from the chance term equals the literal form: the same
    # Fraction, or a float with the same repr
    eff = EfficiencyVector(gammas)
    got, want = score_clone_exact(eff, case), literal_score_clone(eff, case)
    if isinstance(want, F):
        assert isinstance(got, F) and got == want
    else:
        assert type(got) is float and repr(got) == repr(want)


def test_clone_exact_edge_cases():
    assert score_clone_exact(EfficiencyVector((0, 0, 0)), "3bit") == F(11, 32)
    assert score_clone_exact(EfficiencyVector((1, 1, 1)), "3bit") == 1
    inter = clone_intermediates(EfficiencyVector((1, 1, 1)))
    assert inter["p_success"] == 1
    assert inter["posterior"] is None


def test_headline_inequality():
    assert score_clone_exact(OPT3, "3bit") > score_no_clone_exact("3bit")
    assert score_clone_exact(OPT2, "2bit") > score_no_clone_exact("2bit")


# ---------------------------------------------------------------------------
# enumerated strategy means
# ---------------------------------------------------------------------------

def test_no_clone_enumerated():
    """The 2-bit strategy mean reproduces the published closed form exactly;
    the 3-bit mean does not: the wrong-branch measurement distribution is
    9/16-vs-1/16, which prices the both-right chance at 1/256, not 1/64."""
    assert score_no_clone_enumerated("2bit") == F(11, 16)
    assert score_no_clone_enumerated("3bit") == F(171, 256)
    assert score_no_clone_enumerated("3bit") == F(2, 3) + F(1, 3) * F(1, 256)


def test_clone_enumerated():
    assert score_clone_enumerated(OPT2, "2bit") == score_clone_exact(OPT2, "2bit")
    assert score_clone_enumerated(OPT3, "3bit") == F(14981, 16256)
    # linear in gamma2+gamma3 with the measured 1/256 chance term
    for g in (EfficiencyVector((F(1, 3), F(1, 2), F(1, 4))),
              EfficiencyVector((0, 0, 0)),
              EfficiencyVector((F(1, 10), F(9, 10), F(1, 2)))):
        s = g[1] + g[2]
        assert score_clone_enumerated(g, "3bit") == (86 + 85 * s) / 256


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(("2bit", "3bit")),
       gammas=st.tuples(*[st.fractions(0, 1, max_denominator=1000)] * 3),
       margins=st.none())
@example(case="3bit", gammas=tuple(OPT3), margins=(F(2037, 8128), F(8245, 32512)))
@example(case="2bit", gammas=tuple(OPT2), margins=(F(5, 112), F(5, 112)))
def test_cloning_breaks_even_at_unit_gamma_sum(case, gammas, margins):
    """Both score pairs differ by (1 - c)(s - 1)/3, s = gamma2 + gamma3, with
    c the pair's both-guesses chance: gamma1 drops out, and cloning wins
    iff gamma2 + gamma3 > 1. At the optimum the (published, enumerated)
    margins are ``margins``."""
    eff = EfficiencyVector(gammas)
    s = gammas[1] + gammas[2]
    c = CLAIMED_GUESS_CHANCE[case]
    published = score_clone_exact(eff, case) - score_no_clone_exact(case)
    assert published == (1 - c) * (s - 1) / 3
    no_clone = score_no_clone_enumerated(case)
    c_measured = 3 * no_clone - 2
    assert c_measured == {"3bit": F(1, 256), "2bit": F(1, 16)}[case]
    enumerated = score_clone_enumerated(eff, case) - no_clone
    assert enumerated == (1 - c_measured) * (s - 1) / 3
    if margins is not None:
        assert (published, enumerated) == margins


def literal_score_clone_enumerated(eff, case):
    """The cloning mean as the per-secret formula eff*c*c + (1 - eff)*f*f,
    c and f the hit chances after a successful and a failed clone."""
    fam, hit = family(case), _slot_table(case).hit
    total = 0
    for i, f0 in enumerate(fam.s_f0):
        cloned, failed = hit[f0.table, f0.table], hit[fam.s1_f0.table, f0.table]
        total += eff[i] * cloned * cloned + (1 - eff[i]) * failed * failed
    return total / len(fam.s_f0)


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(("3bit", "2bit")), gammas=st.tuples(_GAMMA, _GAMMA, _GAMMA))
def test_clone_enumerated_keeps_every_digit(case, gammas):
    # the mean over branch rows equals the per-secret formula: the same
    # Fraction, or a float with the same repr
    eff = EfficiencyVector(gammas)
    got, want = score_clone_enumerated(eff, case), literal_score_clone_enumerated(eff, case)
    assert type(got) is type(want) and repr(got) == repr(want)


_MEAN_ROW = st.lists(st.tuples(st.fractions(0, 1, max_denominator=1000), st.integers(0, 2)),
                     min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(("3bit", "2bit")), rows=st.tuples(*[_MEAN_ROW] * 3))
def test_mean_is_the_direct_sum(case, rows):
    """``_mean`` of any rational rows is sum(p * hit^2) / 3, with each hit
    chance averaged directly from the slots' p_hit."""
    fam, slots = family(case), _slot_table(case).slots
    branches = tuple(tuple((p, fam.s_f0[k].table) for p, k in row) for row in rows)
    direct = F(0)
    for f0, row in zip(fam.s_f0, branches):
        for p, k in row:
            by_f = slots[k, f0.table]
            direct += p * (sum(s.p_hit for s in by_f.values()) / len(by_f)) ** 2
    assert gamesim._mean(case, branches) == direct / 3


def test_wrong_branch_chance_measured_not_claimed():
    """Direct exact computation of the wrong-branch both-right probability:
    equals the claim for 2-bit, is 1/256 (not 1/64) for 3-bit."""
    for case, expected in (("2bit", F(1, 16)), ("3bit", F(1, 256))):
        fam = family(case)
        f0 = fam.s1_f0
        f0_hat = fam.s2_f0_by_query[f0.evaluate(0)]
        slots = _slot_table(case).slots[f0_hat.table, f0.table]
        labels = fam.pair_label_by_table
        cand = fam.candidates(f0)
        slot = F(0)
        for f in cand:
            row = slots[f.table].row
            truth = labels[f0.table ^ f.table]
            slot += sum((p for p, m in zip(row, fam.s2)
                         if labels.get(f0_hat.table ^ m.table) == truth), F(0))
        slot /= len(cand)
        assert slot * slot == expected
    assert F(1, 256) != CLAIMED_GUESS_CHANCE["3bit"]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_no_clone_matches_enumerated_mean():
    for case in ("2bit", "3bit"):
        r = simulate_no_clone(case, trials=100_000, seed=0)
        assert abs(r.simulated - float(r.enumerated)) <= binom_band(r.enumerated, r.trials)


def test_simulate_clone_matches_enumerated_mean():
    for eff, case in ((OPT2, "2bit"), (OPT3, "3bit")):
        r = simulate_clone(eff, case, trials=100_000, seed=0)
        assert abs(r.simulated - float(r.enumerated)) <= binom_band(r.enumerated, r.trials)


def test_simulate_clone_tracks_enumerated_for_arbitrary_efficiencies():
    rng = random.Random(55)
    for case in ("2bit", "3bit"):
        for _ in range(2):
            eff = EfficiencyVector(sorted(rng.uniform(0, 1) for _ in range(3)))
            r = simulate_clone(eff, case, trials=50_000, seed=rng.randrange(1000))
            assert abs(r.simulated - float(r.enumerated)) <= binom_band(r.enumerated, r.trials)


def test_three_bit_closed_form_visibly_off_at_low_efficiency():
    """At Gamma = 0 the 3-bit closed form (22/64) and the strategy's true
    mean (86/256) differ by 2/256, which is outside the 3 sigma band at
    1e5 trials; the report flags it instead of forcing agreement."""
    eff = EfficiencyVector((0, 0, 0))
    gap = abs(float(score_clone_exact(eff, "3bit"))
              - float(score_clone_enumerated(eff, "3bit")))
    assert gap == 2 / 256
    assert gap > binom_band(score_clone_exact(eff, "3bit"), 100_000)
    r = simulate_clone(eff, "3bit", trials=100_000, seed=0)
    assert abs(r.simulated - float(r.enumerated)) <= binom_band(r.enumerated, r.trials)
    assert r.within_3sigma is False


def test_simulate_clone_perfect_cloning_scores_one():
    r = simulate_clone(EfficiencyVector((1, 1, 1)), "3bit", trials=5000, seed=3)
    assert r.simulated == 1.0


def test_simulation_reproducible():
    a = simulate_no_clone("3bit", trials=30_000, seed=11)
    b = simulate_no_clone("3bit", trials=30_000, seed=11)
    assert a.simulated == b.simulated
    d = simulate_no_clone("3bit", trials=30_000, seed=12)
    assert d.simulated != a.simulated


def test_clone_report_intermediates():
    """The clone report carries the simulated success rate and failure
    posterior next to their exact values (77/127 and 4/5 at the 3-bit
    optimum); the posterior's band counts failures, not trials."""
    r = simulate_clone(OPT3, "3bit", trials=50_000, seed=5)
    assert r.p_success.exact == F(77, 127) and r.p_success.n == r.trials
    assert r.posterior.exact == F(4, 5)
    assert r.posterior.n == r.trials - r.p_success.count > 0
    for rate in (r.p_success, r.posterior):
        data = rate.to_json()
        assert data["simulated"] == rate.count / rate.n
        assert data["within_3sigma"] == (
            abs(data["simulated"] - data["exact_decimal"])
            <= binom_band(rate.exact, rate.n))
        assert data["within_3sigma"]
    data = r.to_json()
    assert data["p_success"]["exact"] == "77/127"
    assert data["posterior"]["exact"] == "4/5"
    assert "p_success" not in simulate_no_clone("3bit", trials=10).to_json()


def test_clone_report_posterior_undefined():
    # cloning never fails: no posterior at all
    data = simulate_clone(EfficiencyVector((1, 1, 1)), "2bit", trials=100).to_json()
    assert data["posterior"] is None
    assert data["p_success"]["simulated"] == 1.0
    # defined, but no failure drawn: the single trial at seed 0 clones
    r = simulate_clone(OPT3, "3bit", trials=1, seed=0)
    assert r.p_success.count == 1
    data = r.to_json()["posterior"]
    assert data["n"] == 0 and data["exact"] == "4/5"
    assert data["simulated"] is None and data["within_3sigma"] is None


def test_within_3sigma_flag_is_self_consistent():
    r = simulate_no_clone("3bit", trials=50_000, seed=1)
    band = binom_band(r.exact, r.trials)
    assert r.within_3sigma == (abs(r.simulated - float(r.exact)) <= band)


def test_trials_validation():
    with pytest.raises(ValueError):
        simulate_no_clone("3bit", trials=0)
    with pytest.raises(ValueError):
        simulate_clone(EfficiencyVector((2, 0, 0)), "3bit")


def test_trials_past_the_bound_refused_before_any_trial(monkeypatch):
    def no_trial(self, rng):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(TaskFamily, "sample_instance", no_trial)
    for trials in (gamesim.MAX_TRIALS + 1, 10 ** 10):
        with pytest.raises(ValueError, match=f"at most {gamesim.MAX_TRIALS}"):
            simulate_no_clone("3bit", trials=trials)
        with pytest.raises(ValueError, match=f"at most {gamesim.MAX_TRIALS}"):
            simulate_clone(OPT2, "2bit", trials=trials)


def test_score_report_json():
    r = simulate_clone(OPT2, "2bit", trials=10_000, seed=0)
    data = r.to_json()
    assert data["exact"] == "41/56"
    assert data["enumerated"] == "41/56"
    assert data["strategy"] == "clone"
    assert data["trials"] == 10_000
    assert 0 < data["simulated"] < 1


def test_slot_table_rows_and_cdfs():
    """Every slot row is an exact distribution, and its hit window is cut
    from the CDF of running Fraction sums rounded to float, which ends at
    exactly 1.0; the hit outcome's mass is p_hit, and the guesses of the
    secret assumed right (a successful clone) are certain."""
    for case in ("2bit", "3bit"):
        table = _slot_table(case)
        assert len(table.slots) == 9
        for (k, f0), by_f in table.slots.items():
            for slot in by_f.values():
                assert sum(slot.row) == 1
                cdf = [0.0] + [float(sum(slot.row[:i + 1]))
                               for i in range(len(slot.row) - 1)] + [1.0]
                hit = [i for i in range(len(slot.row))
                       if slot.window == (cdf[i], cdf[i + 1])]
                assert slot.p_hit in [slot.row[i] for i in hit]
                if k == f0:
                    assert slot.p_hit == 1


def test_slot_table_refuses_a_slot_without_one_right_outcome(monkeypatch):
    """Merge two pair sets under one label: a slot of the merged set now
    has two right outcomes, and the table is not built."""
    fam = copy.copy(family("3bit"))
    merged, kept = list(fam.pair_sets)[:2]
    fam.pair_label_by_table = {t: kept if label == merged else label
                               for t, label in fam.pair_label_by_table.items()}
    monkeypatch.setattr(gamesim, "family", lambda case: fam)
    with pytest.raises(AssertionError, match="2 outcomes guess right, not 1"):
        gamesim._SlotTable("3bit")


# ---------------------------------------------------------------------------
# reference: the object-level sampler and trial the slot tables replaced
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ref_cdfs(case):
    fam, cdfs = family(case), {}
    for basis, bset in (("s1", fam.s1), ("s2", fam.s2)):
        for f in fam.s_f12 + fam.s_f:
            cum, acc = [], F(0)
            for b in bset:
                acc += overlap2(phase_state(b), phase_state(f))
                cum.append(float(acc))
            cum[-1] = 1.0
            cdfs[(basis, f.table)] = (cum, bset)
    return cdfs


def _ref_plan(fam, f0, branch):
    """(basis, xor shift of the measured state, guess offset) of a branch."""
    return {"noclone": ("s2", 0, fam.s2_f0_by_query[f0.evaluate(0)].table),
            "cloned": ("s2", f0.table, 0),
            "failed": ("s1", 0, fam.s1_f0.table)}[branch]


def _ref_hits(fam, f0, f, basis, offset):
    """Which outcomes of the slot for (f0, f) guess f0 ^ f's pair set."""
    labels = fam.pair_label_by_table
    members = fam.s1 if basis == "s1" else fam.s2
    return [labels.get(offset ^ m.table) == labels[f0.table ^ f.table]
            for m in members]


def _ref_generic_plan(fam, k):
    """The plan of a branch assuming secret k: measure in the basis
    candidates(k) and guess the pair set of k ^ outcome."""
    return ("s1" if fam.candidates(k) is fam.s1 else "s2", 0, k.table)


def _ref_rows(fam, gammas):
    """A named strategy's rows of (p, plan): no cloning when ``gammas`` is
    None, else the cloning strategy at those exact efficiencies."""
    if gammas is None:
        return [((1, _ref_plan(fam, f0, "noclone")),) for f0 in fam.s_f0]
    return [((g, _ref_plan(fam, f0, "cloned")), (1 - g, _ref_plan(fam, f0, "failed")))
            for f0, g in zip(fam.s_f0, gammas)]


def _ref_run(case, rows, trials, seed):
    """(wins, counts) of the strategy whose row for secret i lists its
    branches (p, plan): counts[i][b] counts the trials in which secret i
    drew branch b. A row of two or more branches draws one uniform and
    looks it up in the floats of its exact running sums."""
    fam, cdfs = family(case), _ref_cdfs(case)
    cums = []
    for row in rows:
        acc, cum = F(0), []
        for p, _ in row[:-1]:
            acc += F(p)
            cum.append(float(acc))
        cums.append(cum)

    def right(f0, f, basis, shift, offset, rng):
        cum, _ = cdfs[(basis, shift ^ f.table)]
        k = min(bisect_right(cum, rng.random()), len(cum) - 1)
        return _ref_hits(fam, f0, f, basis, offset)[k]

    wins, counts = 0, [[0] * len(row) for row in rows]
    for i, start in enumerate(range(0, trials, 10_000)):
        rng = random.Random((seed + i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
        for _ in range(min(10_000, trials - start)):
            j = rng.randrange(len(fam.s_f0))
            f0 = fam.s_f0[j]
            cand = fam.candidates(f0)
            f1, f2 = (cand[rng.randrange(len(cand))] for _ in range(2))
            b = 0
            if len(rows[j]) > 1:
                b = bisect_right(cums[j], rng.random())
                counts[j][b] += 1
            plan = rows[j][b][1]
            wins += all(right(f0, f, *plan, rng) for f in (f1, f2))
    return wins, counts


def _assert_window_is_lookup(window, cdf, hits):
    """lo <= u < hi gives the verdict of looking u up in ``cdf``, at u = 0,
    at every CDF entry below 1 and at their float neighbours in [0, 1)."""
    us = {0.0} | {c for c in cdf if c < 1.0}
    us |= {n for c in list(us) for n in (nextafter(c, 0.0), nextafter(c, 1.0))
           if 0.0 <= n < 1.0}
    lo, hi = window
    for u in us:
        assert (lo <= u < hi) == hits[bisect_right(cdf, u)], u


def test_hit_window_is_the_cdf_lookup():
    """For every (k, f0) slot of both cases the row is the reference
    distribution of f's state in the basis candidates(k), and the hit
    window gives the verdict of looking a uniform up in its CDF. Each
    strategy's branch row for f0 assumes the secret of its reference
    plan, and each branch's lookup gives, for every uniform, the verdict
    of that plan, as the three separate branches had it."""
    for case in ("2bit", "3bit"):
        fam, table = family(case), _slot_table(case)
        noclone, clone = gamesim._branches(case), gamesim._branches(case, OPT2)
        for i, f0 in enumerate(fam.s_f0):
            for k in fam.s_f0:
                basis = "s1" if fam.candidates(k) is fam.s1 else "s2"
                for f in fam.candidates(f0):
                    slot = table.slots[k.table, f0.table][f.table]
                    cdf, acc = [], F(0)
                    for p in slot.row:
                        acc += p
                        cdf.append(float(acc))
                    cdf[-1] = 1.0
                    assert cdf == _ref_cdfs(case)[(basis, f.table)][0]
                    _assert_window_is_lookup(slot.window, cdf,
                                             _ref_hits(fam, f0, f, basis, k.table))
            assumed = {"noclone": fam.s2_f0_by_query[f0.evaluate(0)].table,
                       "cloned": f0.table, "failed": fam.s1_f0.table}
            # the plan measures shift ^ f and guesses the pair set of
            # offset ^ outcome, so it assumes the secret shift ^ offset
            assert assumed == {branch: shift ^ offset for branch in assumed
                               for _, shift, offset in [_ref_plan(fam, f0, branch)]}
            assert noclone[i] == ((1, assumed["noclone"]),)
            assert clone[i] == ((OPT2[i], assumed["cloned"]),
                                (1 - OPT2[i], assumed["failed"]))
            for branch, k in assumed.items():
                basis, shift, offset = _ref_plan(fam, f0, branch)
                for f in fam.candidates(f0):
                    _assert_window_is_lookup(
                        table.slots[k, f0.table][f.table].window,
                        _ref_cdfs(case)[(basis, shift ^ f.table)][0],
                        _ref_hits(fam, f0, f, basis, offset))


def test_reward_is_hit_squared():
    """R[i][k] = hit[k, f0_i]^2, the chance that both guesses are right when
    secret i is assumed to be k, is the exact 3x3 payoff, and both
    enumerated scores are read from it: the no-cloning strategy assumes
    the secret the query names, a clone assumes the secret itself and a
    failed clone the S1-side one."""
    for case, c, eff, clone, ud in (
            ("3bit", F(1, 256), OPT3, F(14981, 16256), F(939, 1024)),
            ("2bit", F(1, 16), OPT2, F(41, 56), F(11, 16))):
        fam, hit = family(case), _slot_table(case).hit
        secrets = [f.table for f in fam.s_f0]
        assert secrets[0] == fam.s1_f0.table
        reward = [[hit[k, i] ** 2 for k in secrets] for i in secrets]
        assert reward == [[1, c, c], [c, 1, 0], [c, 0, 1]]
        named = [secrets.index(fam.s2_f0_by_query[f.evaluate(0)].table)
                 for f in fam.s_f0]
        no_clone = sum(reward[i][k] for i, k in enumerate(named)) / 3
        assert no_clone == score_no_clone_enumerated(case) == F(2, 3) + c / 3
        assert no_clone == {"3bit": F(171, 256), "2bit": F(11, 16)}[case]
        ud_eff = EfficiencyVector((0, F(7, 8), F(7, 8)) if case == "3bit"
                                  else (0, F(1, 2), F(1, 2)))
        for gammas, want in ((eff, clone), (ud_eff, ud)):
            from_reward = sum(g * reward[i][i] + (1 - g) * reward[i][0]
                              for i, g in enumerate(gammas)) / 3
            assert from_reward == score_clone_enumerated(gammas, case) == want
        for k in secrets:
            assert hit[k, k] == 1
            assert all(slot.p_hit == 1 and slot.window == (0.0, 1.0)
                       for slot in _slot_table(case).slots[k, k].values())


_gamma = st.fractions(min_value=0, max_value=1, max_denominator=200)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(("2bit", "3bit")),
       gammas=st.none() | st.tuples(_gamma, _gamma, _gamma),
       seed=st.integers(-2 ** 63, 2 ** 64), trials=st.integers(1, 20_000))
@example(case="3bit", gammas=(F(0),) * 3, seed=7, trials=5000)
@example(case="2bit", gammas=(F(0),) * 3, seed=-7, trials=5000)
@example(case="3bit", gammas=(F(1),) * 3, seed=8, trials=5000)
@example(case="2bit", gammas=(F(1),) * 3, seed=2 ** 64, trials=5000)
def test_simulation_matches_object_level_reference(case, gammas, seed, trials):
    fam = family(case)
    if gammas is None:
        r = simulate_no_clone(case, trials=trials, seed=seed)
    else:
        r = simulate_clone(EfficiencyVector(gammas), case, trials=trials, seed=seed)
    wins, counts = _ref_run(case, _ref_rows(fam, gammas), trials, seed)
    assert r.simulated == wins / trials
    if gammas is not None:
        assert r.p_success.count == sum(c[0] for c in counts)
        s1_failures = counts[fam.s_f0.index(fam.s1_f0)][1]
        assert (r.posterior.count if r.posterior else 0) == s1_failures


#: a branch row as (weights, secret indices): 1 to 3 branches, the weights
#: not all zero, so p = weight / sum(weights) is rational and sums to 1
_ROW = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any),
    st.lists(st.integers(0, 2), min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(("2bit", "3bit")), rows=st.tuples(_ROW, _ROW, _ROW),
       seed=st.integers(-2 ** 63, 2 ** 64), trials=st.integers(1, 12_000))
@example(case="3bit", rows=(([1, 2, 3], [0, 1, 2]),) * 3, seed=0, trials=3000)
@example(case="2bit", rows=(([0, 1, 0], [2, 0, 1]), ([5], [1]), ([1, 1], [0, 0])),
         seed=1, trials=3000)
def test_run_matches_reference_on_any_branch_rows(case, rows, seed, trials):
    """``_run`` on rows of one, two and three branches, each assuming any
    secret with a rational probability, gives the reference's wins and
    per-branch counts, zero-probability branches included."""
    fam = family(case)
    branches, ref_rows = [], []
    for weights, ks in rows:
        ps = [F(w, sum(weights)) for w in weights]
        branches.append(tuple((p, fam.s_f0[k].table) for p, k in zip(ps, ks)))
        ref_rows.append(tuple((p, _ref_generic_plan(fam, fam.s_f0[k]))
                              for p, k in zip(ps, ks)))
    assert gamesim._run(case, tuple(branches), trials, seed) == _ref_run(
        case, ref_rows, trials, seed)


# ---------------------------------------------------------------------------
# conditioned branches (trial-level checks)
# ---------------------------------------------------------------------------

def _both_right(slots, inst, rng):
    """Measure f1's slot, then f2's if f1's guess was right, as ``_run``
    does (``slots`` keyed by candidate table); True if both are right."""
    lo, hi = slots[inst.f1.table].window
    if not lo <= rng.random() < hi:
        return False
    lo, hi = slots[inst.f2.table].window
    return lo <= rng.random() < hi


def test_noclone_success_deterministic_when_assumption_holds():
    fam, slots = family("3bit"), _slot_table("3bit").slots
    rng = random.Random(21)
    for f0 in fam.s2_f0_by_query.values():
        cand = fam.candidates(f0)
        k = fam.s2_f0_by_query[f0.evaluate(0)]
        for _ in range(2000):
            inst = TaskInstance(f0, cand[rng.randrange(len(cand))],
                                cand[rng.randrange(len(cand))])
            assert _both_right(slots[k.table, f0.table], inst, rng)


def test_noclone_wrong_branch_rate():
    """Conditioned on the S1-side secret the empirical both-right rate sits
    at the measured 1/256, strictly outside 3 sigma of the claimed 1/64."""
    fam = family("3bit")
    rng, n = random.Random(29), 100_000
    f0 = fam.s1_f0
    k = fam.s2_f0_by_query[f0.evaluate(0)]
    slots = _slot_table("3bit").slots[k.table, f0.table]
    cand = fam.candidates(f0)
    wins = 0
    for _ in range(n):
        inst = TaskInstance(f0, cand[rng.randrange(len(cand))],
                            cand[rng.randrange(len(cand))])
        wins += _both_right(slots, inst, rng)
    rate = wins / n
    assert abs(rate - 1 / 256) <= binom_band(F(1, 256), n)
    assert abs(rate - 1 / 64) > binom_band(F(1, 64), n)


def test_noclone_wrong_branch_rate_two_bit_matches_claim():
    fam = family("2bit")
    rng, n = random.Random(31), 100_000
    f0 = fam.s1_f0
    k = fam.s2_f0_by_query[f0.evaluate(0)]
    slots = _slot_table("2bit").slots[k.table, f0.table]
    cand = fam.candidates(f0)
    wins = sum(_both_right(slots, TaskInstance(f0, cand[rng.randrange(len(cand))],
                                               cand[rng.randrange(len(cand))]), rng)
               for _ in range(n))
    assert abs(wins / n - 1 / 16) <= binom_band(F(1, 16), n)


def test_clone_success_branch_never_errs():
    fam, slots = family("3bit"), _slot_table("3bit").slots
    rng = random.Random(37)
    for _ in range(5000):
        inst = fam.sample_instance(rng)
        assert rng.random() < 1.0          # the cloning coin at gamma = 1
        assert _both_right(slots[inst.f0.table, inst.f0.table], inst, rng)


def test_clone_failure_posterior():
    """Among cloning failures the S1-side secret shows up with frequency
    (1 - gamma1) / (3 - sum gamma), 4/5 at the 3-bit optimum."""
    fam, table = family("3bit"), _slot_table("3bit")
    eff = OPT3.as_floats()
    rng, n = random.Random(41), 200_000
    fails = s1_fails = 0
    for _ in range(n):
        inst = fam.sample_instance(rng)
        cloned = rng.random() < eff[fam.s_f0.index(inst.f0)]
        k = inst.f0 if cloned else fam.s1_f0
        _ = _both_right(table.slots[k.table, inst.f0.table], inst, rng)
        if not cloned:
            fails += 1
            s1_fails += inst.f0 == fam.s1_f0
    p = 4 / 5
    assert abs(s1_fails / fails - p) <= 3 * sqrt(p * (1 - p) / fails)
