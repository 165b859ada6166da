"""Scores for the guessing task: closed forms and Monte Carlo simulation.

A strategy is its branch rows (``_branches``): for each secret f0, a row
((p, k), ...) assuming secret k with probability p. Every branch queries
both candidates, measures their phase states in the basis
``candidates(k)`` and reads off the pair-set guesses. One exact mean
(``_mean``) and one trial loop (``_run``) serve every strategy.

The published closed forms for both strategies rest on a claimed
"both guesses right by chance" term for the branch where the secret
assumption is wrong (1/64 for 3-bit, 1/16 for 2-bit). The simulators do
not hard-code that term: they run the actual measurement distributions.
``score_*_enumerated`` gives the exact expectation of what the simulator
does (by exhaustive enumeration), so claim and measurement can be
compared; reports flag simulations that land more than three binomial
standard deviations from the claimed score. Both read one per-case slot
table keyed by (assumed secret, secret, candidate), whose exact outcome
rows come from ``phasestate.measure``: the enumeration sums those rows.
A trial draws a branch uniform only for a secret with two or more
branches. Exactly one outcome of each slot guesses right, so the
simulator tests one uniform against that outcome's hit window, its
stretch of the slot's float CDF. That is the verdict a lookup in the
whole CDF gives for the same uniform, so the random stream and every
result are those of sampling the whole CDF. The table also lists, per
assumed secret, both hit windows of every task instance by its index,
so a trial is one ``sample_instance`` call and one list lookup.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import sqrt
from typing import NamedTuple

from .feasibility import EfficiencyVector
from .funcspace import family
from .phasestate import measure, phase_state

#: published chance that both wrong-branch guesses are right anyway
CLAIMED_GUESS_CHANCE = {"3bit": Fraction(1, 64), "2bit": Fraction(1, 16)}

_SEED_STRIDE = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 64) - 1
_BLOCK = 10_000
#: 2.5-3.2 s of ``simulate`` at 0.25-0.32 us per trial (Python 3.11, 2 vCPUs)
MAX_TRIALS = 10_000_000


# ---------------------------------------------------------------------------
# measurement model
# ---------------------------------------------------------------------------

class Slot(NamedTuple):
    """One measured slot of a trial: a phase state measured in a basis."""

    row: tuple[Fraction, ...]   # exact outcome distribution over the basis
    p_hit: Fraction             # exact probability that the guess is right
    #: [lo, hi): the uniforms that draw the one outcome guessing right, cut
    #: from the float CDF of ``row`` (running Fraction sums, last one 1.0)
    window: tuple[float, float]


class _SlotTable:
    """The measurement model of every strategy, keyed by assumed secret.

    ``slots[k, f0][f]`` (truth tables), for all nine (assumed secret k,
    secret f0) pairs, is candidate f's state measured in the basis
    ``candidates(k)``; outcome m guesses the pair set of k ^ m. That is
    right when it is the pair set {r, r ^ 1...1} of f0 ^ f, so the right
    outcomes are the basis members k ^ r and k ^ r ^ 1...1. Complementing
    a truth table only negates its phase state, so these two lie on one
    ray, and an orthonormal basis holds at most one of them. That every
    slot holds at least one is checked here: the table is not built
    otherwise. For k = f0 each candidate is a basis member, so every
    guess is right. ``hit[k, f0]`` is the exact chance that one slot's
    guess is right, averaged over the candidates of f0; its square is
    the chance that both are. ``windows[k][inst.index]`` is the pair of
    hit windows, (lo1, hi1, lo2, hi2), of slots f1 and f2 of every task
    instance in ``family(case).instances`` when secret k is assumed: the
    one table a trial reads.
    """

    def __init__(self, case: str):
        fam = family(case)
        labels = fam.pair_label_by_table
        self.slots: dict[tuple[int, int], dict[int, Slot]] = {}
        self.hit: dict[tuple[int, int], Fraction] = {}
        for k in fam.s_f0:
            basis = fam.candidates(k)
            states = tuple(phase_state(m) for m in basis)
            guesses = [labels.get(k.table ^ m.table) for m in basis]
            for f0 in fam.s_f0:
                by_f = {}
                for f in fam.candidates(f0):
                    truth = labels[f0.table ^ f.table]
                    right = [i for i, g in enumerate(guesses) if g == truth]
                    if len(right) != 1:
                        raise AssertionError(f"{case} slot {k.table, f0.table, f.table}: "
                                             f"{len(right)} outcomes guess right, not 1")
                    i = right[0]
                    row = measure(phase_state(f), states)
                    # the row sums to exactly 1, so the last CDF entry is 1.0
                    by_f[f.table] = Slot(row, row[i], (float(sum(row[:i])),
                                                       float(sum(row[:i + 1]))))
                self.slots[k.table, f0.table] = by_f
                self.hit[k.table, f0.table] = (
                    sum((s.p_hit for s in by_f.values()), Fraction(0)) / len(by_f))
        self.windows: dict[int, tuple[tuple[float, float, float, float], ...]] = {
            k.table: tuple(self.slots[k.table, inst.f0.table][inst.f1.table].window
                           + self.slots[k.table, inst.f0.table][inst.f2.table].window
                           for inst in fam.instances)
            for k in fam.s_f0}


_slot_table = lru_cache(maxsize=None)(_SlotTable)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def score_no_clone_exact(case: str) -> Fraction:
    """Published no-cloning score: 2/3 + (1/3) * claimed chance term."""
    family(case)    # rejects an unknown case
    return Fraction(2, 3) + Fraction(1, 3) * CLAIMED_GUESS_CHANCE[case]


def score_clone_exact(eff, case: str):
    """Published cloning score, linear in gamma2 + gamma3:
    (1 + 2c)/3 + (1 - c)/3 * (g2 + g3), c the claimed chance term.

    That is (22 + 21*(g2+g3)) / 64 for 3-bit and (6 + 5*(g2+g3)) / 16
    for 2-bit. Exact when the efficiencies are rational.
    """
    eff = _as_eff(eff)
    family(case)    # rejects an unknown case
    c = CLAIMED_GUESS_CHANCE[case]
    return (1 + 2 * c) / 3 + (1 - c) / 3 * (eff[1] + eff[2])


def clone_intermediates(eff) -> dict:
    """Average success probability and the failure-branch posterior.

    The posterior is the probability that the secret was the S1-side
    function given that cloning failed; undefined (None) when cloning
    never fails.
    """
    eff = _as_eff(eff)
    g1, g2, g3 = eff
    total = g1 + g2 + g3
    p_success = total / 3
    posterior = None if total == 3 else (1 - g1) / (3 - total)
    return {"p_success": p_success, "posterior": posterior}


def _as_eff(eff) -> EfficiencyVector:
    return eff if isinstance(eff, EfficiencyVector) else EfficiencyVector(eff)


# ---------------------------------------------------------------------------
# exact expectations of the simulated strategies
# ---------------------------------------------------------------------------

def _branches(case: str, eff=None) -> tuple:
    """A strategy's branch rows, one per secret f0 in ``fam.s_f0`` order:
    ((p, k), ...) assumes secret k (a truth table) with probability p.

    No cloning (``eff`` None): one branch, the S2-compatible secret named
    by one classical query at input 0. That query assumes the XOR oracle
    |x>|y> -> |x>|y ^ f(x)>: a pure phase oracle returns only a global
    phase on |0>, which reveals nothing. Cloning at efficiencies ``eff``:
    the secret's phase state is cloned with probability gamma. A success
    gives perfect copies, so k is f0 itself and no guess errs; a failure
    gives nothing, and k is the S1-side secret. Both branches stay at
    gamma 0 or 1, so the cloning coin is still drawn.
    """
    fam = family(case)
    if eff is None:
        return tuple(((1, fam.s2_f0_by_query[f0.evaluate(0)].table),)
                     for f0 in fam.s_f0)
    return tuple(((g, f0.table), (1 - g, fam.s1_f0.table))
                 for f0, g in zip(fam.s_f0, _as_eff(eff)))


def _mean(case: str, branches):
    """Exact mean of a strategy: the mean over secrets f0 of their row's
    sum of p * hit[k, f0]^2. Each row is summed first, then the rows, so
    float efficiencies give the digits of the per-secret formula."""
    fam, hit = family(case), _slot_table(case).hit
    return sum(sum(p * hit[k, f0.table] * hit[k, f0.table] for p, k in row)
               for f0, row in zip(fam.s_f0, branches)) / len(fam.s_f0)


def score_no_clone_enumerated(case: str) -> Fraction:
    """Exact mean of the simulated no-cloning strategy (enumeration)."""
    return _mean(case, _branches(case))


def score_clone_enumerated(eff, case: str):
    """Exact mean of the simulated cloning strategy for efficiencies ``eff``."""
    return _mean(case, _branches(case, eff))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _within_3sigma(simulated: float, exact, n: int) -> bool:
    p = float(exact)
    return abs(simulated - p) <= 3.0 * sqrt(p * (1.0 - p) / n)


def _exact_text(value) -> str | None:
    return str(value) if isinstance(value, Fraction) else None


@dataclass(frozen=True)
class SimulatedRate:
    """A frequency the simulation observed, beside its exact value."""

    exact: object               # Fraction (or float for float efficiencies)
    count: int
    n: int                      # trials the event could occur in

    @property
    def simulated(self) -> float | None:
        return self.count / self.n if self.n else None

    def to_json(self) -> dict:
        sim = self.simulated
        return {
            "exact": _exact_text(self.exact),
            "exact_decimal": float(self.exact),
            "simulated": sim,
            "n": self.n,
            "within_3sigma": None if sim is None else _within_3sigma(sim, self.exact, self.n),
        }


@dataclass(frozen=True)
class ScoreReport:
    strategy: str
    case: str
    exact: object               # Fraction (or float for float efficiencies)
    enumerated: object          # exact mean of the simulated strategy
    simulated: float
    trials: int
    stderr: float
    seed: int
    within_3sigma: bool
    #: clone strategy only: the clone success rate, and the share of
    #: failures whose secret was the S1-side one (None: cloning never fails)
    p_success: SimulatedRate | None = None
    posterior: SimulatedRate | None = None

    def to_json(self) -> dict:
        data = {
            "strategy": self.strategy,
            "case": self.case,
            "exact": _exact_text(self.exact),
            "exact_decimal": float(self.exact),
            "enumerated": _exact_text(self.enumerated),
            "enumerated_decimal": float(self.enumerated),
            "simulated": self.simulated,
            "trials": self.trials,
            "stderr": self.stderr,
            "seed": self.seed,
            "within_3sigma": self.within_3sigma,
        }
        if self.strategy == "clone":
            data["p_success"] = self.p_success.to_json()
            data["posterior"] = (None if self.posterior is None
                                 else self.posterior.to_json())
        return data


def _run(case: str, branches, trials: int, seed: int) -> tuple[int, list[list[int]]]:
    """(wins, counts) of the strategy ``branches``: ``counts[i][b]`` is the
    number of trials in which secret i took branch b.

    Trials run in fixed-size blocks, block i seeded from
    seed + i * _SEED_STRIDE, so the result depends only on (seed, trials).
    Each trial draws its instance and looks up, by its index, that
    instance's plan: its secret's branch row and, per branch, the slot
    windows ``_SlotTable.windows`` lists for it. A secret with two or more
    branches then draws one uniform and takes the branch ``bisect_right``
    finds for it in the floats of its row's exact running sums, the last
    one left out; a secret with one branch draws and counts nothing. When
    every secret has one branch, a second loop reads the instance's
    windows directly. The trial measures f1's slot of the branch's assumed
    secret and, only if that guess was right, f2's: one uniform per slot,
    right iff it falls in the slot's hit window, which is the verdict of a
    lookup in the slot's CDF.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}")
    fam, windows = family(case), _slot_table(case).windows
    sample = fam.sample_instance
    counts = [[0] * len(row) for row in branches]
    # per secret: running sums, counts and, by instance index, the windows
    # of each branch; then one plan per instance, in index order
    rows = {f0.table: ([float(acc) for acc in accumulate(p for p, _ in row[:-1])], taken,
                       list(zip(*(windows[k] for _, k in row))))
            for f0, row, taken in zip(fam.s_f0, branches, counts)}
    plans = []
    for inst in fam.instances:
        cum, taken, by_index = rows[inst.f0.table]
        plans.append((cum, taken, by_index[inst.index]))
    wins = 0
    blocks = ((random.Random((seed + i * _SEED_STRIDE) & _SEED_MASK),
               min(_BLOCK, trials - start))
              for i, start in enumerate(range(0, trials, _BLOCK)))
    # no branch to pick (noclone): reading the windows directly saves
    # 2.8% of montecarlo wall_s over the general loop (10 paired runs,
    # Python 3.11, 2 vCPUs)
    if all(len(row) == 1 for row in branches):
        direct = [by_b[0] for _, _, by_b in plans]
        for rng, size in blocks:
            draw = rng.random
            for _ in range(size):
                lo1, hi1, lo2, hi2 = direct[sample(rng).index]
                if lo1 <= draw() < hi1:
                    wins += lo2 <= draw() < hi2
        return wins, counts
    for rng, size in blocks:
        draw = rng.random
        for _ in range(size):
            cum, taken, by_b = plans[sample(rng).index]
            b = 0
            if cum:
                b = bisect_right(cum, draw())
                taken[b] += 1
            lo1, hi1, lo2, hi2 = by_b[b]
            if lo1 <= draw() < hi1:
                wins += lo2 <= draw() < hi2
    return wins, counts


def _finish_report(strategy, case, exact, enumerated, wins, trials, seed,
                   **rates) -> ScoreReport:
    simulated = wins / trials
    stderr = sqrt(max(simulated * (1.0 - simulated), 0.0) / trials)
    return ScoreReport(strategy=strategy, case=case, exact=exact,
                       enumerated=enumerated, simulated=simulated, trials=trials,
                       stderr=stderr, seed=seed,
                       within_3sigma=_within_3sigma(simulated, exact, trials),
                       **rates)


def simulate_no_clone(case: str, trials: int = 100_000, seed: int = 0) -> ScoreReport:
    """Monte Carlo of the no-cloning strategy; depends only on (seed, trials)."""
    wins, _ = _run(case, _branches(case), trials, seed)
    return _finish_report("noclone", case, score_no_clone_exact(case),
                          score_no_clone_enumerated(case), wins, trials, seed)


def simulate_clone(eff, case: str, trials: int = 100_000, seed: int = 0) -> ScoreReport:
    """Monte Carlo of the cloning strategy at efficiencies ``eff``.

    Besides the score, the report carries the simulated clone success
    rate and failure posterior next to ``clone_intermediates``.
    """
    eff = _as_eff(eff)
    fam = family(case)
    wins, counts = _run(case, _branches(case, eff), trials, seed)
    clones = sum(taken[0] for taken in counts)
    s1_failures = counts[fam.s_f0.index(fam.s1_f0)][1]
    inter = clone_intermediates(eff)
    posterior = inter["posterior"]
    return _finish_report(
        "clone", case, score_clone_exact(eff, case),
        score_clone_enumerated(eff, case), wins, trials, seed,
        p_success=SimulatedRate(inter["p_success"], clones, trials),
        posterior=(None if posterior is None
                   else SimulatedRate(posterior, s1_failures, trials - clones)))
