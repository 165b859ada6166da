"""Scores for the guessing task: closed forms and Monte Carlo simulation.

Every branch of both strategies assumes a secret k, queries both
candidates, measures their phase states in the basis ``candidates(k)``
and reads off the pair-set guesses. Without cloning, k is the
S2-compatible secret named by one classical query at input 0. That query
assumes the XOR oracle |x>|y> -> |x>|y ^ f(x)>: a pure phase oracle
returns only a global phase on |0>, which reveals nothing. With cloning:
probabilistically clone the secret's phase state (success probability
gamma per secret). A success gives perfect copies, so k is the secret
itself and no guess errs; a failure gives nothing, and k is the S1-side
secret.

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
Exactly one outcome of each slot guesses right, so the simulator tests
one uniform against that outcome's hit window, its stretch of the slot's
float CDF. That is the verdict a lookup in the whole CDF gives for the
same uniform, so the random stream and every result are those of
sampling the whole CDF.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def _assumed(fam, f0) -> tuple[int, int, int]:
    """The secret k each branch assumes for secret f0, as truth tables:
    (no cloning: the one the query names, clone succeeded: f0 itself,
    clone failed: the S1-side one)."""
    return fam.s2_f0_by_query[f0.evaluate(0)].table, f0.table, fam.s1_f0.table


class _SlotTable:
    """The measurement model of both strategies, keyed by assumed secret.

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
    the chance that both are.
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


@lru_cache(maxsize=None)
def _slot_table(case: str) -> _SlotTable:
    return _SlotTable(case)


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

def score_no_clone_enumerated(case: str) -> Fraction:
    """Exact mean of the simulated no-cloning strategy (enumeration)."""
    fam, hit = family(case), _slot_table(case).hit
    return sum((hit[_assumed(fam, f0)[0], f0.table] ** 2 for f0 in fam.s_f0),
               Fraction(0)) / len(fam.s_f0)


def score_clone_enumerated(eff, case: str):
    """Exact mean of the simulated cloning strategy for efficiencies ``eff``."""
    fam, hit = family(case), _slot_table(case).hit
    eff = _as_eff(eff)
    total = 0
    for i, f0 in enumerate(fam.s_f0):
        _, cloned, failed = (hit[k, f0.table] for k in _assumed(fam, f0))
        total += eff[i] * cloned * cloned + (1 - eff[i]) * failed * failed
    return total / len(fam.s_f0)


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


def _run(case: str, gammas: dict[int, float] | None, trials: int,
         seed: int) -> tuple[int, int, int]:
    """(wins, clone successes, failure-branch trials with the S1-side secret).

    ``gammas`` maps each secret's truth table to its cloning efficiency;
    None runs the no-cloning strategy, which draws no cloning coin.
    Trials run in fixed-size blocks, block i seeded from
    seed + i * _SEED_STRIDE, so the result depends only on (seed, trials).
    Each trial draws its instance, then the cloning coin, then reads the
    slots of the secret its branch assumes (``_assumed``): it measures
    f1's slot and, only if that guess was right, f2's: one uniform per
    slot, right iff it falls in the slot's hit window. A uniform u draws
    outcome k of a CDF iff cdf[k-1] <= u < cdf[k], so the window test is
    the CDF lookup's verdict, and both draw the same uniforms.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    fam, slots = family(case), _slot_table(case).slots
    sample = fam.sample_instance
    s1_f0 = fam.s1_f0.table
    cloned, fallback = {}, {}
    for f0 in fam.s_f0:
        noclone, on_clone, failed = _assumed(fam, f0)
        cloned[f0.table] = slots[on_clone, f0.table]
        fallback[f0.table] = slots[noclone if gammas is None else failed, f0.table]
    wins = clones = s1_failures = 0
    for i, start in enumerate(range(0, trials, _BLOCK)):
        rng = random.Random((seed + i * _SEED_STRIDE) & _SEED_MASK)
        draw = rng.random
        for _ in range(min(_BLOCK, trials - start)):
            inst = sample(rng)
            f0 = inst.f0.table
            if gammas is not None and draw() < gammas[f0]:
                slots = cloned[f0]
                clones += 1
            else:
                slots = fallback[f0]
                s1_failures += f0 == s1_f0
            lo, hi = slots[inst.f1.table].window
            if lo <= draw() < hi:
                lo, hi = slots[inst.f2.table].window
                wins += lo <= draw() < hi
    return wins, clones, s1_failures


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
    wins, _, _ = _run(case, None, trials, seed)
    return _finish_report("noclone", case, score_no_clone_exact(case),
                          score_no_clone_enumerated(case), wins, trials, seed)


def simulate_clone(eff, case: str, trials: int = 100_000, seed: int = 0) -> ScoreReport:
    """Monte Carlo of the cloning strategy at efficiencies ``eff``.

    Besides the score, the report carries the simulated clone success
    rate and failure posterior next to ``clone_intermediates``.
    """
    eff = _as_eff(eff)
    fam = family(case)
    gammas = {f0.table: g for f0, g in zip(fam.s_f0, eff.as_floats())}
    wins, clones, s1_failures = _run(case, gammas, trials, seed)
    inter = clone_intermediates(eff)
    posterior = inter["posterior"]
    return _finish_report(
        "clone", case, score_clone_exact(eff, case),
        score_clone_enumerated(eff, case), wins, trials, seed,
        p_success=SimulatedRate(inter["p_success"], clones, trials),
        posterior=(None if posterior is None
                   else SimulatedRate(posterior, s1_failures, trials - clones)))
