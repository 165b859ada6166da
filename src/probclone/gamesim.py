"""Scores for the guessing task: closed forms and Monte Carlo simulation.

Two strategies are evaluated. Without cloning: assume the secret function
is one of the two S2-compatible ones, identify which by a single classical
query at input 0, then measure the two candidate phase states in the S2
basis and read off the pair-set guesses. That query assumes the XOR
oracle |x>|y> -> |x>|y ^ f(x)>: a pure phase oracle returns only a
global phase on |0>, which reveals nothing. With cloning: probabilistically
clone the secret's phase state (success probability gamma per secret);
on success both branches are queried and measured in the pair-set
representative basis, which never errs; on failure guess the S1-side
secret and measure in the S1 basis.

The published closed forms for both strategies rest on a claimed
"both guesses right by chance" term for the branch where the secret
assumption is wrong (1/64 for 3-bit, 1/16 for 2-bit). The simulators do
not hard-code that term: they run the actual measurement distributions.
``score_*_enumerated`` gives the exact expectation of what the simulator
does (by exhaustive enumeration), so claim and measurement can be
compared; reports flag simulations that land more than three binomial
standard deviations from the claimed score. Both read one per-case slot
table whose exact outcome rows come from ``phasestate.measure``: the
enumeration sums those rows. Exactly one outcome of each slot guesses
right, so the simulator tests one uniform against that outcome's hit
window, its stretch of the slot's float CDF. That is the verdict a lookup
in the whole CDF gives for the same uniform, so the random stream and
every result are those of sampling the whole CDF.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt
from typing import NamedTuple

from .feasibility import EfficiencyVector
from .funcspace import BooleanFunction, family
from .phasestate import measure, phase_state

#: published chance that both wrong-branch guesses are right anyway
CLAIMED_GUESS_CHANCE = {"3bit": Fraction(1, 64), "2bit": Fraction(1, 16)}

_SEED_STRIDE = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 64) - 1
_BLOCK = 10_000


# ---------------------------------------------------------------------------
# measurement model
# ---------------------------------------------------------------------------

#: the measured branches: no-cloning, clone succeeded, clone failed
BRANCHES = ("noclone", "cloned", "failed")


class Slot(NamedTuple):
    """One measured slot of a trial: a phase state measured in a basis."""

    row: tuple[Fraction, ...]   # exact outcome distribution over the basis
    p_hit: Fraction             # exact probability that the guess is right
    #: [lo, hi): the uniforms that draw the one outcome guessing right, cut
    #: from the float CDF of ``row`` (running Fraction sums, last one 1.0)
    window: tuple[float, float]


class _SlotTable:
    """The measurement model of both strategies, keyed by truth table.

    ``slots[branch][f0.table][f.table]`` is the slot measured for secret
    f0 and candidate f in one branch:

    * ``noclone``: f's state in the S2 basis, the secret guessed from
      one classical query at input 0;
    * ``cloned``: the clone of f0 passed through the second oracle, i.e.
      the state of f0 xor f, in the S2 (pair-representative) basis;
    * ``failed``: f's state in the S1 basis, the S1-side secret assumed.

    A slot's row is ``measure`` of its state in its basis; outcome m
    guesses the pair set of guess ^ m, which is right when that set is
    the pair set {r, r ^ 1...1} of f0 ^ f. So the right outcomes are the
    basis members guess ^ r and guess ^ r ^ 1...1. Complementing a truth
    table only negates its phase state, so these two lie on one ray, and
    an orthonormal basis holds at most one of them. That every slot holds
    at least one is checked here: the table is not built otherwise.
    ``hit[branch][f0.table]`` is the exact probability that one slot's
    guess is right, averaged over the candidates of f0.
    """

    def __init__(self, case: str):
        fam = family(case)
        bases = {"s1": fam.s1, "s2": fam.s2}
        basis_states = {label: tuple(phase_state(f) for f in bset)
                        for label, bset in bases.items()}
        labels = fam.pair_label_by_table
        outcomes: dict[tuple[str, int], tuple] = {}

        def slot(basis: str, measured: int, guess: int, truth: str) -> Slot:
            """``measured`` in ``basis``; outcome m guesses the pair set of guess ^ m."""
            if (basis, measured) not in outcomes:
                row = measure(phase_state(BooleanFunction(fam.arity, measured)),
                              basis_states[basis])
                cum, acc = [0.0], Fraction(0)
                for p in row:
                    acc += p
                    cum.append(float(acc))
                cum[-1] = 1.0
                outcomes[(basis, measured)] = row, cum
            row, cum = outcomes[(basis, measured)]
            right = [k for k, m in enumerate(bases[basis])
                     if labels.get(guess ^ m.table) == truth]
            if len(right) != 1:
                raise AssertionError(f"{case} slot of {measured:#x} in {basis}: "
                                     f"{len(right)} outcomes guess right, not 1")
            k = right[0]
            return Slot(row, row[k], (cum[k], cum[k + 1]))

        self.slots: dict[str, dict[int, dict[int, Slot]]] = {b: {} for b in BRANCHES}
        self.hit: dict[str, dict[int, Fraction]] = {b: {} for b in BRANCHES}
        for f0 in fam.s_f0:
            cand = fam.candidates(f0)
            # (branch, basis, measured state's xor offset from f, guess offset)
            plan = (("noclone", "s2", 0, fam.s2_f0_by_query[f0.evaluate(0)].table),
                    ("cloned", "s2", f0.table, 0),
                    ("failed", "s1", 0, fam.s1_f0.table))
            for branch, basis, offset, guess in plan:
                by_f = {f.table: slot(basis, offset ^ f.table, guess,
                                      labels[f0.table ^ f.table])
                        for f in cand}
                self.slots[branch][f0.table] = by_f
                self.hit[branch][f0.table] = (
                    sum((s.p_hit for s in by_f.values()), Fraction(0)) / len(cand))


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
    hit = _slot_table(case).hit["noclone"]
    return sum((s * s for s in hit.values()), Fraction(0)) / len(hit)


def score_clone_enumerated(eff, case: str):
    """Exact mean of the simulated cloning strategy for efficiencies ``eff``."""
    fam, table = family(case), _slot_table(case)
    eff = _as_eff(eff)
    total = 0
    for i, f0 in enumerate(fam.s_f0):
        cloned, failed = table.hit["cloned"][f0.table], table.hit["failed"][f0.table]
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
    Each trial draws its instance, then the cloning coin, then measures
    f1's slot and, only if that guess was right, f2's: one uniform per
    slot, right iff it falls in the slot's hit window. A uniform u draws
    outcome k of a CDF iff cdf[k-1] <= u < cdf[k], so the window test is
    the CDF lookup's verdict, and both draw the same uniforms.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    fam, table = family(case), _slot_table(case)
    sample = fam.sample_instance
    s1_f0 = fam.s1_f0.table
    cloned = table.slots["cloned"]
    fallback = table.slots["noclone" if gammas is None else "failed"]
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
