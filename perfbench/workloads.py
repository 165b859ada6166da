"""Seeded operation lists for the three workloads.

An operation is one ``probclone`` command line plus the check its JSON
output must pass. The benchmark seed only picks inputs (op order, the
per-op ``--seed`` values, the generated feasibility points); the program
sees nothing but the argv.

* ``search``   - ``optimize --mode both`` for both cases and objectives
  at resolution 9. Float feasibility kernel and pattern search; no
  Monte Carlo, next to no exact arithmetic.
* ``montecarlo`` - ``simulate`` for both strategies and cases at the
  exact optima, several seeds each. Sampling and measurement only; the
  feasibility kernel never runs.
* ``certify``  - hundreds of one-point ``feasibility`` verdicts (half on
  the exact Fraction route, half falling back to floats), plus the
  analytic and equal-efficiency optima, ``states`` and the (v, w) curve.
  Each op takes milliseconds, so argument parsing and exact arithmetic
  dominate rather than the float kernel.

Every op takes at most about a second, so each one repeats many times
in a run: the benchmark keeps an op's fastest repeat, and on a shared
host that estimate is only steady when the op is short next to the
host's slow phases. (The 2.1 M-point ``--complex-flags`` search takes
about 6 s alone and is left out for that reason.)
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt
from typing import Callable

import oracle

CASES = ("3bit", "2bit")
OBJECTIVES = ("gamma23", "gamma1")

SEARCH_RESOLUTION = 9            # the CLI default
MC_TRIALS = 5_000
MC_SEEDS = 4                     # simulate ops per (case, strategy)
CURVE_POINTS = 64                # the CLI default
#: generated feasibility points per (case, route, verdict) bucket
POINTS_PER_BUCKET = 75


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]
    #: numeric-search grid size, resolution ** axes (0 for other commands)
    grid_points: int = 0


def evaluations(payload: dict) -> int:
    """Feasibility evaluations reported by the numeric search, if any."""
    return sum(r.get("evaluations", 0) for r in payload.get("reports", ())
               if r["mode"] == "numeric")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


# ---------------------------------------------------------------------------

def search_ops(seed: int) -> list[Op]:
    rng = random.Random(f"search:{seed}")
    ops = [Op(("optimize", "--case", case, "--objective", objective,
               "--mode", "both", "--seed", _seed(rng)),
              partial(oracle.check_optimize, case=case, objective=objective,
                      mode="both"),
              grid_points=SEARCH_RESOLUTION ** 5)
           for case in CASES for objective in OBJECTIVES]
    rng.shuffle(ops)
    return ops


def montecarlo_ops(seed: int) -> list[Op]:
    rng = random.Random(f"montecarlo:{seed}")
    ops = []
    for case, strategy, _ in product(CASES, ("noclone", "clone"), range(MC_SEEDS)):
        op_seed = _seed(rng)
        argv = ("simulate", "--case", case, "--strategy", strategy,
                "--trials", str(MC_TRIALS), "--seed", op_seed)
        if strategy == "clone":
            argv += ("--gammas", ",".join(oracle.OPTIMA[(case, "gamma23")]))
        ops.append(Op(argv, partial(oracle.check_simulate, case=case,
                                    strategy=strategy, trials=MC_TRIALS,
                                    seed=int(op_seed))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# certify: generated rational feasibility points
# ---------------------------------------------------------------------------

def _is_square(q: Fraction) -> bool:
    return isqrt(q.numerator) ** 2 == q.numerator \
        and isqrt(q.denominator) ** 2 == q.denominator


def _flag(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational flag overlap re + i*im with modulus at most 1."""
    while True:
        d = rng.randint(1, 6)
        re = Fraction(rng.randint(-d, d), d)
        im = Fraction(rng.randint(-d, d), d) if rng.random() < 0.5 else Fraction(0)
        if re * re + im * im <= 1:
            return re, im


def _flag_text(p: tuple[Fraction, Fraction]) -> str:
    return str(p[0]) if p[1] == 0 else f"{p[0]},{p[1]}"


def _gammas(rng: random.Random, squares: bool) -> tuple[Fraction, ...]:
    """Three efficiencies; ``squares`` makes every pairwise product a square."""
    while True:
        if squares:
            # g_i = t * u_i^2 gives sqrt(g_i g_j) = t * u_i * u_j
            t = rng.choice((Fraction(1), Fraction(2), Fraction(3),
                            Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
            d = rng.randint(2, 12)
            gs = tuple(t * Fraction(rng.randint(0, d), d) ** 2 for _ in range(3))
        else:
            gs = tuple(Fraction(rng.randint(0, d), d)
                       for d in (rng.randint(2, 30) for _ in range(3)))
        if all(g <= 1 for g in gs):
            return gs


def _exact_route(gs, p12, p13) -> bool:
    """Exact M needs sqrt(g1 g_j) rational wherever P_1j is nonzero.

    G_23 is a structural zero in both cases, so g2*g3 never matters.
    """
    return all(p == (0, 0) or _is_square(gs[0] * g)
               for p, g in ((p12, gs[1]), (p13, gs[2])))


def _point_ops(rng: random.Random) -> list[Op]:
    want = {(case, exact, psd): POINTS_PER_BUCKET
            for case in CASES for exact in (True, False) for psd in (True, False)}
    ops = []
    while any(want.values()):
        case, exact, _ = rng.choice([k for k, n in want.items() if n])
        gs = _gammas(rng, squares=exact)
        p12, p13 = _flag(rng), _flag(rng)
        p23 = _flag(rng) if rng.random() < 0.25 else (Fraction(0), Fraction(0))
        m = oracle.feasibility_matrix(case, gs, *(complex(*p) for p in (p12, p13, p23)))
        lam = oracle.min_eig(m)
        key = (case, _exact_route(gs, p12, p13), lam > 0)
        if abs(lam) < oracle.BOUNDARY_MARGIN or not want.get(key):
            continue
        want[key] -= 1
        argv = ("feasibility", "--case", case,
                "--gammas", ",".join(str(g) for g in gs),
                # "=" keeps argparse from reading "-1/2" as an option
                f"--p12={_flag_text(p12)}", f"--p13={_flag_text(p13)}")
        if p23 != (0, 0):
            argv += (f"--p23={_flag_text(p23)}",)
        ops.append(Op(argv, partial(oracle.check_point, m_bench=m, exact=key[1])))
    return ops


def certify_ops(seed: int) -> list[Op]:
    rng = random.Random(f"certify:{seed}")
    ops = _point_ops(rng)
    for case in CASES:
        p12, p13 = oracle.CORNER_FLAGS[case]
        ops.append(Op(("feasibility", "--case", case,
                       "--gammas", ",".join(oracle.OPTIMA[(case, "gamma23")]),
                       f"--p12={p12}", f"--p13={p13}"),
                      oracle.check_corner_point))
        for objective in OBJECTIVES:
            ops.append(Op(("optimize", "--case", case, "--objective", objective,
                           "--mode", "analytic"),
                          partial(oracle.check_optimize, case=case,
                                  objective=objective, mode="analytic")))
        ops.append(Op(("optimize", "--case", case, "--objective", "equal"),
                      partial(oracle.check_equal, case=case)))
        ops.append(Op(("states", "--case", case),
                      partial(oracle.check_states, case=case)))
        ops.append(Op(("feasibility", "--case", case, "--curve", "vw",
                       "--points", str(CURVE_POINTS)),
                      partial(oracle.check_curve, case=case, points=CURVE_POINTS)))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Op]]
    #: what ``work_per_s`` counts for this workload
    unit: str
    units: Callable[[dict], int]


WORKLOADS = {
    "search": Workload(search_ops, "feasibility evaluation", evaluations),
    "montecarlo": Workload(montecarlo_ops, "Monte Carlo trial",
                           lambda payload: payload["trials"]),
    "certify": Workload(certify_ops, "CLI op", lambda payload: 1),
}
