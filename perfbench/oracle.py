"""Known answers and an independent numpy oracle for the benchmark checks.

Every operation's output is checked here. The exact optima, scores and
region corners come from the paper and the README; feasibility verdicts
at generated points are checked against the feasibility matrix M built
here from the paper's definition and ``numpy.linalg.eigvalsh``, not
from the program's own code. Each check returns ``None`` when the
output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: the three secret functions of each case (paper data), f(0) first
S_F0 = {"3bit": ("01000000", "00110011", "11000011"),
        "2bit": ("0010", "0101", "1001")}

#: exact optimal efficiencies per (case, objective)
OPTIMA = {("3bit", "gamma23"): ("7/127", "112/127", "112/127"),
          ("3bit", "gamma1"): ("112/127", "7/127", "7/127"),
          ("2bit", "gamma23"): ("1/7", "4/7", "4/7"),
          ("2bit", "gamma1"): ("4/7", "1/7", "1/7")}
OPTIMUM_VALUE = {("3bit", "gamma23"): "224/127", ("3bit", "gamma1"): "112/127",
                 ("2bit", "gamma23"): "8/7", ("2bit", "gamma1"): "4/7"}
#: flag overlaps (P12, P13) that realise the optimum corner
CORNER_FLAGS = {"3bit": ("-1", "1"), "2bit": ("-1", "-1")}

#: published closed-form scores and the exact means of the simulated strategies
PUBLISHED = {("3bit", "noclone"): "43/64", ("3bit", "clone"): "3749/4064",
             ("2bit", "noclone"): "11/16", ("2bit", "clone"): "41/56"}
ENUMERATED = {("3bit", "noclone"): "171/256", ("3bit", "clone"): "14981/16256",
              ("2bit", "noclone"): "11/16", ("2bit", "clone"): "41/56"}

#: slice parabola constant c0 and the (v, w) region corner
C0 = {"3bit": Fraction(7, 8), "2bit": Fraction(1, 2)}
V_CORNER = {"3bit": Fraction(28, 127), "2bit": Fraction(2, 7)}

EQUAL_2BIT = (6 - 2 * math.sqrt(2)) / 7

#: Monte Carlo acceptance: |simulated - enumerated| <= Z_BOUND * sigma.
#: Five sigma keeps a false alarm below 1e-6 per simulation, so a few
#: thousand simulations across all runs never trip it by chance.
Z_BOUND = 5.0

#: generated feasibility points keep |lambda_min| above this, so the
#: program's 1e-9 float tolerance and its exact minors must both agree
#: with the float oracle
BOUNDARY_MARGIN = 1e-6


def _np():
    # imported on first use, so only the workloads whose checks need numpy
    # (certify) carry it in their peak_rss_mb
    import numpy
    return numpy


@lru_cache(maxsize=None)
def gram(case: str):
    """Gram matrix of the case's candidate phase states, from the truth tables."""
    np = _np()
    v = np.array([[1 - 2 * int(b) for b in bits] for bits in S_F0[case]])
    return (v @ v.T) / v.shape[1]     # integer sums, one exact division


def feasibility_matrix(case: str, gammas, p12: complex, p13: complex, p23: complex):
    """M_ij = G_ij - sqrt(g_i g_j) G_ij^2 P_ij with P_ii = 1, P_ji = conj(P_ij)."""
    np = _np()
    g = gram(case)
    gam = [float(x) for x in gammas]
    p = np.ones((3, 3), dtype=complex)
    for (i, j), z in (((0, 1), p12), ((0, 2), p13), ((1, 2), p23)):
        p[i, j], p[j, i] = z, z.conjugate()
    root = np.sqrt(np.outer(gam, gam))
    return g - root * g * g * p


def min_eig(m) -> float:
    return float(_np().linalg.eigvalsh(m)[0])


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_analytic(rep: dict, case: str, objective: str) -> str | None:
    key = (case, objective)
    if rep["gammas_exact"] != list(OPTIMA[key]):
        return f"analytic gammas {rep['gammas_exact']} != {list(OPTIMA[key])}"
    if rep["value_exact"] != OPTIMUM_VALUE[key]:
        return f"analytic value {rep['value_exact']} != {OPTIMUM_VALUE[key]}"
    cert = rep["certificate"]
    if cert.get("det_exact") != "0" or cert["psd"] is not True:
        return f"certificate det_exact={cert.get('det_exact')} psd={cert['psd']}"
    return None


def check_numeric(rep: dict, case: str, objective: str) -> str | None:
    """The search lands on the exact optimum, within the CLI's 1e-6 margin."""
    target = float(Fraction(OPTIMUM_VALUE[(case, objective)]))
    if abs(rep["value"] - target) > 1e-6:
        return f"numeric value {rep['value']!r} not within 1e-6 of {target!r}"
    if rep["certificate"]["psd"] is not True:
        return "numeric optimum not certified PSD"
    return None


def check_optimize(payload: dict, case: str, objective: str, mode: str) -> str | None:
    reps = {r["mode"]: r for r in payload["reports"]}
    if mode in ("analytic", "both"):
        bad = check_analytic(reps["analytic"], case, objective)
        if bad:
            return bad
    if mode in ("numeric", "both"):
        bad = check_numeric(reps["numeric"], case, objective)
        if bad:
            return bad
    if mode == "both" and payload.get("regression") is not False:
        return f"regression={payload.get('regression')}"
    return None


def check_equal(payload: dict, case: str) -> str | None:
    rep = payload["reports"][0]
    cert = rep["certificate"]
    m = [[complex(re, im) for re, im in row] for row in cert["M"]]
    if cert["psd"] is not True or min_eig(m) < -1e-9:
        return "equal-efficiency optimum not PSD"
    if rep["gammas"] != [rep["value"]] * 3 or not 0 < rep["value"] < 1:
        return f"equal-efficiency gammas {rep['gammas']}"
    if case == "2bit" and (abs(rep["value"] - EQUAL_2BIT) > 1e-12
                           or rep["value_exact"] != "(6-2*sqrt(2))/7"):
        return f"2bit equal optimum {rep['value']!r} != (6-2*sqrt(2))/7"
    return None


def check_simulate(payload: dict, case: str, strategy: str, trials: int,
                   seed: int) -> str | None:
    key = (case, strategy)
    if payload["exact"] != PUBLISHED[key] or payload["enumerated"] != ENUMERATED[key]:
        return f"scores exact={payload['exact']} enumerated={payload['enumerated']}"
    if payload["trials"] != trials or payload["seed"] != seed:
        return f"echoed trials={payload['trials']} seed={payload['seed']}"
    p = float(Fraction(ENUMERATED[key]))
    sigma = math.sqrt(p * (1 - p) / trials)
    z = (payload["simulated"] - p) / sigma
    if abs(z) > Z_BOUND:
        return f"simulated {payload['simulated']!r} is {z:.2f} sigma from {ENUMERATED[key]}"
    return None


def check_states(payload: dict, case: str) -> str | None:
    np = _np()
    if not np.array_equal(np.array(payload["candidate_gram"]), gram(case)):
        return "candidate Gram differs from the truth-table Gram"
    basis = np.array(payload["basis_gram"])
    if payload["basis_is_orthonormal"] is not True or not np.array_equal(
            basis, np.eye(len(basis))):
        return "S2 basis Gram is not the identity"
    return None


def check_curve(payload: dict, case: str, points: int) -> str | None:
    rows = payload["points"]
    if len(rows) != 2 * points:
        return f"{len(rows)} curve points, want {2 * points}"
    hi = [r for r in rows if r["branch"] == "max_s"]
    lo = [r for r in rows if r["branch"] == "min_s"]
    c0, vc = float(C0[case]), float(V_CORNER[case])
    # max_s starts at (0, c0); both branches meet at the region corner
    if abs(hi[0]["w"] - c0) > 1e-12 or abs(lo[-1]["w"] - c0) > 1e-12:
        return "curve does not start at (0, c0)"
    if abs(hi[-1]["v"] - vc) > 1e-12 or abs(lo[0]["v"] - vc) > 1e-12 \
            or abs(hi[-1]["w"] - lo[0]["w"]) > 1e-12:
        return "curve branches do not meet at the corner"
    return None


def check_corner_point(payload: dict) -> str | None:
    if payload["exact"] is not True or payload["det_exact"] != "0" \
            or payload["psd"] is not True:
        return (f"optimum point exact={payload['exact']} "
                f"det_exact={payload.get('det_exact')} psd={payload['psd']}")
    if any(Fraction(x) < 0 for x in payload["minors_exact"]):
        return "negative leading minor at the optimum"
    return None


def check_point(payload: dict, m_bench, exact: bool) -> str | None:
    """Verdict, route and matrix of a generated point against the oracle."""
    np = _np()
    lam = min_eig(m_bench)
    if payload["exact"] is not exact:
        return f"route exact={payload['exact']}, expected {exact}"
    if payload["psd"] is not (lam > 0):
        return f"psd={payload['psd']} but eigvalsh lambda_min={lam!r}"
    m_prog = np.array([[complex(re, im) for re, im in row] for row in payload["M"]])
    if np.max(np.abs(m_prog - m_bench)) > 1e-12:
        return "matrix M differs from the oracle"
    if abs(payload["min_eigenvalue"] - lam) > 1e-9:
        return f"min_eigenvalue {payload['min_eigenvalue']!r} vs eigvalsh {lam!r}"
    return None
