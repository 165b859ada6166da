"""Probabilistic-cloning feasibility: the PSD criterion and its reduced form.

An efficiency vector Gamma = (gamma1, gamma2, gamma3) is achievable for
cloning three linearly independent candidate states iff, for some flag
overlaps P (inner products of the heralding-flag failure states,
|P_ij| <= 1), the matrix

    M_ij = G_ij - sqrt(gamma_i gamma_j) * G_ij^2 * P_ij      (P_ii = 1)

is positive semidefinite, where G is the candidates' Gram matrix. M is
only ever built from the two case Grams ``case_gram(case)``, which are
arrow matrices (below), so M_23 = 0 and only P12 and P13 enter M. This
module builds M on one of two routes, and ``_int_matrix`` alone decides
which: exact when Gamma, P12 and P13 are rational and every needed
sqrt(gamma1 gamma_j) is rational, a zero flag taking the root 0/1 (the
certificate route, tested by its principal minors), else complex floats
from ``_float_matrix``, the one float assembly, tested by the closed-form
eigenvalues. The exact route computes in integers over one common
denominator D (``_int_matrix``), a k x k minor being an integer over D**k
(fraction-free, as in Bareiss's elimination), and hands out Fractions.
Both routes take their minors from one formula, ``_arrow_minors``.
It also implements the reduced coordinates that collapse the criterion on
the gamma2 = gamma3 slice to

    c0 - q*x + s*x^2  >=  y  >=  2*x  >=  0

with x = sqrt(gamma1*gamma2), y = gamma1 + gamma2, and (q, s) quadratic
in the flag components. Closed-form boundary curves of the (q, s) and
(v, w) regions are provided as data. Like M, the reduced coordinates of
rational inputs are computed fraction-free: (q, s), the region check,
x = sqrt(gamma1 gamma2) and the stationary point run on integer
numerators and denominators, and one Fraction is built per returned
value. Where a root is irrational, each float is the correctly rounded
int / int of the rational that the mixed Fraction-float expression would
round, so every digit is the same. Float inputs keep their mixed
arithmetic; the input type is the only branch.

Both case Grams ``case_gram(case)`` are real with unit diagonal, G_23 = 0
and |G_12| = |G_13| = g (1/4 for 3-bit, 1/2 for 2-bit); write
sigma_j = sign(G_1j), d_i = 1 - gamma_i and m_j = |M_1j|.

Slice constants (``case_params``). With P12 = a + b*i, P13 = c + d*i and
|P|^2 = a^2 + b^2 + c^2 + d^2, det M = d2 * (d1*d2 - m_2^2 - m_3^2) on
gamma2 = gamma3 < 1, where d1*d2 = 1 - y + x^2 and
m_j^2 = g^2 * |1 - x*G_1j*P_1j|^2, so det M >= 0 is y <= c0 - q*x + s*x^2:

    c0 = 1 - 2*g^2,
    q  = (a + sigma_2*sigma_3*c) * (-2*sigma_2*g^3),
    s  = 1 - g^4 * |P|^2.

|q| <= q_bound = 4*g^3, and q = -q_bound only at P_1j = sigma_j, where
|P|^2 = 2 gives the least s, s_floor = 1 - 2*g^4. At fixed q, |P|^2 is
least at b = d = 0, a = sigma_2*sigma_3*c: s <= s_cap(q) = 1 - q^2/(8*g^2).
The region's corner ``corner(case)`` is q = -q_bound, s = s_floor =
s_cap(q) and v = stationary_x1(q, s), realised by the flags
P_1j = sigma_j, ``case_params(case).signs``. Both are derived from the
case Gram on first use and cached.

Sign-flag lemma. For every Gamma in [0, 1]^3 and all flags with
|P_12|, |P_13| <= 1 (P23 arbitrary), M at the real flags P_1j = sigma_j,
which are ``case_params(case).signs``, has every principal minor, and
lambda_min, at least as large as M at the given flags. So no complex or
other real flag ever enlarges the feasible set of Gamma.

Proof. M_23 = 0 and M_1j = G_1j * (1 - r*sigma_j*P_1j) with
r = sqrt(gamma1 gammaj) * g <= 1/2, and |1 - r*sigma_j*P_1j| >=
1 - r*|P_1j| >= 1 - r > 0, with equality at P_1j = sigma_j, so m_j is
smallest there. Conjugating M by a diagonal unitary makes M_12 and M_13
real and nonnegative, so the eigenvalues, and the principal minors d_i,
d_i d_j - |M_ij|^2 and det M = d1 d2 d3 - m_2^2 d3 - m_3^2 d2, depend on
the flags only through m_2 and m_3, and each minor is nonincreasing in
both. So is lambda_min = min over unit x of
sum_i d_i x_i^2 - 2 m_2 |x1 x2| - 2 m_3 |x1 x3|
(flipping the signs of x2 and x3 attains this form), a minimum of
functions that are each nonincreasing in m_2 and m_3. Both the exact
test (Sylvester's minors) and the float test (lambda_min >= -tol) can
therefore only pass more easily at the sign flags.

Symmetrisation lemma. At the sign flags, if Gamma = (gamma1, gamma2,
gamma3) is feasible then so is (gamma1, gbar, gbar) with
gbar = (gamma2 + gamma3)/2: the same gamma1 and the same gamma2 + gamma3.
With the sign-flag lemma, the maximum of gamma2 + gamma3, or of gamma1,
over all Gamma and all flags is therefore its maximum on the
gamma2 = gamma3 slice at the sign flags, the corner that
``optimize.analytic_optimum`` reports (gamma2 + gamma3 = 224/127 for
3-bit, 8/7 for 2-bit).

Proof. At the sign flags m_j = g*(1 - a*sqrt(gamma_j)) with
a = g*sqrt(gamma1) in [0, 1/2]. If gamma_j = 1 then d_j = 0 while
m_j >= g*(1 - a) > 0, so the minor d1*d_j - m_j^2 < 0 and Gamma is
infeasible. Else d2, d3 > 0, and the arrow matrix M is PSD iff its Schur
complement d1 - m_2^2/d2 - m_3^2/d3 is >= 0, that is iff

    1 - gamma1  >=  g^2 * (h_a(gamma2) + h_a(gamma3)),
    h_a(gamma) = (1 - a*sqrt(gamma))^2 / (1 - gamma).

h_a is convex on [0, 1). With v = sqrt(gamma) in (0, 1),
4*v^3 * h_a''(gamma) = N / (v^2 - 1)^3, where

    N = -8*a^2*v^3 + a*(6*v^4 + 12*v^2 - 2) - 8*v^3,

and (v^2 - 1)^3 < 0, so h_a'' >= 0 iff N <= 0. If 6*v^4 + 12*v^2 - 2 <= 0,
every term of N is <= 0. Otherwise v^2 > 2/sqrt(3) - 1 > 1/9, and N is a
concave quadratic in a whose discriminant
(6*v^4 + 12*v^2 - 2)^2 - 256*v^6 = 4*(v^2 - 1)^3*(9*v^2 - 1) is negative,
so N < 0. h_a is continuous at 0, so it is convex on all of [0, 1). By
Jensen, h_a(gamma2) + h_a(gamma3) >= 2*h_a(gbar), so (gamma1, gbar, gbar)
passes the Schur test whenever Gamma does, and gbar < 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from ._exact import exact_sqrt, surd_text
from .phasestate import GramMatrix, case_gram

#: the fixed margin of every float PSD verdict: lambda_min(M) >= -DEFAULT_TOL.
#: The numeric search's ``ArrowKernel`` uses half of it, strictly inside
#: this margin, so that every optimum it reports passes this verdict.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class _CaseParams:
    g: Fraction           # |G_12| = |G_13|
    signs: tuple          # (sign(G_12), sign(G_13)), the corner flags
    c0: Fraction          # constant term of the slice parabola
    q_bound: Fraction     # |q| <= q_bound
    s_floor: Fraction     # minimum s
    q_coeff: Fraction     # -2*sigma_2*g^3: q = (a + sigma_2*sigma_3*c) * q_coeff
    g4: Fraction          # g^4: s = 1 - g^4 * |P|^2
    cap: Fraction         # 8*g^2: s_cap(q) = 1 - q^2 / cap
    # floats that vw_boundary's float parameters mix with, each rounded
    # once: c0^2, cap, 2 - c0, 2*(1 - c0) for max_s, and 4*c0*s, 16*c0*s,
    # 4*s, c0, s at s = s_floor for min_s
    max_s_floats: tuple
    min_s_floats: tuple


@cache
def case_params(case: str) -> _CaseParams:
    """The slice constants of ``case``, read off its exact Gram (module
    docstring), with the derived ones the reduced coordinates use, so no
    ``Fraction ** k`` runs per call."""
    g12, g13 = case_gram(case).entries[0][1:]
    g = abs(g12)
    signs = tuple(1 if x > 0 else -1 for x in (g12, g13))
    c0, s, cap = 1 - 2 * g ** 2, 1 - 2 * g ** 4, 8 * g ** 2
    return _CaseParams(g=g, signs=signs, c0=c0, q_bound=4 * g ** 3, s_floor=s,
                       q_coeff=-2 * signs[0] * g ** 3, g4=g ** 4, cap=cap,
                       max_s_floats=tuple(map(float, (c0 * c0, cap, 2 - c0, 2 * (1 - c0)))),
                       min_s_floats=tuple(map(float, (4 * c0 * s, 16 * c0 * s, 4 * s, c0, s))))


@cache
def corner(case: str) -> tuple:
    """The region corner (q, s, v) = (-q_bound, s_floor, stationary_x1(q, s)),
    realised by the flags ``case_params(case).signs`` (module docstring)."""
    cp = case_params(case)
    q = -cp.q_bound
    return q, cp.s_floor, stationary_x1(q, cp.s_floor, case)


def _cap_ints(qn: int, qd: int, cp: _CaseParams) -> tuple[int, int]:
    """s_cap(q) = 1 - q^2 / (8*g^2) at q = qn/qd as an integer pair (n, d), d > 0."""
    kn, kd = cp.cap.numerator, cp.cap.denominator
    return kn * qd * qd - kd * qn * qn, kn * qd * qd


def s_cap(q, case: str):
    """Maximum attainable s for a given q (flags real, balanced); in
    integers at a rational q."""
    cp = case_params(case)
    if isinstance(q, float):
        return 1 - q * q / cp.cap
    return Fraction(*_cap_ints(q.numerator, q.denominator, cp))


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)

#: the relative slack a float flag's |P|^2 <= 1 is checked with
#: (``math.isclose``'s default); ``_check_qs`` derives its float slack from it
_FLAG_TOL = 1e-9


def _coerce_component(x):
    """Keep ints/Fractions exact (a Fraction comes back as itself),
    everything else becomes float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def _to_float(x) -> float:
    """float(x); a Fraction as the correctly rounded int / int that
    float(Fraction) computes, without its property lookups and int() calls."""
    return x.numerator / x.denominator if type(x) is Fraction else float(x)


def _coerce_pair(p):
    """Accept real, complex, or (re, im) and return a (re, im) pair."""
    if isinstance(p, complex):
        return (float(p.real), float(p.imag))
    if isinstance(p, (tuple, list)):
        if len(p) != 2:
            raise ValueError(f"expected (re, im) pair, got {p!r}")
        return (_coerce_component(p[0]), _coerce_component(p[1]))
    return (_coerce_component(p), _ZERO)


@dataclass(frozen=True)
class EfficiencyVector:
    """Cloning success probabilities (gamma1, gamma2, gamma3), each in [0, 1]."""

    gammas: tuple

    def __init__(self, gammas):
        gs = tuple(map(_coerce_component, gammas))
        if len(gs) != 3:
            raise ValueError("need exactly three efficiencies")
        for g in gs:
            # a Fraction in integers: 0 <= n/d <= 1 iff 0 <= n <= d
            if not (0 <= g.numerator <= g.denominator if isinstance(g, Fraction)
                    else 0 <= g <= 1):
                raise ValueError(f"efficiency {g} outside [0, 1]")
        object.__setattr__(self, "gammas", gs)

    def __iter__(self):
        return iter(self.gammas)

    def __getitem__(self, i):
        return self.gammas[i]

    def as_floats(self) -> tuple[float, float, float]:
        return tuple(map(_to_float, self.gammas))


@dataclass(frozen=True)
class FlagOverlaps:
    """Pairwise inner products of the heralding-flag failure states.

    P12 = a + b*i and P13 = c + d*i enter M. P23 is echoed only: it
    multiplies G_23 = 0 in both cases, so no route or verdict reads it.
    """

    p12: tuple
    p13: tuple
    p23: tuple

    def __init__(self, p12=0, p13=0, p23=0):
        for name, val in (("p12", p12), ("p13", p13), ("p23", p23)):
            x, y = pair = _coerce_pair(val)
            if float in map(type, pair):
                if any(isinstance(z, float) and not math.isfinite(z) for z in pair):
                    raise ValueError(f"{name} must be finite, got {val!r}")
                mod2 = x * x + y * y
                outside = mod2 > 1 and not math.isclose(mod2, 1, rel_tol=_FLAG_TOL)
            else:
                # exactly, in integers: |P|^2 <= 1 iff (xn*yd)^2 + (yn*xd)^2 <= (xd*yd)^2
                xd, yd = x.denominator, y.denominator
                outside = (x.numerator * yd) ** 2 + (y.numerator * xd) ** 2 > (xd * yd) ** 2
            if outside:
                raise ValueError(f"|{name}| exceeds 1: |{name}|^2 = {x * x + y * y}")
            object.__setattr__(self, name, pair)


@dataclass(frozen=True)
class FeasibilityPoint:
    """A (Gram, Gamma, P) triple with its derived Hermitian matrix M."""

    gram: GramMatrix
    eff: EfficiencyVector
    flags: FlagOverlaps
    matrix: tuple                 # 3x3 of complex (always available)
    # the exact route's integer form (A, D): M = A / D with A a 3x3 of
    # integer (re, im) pairs and D > 0; None on the float route
    scaled: tuple | None
    _SIZES = (1, 1, 1, 2, 2, 2, 3)    # each principal minor's k, in their order

    @property
    def is_exact(self) -> bool:
        return self.scaled is not None

    @property
    def exact_matrix(self) -> tuple | None:
        """M as a 3x3 of (re, im) Fraction pairs on the exact route, else None."""
        if self.scaled is None:
            return None
        a, d = self.scaled
        return tuple(tuple((Fraction(x, d), Fraction(y, d)) for x, y in r) for r in a)

    @cached_property
    def _minor_numerators(self) -> tuple:
        """The seven principal minors in ``principal_minors``' order, by
        ``_arrow_minors``, computed once per point. On the exact route they
        are A's, integers, a k x k one being M's times D**k; on the float
        route they are M's (D = 1), with det M by ``_det3``."""
        if self.scaled is None:
            m = self.matrix
            d1, d2, d3 = (m[i][i].real for i in range(3))
            lower = _arrow_minors(d1, d2, d3, abs(m[0][1]) ** 2, abs(m[0][2]) ** 2)[:6]
            return (*lower, _det3(d1, d2, d3, m[0][1], m[0][2]))
        a = self.scaled[0]
        (x12, y12), (x13, y13) = a[0][1], a[0][2]
        return _arrow_minors(a[0][0][0], a[1][1][0], a[2][2][0],
                             x12 * x12 + y12 * y12, x13 * x13 + y13 * y13)

    def _minors(self, idx) -> list:
        """The principal minors ``idx``: Fractions on the exact route, else floats."""
        nums, d = self._minor_numerators, self.scaled and self.scaled[1]
        return [Fraction(nums[i], d ** self._SIZES[i]) if d else nums[i] for i in idx]

    @cached_property
    def _min_eig(self) -> float:
        return hermitian3_eigvals(self.matrix)[0]

    def min_eigenvalue(self) -> float:
        """lambda_min(M) by ``hermitian3_eigvals``, computed once per point."""
        return self._min_eig

    def leading_minors(self) -> list:
        """The three leading principal minors (exact when possible)."""
        return self._minors((0, 3, 6))

    def principal_minors(self) -> list:
        """All seven principal minors, ordered by size then index set."""
        return self._minors(range(7))

    def det(self):
        """Determinant of M (real; exact Fraction in rational mode)."""
        return self._minors((6,))[0]

    def to_json(self) -> dict:
        minors = self.leading_minors()    # the last is det M
        out = {
            "gram": self.gram.to_lists(),
            "gammas": list(map(_to_float, self.eff.gammas)),
            "P12": list(map(_to_float, self.flags.p12)),
            "P13": list(map(_to_float, self.flags.p13)),
            "P23": list(map(_to_float, self.flags.p23)),
            "psd": is_psd(self),
            "minors": list(map(_to_float, minors)),
            "min_eigenvalue": self.min_eigenvalue(),
            "M": [[[z.real, z.imag] for z in row] for row in self.matrix],
            "det": _to_float(minors[2]),
            "exact": self.is_exact,
        }
        if self.is_exact:
            out["minors_exact"] = [str(x) for x in minors]
            out["det_exact"] = str(minors[2])
        return out


# ---------------------------------------------------------------------------
# building and testing M
# ---------------------------------------------------------------------------

def _int_matrix(g1j: tuple, eff: EfficiencyVector, flags: FlagOverlaps):
    """(A, D) with M = A / D, or None for the float route: the one place the
    route is decided.

    None when any component of Gamma, P12 or P13 is a float (tested first:
    ``(0.0, 0.0) == (0, 0)``), or when a needed sqrt(gamma1 gamma_j) is
    irrational (``_product_root``). A zero flag P_1j needs none and takes
    the root 0/1.
    ``g1j`` is the case Gram's (G_12, G_13); its diagonal is 1 and
    G_23 = 0, so A_23 = 0. Over the lcm L of the entry denominators,
    dividing out the gcd of L and all numerators leaves D > 0, the least
    common denominator.
    """
    if float in map(type, eff.gammas + flags.p12 + flags.p13):
        return None
    ents = [(e.denominator - e.numerator, 0, e.denominator) for e in eff]
    for j, g, (x, y) in zip((1, 2), g1j, (flags.p12, flags.p13)):
        root = (0, 1) if (x, y) == (0, 0) else _product_root(eff[0], eff[j])
        if root is None:
            return None
        rn, rd = root
        # G - r*G^2*(x + y*i) with r = rn/rd, over rd * gd^2 * xd * yd
        gn, gd, xd, yd = g.numerator, g.denominator, x.denominator, y.denominator
        t = rn * gn * gn
        ents.append((gn * rd * gd * xd * yd - t * x.numerator * yd,
                     -t * y.numerator * xd, rd * gd * gd * xd * yd))
    big = math.lcm(*(den for _, _, den in ents))
    nums = [(re * (big // den), im * (big // den)) for re, im, den in ents]
    k = math.gcd(big, *(x for z in nums for x in z))
    d1, d2, d3, m12, m13 = ((re // k, im // k) for re, im in nums)
    a = ((d1, m12, m13),
         ((m12[0], -m12[1]), d2, (0, 0)),
         ((m13[0], -m13[1]), (0, 0), d3))
    return a, big // k


def _product_root(u: Fraction, v: Fraction) -> tuple[int, int] | None:
    """sqrt(u*v) for rationals u, v >= 0 as integers (n, d), or None when it is
    irrational: u*v = a/b has a rational root iff a*b = n^2, the root being n/b."""
    b = u.denominator * v.denominator
    n = math.isqrt(ab := u.numerator * v.numerator * b)
    return (n, b) if n * n == ab else None


def build_matrix(case: str, eff: EfficiencyVector, flags: FlagOverlaps) -> FeasibilityPoint:
    """Assemble M_ij = G_ij - sqrt(gamma_i gamma_j) G_ij^2 P_ij on ``case_gram(case)``.

    ``_int_matrix`` decides the route: an exact point in integers when
    Gamma, P12 and P13 are rational and every required sqrt(gamma1*gamma_j)
    is rational (a zero flag takes the root 0/1), its floats being the
    correctly rounded quotients re / D and im / D. All other points get
    complex float entries from ``_float_matrix``.
    """
    g = case_gram(case)
    g1j = g.entries[0][1:]
    scaled = _int_matrix(g1j, eff, flags)
    if scaled is None:
        matrix = _float_matrix(*map(complex, g1j), eff.as_floats(),
                               *(complex(*map(float, p)) for p in (flags.p12, flags.p13)))
    else:
        a, d = scaled
        matrix = tuple(tuple(complex(re / d, im / d) for re, im in row) for row in a)
    return FeasibilityPoint(g, eff, flags, matrix, scaled)


def _float_matrix(g12: complex, g13: complex, gammas, p12: complex, p13: complex) -> tuple:
    """M in complex arithmetic from a case Gram's first row (G_12, G_13).

    The one float assembly of M, used by ``build_matrix``'s float route.
    Each lower entry is the upper one's conjugate written as
    ``complex(re, 0.0 - im)``, so a zero imaginary part stays +0.0
    (``.conjugate()`` would print -0.0).
    """
    g1, g2, g3 = gammas
    m12 = g12 - math.sqrt(g1 * g2) * g12 ** 2 * p12
    m13 = g13 - math.sqrt(g1 * g3) * g13 ** 2 * p13
    return ((complex(1 - g1), m12, m13),
            (complex(m12.real, 0.0 - m12.imag), complex(1 - g2), 0j),
            (complex(m13.real, 0.0 - m13.imag), 0j, complex(1 - g3)))


def _arrow_minors(d1, d2, d3, n12, n13) -> tuple:
    """The seven principal minors, in ``principal_minors``' order, of a
    Hermitian arrow 3x3 (M_23 = 0) with diagonal d_i and n_1j = |M_1j|^2:
    d_i, d1 d2 - n12, d1 d3 - n13, d2 d3 and
    det = d1 d2 d3 - d2 n13 - d3 n12. Any ring's values serve: integers on
    the exact route, floats on the float route."""
    return (d1, d2, d3, d1 * d2 - n12, d1 * d3 - n13, d2 * d3,
            d1 * d2 * d3 - d2 * n13 - d3 * n12)


def _det3(a11, a22, a33, m12, m13):
    """det of the Hermitian arrow 3x3 with real diagonal a_ii, upper first
    row m12, m13 and M_23 = 0, by cofactors along the first row. Floats
    have ``.conjugate()`` and ``.real`` too, so real entries take the same
    expansion in floats."""
    m21, m31 = m12.conjugate(), m13.conjugate()
    return (a11 * (a22 * a33) - m12 * (m21 * a33) - m13 * (a22 * m31)).real


def hermitian3_eigvals(m) -> tuple[float, float, float]:
    """Ascending eigenvalues of a Hermitian arrow 3x3 (M_23 = 0, not read).

    The trigonometric closed form of the characteristic cubic (Smith,
    "Eigenvalues of a symmetric 3x3 matrix", CACM 4(4), 1961), computed
    from the real diagonal and the upper triangle: with
    q = tr(m)/3, p^2 = |m - q*I|_F^2 / 6 and phi = acos(det((m - q*I)/p)/2)/3,
    the eigenvalues are q + 2*p*cos(phi + 2*pi*k/3). Deterministic and
    dependency-free, accurate to ~1e-14 at this fixed size except near a
    double root, where acos turns the rounding of its argument into a
    square-root-sized error.
    """
    a11, a22, a33, m12, m13 = m[0][0].real, m[1][1].real, m[2][2].real, m[0][1], m[0][2]
    p1 = abs(m12) ** 2 + abs(m13) ** 2
    q = (a11 + a22 + a33) / 3.0
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    # test p, not p2: a subnormal p2 > 0 can underflow p2 / 6 to zero
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return (q, q, q)
    detb = _det3((a11 - q) / p, (a22 - q) / p, (a33 - q) / p, m12 / p, m13 / p)
    r = max(-1.0, min(1.0, detb / 2.0))
    phi = math.acos(r) / 3.0
    e_hi = q + 2.0 * p * math.cos(phi)
    e_lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e_mid = 3.0 * q - e_hi - e_lo
    return tuple(sorted((e_lo, e_mid, e_hi)))


def is_psd(point: FeasibilityPoint) -> bool:
    """Positive semidefiniteness of M: the one PSD verdict of a point,
    which ``FeasibilityPoint.to_json`` reports as ``psd``.

    Exact points use Sylvester's criterion for PSD (all seven principal
    minors nonnegative, not only the leading three); float points test
    the smallest closed-form eigenvalue against -``DEFAULT_TOL``.
    """
    if point.is_exact:
        return all(n >= 0 for n in point._minor_numerators)
    return point.min_eigenvalue() >= -DEFAULT_TOL


# ---------------------------------------------------------------------------
# float kernel for the numeric search
# ---------------------------------------------------------------------------

class ArrowKernel:
    """Float PSD verdicts of M at the numeric search's points, at the corner flags.

    A search point is Gamma = (gamma1, gamma2, gamma3), and ``case`` names
    the case Gram. The flags are the corner flags P_1j = sigma_j =
    sign(G_1j), which by the sign-flag lemma (module docstring) are
    feasible wherever any flags are, for the computed verdict too
    (below). There M_1j = sigma_j * m_j with the moduli

        m_j = g - sqrt(gamma1 gammaj) * g^2,

    so the kernel keeps g and g^2 as floats and reads no flag. Dropping
    the product by sigma_j is bit-exact: a product by +-1 is exact and
    rounding commutes with negation, so the computed M_1j is
    +-(computed m_j), and m_j^2 and the determinant are those of M
    assembled at the corner flags as in ``_float_matrix``, the assembly
    of ``build_matrix``'s float route. Every point lies in the search box,
    each gamma in [0, 1]; the kernel does not check it.

    M is an arrow matrix (G_23 = 0). Let t = ``DEFAULT_TOL`` / 2, A = M + t*I
    and d_i = A_ii = 1 - gamma_i + t. Because d2, d3 > 0, Cauchy interlacing
    puts lambda_2(A) in [min(d2, d3), max(d2, d3)], so

        det A = d1*d2*d3 - m_2^2 * d3 - m_3^2 * d2

    has the sign of lambda_1(A) = lambda_min(M) + t: one Schur-complement
    test replaces the eigenvalues, and the computed determinant is the
    verdict. Each rounding step of it is monotone in |M_12| and |M_13|,
    and the computed |M_1j| is smallest at sign(G_1j), so the sign-flag
    lemma holds for the computed verdict too. The margin t is half of the
    certificate's, so a point the kernel accepts passes ``is_psd``, whose
    closed-form lambda_min rounds by about 2.5e-16 near 0. t is read at
    call time, from the module's ``DEFAULT_TOL``.

    ``slack`` is the verdict at one point. Two more paths give verdicts
    bit for bit those of ``slack``, each computing shared terms once.
    ``move`` gives the move a refine sweep takes around a point, in one
    pass over its compass candidates: a move of one or two coordinates
    changes only the d_i and m_j that depend on them, so the point's
    other terms are computed once for all the candidates, and a
    candidate whose objective is below the point's gets no determinant.
    ``first_block`` finds a grid slab's first feasible (gamma2, gamma3)
    block: in a slab of fixed gamma1, d_i and m_j^2 take one value per
    grid gamma, the same for j = 2 and 3, so they are tabulated once and
    each block costs one determinant.
    """

    def __init__(self, case: str):
        self._g = float(case_params(case).g)
        self._gg = self._g * self._g

    def slack(self, gammas) -> float | None:
        """The Schur complement det(A) / (d2*d3) of A = M + t*I at a point
        Gamma where det A >= 0, else None.

        It is f(0) for the secular function
        f(lam) = (d1 - lam) - m_2^2/(d2 - lam) - m_3^2/(d3 - lam), which
        is strictly decreasing below min(d2, d3) and vanishes at
        lambda_min(A), so it has the sign of lambda_min(M) + t; the search
        ranks moves by it. The point must lie in the search box (class
        docstring).
        """
        g1, g2, g3 = gammas
        t = DEFAULT_TOL / 2
        u = self._g - math.sqrt(g1 * g2) * self._gg
        w = self._g - math.sqrt(g1 * g3) * self._gg
        d2, d3 = 1.0 - g2 + t, 1.0 - g3 + t
        det = (1.0 - g1 + t) * d2 * d3 - u * u * d3 - w * w * d2
        if det < 0:
            return None
        return det / (d2 * d3)

    def move(self, gammas, step, value, objective) -> tuple:
        """The move of one refine sweep around a point of the box:
        (n, best), with n the sweep's candidates and best the largest
        (objective, slack, candidate) among those whose objective is not
        below ``value`` and whose ``slack`` is not None, else ().

        The candidates are the moves of one gamma by +-``step``, then the
        paired moves of gamma2 and gamma3 by (+-, +-), which walk the
        symmetric ridge directly, in that order, each gamma clamped to
        [0, 1]; n counts those the clamp leaves distinct from the point,
        and of equal triples the first is kept. Each objective is
        ``objective``'s float operation, gamma2 + gamma3 or gamma1, and
        each slack is the one ``slack(candidate)`` returns, to the bit: the
        point's d_i and m_j are computed once, a move recomputes only the
        terms it changes, and every term and the determinant come from the
        float operations ``slack`` performs, in its order. A candidate
        whose objective is below ``value`` can never be the move, so it
        gets no determinant.
        """
        g1, g2, g3 = gammas
        ridge = objective == "gamma23"
        t = DEFAULT_TOL / 2
        g, gg = self._g, self._gg
        u = g - math.sqrt(g1 * g2) * gg
        w = g - math.sqrt(g1 * g3) * gg
        d1, d2, d3 = 1.0 - g1 + t, 1.0 - g2 + t, 1.0 - g3 + t
        uu, ww, d23 = u * u, w * w, d2 * d3
        d12 = d1 * d2
        n = 0
        best = ()           # below every (objective, slack, candidate)
        for x in (min(g1 + step, 1.0), max(g1 - step, 0.0)):  # d1, m_2, m_3 move
            if x != g1:
                n += 1
                v = g2 + g3 if ridge else x
                if v >= value:
                    ux = g - math.sqrt(x * g2) * gg
                    wx = g - math.sqrt(x * g3) * gg
                    det = (1.0 - x + t) * d2 * d3 - ux * ux * d3 - wx * wx * d2
                    if not det < 0:
                        key = v, det / d23, (x, g2, g3)
                        if key > best:
                            best = key
        moved2 = []        # d2 and m_2 move
        for x in (min(g2 + step, 1.0), max(g2 - step, 0.0)):
            ux = g - math.sqrt(g1 * x) * gg
            e, uux = 1.0 - x + t, ux * ux
            moved2.append((x, e, uux))
            if x != g2:
                n += 1
                v = x + g3 if ridge else g1
                if v >= value:
                    det = d1 * e * d3 - uux * d3 - ww * e
                    if not det < 0:
                        key = v, det / (e * d3), (g1, x, g3)
                        if key > best:
                            best = key
        moved3 = []        # d3 and m_3 move
        for x in (min(g3 + step, 1.0), max(g3 - step, 0.0)):
            wx = g - math.sqrt(g1 * x) * gg
            e, wwx = 1.0 - x + t, wx * wx
            moved3.append((x, e, wwx))
            if x != g3:
                n += 1
                v = g2 + x if ridge else g1
                if v >= value:
                    det = d12 * e - uu * e - wwx * d2
                    if not det < 0:
                        key = v, det / (d2 * e), (g1, g2, x)
                        if key > best:
                            best = key
        for x2, e2, uux in moved2:
            for x3, e3, wwx in moved3:
                if x2 != g2 or x3 != g3:
                    n += 1
                    v = x2 + x3 if ridge else g1
                    if v >= value:
                        det = d1 * e2 * e3 - uux * e3 - wwx * e2
                        if not det < 0:
                            key = v, det / (e2 * e3), (g1, x2, x3)
                            if key > best:
                                best = key
        return n, best

    def first_block(self, g1, axis, order):
        """The first block (axis[i2], axis[i3]), for (i2, i3) in ``order``,
        at which ``slack((g1, axis[i2], axis[i3]))`` is not None, else
        None. The point must lie in the search box (class docstring).

        The d_i and m_j^2 of every grid gamma are computed once per call,
        from the float operations ``slack`` performs, in its order; m_2^2
        at gamma2 = x is m_3^2 at gamma3 = x, so one table serves both.
        Each block then costs one determinant, and its test
        ``not det < 0`` is ``slack``'s verdict to the bit.
        """
        t = DEFAULT_TOL / 2
        g, gg = self._g, self._gg
        d1 = 1.0 - g1 + t
        d = [1.0 - x + t for x in axis]
        d1d = [d1 * e for e in d]
        mm = [m * m for m in [g - math.sqrt(g1 * x) * gg for x in axis]]
        for i2, i3 in order:
            if not d1d[i2] * d[i3] - mm[i2] * d[i3] - mm[i3] * d[i2] < 0:
                return axis[i2], axis[i3]
        return None


# ---------------------------------------------------------------------------
# reduced coordinates
# ---------------------------------------------------------------------------

def reduce(flags: FlagOverlaps, case: str):
    """Flag components to (q, s); exact when the components are rational,
    computed in integers over their least common denominator l."""
    cp = case_params(case)
    (a, b), (c, d) = flags.p12, flags.p13
    sign = cp.signs[0] * cp.signs[1]
    if float in map(type, (a, b, c, d)):
        return (a + sign * c) * cp.q_coeff, 1 - cp.g4 * (a * a + b * b + c * c + d * d)
    ad, bd, cd, dd = a.denominator, b.denominator, c.denominator, d.denominator
    l = math.lcm(ad, bd, cd, dd)
    an, bn, cn, dn = (a.numerator * (l // ad), b.numerator * (l // bd),
                      c.numerator * (l // cd), d.numerator * (l // dd))
    k, g4 = cp.q_coeff, cp.g4
    den = l * l * g4.denominator
    return (Fraction((an + sign * cn) * k.numerator, l * k.denominator),
            Fraction(den - g4.numerator * (an * an + bn * bn + cn * cn + dn * dn), den))


def _is_exact(q, s) -> bool:
    """(q, s) are exact iff both are ints or Fractions: floats iff either is a float."""
    return isinstance(q, (int, Fraction)) and isinstance(s, (int, Fraction))


def _slice_endpoint(q, s, case: str):
    """The slice's x = 0 endpoint (gamma1, gamma2) = (0, c0), typed by ``_is_exact``."""
    c0 = case_params(case).c0
    return (Fraction(0), c0) if _is_exact(q, s) else (0.0, float(c0))


def _check_qs(q, s, case: str):
    """Reject (q, s) outside the region |q| <= q_bound, s_floor <= s <= s_cap(q).

    Rational (q, s) are compared exactly, in integers. Floats get a slack
    of ``_FLAG_TOL``: a float flag passes ``FlagOverlaps`` with |P_1j|^2 up
    to about 1 + _FLAG_TOL, which moves |q| past q_bound by at most
    q_bound * _FLAG_TOL / 2 and s below s_floor by at most
    2*g^4 * _FLAG_TOL, both below _FLAG_TOL since q_bound, 2*g^4 <= 1/2;
    s <= s_cap(q) holds at every flag, so only rounding moves s past it.
    """
    cp = case_params(case)
    if _is_exact(q, s):
        qn, qd, sn, sd = q.numerator, q.denominator, s.numerator, s.denominator
        bound, floor = cp.q_bound, cp.s_floor
        cap_n, cap_d = _cap_ints(qn, qd, cp)
        outside = (abs(qn) * bound.denominator > bound.numerator * qd
                   or sn * floor.denominator < floor.numerator * sd or sn * cap_d > cap_n * sd)
    else:
        slack = _FLAG_TOL
        outside = (abs(q) > cp.q_bound + slack or s < cp.s_floor - slack
                   or s > s_cap(q, case) + slack)
    if outside:
        raise ValueError(f"(q, s) = ({float(q)}, {float(s)}) outside the {case} region")


def _sqrt_any(x):
    """Exact sqrt for rational perfect squares, float otherwise."""
    if isinstance(x, Fraction):
        r = exact_sqrt(x)
        if r is not None:
            return r
    if x < 0:
        raise ValueError(f"negative discriminant {float(x)}")
    return math.sqrt(x)


def _x0_terms(q, s, case: str):
    """(2 + q, disc, 2*s) with x0 = ((2 + q) - sqrt(disc)) / (2*s)."""
    _check_qs(q, s, case)
    disc = (2 + q) ** 2 - 4 * case_params(case).c0 * s
    if disc < 0:
        raise ValueError("no intersection: negative discriminant")
    return 2 + q, disc, 2 * s


def intersection_x0(q, s, case: str):
    """Smaller root of c0 - q*x + s*x^2 = 2*x (the larger root exceeds 1)."""
    p, disc, r = _x0_terms(q, s, case)
    return (p - _sqrt_any(disc)) / r


def intersection_x0_text(q, s, case: str) -> str:
    """``intersection_x0`` at rational (q, s) as exact text (see ``surd_text``)."""
    return surd_text(*_x0_terms(q, s, case))


def stationary_x1(q, s, case: str):
    """The x where gamma2 is stationary along y = c0 - q*x + s*x^2,

        x1 = (a + sqrt(disc)) / (4*s*q),  a = 4*c0*s + q^2 - 4,
        disc = a^2 - 16*c0*s*q^2,

    in integers at rational (q, s) (``_exact_x1``). Singular at q = 0
    (the stationary point escapes to x = 0); callers use the x = 0
    endpoint there.
    """
    if q == 0:
        raise ValueError("stationary-point formula is singular at q = 0")
    _check_qs(q, s, case)
    cp = case_params(case)
    if _is_exact(q, s):
        return _exact_x1(q, s, cp.c0)
    a = 4 * cp.c0 * s + q * q - 4
    disc = a * a - 16 * cp.c0 * s * q * q
    return (a + _sqrt_any(disc)) / (4 * s * q)


def _exact_x1(q, s, c0):
    """``stationary_x1`` at rational (q, s), in integers. Over
    e = c0d * sd * qd^2, a = big_a / e and disc = delta / e^2, so
    x1 = (big_a + sqrt(delta)) / (4 * c0d * qd * sn * qn): a Fraction when
    delta is a square, else the float (float(a) + sqrt(float(disc))) /
    float(4*s*q), each float the correctly rounded int / int of the same
    rational."""
    qn, qd, sn, sd = q.numerator, q.denominator, s.numerator, s.denominator
    cn, cd = c0.numerator, c0.denominator
    e = cd * sd * qd * qd
    big_a = 4 * cn * sn * qd * qd + (qn * qn - 4 * qd * qd) * cd * sd
    delta = big_a * big_a - 16 * cn * sn * qn * qn * e
    if delta < 0:
        raise ValueError(f"negative discriminant {delta / (e * e)}")
    root = math.isqrt(delta)
    if root * root == delta:
        return Fraction(big_a + root, 4 * cd * qd * sn * qn)
    return (big_a / e + math.sqrt(delta / (e * e))) / (4 * sn * qn / (sd * qd))


def gammas_from_xy(x, y):
    """Invert x = sqrt(g1*g2), y = g1 + g2 into (g1, g2) with g1 <= g2."""
    if x < 0 or y < 2 * x:
        raise ValueError(f"need y >= 2x >= 0, got x={float(x)}, y={float(y)}")
    root = _sqrt_any(y * y - 4 * x * x)
    g1 = (y - root) / 2
    g2 = (y + root) / 2
    return g1, g2


def _stationary_point(q, s, case: str):
    """(x1, y1): the stationary point of gamma2 on y = c0 - q*x + s*x^2 (q < 0).

    At rational (q, s) with an irrational x1, y1 rounds c0, q and s to
    floats, as the mixed Fraction-float expression does.
    """
    x1 = stationary_x1(q, s, case)
    c0 = case_params(case).c0
    if _is_exact(q, s) and isinstance(x1, float):
        return x1, float(c0) - float(q) * x1 + float(s) * x1 * x1
    return x1, c0 - q * x1 + s * x1 * x1


def gamma2_on_slice(q, s, case: str):
    """Slice maximum of gamma2 on gamma2 = gamma3 for fixed (q, s).

    For q < 0 it sits at the stationary point (x1, y1), inverted to
    (gamma1, gamma2); exact rationals propagate all the way through when
    the discriminants are perfect squares.

    For q >= 0 it is the x = 0 endpoint (gamma1, gamma2) = (0, c0),
    ``_slice_endpoint``: floats when q or s is a float, else exact. Along
    the parabola, g2(x) = (y + sqrt(y^2 - 4x^2))/2 has g2'(0) = -q <= 0.
    With a = 4*c0*s + q^2 - 4 < 0 (c0 <= 7/8, s <= 1, q^2 <= 1/4), both
    stationary roots (a +- sqrt(a^2 - 16*c0*s*q^2)) / (4*s*q) are <= 0
    for q > 0, so g2 falls on all of [0, x0]. At q = 0,
    g2 ~ c0 + x^2 * (s - 1/c0) with s <= 1 < 1/c0.
    """
    if q < 0:       # stationary_x1 checks (q, s)
        return gammas_from_xy(*_stationary_point(q, s, case))
    _check_qs(q, s, case)
    return _slice_endpoint(q, s, case)


@dataclass(frozen=True)
class ReducedCoordinates:
    """The change of variables used on the gamma2 = gamma3 slice.

    (q, s) come from the flag overlaps, x = sqrt(gamma1*gamma2) and
    y = gamma1 + gamma2 from the efficiencies; (v, w) = (x1, y1) is the
    stationary point of the slice parabola, defined for q < 0.
    """

    case: str
    q: object
    s: object
    x: object
    y: object
    v: object | None = None
    w: object | None = None

    @classmethod
    def from_inputs(cls, flags: FlagOverlaps, eff: EfficiencyVector,
                    case: str) -> "ReducedCoordinates":
        q, s = reduce(flags, case)
        g1, g2 = eff[0], eff[1]
        if float in (type(g1), type(g2)):
            x = _sqrt_any(g1 * g2)
        elif root := _product_root(g1, g2):
            x = Fraction(*root)
        else:
            x = math.sqrt(g1.numerator * g2.numerator / (g1.denominator * g2.denominator))
        y = g1 + g2
        v, w = _stationary_point(q, s, case) if q < 0 else (None, None)
        return cls(case, q, s, x, y, v, w)

    def to_json(self) -> dict:
        out = {"case": self.case, "q": _to_float(self.q), "s": _to_float(self.s),
               "x": _to_float(self.x), "y": _to_float(self.y)}
        out["v"] = None if self.v is None else _to_float(self.v)
        out["w"] = None if self.w is None else _to_float(self.w)
        return out


# ---------------------------------------------------------------------------
# boundary curves of the (v, w) region
# ---------------------------------------------------------------------------

BRANCHES = ("max_s", "min_s")


def vw_boundary(case: str, branch: str, parameter):
    """A point on a boundary curve of the (v, w) = (x1, y1) region.

    With ``corner(case)`` = (q_corner, s_floor, v_corner), ``max_s`` is
    parametrised by v in [0, v_corner] and follows the closed form along
    s = s_cap(q); ``min_s`` is parametrised by q in [q_corner, 0] and evaluates (x1, y1) at s = s_floor. The
    curves meet at the region corner; at q = 0, ``min_s`` gives the
    x = 0 endpoint ``_slice_endpoint``, floats for a float q, exact otherwise.

    The closed form: (v, w) lies on the parabola, w = c0 - q*v + s*v^2,
    and gamma2 is stationary there, 2*w*y' = 4*v + v*y'^2 with
    y' = -q + 2*s*v. Eliminating q (a resultant) at s = s_cap(q) leaves,
    besides the factor w - 1 - v^2,
    2*g^2*w^2 + c0^2*w - (2 - c0)^2*v^2 - c0^2 = 0, whose positive root,
    with 2*g^2 = 1 - c0, is

        w = ((2 - c0) * sqrt(c0^2 + 8*g^2*v^2) - c0^2) / (2*(1 - c0)).

    A float parameter is evaluated in floats, with the constants
    ``case_params(case).max_s_floats`` and ``min_s_floats`` rounded where
    the mixed Fraction-float expressions round them, and is checked
    against ``_float_range``, which gives the exact range's verdicts.
    """
    cp = case_params(case)
    q_corner, _, v_corner = corner(case)
    is_float = isinstance(parameter, float)
    q_lo, v_hi = _float_range(case) if is_float else (q_corner, v_corner)
    if branch == "max_s":
        v = parameter
        if not 0 <= v <= v_hi:
            raise ValueError(f"v = {float(v)} outside [0, {float(v_corner)}]")
        if is_float:
            c0_sq, cap, two_minus_c0, den = cp.max_s_floats
            return v, (two_minus_c0 * math.sqrt(c0_sq + cap * (v * v)) - c0_sq) / den
        c0 = cp.c0
        root = _sqrt_any(c0 * c0 + cp.cap * (v * v))
        return v, ((2 - c0) * root - c0 * c0) / (2 * (1 - c0))
    if branch == "min_s":
        qv = parameter
        if not q_lo <= qv <= 0:
            raise ValueError(f"q = {float(qv)} outside [{float(q_corner)}, 0]")
        if qv == 0:
            return _slice_endpoint(qv, cp.s_floor, case)
        if not is_float:
            return _stationary_point(qv, cp.s_floor, case)
        # stationary_x1 and _stationary_point at s = s_floor; the range
        # check above implies _check_qs, and disc > 0 on this branch
        c4s, c16s, s4, c0, s = cp.min_s_floats
        a = c4s + qv * qv - 4
        x1 = (a + math.sqrt(a * a - c16s * qv * qv)) / (s4 * qv)
        return x1, c0 - qv * x1 + s * x1 * x1
    raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")


@cache
def _float_range(case: str) -> tuple[float, float]:
    """(q_lo, v_hi): the least float >= the corner's q and the greatest float
    <= its v, so a float is inside [q_corner, 0] or [0, v_corner] iff it is
    inside [q_lo, 0] or [0, v_hi]."""
    q_corner, _, v_corner = corner(case)
    q_lo, v_hi = float(q_corner), float(v_corner)
    return (q_lo if q_lo >= q_corner else math.nextafter(q_lo, math.inf),
            v_hi if v_hi <= v_corner else math.nextafter(v_hi, -math.inf))
