import itertools
import math
import random
import struct
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probclone import feasibility
from probclone._exact import exact_sqrt
from probclone.funcspace import CASES
from probclone.phasestate import case_gram
from probclone.feasibility import (EfficiencyVector, FlagOverlaps,
                                   ReducedCoordinates, build_matrix,
                                   case_params, gamma2_on_slice, gammas_from_xy,
                                   hermitian3_eigvals, intersection_x0, is_psd,
                                   reduce, s_cap, stationary_x1,
                                   vw_boundary, _sqrt_any, _stationary_point)
from probclone.optimize import analytic_optimum

OPT3 = EfficiencyVector((F(7, 127), F(112, 127), F(112, 127)))
OPT2 = EfficiencyVector((F(1, 7), F(4, 7), F(4, 7)))
FLAGS3 = FlagOverlaps(p12=-1, p13=1)
FLAGS2 = FlagOverlaps(p12=-1, p13=-1)


def random_flag_pair(rng):
    while True:
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if a * a + b * b <= 1:
            return a, b


# ---------------------------------------------------------------------------
# build_matrix
# ---------------------------------------------------------------------------

def test_build_matrix_three_bit_optimum_exact():
    point = build_matrix("3bit", OPT3, FLAGS3)
    assert point.is_exact
    want = [[F(120, 127), F(-30, 127), F(30, 127)],
            [F(-30, 127), F(15, 127), F(0)],
            [F(30, 127), F(0), F(15, 127)]]
    for i in range(3):
        for j in range(3):
            assert point.exact_matrix[i][j] == (want[i][j], 0)


def test_build_matrix_two_bit_optimum_exact():
    point = build_matrix("2bit", OPT2, FLAGS2)
    assert point.is_exact
    want = [[F(6, 7), F(-3, 7), F(-3, 7)],
            [F(-3, 7), F(3, 7), F(0)],
            [F(-3, 7), F(0), F(3, 7)]]
    for i in range(3):
        for j in range(3):
            assert point.exact_matrix[i][j] == (want[i][j], 0)


def test_build_matrix_zero_efficiencies_recovers_gram():
    g = case_gram("3bit")
    point = build_matrix("3bit", EfficiencyVector((0, 0, 0)), FlagOverlaps(p12=1, p13=1))
    for i in range(3):
        for j in range(3):
            assert point.exact_matrix[i][j] == (F(g.entry(i, j)), 0)


def test_build_matrix_falls_back_to_float():
    # 1/2 * 1/3 is not a perfect rational square
    point = build_matrix("3bit",
                         EfficiencyVector((F(1, 2), F(1, 3), F(1, 3))),
                         FLAGS3)
    assert not point.is_exact
    assert point.matrix[0][1].real == pytest.approx(
        -0.25 + math.sqrt(1 / 6) / 16)


def test_a_float_p23_keeps_the_exact_route():
    # P23 multiplies G_23 = 0, so a float P23 cannot send a rational point
    # to the float route, and it changes nothing but its own echo
    flags = dict(p12=(F(1, 2), F(1, 2)), p13=(0, F(-1, 2)))
    echoed = build_matrix("2bit", OPT2, FlagOverlaps(**flags, p23=(0.3, -0.4)))
    plain = build_matrix("2bit", OPT2, FlagOverlaps(**flags))
    assert echoed.is_exact and plain.is_exact
    got, want = echoed.to_json(), plain.to_json()
    assert got.pop("P23") == [0.3, -0.4] and want.pop("P23") == [0.0, 0.0]
    assert got == want


def test_int_matrix_alone_decides_the_route():
    g1j = case_gram("3bit").entries[0][1:]
    # every gamma1 gamma_j of OPT3 is a square: only a float component of
    # P12 or P13 sends it to the float route, even a zero that equals (0, 0)
    for flags in (FlagOverlaps(p12=0.0, p13=1), FlagOverlaps(p12=-1, p13=(0, 0.0))):
        assert flags.p12 == (0, 0) or flags.p13 == (0, 0)
        assert feasibility._int_matrix(g1j, OPT3, flags) is None
        assert not build_matrix("3bit", OPT3, flags).is_exact
    # a Fraction zero flag needs no root: gamma1 gamma2 = 1/6 and
    # gamma1 gamma3 = 1/8 are not squares, and the point is exact
    eff = EfficiencyVector((F(1, 2), F(1, 3), F(1, 4)))
    zero = FlagOverlaps(p12=F(0), p13=(F(0), F(0)))
    a, d = feasibility._int_matrix(g1j, eff, zero)
    assert d == 12 and a[0] == ((6, 0), (-3, 0), (3, 0))
    assert build_matrix("3bit", eff, zero).is_exact
    assert not build_matrix("3bit", eff, FlagOverlaps(p12=F(0), p13=1)).is_exact
    # gamma1 gamma3 = 1/4 is a square, so a nonzero P13 beside a zero P12 is exact
    eff = EfficiencyVector((F(1, 2), F(1, 3), F(1, 2)))
    point = build_matrix("3bit", eff, FlagOverlaps(p12=F(0), p13=1))
    assert point.exact_matrix[0][1:] == ((F(-1, 4), 0), (F(1, 4) - F(1, 2) / 16, 0))
    # P23 multiplies G_23 = 0: a float P23 leaves the point exact
    assert build_matrix("3bit", OPT3, FlagOverlaps(p12=-1, p13=1, p23=(0.3, -0.4))).is_exact
    assert build_matrix("3bit", OPT3, FlagOverlaps(p12=-1, p13=1, p23=0.0)).is_exact


def test_build_matrix_hermitian_with_complex_flags():
    point = build_matrix("3bit",
                         EfficiencyVector((F(1, 4), F(1, 4), F(1, 4))),
                         FlagOverlaps(p12=(F(1, 2), F(1, 2)), p13=(0, F(-1, 2))))
    assert point.is_exact
    m = point.exact_matrix
    for i in range(3):
        for j in range(3):
            assert m[i][j][0] == m[j][i][0]
            assert m[i][j][1] == -m[j][i][1]


def test_efficiency_validation():
    with pytest.raises(ValueError):
        EfficiencyVector((0.5, 0.5))
    with pytest.raises(ValueError):
        EfficiencyVector((1.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        EfficiencyVector((-0.1, 0.5, 0.5))
    # exact values are checked exactly
    for bad in (F(8, 7), 1 + F(1, 10**30), F(-1, 10**30), 2, -1):
        with pytest.raises(ValueError, match="outside"):
            EfficiencyVector((F(1, 2), bad, 0))
    assert EfficiencyVector((0, 1, F(1))).gammas == (0, 1, 1)


def test_components_keep_their_route():
    # a Fraction passes through as the same object, an int becomes an
    # exact Fraction, anything else a float
    x = F(7, 127)
    assert feasibility._coerce_component(x) is x
    assert EfficiencyVector((x, x, x)).gammas[0] is x
    for value, want in ((3, F(3)), (True, F(1)), (0.25, 0.25), (np.float64(0.5), 0.5)):
        got = feasibility._coerce_component(value)
        assert got == want and type(got) is type(want)


def test_flag_validation():
    with pytest.raises(ValueError):
        FlagOverlaps(p12=1.2)
    with pytest.raises(ValueError):
        FlagOverlaps(p13=(1, 1))
    f = FlagOverlaps(p12=(F(3, 5), F(4, 5)))
    assert f.p12[0] == F(3, 5) and f.p12[1] == F(4, 5)


def test_exact_flags_are_checked_exactly():
    # an exact flag just outside the unit disc is rejected, however close
    for val in (F(10**13 + 1, 10**13), (F(3, 5), F(4, 5) + F(1, 10**15)),
                (F(-1), F(1, 10**8))):
        with pytest.raises(ValueError, match="exceeds 1"):
            FlagOverlaps(p13=val)
    assert FlagOverlaps(p12=F(1), p13=(F(-3, 5), F(4, 5))).p12 == (1, 0)
    # a float flag keeps its roundoff slack, and no more
    assert FlagOverlaps(p12=1 + 1e-13).p12[0] == 1 + 1e-13
    assert FlagOverlaps(p13=(0.6, 0.8 + 1e-13)).p13[1] == 0.8 + 1e-13
    with pytest.raises(ValueError, match="exceeds 1"):
        FlagOverlaps(p12=1 + 1e-8)


@pytest.mark.parametrize("name", ["p12", "p13", "p23"])
@pytest.mark.parametrize("val", [math.nan, complex(math.nan, 0), (0.5, math.nan),
                                 complex(0, math.inf), -math.inf, (math.inf, 0)])
def test_non_finite_flags_are_rejected(name, val):
    # |nan|^2 > 1 is False, so a NaN flag would pass the modulus check and
    # turn M_1j into NaN: at Gamma = 0, where M = G is PSD, is_psd said False
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FlagOverlaps(**{name: val})


# ---------------------------------------------------------------------------
# PSD tests
# ---------------------------------------------------------------------------

def test_boundary_certificates_have_zero_determinant():
    for case, eff, flags in (("3bit", OPT3, FLAGS3), ("2bit", OPT2, FLAGS2)):
        point = build_matrix(case, eff, flags)
        assert point.is_exact
        assert point.det() == 0
        assert is_psd(point)


def test_full_efficiency_infeasible():
    point = build_matrix("3bit", EfficiencyVector((1, 1, 1)),
                         FlagOverlaps())
    assert not is_psd(point)
    # leading 2x2 minor is exactly -(1/4)^2
    assert point.leading_minors()[1] == F(-1, 16)


def test_closed_form_eigenvalues_match_numpy():
    rng = random.Random(9)
    for _ in range(500):
        d = [rng.uniform(-2, 2) for _ in range(3)]
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        m = ((complex(d[0]), z[0], z[1]),
             (z[0].conjugate(), complex(d[1]), 0j),
             (z[1].conjugate(), 0j, complex(d[2])))
        got = hermitian3_eigvals(m)
        want = np.linalg.eigvalsh(np.array(m))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_closed_form_eigenvalues_degenerate_spectra():
    # the trig closed form is ~sqrt(eps)-accurate at multiple eigenvalues;
    # exact rational minors handle the certification-critical boundary cases
    cases = [
        np.diag([2.0, 2.0, 2.0]),
        np.diag([1.0, 1.0, 3.0]),
        np.zeros((3, 3)),
        np.array([[1, 1, 0], [1, 1, 0], [0, 0, 2.0]]),
        # p^2 > 0 here, but p^2 / 6 underflows to zero
        np.diag([0.0, 0.0, 4.608370102923686e-162]),
    ]
    for m in cases:
        got = hermitian3_eigvals(tuple(tuple(complex(x) for x in row) for row in m))
        want = np.linalg.eigvalsh(m)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-7


def reference_eigvals(m):
    """The closed form as written out on the full complex matrix before M's
    determinant and eigenvalues shared ``_det3``: the digits to keep."""
    a11, a22, a33 = m[0][0].real, m[1][1].real, m[2][2].real
    p1 = abs(m[0][1]) ** 2 + abs(m[0][2]) ** 2 + abs(m[1][2]) ** 2
    q = (a11 + a22 + a33) / 3.0
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return (q, q, q)
    b = [[(m[i][j] - (q if i == j else 0.0)) / p for j in range(3)] for i in range(3)]
    r = max(-1.0, min(1.0, reference_det(b) / 2.0))
    phi = math.acos(r) / 3.0
    e_hi = q + 2.0 * p * math.cos(phi)
    e_lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e_mid = 3.0 * q - e_hi - e_lo
    return tuple(sorted((e_lo, e_mid, e_hi)))


def reference_det(m):
    """The complex cofactor expansion of the full matrix."""
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det.real


def hermitian(d, z):
    """The Hermitian arrow matrix with diagonal d, first row z = (M_12, M_13)
    and M_23 = 0, written as ``_float_matrix`` writes it."""
    return ((complex(d[0]), z[0], z[1]),
            (complex(z[0].real, 0.0 - z[0].imag), complex(d[1]), 0j),
            (complex(z[1].real, 0.0 - z[1].imag), 0j, complex(d[2])))


_PART = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0)),
                  st.floats(-2.0, 2.0))
_ENTRY = st.one_of(_PART.map(complex), st.builds(complex, _PART, _PART))


@settings(max_examples=2000, deadline=None)
@given(d=st.tuples(_PART, _PART, _PART), z=st.tuples(_ENTRY, _ENTRY))
@example(d=(0.0, 0.5, 1.0), z=(complex(-0.5), complex(0.25, -0.0)))
@example(d=(0.0, 0.0, -0.0), z=(0j, 0.5j))
@example(d=(1.0, 1.0, 1.0), z=(0j, complex(-0.0, -0.0)))
@example(d=(0.0, 0.0, 4.608370102923686e-162), z=(0j, 0j))
def test_closed_forms_keep_their_digits(d, z):
    m = hermitian(d, z)
    assert repr(hermitian3_eigvals(m)) == repr(reference_eigvals(m))
    det = feasibility.FeasibilityPoint(None, None, None, m, None).det()
    want = reference_det(m)
    # ``_det3`` conjugates the upper triangle, which gives -0.0 where the
    # stored lower entry has +0.0, and skips the zero M_23 terms: that can
    # flip the sign of an exactly zero determinant (the second example),
    # and changes no other digit
    assert repr(det) == repr(want) if want else det == 0


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(("2bit", "3bit")),
       gammas=st.tuples(*[st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
                          for _ in range(3)]),
       flags=st.tuples(*[st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                                   st.floats(-0.7, 0.7)) for _ in range(4)]))
@example(case="3bit", gammas=(0.3, 1.0, 1.0), flags=(-1.0, 0.0, 1.0, -0.0))
def test_case_gram_points_keep_every_digit(case, gammas, flags):
    # every float-route point of a case Gram, the only Grams the CLI builds,
    # has its reference determinant bit for bit, zero signs included
    a, b, c, d = flags
    assume(a * a + b * b <= 1 and c * c + d * d <= 1)
    point = build_matrix(case, EfficiencyVector(gammas),
                         FlagOverlaps(p12=(a, b), p13=(c, d)))
    assert repr(point.det()) == repr(reference_det(point.matrix))
    assert repr(point.min_eigenvalue()) == repr(reference_eigvals(point.matrix)[0])


def test_minor_and_eigenvalue_verdicts_agree():
    rng = random.Random(17)
    tol = feasibility.DEFAULT_TOL
    checked = 0
    for case in ("2bit", "3bit"):
        for _ in range(5000):
            eff = EfficiencyVector(tuple(rng.uniform(0, 1) for _ in range(3)))
            flags = FlagOverlaps(p12=random_flag_pair(rng), p13=random_flag_pair(rng))
            point = build_matrix(case, eff, flags)
            # skip knife-edge points where tol placement decides the verdict
            if abs(point.min_eigenvalue()) < 10 * tol:
                continue
            # float principal-minor verdict as the cross-check route
            minors_psd = all(float(x) >= -tol for x in point.principal_minors())
            assert is_psd(point) == minors_psd
            checked += 1
    assert checked > 9000


# ---------------------------------------------------------------------------
# reduced coordinates
# ---------------------------------------------------------------------------

#: the slice constants as literals, the reference for their derivation
#: from the case Gram
LITERAL_PARAMS = {
    "3bit": dict(g=F(1, 4), c0=F(7, 8), q_bound=F(1, 16), s_floor=F(127, 128)),
    "2bit": dict(g=F(1, 2), c0=F(1, 2), q_bound=F(1, 2), s_floor=F(7, 8)),
}
LITERAL_CORNERS = {
    "3bit": dict(v=F(28, 127), q=F(-1, 16), flags=(-1, 1)),
    "2bit": dict(v=F(2, 7), q=F(-1, 2), flags=(-1, -1)),
}


@pytest.mark.parametrize("case", ["3bit", "2bit"])
def test_case_params_derived_from_the_gram_equal_the_literals(case):
    cp = case_params(case)
    for name, want in LITERAL_PARAMS[case].items():
        got = getattr(cp, name)
        assert isinstance(got, (int, F)) and got == want, name
    want = LITERAL_CORNERS[case]
    got = feasibility.corner(case)
    assert all(isinstance(x, F) for x in got)
    assert got == (want["q"], cp.s_floor, want["v"])
    assert cp.signs == want["flags"]
    assert all(type(x) is int for x in cp.signs)


@pytest.mark.parametrize("case", ["3bit", "2bit"])
def test_corner_geometry_is_consistent(case):
    cp = case_params(case)
    g = case_gram(case)
    q, s, v = feasibility.corner(case)
    assert cp.signs == tuple(1 if g.entry(0, j) > 0 else -1 for j in (1, 2))
    assert reduce(FlagOverlaps(*cp.signs), case) == (q, s) == (q, cp.s_floor)
    assert s_cap(q, case) == cp.s_floor
    gammas = [F(x) for x in analytic_optimum(case).gammas_exact]
    assert v ** 2 == gammas[0] * gammas[1]


def test_slice_constants_match_the_determinant():
    """Oracle: det M on gamma2 = gamma3 is d2 * (s*x^2 - q*x + c0 - y) at
    exact points, for random exact real flags and rational x, y."""
    rng = random.Random(41)
    for case in ("2bit", "3bit"):
        for _ in range(200):
            a, c = (F(rng.randint(-8, 8), 8) for _ in range(2))
            k, m = rng.randint(0, 6), rng.randint(0, 6)
            g1, g2 = F(k, 7) ** 2, F(m, 7) ** 2
            flags = FlagOverlaps(p12=a, p13=c)
            point = build_matrix(case, EfficiencyVector((g1, g2, g2)), flags)
            q, s = reduce(flags, case)
            x, y = F(k * m, 49), g1 + g2
            want = (1 - g2) * (s * x * x - q * x + case_params(case).c0 - y)
            assert point.det() == want


#: the slice constants' earlier alias forms, q = (a + q_sign*c) / q_den,
#: s = 1 - |P|^2 / s_den and s_cap = 1 - cap_coeff*q^2: the references for
#: the forms in g and the signs, which must keep every digit
ALIAS_PARAMS = {
    "3bit": dict(q_den=F(32), q_sign=-1, s_den=F(256), cap_coeff=F(2)),
    "2bit": dict(q_den=F(4), q_sign=+1, s_den=F(16), cap_coeff=F(1, 2)),
}


def alias_reduce(a, b, c, d, case):
    al = ALIAS_PARAMS[case]
    return ((a + al["q_sign"] * c) / al["q_den"],
            1 - (a * a + b * b + c * c + d * d) / al["s_den"])


def alias_s_cap(q, case):
    return 1 - ALIAS_PARAMS[case]["cap_coeff"] * q * q


def alias_max_s(v, case):
    c0 = case_params(case).c0
    root = _sqrt_any(c0 * c0 + v * v / ALIAS_PARAMS[case]["cap_coeff"])
    return v, ((2 - c0) * root - c0 * c0) / (2 * (1 - c0))


def alias_point(q, s, case):
    """The stationary point (x1, y1) in mixed Fraction-float arithmetic, as
    the formulas read: the reference for the integer route and the float
    curve, which must keep every digit."""
    c0 = case_params(case).c0
    a = 4 * c0 * s + q * q - 4
    disc = a * a - 16 * c0 * s * q * q
    x1 = (a + _sqrt_any(disc)) / (4 * s * q)
    return x1, c0 - q * x1 + s * x1 * x1


def alias_reduced(p12, p13, g1, g2, case):
    """(q, s, x, y, v, w) of ``ReducedCoordinates.from_inputs`` by the alias forms."""
    q, s = alias_reduce(*p12, *p13, case)
    v, w = alias_point(q, s, case) if q < 0 else (None, None)
    return q, s, _sqrt_any(g1 * g2), g1 + g2, v, w


def same_digits(got, want):
    """Equal Fractions, floats with the same repr (zero signs included), or both None."""
    if want is None:
        return got is None
    if isinstance(want, F):
        return isinstance(got, F) and got == want
    return type(got) is float and repr(got) == repr(want)


_TINY = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310)
#: float flag components just past 1 that ``FlagOverlaps`` still accepts
#: (|P|^2 within its relative 1e-9), and one it rejects
_PAST_ONE = (1.0000000004, -1.0000000004, 1.0000000005, -1.0000000006)
#: Fractions in [0.1, 1] with 300-digit numerators and denominators
_LONG = st.integers(10**299, 10**300 - 1).flatmap(
    lambda d: st.integers(10**299, d).map(lambda n: F(n, d)))
_UNIT = st.one_of(st.sampled_from(_TINY + _PAST_ONE + (1.0, -1.0, 0.5, -0.5)),
                  st.floats(-1.0, 1.0), st.fractions(-1, 1, max_denominator=10**6),
                  _LONG, _LONG.map(lambda x: -x))
_GAMMA = st.one_of(st.sampled_from((0, 0.0, -0.0, 1, 1.0, 0.5, F(1, 4))), st.floats(0.0, 1.0),
                   st.fractions(0, 1, max_denominator=10**6), _LONG)


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(("3bit", "2bit")), parts=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT),
       tie=st.sampled_from((None, 1, -1)), gammas=st.tuples(_GAMMA, _GAMMA),
       ratio=st.one_of(st.none(), st.fractions(0, 1, max_denominator=10**3)))
@example(case="3bit", parts=(0.5, 0.0, 0.5, 0.0), tie=None, gammas=(0.3, 0.5), ratio=None)
@example(case="2bit", parts=(-0.0, -0.0, -0.0, 0.0), tie=None, gammas=(-0.0, 0), ratio=None)
# the corners and balanced flags on the cap s = s_cap(q): square discriminants
@example(case="3bit", parts=(-1, 0, 1, 0), tie=None, gammas=OPT3[:2], ratio=None)
@example(case="2bit", parts=(-1, 0, -1, 0), tie=None, gammas=OPT2[:2], ratio=None)
@example(case="3bit", parts=(F(-4, 5), 0, F(4, 5), 0), tie=None, gammas=(F(1, 3), F(1, 2)),
         ratio=F(1, 2))
@example(case="2bit", parts=(F(-3, 4), 0, F(-3, 4), 0), tie=None, gammas=(0, F(1, 2)),
         ratio=None)
# float flags past the unit disc that the constructor accepts
@example(case="3bit", parts=(-1.0000000004, 0.0, 1.0000000004, 0.0), tie=None,
         gammas=(0.1, 0.5), ratio=None)
@example(case="2bit", parts=(-1.0000000004, 0.0, -1.0000000004, 0.0), tie=None,
         gammas=(0.1, 0.5), ratio=None)
def test_reduce_and_s_cap_keep_every_digit(case, parts, tie, gammas, ratio):
    # reduce, s_cap, stationary_x1 and from_inputs against the alias forms;
    # ratio makes gamma1*gamma2 a square (gamma2 = gamma1 * ratio^2)
    a, b, c, d = parts
    if tie is not None:
        c = tie * a     # a = c (or a = -c) cancels in q for one sign product
    try:
        flags = FlagOverlaps(p12=(a, b), p13=(c, d))
    except ValueError:
        assume(False)
    q, s = reduce(flags, case)
    want_q, want_s = alias_reduce(*flags.p12, *flags.p13, case)
    assert same_digits(q, want_q) and same_digits(s, want_s)
    assert same_digits(s_cap(q, case), alias_s_cap(q, case))
    g1, g2 = gammas
    if ratio is not None and isinstance(g1, F):
        g2 = g1 * ratio * ratio
    eff = EfficiencyVector((g1, g2, 0))
    got = ReducedCoordinates.from_inputs(flags, eff, case)
    want = alias_reduced(flags.p12, flags.p13, eff[0], eff[1], case)
    assert all(map(same_digits, (got.q, got.s, got.x, got.y, got.v, got.w), want))
    if q < 0:
        assert same_digits(stationary_x1(q, s, case), want[4])
    # every float field of both payloads is float() of its exact value
    exact = (got.q, got.s, got.x, got.y, got.v, got.w)
    data = got.to_json()
    assert all(same_digits(data[k], None if x is None else float(x))
               for k, x in zip("qsxyvw", exact))
    point = build_matrix(case, eff, flags)
    data = point.to_json()
    minors = point.leading_minors()
    exact = (*eff, *flags.p12, *flags.p13, *flags.p23, *minors, minors[2])
    floats = data["gammas"] + data["P12"] + data["P13"] + data["P23"] + data["minors"] + [data["det"]]
    assert all(map(same_digits, floats, map(float, exact)))


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(("3bit", "2bit")),
       t=st.one_of(st.sampled_from(_TINY[:3] + (1.0, 0.5)), st.floats(0.0, 1.0),
                   st.fractions(0, 1, max_denominator=10**6)))
def test_vw_max_s_keeps_every_digit(case, t):
    v_corner = feasibility.corner(case)[2]
    v = t * (v_corner if isinstance(t, F) else float(v_corner))
    got, want = vw_boundary(case, "max_s", v), alias_max_s(v, case)
    assert all(map(same_digits, got, want))


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(("3bit", "2bit")),
       t=st.one_of(st.sampled_from(_TINY[:3] + (1.0, 0.5)), st.floats(0.0, 1.0),
                   st.fractions(0, 1, max_denominator=10**6)))
def test_vw_min_s_keeps_every_digit(case, t):
    q_corner, s_floor, _ = feasibility.corner(case)
    q = t * (q_corner if isinstance(t, F) else float(q_corner))
    assume(q != 0)
    got, want = vw_boundary(case, "min_s", q), alias_point(q, s_floor, case)
    assert all(map(same_digits, got, want))


def test_float_flags_the_constructor_accepts_have_reduced_coordinates():
    # |P_1j|^2 = 1.0000000008 passes FlagOverlaps' relative 1e-9, which puts
    # (q, s) just past the region's corner; _check_qs's float slack covers it
    for case, sign in (("3bit", 1), ("2bit", -1)):
        flags = FlagOverlaps(p12=-1.0000000004, p13=sign * 1.0000000004)
        eff = EfficiencyVector((0.1, 0.5, 0.5))
        build_matrix(case, eff, flags).to_json()
        red = ReducedCoordinates.from_inputs(flags, eff, case).to_json()
        q, s, v = feasibility.corner(case)
        assert red["q"] < q and red["s"] < s
        assert red["v"] == pytest.approx(float(v), rel=1e-6)


def test_gamma2_on_slice_checks_once(monkeypatch):
    calls = []
    check = feasibility._check_qs
    monkeypatch.setattr(feasibility, "_check_qs", lambda *a: (calls.append(a), check(*a)))
    for q in (F(-1, 16), F(1, 16), -0.03):
        calls.clear()
        gamma2_on_slice(q, F(127, 128), "3bit")
        assert len(calls) == 1


def test_reduce_examples():
    q, s = reduce(FLAGS3, "3bit")
    assert (q, s) == (F(-1, 16), F(127, 128))
    q, s = reduce(FLAGS2, "2bit")
    assert (q, s) == (F(-1, 2), F(7, 8))
    q, s = reduce(FlagOverlaps(), "3bit")
    assert (q, s) == (0, 1)


def test_reduce_range_invariant():
    # acceptance-scale sweep: (q, s) never leaves the capped rectangle
    rng = random.Random(23)
    for case in ("2bit", "3bit"):
        cp = case_params(case)
        for _ in range(100_000):
            flags = FlagOverlaps(p12=random_flag_pair(rng),
                                 p13=random_flag_pair(rng))
            q, s = reduce(flags, case)
            assert abs(q) <= cp.q_bound
            assert cp.s_floor <= s <= s_cap(q, case) + 1e-12


def test_intersection_x0_examples():
    # direct substitution oracles
    x0 = intersection_x0(F(-1, 2), F(7, 8), "2bit")
    assert float(x0) == pytest.approx((1.5 - math.sqrt(0.5)) * 4 / 7, abs=1e-15)
    x0 = intersection_x0(0, 1, "3bit")
    assert float(x0) == pytest.approx((2 - math.sqrt(0.5)) / 2, abs=1e-15)


def test_intersection_x0_in_unit_interval():
    rng = random.Random(31)
    for case in ("2bit", "3bit"):
        cp = case_params(case)
        for _ in range(2000):
            q = rng.uniform(-float(cp.q_bound), float(cp.q_bound))
            s = rng.uniform(float(cp.s_floor), float(s_cap(q, case)))
            x0 = intersection_x0(q, s, case)
            assert 0 < x0 <= 1


def test_intersection_plus_root_always_rejected():
    # the discarded larger root of the parabola-line system exceeds 1
    rng = random.Random(33)
    for case in ("2bit", "3bit"):
        cp = case_params(case)
        c0 = float(cp.c0)
        for _ in range(2000):
            q = rng.uniform(-float(cp.q_bound), float(cp.q_bound))
            s = rng.uniform(float(cp.s_floor), float(s_cap(q, case)))
            plus_root = ((2 + q) + math.sqrt((2 + q) ** 2 - 4 * c0 * s)) / (2 * s)
            assert plus_root > 1


def test_stationary_x1_exact_corners():
    assert stationary_x1(F(-1, 16), F(127, 128), "3bit") == F(28, 127)
    assert stationary_x1(F(-1, 2), F(7, 8), "2bit") == F(2, 7)


def test_stationary_x1_positive_for_negative_q():
    rng = random.Random(37)
    for case in ("2bit", "3bit"):
        cp = case_params(case)
        for _ in range(500):
            q = rng.uniform(-float(cp.q_bound), -1e-6)
            s = rng.uniform(float(cp.s_floor), float(s_cap(q, case)))
            assert stationary_x1(q, s, case) > 0


def test_stationary_x1_q_zero_is_singular():
    with pytest.raises(ValueError):
        stationary_x1(0, F(127, 128), "3bit")


@pytest.mark.parametrize("case", CASES)
def test_rational_region_check_is_exact(case):
    # on the region's edges (q, s) is accepted, and a rational step of
    # 10^-30 outward is rejected, on every edge
    cp, eps = case_params(case), F(1, 10**30)
    q_corner = -cp.q_bound
    for q, s in ((q_corner, cp.s_floor), (q_corner / 2, cp.s_floor),
                 (q_corner / 2, s_cap(q_corner / 2, case))):
        gamma2_on_slice(q, s, case)
    for q, s in ((q_corner - eps, cp.s_floor), (q_corner / 2, cp.s_floor - eps),
                 (q_corner / 2, s_cap(q_corner / 2, case) + eps),
                 (cp.q_bound + eps, F(1, 2) + cp.s_floor / 2)):
        with pytest.raises(ValueError, match="outside the"):
            gamma2_on_slice(q, s, case)


def test_stationary_x1_is_the_slice_argmax():
    """Independent oracle: golden-section maximisation of gamma2 along the
    parabola must land on the closed-form stationary point."""
    rng = random.Random(41)
    for case in ("2bit", "3bit"):
        cp = case_params(case)
        c0 = float(cp.c0)
        for _ in range(40):
            q = rng.uniform(-float(cp.q_bound), -0.1 * float(cp.q_bound))
            s = rng.uniform(float(cp.s_floor), float(s_cap(q, case)))
            x1 = float(stationary_x1(q, s, case))
            x0 = float(intersection_x0(q, s, case))

            def g2(x):
                y = c0 - q * x + s * x * x
                return (y + math.sqrt(max(y * y - 4 * x * x, 0.0))) / 2

            lo, hi = 0.0, x0
            for _ in range(200):
                m1 = lo + (hi - lo) * 0.381966
                m2 = hi - (hi - lo) * 0.381966
                if g2(m1) >= g2(m2):
                    hi = m2
                else:
                    lo = m1
            assert abs((lo + hi) / 2 - x1) < 1e-7


def test_gammas_from_xy_examples():
    assert gammas_from_xy(F(28, 127), F(119, 127)) == (F(7, 127), F(112, 127))
    assert gammas_from_xy(F(2, 7), F(5, 7)) == (F(1, 7), F(4, 7))
    g1, g2 = gammas_from_xy(F(1, 3), F(2, 3))
    assert g1 == g2 == F(1, 3)


def test_gammas_from_xy_rejects_bad_region():
    with pytest.raises(ValueError):
        gammas_from_xy(0.5, 0.9)
    with pytest.raises(ValueError):
        gammas_from_xy(-0.1, 0.5)


def test_gammas_from_xy_inverts():
    # cancellation in y^2 - 4x^2 costs ~4e-16/(2*(g2-g1)), so a 1e-3 gap
    # keeps the round trip well under 1e-12 (the exact path covers g1 = g2)
    rng = random.Random(43)
    for _ in range(10_000):
        g1 = rng.uniform(0, 0.99)
        g2 = rng.uniform(min(g1 + 1e-3, 1.0), 1)
        x, y = math.sqrt(g1 * g2), g1 + g2
        r1, r2 = gammas_from_xy(x, y)
        assert abs(r1 - g1) <= 1e-12 and abs(r2 - g2) <= 1e-12


def test_gammas_from_xy_exact_degenerate():
    rng = random.Random(44)
    for _ in range(200):
        g = F(rng.randrange(1, 1000), 1000)
        assert gammas_from_xy(g, 2 * g) == (g, g)


def test_gamma2_on_slice_corners_exact():
    g1, g2 = gamma2_on_slice(F(-1, 16), F(127, 128), "3bit")
    assert (g1, g2) == (F(7, 127), F(112, 127))
    g1, g2 = gamma2_on_slice(F(-1, 2), F(7, 8), "2bit")
    assert (g1, g2) == (F(1, 7), F(4, 7))


def test_gamma2_decreases_in_q_on_the_min_s_boundary():
    # claimed without derivation in the derivation chain; checked numerically
    for case, corner in (("3bit", F(112, 127)), ("2bit", F(4, 7))):
        cp = case_params(case)
        values = []
        for i in range(1, 101):
            q = float(cp.q_bound) * (-i / 100)
            values.append(float(gamma2_on_slice(q, float(cp.s_floor), case)[1]))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(float(corner), abs=1e-12)


def test_gamma2_slice_corner_is_the_region_maximum():
    # grid sweep over the whole capped (q, s) region
    for case, corner in (("3bit", F(112, 127)), ("2bit", F(4, 7))):
        cp = case_params(case)
        best = 0.0
        for i in range(81):
            q = float(cp.q_bound) * (-1 + 2 * i / 80)
            cap = float(s_cap(q, case))
            for j in range(21):
                s = float(cp.s_floor) + (cap - float(cp.s_floor)) * j / 20
                best = max(best, float(gamma2_on_slice(q, s, case)[1]))
        assert best <= float(corner) + 1e-12


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(("2bit", "3bit")), exact=st.booleans(),
       u=st.fractions(0, 1, max_denominator=10_000),
       t=st.fractions(0, 1, max_denominator=10_000))
def test_gamma2_on_slice_is_the_endpoint_for_nonnegative_q(case, exact, u, t):
    cp = case_params(case)
    q = cp.q_bound * u
    s = cp.s_floor + (s_cap(q, case) - cp.s_floor) * t
    if not exact:
        q, s = float(q), float(s)
    g1, g2 = gamma2_on_slice(q, s, case)
    kind = F if exact else float
    assert type(g1) is kind and type(g2) is kind
    assert (g1, g2) == (0, cp.c0)
    # exact check: no grid x in [0, x0] gives g2 = (y + sqrt(y^2 - 4x^2))/2
    # above c0 (y^2 - 4x^2 clamped at 0 where x0's rounding overshoots)
    qf, sf = F(q), F(s)
    x0 = F(intersection_x0(q, s, case))
    for i in range(200):
        x = x0 * i / 199
        y = cp.c0 - qf * x + sf * x * x
        gap = 2 * cp.c0 - y
        assert gap >= 0 and max(y * y - 4 * x * x, 0) <= gap * gap


@pytest.mark.parametrize("case", CASES)
def test_gamma2_on_slice_endpoint_is_exact_on_int_inputs(case):
    # floats iff q or s is a float: an int is as exact as a Fraction
    c0 = case_params(case).c0
    for q, s in ((0, F(1)), (F(0), 1), (0, 1)):
        endpoint = gamma2_on_slice(q, s, case)
        assert endpoint == (F(0), c0) and all(type(x) is F for x in endpoint)
    for q, s in ((0.0, F(1)), (F(0), 1.0), (0, 1.0)):
        endpoint = gamma2_on_slice(q, s, case)
        assert endpoint == (0.0, float(c0)) and all(type(x) is float for x in endpoint)


def test_gamma2_on_slice_continuous_at_q_zero():
    for case in ("2bit", "3bit"):
        c0 = float(case_params(case).c0)
        _, g2_limit = gamma2_on_slice(-1e-8, 0.999999999, case)
        _, g2_zero = gamma2_on_slice(0, 1, case)
        assert float(g2_zero) == pytest.approx(c0, abs=1e-12)
        assert float(g2_limit) == pytest.approx(c0, abs=1e-6)


def test_slice_chain_matches_psd():
    """On the gamma2 = gamma3 slice, PSD of M is equivalent to the chain
    c0 - q*x + s*x^2 >= y >= 2*x (away from the knife edge)."""
    rng = random.Random(47)
    for case in ("2bit", "3bit"):
        c0 = float(case_params(case).c0)
        agree = 0
        for _ in range(4000):
            g1, g2 = rng.uniform(0, 1), rng.uniform(0, 1)
            flags = FlagOverlaps(p12=random_flag_pair(rng),
                                 p13=random_flag_pair(rng))
            point = build_matrix(case, EfficiencyVector((g1, g2, g2)), flags)
            q, s = reduce(flags, case)
            x, y = math.sqrt(g1 * g2), g1 + g2
            margin = c0 - q * x + s * x * x - y
            if abs(margin) < 1e-7 or abs(point.min_eigenvalue()) < 1e-7:
                continue
            assert is_psd(point) == (margin >= 0)
            agree += 1
        assert agree > 3000


# ---------------------------------------------------------------------------
# (v, w) boundary curves
# ---------------------------------------------------------------------------

def test_vw_max_s_examples():
    v, w = vw_boundary("2bit", "max_s", 0)
    assert (v, w) == (0, F(1, 2))
    v, w = vw_boundary("2bit", "max_s", F(2, 7))
    # sqrt(1 + 32/49) = 9/7 exactly, so w = -1/4 + 27/28 = 5/7
    assert w == F(5, 7)


def test_vw_corners_coincide_exactly():
    for case in ("2bit", "3bit"):
        q, _, v = feasibility.corner(case)
        v_max, w_max = vw_boundary(case, "max_s", v)
        v_min, w_min = vw_boundary(case, "min_s", q)
        assert (v_max, w_max) == (v_min, w_min)
        v0_max, w0_max = vw_boundary(case, "max_s", 0)
        v0_min, w0_min = vw_boundary(case, "min_s", 0)
        assert (v0_max, w0_max) == (v0_min, w0_min)


def test_vw_corner_values():
    for case, want in (("3bit", (F(28, 127), F(119, 127))), ("2bit", (F(2, 7), F(5, 7)))):
        assert vw_boundary(case, "max_s", feasibility.corner(case)[2]) == want


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(("2bit", "3bit")),
       t=st.one_of(st.fractions(0, 1, max_denominator=1000), st.floats(0.0, 1.0)))
@example(case="3bit", t=F(1))
@example(case="2bit", t=F(1))
def test_vw_max_s_closed_form_matches_direct_evaluation(case, t):
    """Oracle: on s = s_cap(q) the curve, derived from case_params alone,
    must equal (x1, y1) evaluated directly from the stationary-point
    formulas, for q = t * q_corner in [q_corner, 0)."""
    q_corner, _, v_corner = feasibility.corner(case)
    q = t * q_corner
    assume(q < 0)
    v, w = _stationary_point(q, s_cap(q, case), case)
    assume(v <= v_corner)
    v_curve, w_curve = vw_boundary(case, "max_s", v)
    assert v_curve == v
    if isinstance(w, F) and isinstance(w_curve, F):
        assert w_curve == w
    else:
        assert float(w_curve) == pytest.approx(float(w), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case", ["3bit", "2bit"])
def test_vw_min_s_endpoint_keeps_the_parameter_type(case):
    c0 = case_params(case).c0
    exact = vw_boundary(case, "min_s", F(0))
    assert exact == (0, c0) and all(isinstance(x, F) for x in exact)
    for q in (0.0, -0.0):
        approx = vw_boundary(case, "min_s", q)
        assert approx == (0.0, float(c0)) and all(type(x) is float for x in approx)
    # the float curve is continuous in type at its endpoint
    assert all(type(x) is float for x in vw_boundary(case, "min_s", -1e-3))


def test_vw_parameter_range_errors():
    with pytest.raises(ValueError):
        vw_boundary("2bit", "max_s", 0.3)
    with pytest.raises(ValueError):
        vw_boundary("2bit", "min_s", 0.1)
    with pytest.raises(ValueError):
        vw_boundary("2bit", "middle", 0.1)
    # a float at a corner's end is in range iff it is exactly
    for case in CASES:
        q_corner, _, v_corner = feasibility.corner(case)
        for branch, end, lo, hi in (("max_s", v_corner, 0, v_corner),
                                    ("min_s", q_corner, q_corner, 0)):
            near = float(end)
            for x in (math.nextafter(near, -math.inf), near, math.nextafter(near, math.inf)):
                try:
                    vw_boundary(case, branch, x)
                    inside = True
                except ValueError:
                    inside = False
                assert inside == (lo <= F(x) <= hi)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_reduced_coordinates_bundle():
    rc = ReducedCoordinates.from_inputs(FLAGS3, OPT3, "3bit")
    assert (rc.q, rc.s) == (F(-1, 16), F(127, 128))
    assert rc.x == F(28, 127) and rc.y == F(119, 127)
    assert (rc.v, rc.w) == (F(28, 127), F(119, 127))
    assert rc.y >= 2 * rc.x
    rc0 = ReducedCoordinates.from_inputs(FlagOverlaps(), OPT3, "3bit")
    assert rc0.v is None and rc0.w is None
    data = rc.to_json()
    assert data["q"] == -0.0625 and data["case"] == "3bit"


def test_feasibility_point_json():
    point = build_matrix("3bit", OPT3, FLAGS3)
    data = point.to_json()
    assert data["psd"] is True
    assert data["exact"] is True
    assert data["det_exact"] == "0"
    assert data["minors_exact"] == ["120/127", "900/16129", "0"]
    assert data["P12"] == [-1.0, 0.0]
    assert data["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)


def test_to_json_computes_each_verdict_once(monkeypatch):
    # is_psd is the one verdict and to_json reads it; lambda_min and the
    # minors are computed once per point, however many of is_psd,
    # min_eigenvalue, the minor accessors and to_json ask
    calls = {"eig": 0, "minors": 0, "fraction": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(feasibility, "hermitian3_eigvals",
                        counted("eig", feasibility.hermitian3_eigvals))
    monkeypatch.setattr(feasibility, "_arrow_minors",
                        counted("minors", feasibility._arrow_minors))
    exact = build_matrix("3bit", OPT3, FLAGS3)
    approx = build_matrix("3bit", EfficiencyVector((0.1, 0.2, 0.3)), FLAGS3)

    class CountedFraction(F):
        def __new__(cls, *args):
            calls["fraction"] += 1
            return F(*args)
    monkeypatch.setattr(feasibility, "Fraction", CountedFraction)
    # the exact route builds the three leading Fractions that to_json
    # reports and none of the four principal minors it would drop
    for point, fractions in ((exact, 3), (approx, 0)):
        calls.update(eig=0, minors=0, fraction=0)
        want = {"psd": is_psd(point), "min_eigenvalue": point.min_eigenvalue()}
        data = point.to_json()
        assert calls == {"eig": 1, "minors": 1, "fraction": fractions}
        assert {k: data[k] for k in want} == want
        assert point.principal_minors()[6] == point.det() == point.leading_minors()[2]
        assert calls["eig"] == calls["minors"] == 1


# ---------------------------------------------------------------------------
# sign-flag lemma
# ---------------------------------------------------------------------------

@st.composite
def rational_flags(draw):
    """A rational complex flag overlap with modulus at most 1."""
    d = draw(st.integers(1, 12))
    part = st.integers(-d, d).map(lambda k: F(k, d))
    return draw(st.tuples(part, part).filter(lambda p: p[0] ** 2 + p[1] ** 2 <= 1))


@st.composite
def exact_lemma_points(draw):
    """(case, Gamma, flags) with every sqrt(gamma_i gamma_j) rational.

    gamma_i = t * u_i^2 gives sqrt(gamma_i gamma_j) = t * u_i * u_j, so
    build_matrix takes the exact route at any rational flags.
    """
    case = draw(st.sampled_from(("3bit", "2bit")))
    q = draw(st.integers(1, 12))
    t = F(draw(st.integers(1, q)), q)
    d = draw(st.integers(1, 16))
    gammas = tuple(t * F(draw(st.integers(0, d)), d) ** 2 for _ in range(3))
    p23 = draw(st.one_of(st.just((F(0), F(0))), rational_flags()))
    flags = FlagOverlaps(p12=draw(rational_flags()), p13=draw(rational_flags()),
                         p23=p23)
    return case, EfficiencyVector(gammas), flags


@settings(max_examples=300, deadline=None)
@given(setup=exact_lemma_points())
def test_sign_flags_are_feasible_wherever_any_flags_are(setup):
    # the sign-flag lemma in the feasibility docstring: at P_1j = sign(G_1j),
    # which are case_params(case).signs, every principal minor and lambda_min is at
    # least its value at any flags, so exact PSD carries over
    case, eff, flags = setup
    drawn = build_matrix(case, eff, flags)
    corner = build_matrix(case, eff, FlagOverlaps(*case_params(case).signs))
    assert drawn.is_exact and corner.is_exact
    if is_psd(drawn):
        assert is_psd(corner)
    assert all(c >= d for c, d in zip(corner.principal_minors(),
                                      drawn.principal_minors()))
    assert corner.min_eigenvalue() >= drawn.min_eigenvalue()


# ---------------------------------------------------------------------------
# symmetrisation lemma
# ---------------------------------------------------------------------------

def test_symmetrisation_numerator_is_never_positive():
    # the symmetrisation lemma in the feasibility docstring: h_a is convex
    # because N(a, v) <= 0 for a in [0, 1/2], v in [0, 1); exactly, on a
    # rational grid, with the maximum 0 attained at a = v = 0 only
    numerators = {}
    for j in range(200):
        v = F(j, 200)
        lin = 6 * v ** 4 + 12 * v ** 2 - 2
        # N's discriminant in a, negative wherever N's linear term is positive
        assert lin ** 2 - 256 * v ** 6 == 4 * (v ** 2 - 1) ** 3 * (9 * v ** 2 - 1)
        for i in range(51):
            a = F(i, 100)
            numerators[(i, j)] = -8 * a ** 2 * v ** 3 + a * lin - 8 * v ** 3
    top = max(numerators.values())
    assert top == 0
    assert [k for k, n in numerators.items() if n == top] == [(0, 0)]


@settings(max_examples=300, deadline=None)
@given(setup=exact_lemma_points())
def test_corner_flags_psd_iff_schur_form(setup):
    # the lemma's Schur form: at the sign flags, M is PSD iff gamma2,
    # gamma3 < 1 and 1 - gamma1 >= g^2 (h_a(gamma2) + h_a(gamma3)), with
    # a*sqrt(gamma_j) = g*sqrt(gamma1 gamma_j) rational on these points
    case, eff, _ = setup
    gram = case_gram(case)
    corner = build_matrix(case, eff, FlagOverlaps(*case_params(case).signs))
    assert corner.is_exact
    g1, g2, g3 = (F(x) for x in eff)
    g = abs(F(gram.entry(0, 1)))
    schur = g2 < 1 and g3 < 1 and 1 - g1 >= g * g * sum(
        (1 - g * exact_sqrt(g1 * gj)) ** 2 / (1 - gj) for gj in (g2, g3))
    assert is_psd(corner) == schur


@st.composite
def pythagorean_triples(draw):
    """(case, Gamma, gbar) with gbar = (gamma2 + gamma3)/2 and all roots rational.

    gamma1 = t*u^2, gamma2 = t*x^2 and gamma3 = t*y^2 with
    x = m^2 - 2mn - n^2, y = m^2 + 2mn - n^2 and z = m^2 + n^2, so that
    x^2 + y^2 = 2*z^2: the mean gbar = t*z^2 keeps every sqrt(gamma1*gamma_j)
    rational, and both Gamma and (gamma1, gbar, gbar) take the exact route.
    """
    case = draw(st.sampled_from(("3bit", "2bit")))
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    u = draw(st.integers(0, 30))
    x, y = m * m - 2 * m * n - n * n, m * m + 2 * m * n - n * n
    assume(x or y)
    q = draw(st.integers(1, 16))
    t = F(draw(st.integers(1, q)), q) / max(u * u, x * x, y * y)
    return case, (t * u * u, t * x * x, t * y * y), t * (m * m + n * n) ** 2


@settings(max_examples=300, deadline=None)
@given(setup=pythagorean_triples())
def test_symmetrising_never_loses_feasibility(setup):
    # the lemma's Jensen step, exactly: at the sign flags, (gamma1, gbar,
    # gbar) is feasible whenever Gamma is, and for gamma2, gamma3 < 1 the
    # Schur value 1 - gamma1 - g^2 (h_a(gamma2) + h_a(gamma3)) does not fall
    case, gammas, gbar = setup
    assert gbar == (gammas[1] + gammas[2]) / 2
    gram = case_gram(case)
    flags = FlagOverlaps(*case_params(case).signs)
    before = build_matrix(case, EfficiencyVector(gammas), flags)
    after = build_matrix(case, EfficiencyVector((gammas[0], gbar, gbar)), flags)
    assert before.is_exact and after.is_exact
    if is_psd(before):
        assert is_psd(after)
    g = abs(F(gram.entry(0, 1)))

    def schur(g1, g2, g3):
        return 1 - g1 - g * g * sum(
            (1 - g * exact_sqrt(g1 * gj)) ** 2 / (1 - gj) for gj in (g2, g3))

    if gammas[1] < 1 and gammas[2] < 1:
        assert schur(gammas[0], gbar, gbar) >= schur(*gammas)


# ---------------------------------------------------------------------------
# integer route against a Fraction reference
# ---------------------------------------------------------------------------

@st.composite
def integer_route_points(draw):
    """(case, gammas, flags, roots) with every sqrt(gamma_i gamma_j) rational.

    gamma_i = t * u_i^2, so roots[i][j] = t * u_i * u_j is known exactly.
    """
    t = draw(st.fractions(F(1, 12), 1, max_denominator=12))
    u = draw(st.tuples(*[st.fractions(0, 1, max_denominator=12)] * 3))
    zero = st.just((F(0), F(0)))
    flags = draw(st.tuples(*[st.one_of(rational_flags(), zero)] * 3))
    roots = [[t * a * b for b in u] for a in u]
    return draw(st.sampled_from(CASES)), tuple(t * a * a for a in u), flags, roots


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def reference_matrix(gram, gammas, flags, roots):
    """M_ij = G_ij - sqrt(gamma_i gamma_j) G_ij^2 P_ij as (re, im) Fractions."""
    p = {(0, 1): flags[0], (0, 2): flags[1], (1, 2): flags[2]}
    m = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            g = F(gram.entry(i, j))
            if i == j:
                m[i][j] = (g - gammas[i], F(0))
                continue
            x, y = p[min(i, j), max(i, j)]
            c = roots[i][j] * g * g
            m[i][j] = (g - c * x, -c * y if i < j else c * y)
    return m


def reference_minors(m):
    """The seven principal minors of complex m by Leibniz' formula, as Fractions."""
    def det(idx):
        total = (F(0), F(0))
        for perm in itertools.permutations(range(len(idx))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            term = (F(-1) ** inversions, F(0))
            for r, c in enumerate(perm):
                term = _cmul(term, m[idx[r]][idx[c]])
            total = (total[0] + term[0], total[1] + term[1])
        assert total[1] == 0
        return total[0]
    return [det(idx) for k in (1, 2, 3) for idx in itertools.combinations(range(3), k)]


def float_bits(x):
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
@given(setup=integer_route_points())
def test_integer_route_matches_the_fraction_reference(setup):
    case, gammas, flags, roots = setup
    point = build_matrix(case, EfficiencyVector(gammas), FlagOverlaps(*flags))
    assert point.is_exact
    m = reference_matrix(case_gram(case), gammas, flags, roots)
    minors = reference_minors(m)
    assert [list(row) for row in point.exact_matrix] == m
    assert point.principal_minors() == minors
    assert all(type(x) is F for x in point.principal_minors())
    assert point.leading_minors() == [minors[0], minors[3], minors[6]]
    assert point.det() == minors[6]
    assert is_psd(point) is all(x >= 0 for x in minors)
    # every float is the correctly rounded value of its Fraction, bit for bit
    for row, ref_row in zip(point.matrix, m):
        for z, (re, im) in zip(row, ref_row):
            assert float_bits(z.real) + float_bits(z.imag) == \
                float_bits(float(re)) + float_bits(float(im))
    data = point.to_json()
    leading = [minors[0], minors[3], minors[6]]
    assert [float_bits(x) for x in data["minors"] + [data["det"]]] == \
        [float_bits(float(x)) for x in leading + [minors[6]]]
    assert data["minors_exact"] == [str(x) for x in leading]
    assert data["det_exact"] == str(minors[6])


_INT = st.integers(-10 ** 6, 10 ** 6)


@settings(max_examples=500, deadline=None)
@given(d=st.tuples(_INT, _INT, _INT), a12=st.tuples(_INT, _INT), a13=st.tuples(_INT, _INT))
@example(d=(0, 0, 0), a12=(0, 0), a13=(0, 0))
@example(d=(-3, 2, -5), a12=(1, -1), a13=(0, 7))
def test_arrow_minors_match_leibniz_on_any_integer_arrow(d, a12, a13):
    # any Hermitian arrow, not only M (G - Gamma is one too): diagonals of
    # either sign and Gaussian-integer first-row entries
    z = (F(0), F(0))
    m = [[(F(d[0]), F(0)), tuple(map(F, a12)), tuple(map(F, a13))],
         [(F(a12[0]), F(-a12[1])), (F(d[1]), F(0)), z],
         [(F(a13[0]), F(-a13[1])), z, (F(d[2]), F(0))]]
    got = feasibility._arrow_minors(*d, a12[0] ** 2 + a12[1] ** 2, a13[0] ** 2 + a13[1] ** 2)
    assert list(got) == reference_minors(m)
    assert all(type(x) is int for x in got)


def is_rational_square(x):
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES),
       gammas=st.tuples(*[st.sampled_from((F(0), F(1), F(1, 2), F(1, 4), F(2, 9),
                                           F(8, 9), F(3, 4), F(1, 3), F(4, 9)))] * 3),
       flags=st.tuples(*[st.one_of(rational_flags(), st.just((F(0), F(0))))] * 3))
def test_exact_route_iff_every_needed_root_is_rational(case, gammas, flags):
    point = build_matrix(case, EfficiencyVector(gammas), FlagOverlaps(*flags))
    gram = case_gram(case)
    # a root is needed unless G_ij^2 P_ij is a structural zero
    needed = [(i, j) for (i, j), p in zip(((0, 1), (0, 2), (1, 2)), flags)
              if gram.entry(i, j) != 0 and p != (0, 0)]
    assert point.is_exact is all(is_rational_square(gammas[i] * gammas[j])
                                 for i, j in needed)
