"""The numeric search's arrow-matrix kernel against the closed-form eigenvalues.

The reference is the per-point route the search used before the kernel:
assemble M in complex arithmetic and test ``hermitian3_eigvals(M)[0]``
against ``-tol``. The kernel must reproduce every one of its verdicts.
"""
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from probclone.feasibility import (DEFAULT_TOL, EIG_ERR, ArrowKernel,
                                   EfficiencyVector, FlagOverlaps, build_matrix,
                                   hermitian3_eigvals)
from probclone.optimize import CORNER_FLAGS, case_gram
from probclone.phasestate import GramMatrix

CASES = ("3bit", "2bit")


def reference_min_eig(gf, point, complex_flags):
    """Smallest closed-form eigenvalue of M, or None for a flag modulus above 1."""
    if complex_flags:
        g1, g2, g3, a, b, c, d = point
        if a * a + b * b > 1.0 or c * c + d * d > 1.0:
            return None
    else:
        g1, g2, g3, a, c = point
        b = d = 0.0
    x12 = math.sqrt(g1 * g2)
    x13 = math.sqrt(g1 * g3)
    m = [[0j] * 3 for _ in range(3)]
    m[0][0] = complex(gf[0][0] - g1)
    m[1][1] = complex(gf[1][1] - g2)
    m[2][2] = complex(gf[2][2] - g3)
    m[0][1] = gf[0][1] - x12 * gf[0][1] ** 2 * complex(a, b)
    m[1][0] = m[0][1].conjugate()
    m[0][2] = gf[0][2] - x13 * gf[0][2] ** 2 * complex(c, d)
    m[2][0] = m[0][2].conjugate()
    m[1][2] = complex(gf[1][2])
    m[2][1] = m[1][2].conjugate()
    return hermitian3_eigvals(m)[0]


def reference_ok(gf, point, complex_flags, tol=DEFAULT_TOL):
    eig = reference_min_eig(gf, point, complex_flags)
    return eig is not None and eig >= -tol


def float_gram(case):
    g = case_gram(case)
    return tuple(tuple(complex(g.entry(i, j)) for j in range(3)) for i in range(3))


def axes(resolution):
    gamma_axis = [i / (resolution - 1) for i in range(resolution)]
    flag_axis = [-1.0 + 2.0 * i / (resolution - 1) for i in range(resolution)]
    return gamma_axis, flag_axis


def scan_blocks(kernel, resolution, wanted=None):
    """{(g1, g2, g3): set of feasible flag tuples}, for the wanted blocks.

    Every block's iterator is used up, so every grid verdict is decided.
    """
    gamma_axis, flag_axis = axes(resolution)
    out = {}
    for g1 in gamma_axis:
        for gammas, flags in kernel.scan(g1, gamma_axis, flag_axis):
            flags = list(flags)
            assert flags == sorted(flags, reverse=True)
            if wanted is None or gammas in wanted:
                out[gammas] = set(flags)
    return out


@pytest.mark.parametrize("resolution", [8, 9, 10])
@pytest.mark.parametrize("case", CASES)
def test_real_grid_verdicts_match_closed_form(case, resolution):
    gf = float_gram(case)
    kernel = ArrowKernel(case_gram(case))
    blocks = scan_blocks(kernel, resolution)
    gamma_axis, flag_axis = axes(resolution)
    assert len(blocks) == resolution ** 3
    feasible = 0
    for gammas in itertools.product(gamma_axis, repeat=3):
        got = blocks[gammas]
        for flags in itertools.product(flag_axis, repeat=2):
            ok = reference_ok(gf, gammas + flags, False)
            assert (flags in got) == ok, (gammas, flags)
            feasible += ok
    assert sum(map(len, blocks.values())) == feasible


def band_points(kernel, gf, resolution):
    """Complex-flag grid points whose determinant lies within twice the band.

    Recomputed here in numpy, so the factor 2 absorbs the different
    rounding of the two evaluations.
    """
    gamma_axis, flag_axis = axes(resolution)
    tol = kernel.tol
    g12, g13 = gf[0][1].real, gf[0][2].real
    ga = np.array(gamma_axis)
    fa = np.array(flag_axis)
    G2, G3, A, B, C, D = np.meshgrid(ga, ga, fa, fa, fa, fa, indexing="ij")
    out = []
    for g1 in gamma_axis:
        t12 = np.sqrt(g1 * G2) * g12 * g12
        t13 = np.sqrt(g1 * G3) * g13 * g13
        u2 = (g12 - t12 * A) ** 2 + (t12 * B) ** 2
        w2 = (g13 - t13 * C) ** 2 + (t13 * D) ** 2
        d1, d2, d3 = 1.0 - g1 + tol, 1.0 - G2 + tol, 1.0 - G3 + tol
        det = d1 * d2 * d3 - u2 * d3 - w2 * d2
        valid = (A * A + B * B <= 1.0) & (C * C + D * D <= 1.0)
        near = valid & (np.abs(det) <= 2.0 * kernel.band * np.maximum(d2, d3))
        for idx in zip(*np.nonzero(near)):
            i2, i3, ia, ib, ic, id_ = (int(i) for i in idx)
            out.append((g1, gamma_axis[i2], gamma_axis[i3], flag_axis[ia],
                        flag_axis[ib], flag_axis[ic], flag_axis[id_]))
    return out


@pytest.mark.parametrize("case", CASES)
def test_complex_grid_verdicts_match_on_sample_and_band(case):
    resolution = 9
    gf = float_gram(case)
    kernel = ArrowKernel(case_gram(case), complex_flags=True)
    gamma_axis, flag_axis = axes(resolution)
    rng = random.Random(f"complex:{case}")
    sample = [tuple(rng.choice(gamma_axis) for _ in range(3))
              + tuple(rng.choice(flag_axis) for _ in range(4)) for _ in range(20_000)]
    band = band_points(kernel, gf, resolution)
    assert band, "the complex grid has points on the feasibility boundary"
    points = sample + band
    blocks = scan_blocks(kernel, resolution, {p[:3] for p in points})
    for p in points:
        assert (p[3:] in blocks[p[:3]]) == reference_ok(gf, p, True), p


def boundary_points(case):
    """Points on and within 1e-9 of the analytic optimum's boundary."""
    gam = {"3bit": (F(7, 127), F(112, 127)), "2bit": (F(1, 7), F(4, 7))}[case]
    a, c = (float(CORNER_FLAGS[case][k]) for k in ("p12", "p13"))
    pts = []
    for scale in (1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9):
        g1, g2 = float(gam[0]), min(1.0, float(gam[1]) * scale)
        pts.append((g1, g2, g2, a, c))
        pts.append((g2, g1, g1, a, c))
    return pts


@pytest.mark.parametrize("case", CASES)
def test_slack_on_the_boundary(case):
    gf = float_gram(case)
    real = ArrowKernel(case_gram(case))
    cplx = ArrowKernel(case_gram(case), complex_flags=True)
    for p in boundary_points(case):
        ref = reference_min_eig(gf, p, False)
        want = ref if ref >= -DEFAULT_TOL else None
        assert real.slack(p) == want
        pc = (p[0], p[1], p[2], p[3], 0.0, p[4], 0.0)
        assert cplx.slack(pc) == want
        # a small imaginary part moves the point, both routes still agree
        pc = (p[0], p[1], p[2], p[3] * 0.96, 0.28, p[4] * 0.96, -0.28)
        ref = reference_min_eig(gf, pc, True)
        assert cplx.slack(pc) == (ref if ref >= -DEFAULT_TOL else None)


def test_kernel_rejects_grams_outside_its_bound():
    with pytest.raises(ValueError):
        ArrowKernel(GramMatrix(((1, F(1, 4), F(1, 4)), (F(1, 4), 1, F(1, 8)),
                                (F(1, 4), F(1, 8), 1))))
    with pytest.raises(ValueError):
        ArrowKernel(GramMatrix(((1, F(1, 16), F(1, 4)), (F(1, 16), 1, 0),
                                (F(1, 4), 0, 1))))


@pytest.mark.parametrize("case", CASES)
def test_closed_form_error_within_eig_err(case):
    # the band's premise, measured against LAPACK over the search box
    g = case_gram(case)
    kernel = ArrowKernel(g, complex_flags=True)
    rng = random.Random(f"eig-err:{case}")
    worst = 0.0
    for _ in range(3000):
        gammas = [rng.random() for _ in range(3)]
        r12, r13 = math.sqrt(rng.random()), math.sqrt(rng.random())
        t12, t13 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        p = (*gammas, r12 * math.cos(t12), r12 * math.sin(t12),
             r13 * math.cos(t13), r13 * math.sin(t13))
        m = kernel.matrix(p)
        want = np.linalg.eigvalsh(np.array(m))[0]
        worst = max(worst, abs(hermitian3_eigvals(m)[0] - want))
    assert worst < EIG_ERR / 1000


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("complex_flags", [False, True])
def test_kernel_matrix_is_build_matrix(case, complex_flags):
    # entry by entry, zero signs included: both come from _float_matrix
    g = case_gram(case)
    kernel = ArrowKernel(g, complex_flags=complex_flags)
    rng = random.Random(f"kernel-matrix:{case}:{complex_flags}")
    edges = (0.0, -0.0, 1.0, -1.0)
    for _ in range(2000):
        gammas = [rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(3)]
        while True:
            flags = [rng.choice(edges + (rng.uniform(-1, 1),) * 4)
                     for _ in range(4 if complex_flags else 2)]
            pairs = ((flags[0], flags[1]), (flags[2], flags[3])) if complex_flags \
                else ((flags[0], 0.0), (flags[1], 0.0))
            if all(re * re + im * im <= 1.0 for re, im in pairs):
                break
        point = build_matrix(g, EfficiencyVector(gammas),
                             FlagOverlaps(p12=pairs[0], p13=pairs[1]))
        got = kernel.matrix(tuple(gammas + flags))
        for got_row, want_row in zip(got, point.matrix):
            for z, want in zip(got_row, want_row):
                assert z == want
                assert math.copysign(1.0, z.real) == math.copysign(1.0, want.real)
                assert math.copysign(1.0, z.imag) == math.copysign(1.0, want.imag)
