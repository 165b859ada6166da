import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import probclone
from probclone import phasestate
from probclone.funcspace import BooleanFunction, family
from probclone.phasestate import (GramMatrix, StateVector, gram, inner, measure,
                                  overlap2, phase_state)

H = BooleanFunction.from_bits


def overlap_oracle(f, g):
    # |<phi_f|phi_g>|^2 from first principles: amplitudewise product sum
    dim = f.size
    dot = sum((1 - 2 * f.evaluate(x)) * (1 - 2 * g.evaluate(x)) for x in range(dim))
    return Fraction(dot, dim) ** 2


# ---------------------------------------------------------------------------
# phase states
# ---------------------------------------------------------------------------

def test_phase_state_all_plus():
    st = phase_state(H("00000000"))
    assert st.ints == (1,) * 8
    assert all(abs(a - 1 / (2 * math.sqrt(2))) < 1e-15 for a in st.amps)


def test_phase_state_candidate_signs():
    assert phase_state(H("01000000")).sign_string() == "+-++++++"
    assert phase_state(H("00110011")).sign_string() == "++--++--"
    assert phase_state(H("11000011")).sign_string() == "--++++--"
    st = phase_state(H("0010"))
    assert st.sign_string() == "++-+"
    assert st.amps[0] == 0.5


def test_sign_string_round_trip():
    st = phase_state(H("01000000"))
    signs = st.sign_string()
    assert StateVector(8, ints=[1 if c == "+" else -1 for c in signs]) == st
    with pytest.raises(ValueError):
        StateVector(4, ints=[2, 0, 0, 0]).sign_string()


def test_state_norm_validation():
    with pytest.raises(ValueError):
        StateVector(4, ints=[1, 1, 1, 2])
    with pytest.raises(ValueError):
        StateVector(6, ints=[1] * 6)


# ---------------------------------------------------------------------------
# oracles act on truth tables by XOR
# ---------------------------------------------------------------------------

def test_identity_oracle():
    f = H("01000000")
    assert phase_state(f ^ H("00000000")) == phase_state(f)


def test_oracle_gives_xor_state_up_to_sign():
    f, g = H("01000000"), H("10110000")
    signs = tuple(a * b for a, b in zip(phase_state(f).ints, phase_state(g).ints))
    assert signs == phase_state(f ^ g).ints == phase_state(H("11110000")).ints


def test_oracle_composition():
    # the oracle of g applied to the phase state of f multiplies amplitude x
    # by (-1)^g(x), which is the phase state of f xor g
    rng = random.Random(3)
    for arity in (2, 3):
        for _ in range(100):
            f = BooleanFunction(arity, rng.randrange(1 << (1 << arity)))
            g = BooleanFunction(arity, rng.randrange(1 << (1 << arity)))
            assert phase_state(f ^ g).ints == tuple(
                a * b for a, b in zip(phase_state(f).ints, phase_state(g).ints))


def test_complement_flips_global_sign():
    for bits in ("01000000", "0010"):
        f = H(bits)
        assert phase_state(f.complement()).ints == tuple(-k for k in phase_state(f).ints)
        assert overlap2(phase_state(f), phase_state(f.complement())) == 1


def test_oracle_dimension_mismatch():
    with pytest.raises(ValueError):
        H("0010") ^ H("00000000")


# ---------------------------------------------------------------------------
# inner products and Gram matrices
# ---------------------------------------------------------------------------

def test_inner_examples():
    fam3 = family("3bit")
    psi = [phase_state(f) for f in fam3.s_f0]
    assert inner(psi[0], psi[1]) == Fraction(-1, 4)
    fam2 = family("2bit")
    h = [phase_state(f) for f in fam2.s_f0]
    assert inner(h[0], h[1]) == Fraction(-1, 2)
    assert inner(psi[0], psi[0]) == 1


def test_inner_conjugate_linearity():
    # real amplitudes: <u|v> = conj(<v|u>) = <v|u>
    states = [phase_state(BooleanFunction(2, t)) for t in range(16)]
    assert all(inner(u, v) == inner(v, u).conjugate() == inner(v, u)
               for u in states for v in states)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(phase_state(H("0010")), phase_state(H("00000000")))


def test_candidate_gram_exact():
    fam = family("3bit")
    g = gram([phase_state(f) for f in fam.s_f0])
    expected = ((1, Fraction(-1, 4), Fraction(1, 4)),
                (Fraction(-1, 4), 1, 0),
                (Fraction(1, 4), 0, 1))
    assert all(type(e) in (int, Fraction) for row in g.entries for e in row)
    assert g.entries == expected

    fam2 = family("2bit")
    g2 = gram([phase_state(f) for f in fam2.s_f0])
    assert g2.entries == ((1, Fraction(-1, 2), Fraction(-1, 2)),
                          (Fraction(-1, 2), 1, 0),
                          (Fraction(-1, 2), 0, 1))


def test_pair_representative_basis_is_exactly_orthonormal():
    for case in ("2bit", "3bit"):
        fam = family(case)
        for sset in (fam.s1, fam.s2):
            assert gram([phase_state(f) for f in sset]).is_identity()


def test_pair_representative_basis_sign_patterns():
    # the eight 3-bit basis states, amplitude sign by amplitude sign
    expected = ["++++++++", "++++----", "+-+-+-+-", "++--++--",
                "-++--++-", "--++++--", "+--+-++-", "-+-++-+-"]
    fam = family("3bit")
    assert [phase_state(f).sign_string() for f in fam.s2] == expected


def test_gram_empty_error():
    with pytest.raises(ValueError):
        gram([])


def test_gram_rejects_non_hermitian_entries():
    # exact comparison: 1/4 against 1/3 is rejected, however close
    bad = [
        ((1, Fraction(1, 4)), (Fraction(1, 3), 1)),
        ((1, Fraction(1, 4)), (Fraction(1, 4) + Fraction(1, 10**20), 1)),
        ((1, 0, 0), (0, 1)),
    ]
    for entries in bad:
        with pytest.raises(ValueError):
            GramMatrix(entries)
    GramMatrix(((1, Fraction(-1, 4)), (Fraction(-1, 4), 1)))    # exact and symmetric


@pytest.mark.parametrize("entries", [((1, 0.5j), (-0.5j, 1)),
                                     ((1, Fraction(-1, 4)), (-0.25, 1.0)),
                                     ((1.0, 0), (0, 1)),
                                     ((1j, 0), (0, 1))])
def test_gram_rejects_float_and_complex_entries(entries):
    # a Gram is exact: float and complex entries are refused, symmetric or not
    with pytest.raises(ValueError, match="must be exact"):
        GramMatrix(entries)


def test_gram_of_states_is_hermitian():
    for case in ("2bit", "3bit"):
        fam = family(case)
        for fset in (fam.s_f0, fam.s1, fam.s2, fam.s_f12):
            g = gram([phase_state(f) for f in fset])
            n = len(fset)
            assert all(type(e) in (int, Fraction) for row in g.entries for e in row)
            assert all(g.entry(j, i) == g.entry(i, j).conjugate()
                       for i in range(n) for j in range(n))


def test_pair_set_equals_same_ray():
    # two functions share a pair set exactly when their states agree up to sign
    fam = family("3bit")
    for f, g in combinations(fam.s_f, 2):
        same_set = fam.pair_set_of(f) == fam.pair_set_of(g)
        assert same_set == (overlap2(phase_state(f), phase_state(g)) == 1)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["3bit", "2bit"])
def test_measure_rows_match_overlaps(case):
    fam = family(case)
    for bset in (fam.s1, fam.s2):
        basis = [phase_state(b) for b in bset]
        for f in fam.s_f12 + fam.s_f:
            row = measure(phase_state(f), basis)
            assert row == tuple(overlap_oracle(b, f) for b in bset)
            assert all(isinstance(p, Fraction) for p in row)
            assert sum(row) == 1


def test_measure_basis_element_deterministic():
    for case in ("3bit", "2bit"):
        fam = family(case)
        for bset in (fam.s1, fam.s2):
            basis = [phase_state(b) for b in bset]
            for k, st in enumerate(basis):
                assert measure(st, basis) == tuple(int(j == k) for j in range(len(basis)))


def test_measure_global_sign_irrelevant():
    fam = family("3bit")
    basis = [phase_state(f) for f in fam.s2]
    for f in fam.s_f12:
        st = phase_state(f)
        flipped = StateVector(st.dim, ints=[-k for k in st.ints])
        assert measure(flipped, basis) == measure(st, basis)


def test_measure_requires_orthonormal_basis():
    fam = family("3bit")
    st = phase_state(H("00000000"))
    s2 = [phase_state(f) for f in fam.s2]
    for basis in ([phase_state(f) for f in fam.s_f0],   # gram has -1/4 entries
                  s2[:7] + [s2[0]]):                     # a repeated element
        with pytest.raises(ValueError):
            measure(st, basis)


def test_measure_rejects_partial_basis():
    # an orthonormal but incomplete basis would leave weight outside its span
    fam = family("3bit")
    st = phase_state(H("10110000"))
    s2 = [phase_state(f) for f in fam.s2]
    assert sum(overlap2(b, st) for b in s2[:3]) < 1
    with pytest.raises(ValueError):
        measure(st, s2[:3])


def test_measure_basis_size_limits():
    s2 = [phase_state(f) for f in family("3bit").s2]
    st = phase_state(H("00000000"))
    for basis in ([], [StateVector(8, ints=[-k for k in s2[0].ints])] + s2):
        with pytest.raises(ValueError):
            measure(st, basis)
    with pytest.raises(ValueError):                 # dimension mismatch
        measure(phase_state(H("0010")), s2)


def test_measure_checks_each_basis_once(monkeypatch):
    calls = []
    real_gram = phasestate.gram
    monkeypatch.setattr(phasestate, "gram", lambda states: calls.append(1) or real_gram(states))
    phasestate._orthonormal_basis.cache_clear()
    fam = family("2bit")
    basis = [phase_state(f) for f in fam.s1]
    for f in fam.s_f12:
        measure(phase_state(f), basis)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

REMOVED = ("apply_phase_oracle", "canonicalized", "equivalent", "discriminate",
           "OUTSIDE_BASIS")


def test_public_surface():
    for name in REMOVED:
        assert not hasattr(probclone, name)
        assert not hasattr(phasestate, name)
    assert "measure" in probclone.__all__
    assert len(set(probclone.__all__)) == len(probclone.__all__)
    for name in probclone.__all__:
        assert getattr(probclone, name) is not None
