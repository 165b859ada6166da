import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from probclone.funcspace import BooleanFunction, family
from probclone.phasestate import (OUTSIDE_BASIS, GramMatrix, StateVector,
                                  apply_phase_oracle, canonicalized, discriminate,
                                  equivalent, gram, inner, phase_state)

H = BooleanFunction.from_name


def overlap_oracle(f, g):
    # |<phi_f|phi_g>|^2 from first principles: amplitudewise product sum
    dim = f.size
    dot = sum((1 - 2 * f.evaluate(x)) * (1 - 2 * g.evaluate(x)) for x in range(dim))
    return Fraction(dot, dim) ** 2


# ---------------------------------------------------------------------------
# phase states
# ---------------------------------------------------------------------------

def test_phase_state_all_plus():
    st = phase_state(H("h_{00000000}"))
    assert st.ints == (1,) * 8
    assert all(abs(a - 1 / (2 * math.sqrt(2))) < 1e-15 for a in st.amps)


def test_phase_state_candidate_signs():
    assert phase_state(H("h_{01000000}")).sign_string() == "+-++++++"
    assert phase_state(H("h_{00110011}")).sign_string() == "++--++--"
    assert phase_state(H("h_{11000011}")).sign_string() == "--++++--"
    st = phase_state(H("h_{0010}"))
    assert st.sign_string() == "++-+"
    assert st.amps[0] == 0.5


def test_sign_string_round_trip():
    st = StateVector.from_signs("+-++++++")
    assert st == phase_state(H("h_{01000000}"))
    # unicode minus also accepted
    assert StateVector.from_signs("+−++++++") == st
    with pytest.raises(ValueError):
        StateVector.from_signs("+-x+")


def test_state_norm_validation():
    with pytest.raises(ValueError):
        StateVector(4, amps=[0.5, 0.5, 0.5, 0.6])
    with pytest.raises(ValueError):
        StateVector(4, ints=[1, 1, 1, 2])
    with pytest.raises(ValueError):
        StateVector(6, ints=[1] * 6)


def test_json_round_trip():
    st = phase_state(H("h_{10110000}"))
    back = StateVector.from_json(st.to_json())
    assert back.amps == st.amps
    assert not back.is_exact


# ---------------------------------------------------------------------------
# oracle application
# ---------------------------------------------------------------------------

def test_identity_oracle():
    st = phase_state(H("h_{01000000}"))
    assert apply_phase_oracle(st, H("h_{00000000}")) == st


def test_oracle_gives_xor_state_up_to_sign():
    st = apply_phase_oracle(phase_state(H("h_{01000000}")), H("h_{10110000}"))
    assert equivalent(st, phase_state(H("h_{11110000}")))


def test_oracle_composition():
    rng = random.Random(3)
    for _ in range(100):
        f = BooleanFunction(3, rng.randrange(256))
        g = BooleanFunction(3, rng.randrange(256))
        s = BooleanFunction(3, rng.randrange(256))
        st = phase_state(s)
        once = apply_phase_oracle(apply_phase_oracle(st, f), g)
        assert once == apply_phase_oracle(st, f ^ g)


def test_oracle_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_phase_oracle(phase_state(H("h_{0010}")), H("h_{00000000}"))


def test_complement_flips_global_sign():
    for name in ("h_{01000000}", "h_{0010}"):
        f = H(name)
        assert phase_state(f.complement()) == phase_state(f).negated()
        assert equivalent(phase_state(f), phase_state(f.complement()))


def test_canonicalized_fixes_leading_sign():
    st = phase_state(H("h_{11000011}"))   # leading amplitude negative
    canon = canonicalized(st)
    assert canon == st.negated()
    assert canonicalized(canon) == canon
    # float mode: strips an arbitrary global phase
    ph = complex(0.6, 0.8)
    rotated = StateVector(4, amps=[a * ph for a in phase_state(H("h_{0010}")).amps])
    fixed = canonicalized(rotated)
    assert all(abs(a.imag) < 1e-14 for a in fixed.amps)
    assert fixed.amps[0].real > 0


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
    u = StateVector(4, amps=[0.5, 0.5j, -0.5, 0.5j])
    v = StateVector(4, amps=[0.5, 0.5, 0.5, 0.5])
    assert inner(u, v) == inner(v, u).conjugate()


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(phase_state(H("h_{0010}")), phase_state(H("h_{00000000}")))


def test_candidate_gram_exact():
    fam = family("3bit")
    g = gram([phase_state(f) for f in fam.s_f0])
    expected = ((1, Fraction(-1, 4), Fraction(1, 4)),
                (Fraction(-1, 4), 1, 0),
                (Fraction(1, 4), 0, 1))
    assert g.is_exact
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
    # exact comparison: the next float after 1/4 is already rejected
    bad = [
        ((1, Fraction(1, 4)), (Fraction(1, 3), 1)),
        ((1, 0.25), (0.25000000000000006, 1)),
        ((1, 0.5j), (0.5j, 1)),
        ((1j, 0), (0, 1)),
        ((1, 0, 0), (0, 1)),
    ]
    for entries in bad:
        with pytest.raises(ValueError):
            GramMatrix(entries)
    GramMatrix(((1, 0.5j), (-0.5j, 1)))
    GramMatrix(((1, Fraction(-1, 4)), (-0.25, 1.0)))


def test_gram_of_states_is_hermitian():
    for case in ("2bit", "3bit"):
        fam = family(case)
        for states in (fam.s_f0, fam.s1, fam.s2):
            gram([phase_state(f) for f in states])
    rng = random.Random(29)
    for _ in range(300):
        dim = rng.choice((4, 8))
        states = []
        for _ in range(rng.randint(1, 5)):
            amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
            norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
            states.append(StateVector(dim, amps=[a / norm for a in amps]))
        g = gram(states)
        n = len(states)
        assert all(g.entry(j, i) == g.entry(i, j).conjugate()
                   for i in range(n) for j in range(n))


def test_pair_set_equals_same_ray():
    # two functions share a pair set exactly when their states agree up to sign
    fam = family("3bit")
    members = fam.s_f.members
    for f, g in combinations(members, 2):
        same_set = fam.pair_set_of(f) == fam.pair_set_of(g)
        assert same_set == equivalent(phase_state(f), phase_state(g))


# ---------------------------------------------------------------------------
# discrimination
# ---------------------------------------------------------------------------

def test_discriminate_basis_element_deterministic():
    fam = family("3bit")
    basis = [phase_state(f) for f in fam.s2]
    target = H("h_{00110011}")
    idx = fam.s2.index(target)
    rng = random.Random(0)
    assert all(discriminate(phase_state(target), basis, rng) == idx
               for _ in range(200))


def test_discriminate_global_sign_irrelevant():
    fam = family("3bit")
    basis = [phase_state(f) for f in fam.s2]
    st = phase_state(H("h_{00110011}")).negated()
    rng = random.Random(1)
    assert discriminate(st, basis, rng) == fam.s2.index(H("h_{00110011}"))


def test_discriminate_requires_orthonormal_basis():
    fam = family("3bit")
    bad = [phase_state(f) for f in fam.s_f0]  # gram has -1/4 entries
    with pytest.raises(ValueError):
        discriminate(phase_state(H("h_{00000000}")), bad, random.Random(0))


def test_discriminate_frequencies_match_overlaps():
    """S1 member measured in the S2 basis: outcome histogram vs |overlap|^2."""
    fam = family("3bit")
    f = H("h_{10110000}")
    basis = [phase_state(m) for m in fam.s2]
    probs = [float(overlap_oracle(m, f)) for m in fam.s2]
    assert abs(sum(probs) - 1.0) < 1e-15
    st = phase_state(f)
    rng = random.Random(11)
    n = 100_000
    counts = [0] * len(basis)
    for _ in range(n):
        counts[discriminate(st, basis, rng, check=False)] += 1
    for k, p in enumerate(probs):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 3 * sigma + 1e-12, (k, counts[k] / n, p)


def test_discriminate_outside_basis_outcome():
    # measuring against a strict subset of the basis leaves leftover weight
    fam = family("3bit")
    partial = [phase_state(m) for m in fam.s2.members[:3]]
    f = H("h_{10110000}")
    p_inside = float(sum(overlap_oracle(m, f) for m in fam.s2.members[:3]))
    st = phase_state(f)
    rng = random.Random(2)
    n = 20_000
    outside = sum(discriminate(st, partial, rng, check=False) == OUTSIDE_BASIS
                  for _ in range(n))
    p = 1 - p_inside
    assert abs(outside / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_discriminate_basis_size_limits():
    with pytest.raises(ValueError):
        discriminate(phase_state(H("h_{00000000}")), [], random.Random(0))
