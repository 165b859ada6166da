import dataclasses
import random
from itertools import combinations
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probclone.funcspace import BooleanFunction, TaskInstance, family

H = BooleanFunction.from_bits


def popcount(x):
    return bin(x).count("1")


def sign_dot(f, g):
    # independent overlap oracle: dim - 2 * popcount(xor of tables)
    return f.size - 2 * popcount(f.table ^ g.table)


# ---------------------------------------------------------------------------
# naming and evaluation
# ---------------------------------------------------------------------------

def test_name_round_trip():
    for bits in ("01000000", "00110011", "0010", "1111"):
        assert H(bits).bits == bits
        assert H(bits).name == "h_{" + bits + "}"


def test_eval_examples():
    assert H("01000000").evaluate(0b001) == 1
    f0 = H("00000000")
    assert all(f0.evaluate(x) == 0 for x in range(8))
    assert H("11000011").evaluate(0b000) == 1


def test_eval_matches_name_digits():
    rng = random.Random(1)
    for _ in range(50):
        table = rng.randrange(256)
        f = BooleanFunction(3, table)
        digits = f.name[3:-1]
        assert all(f.evaluate(x) == int(digits[x]) for x in range(8))


def test_eval_out_of_range():
    with pytest.raises(ValueError):
        H("0010").evaluate(4)
    with pytest.raises(ValueError):
        H("0010").evaluate(-1)


def test_bad_names():
    for bad in ("010", "01002000", ""):
        with pytest.raises(ValueError):
            H(bad)


# ---------------------------------------------------------------------------
# xor
# ---------------------------------------------------------------------------

def test_xor_examples():
    assert H("01000000") ^ H("10110000") == H("11110000")
    f = H("00101001")
    assert f ^ f == H("00000000")
    assert H("00110011") ^ H("00000000") == H("00110011")


def test_xor_arity_mismatch():
    with pytest.raises(ValueError):
        H("0010") ^ H("00110011")


# ---------------------------------------------------------------------------
# families and sets
# ---------------------------------------------------------------------------

def test_three_bit_set_sizes():
    fam = family("3bit")
    assert len(fam.s_f0) == 3
    assert len(fam.s1) == len(fam.s2) == 8
    assert len(fam.s_f12) == 16
    assert len(fam.s_f) == 16
    assert all(len(p) == 2 for p in fam.pair_sets.values())
    assert not set(fam.s1) & set(fam.s2)


def test_two_bit_set_sizes():
    fam = family("2bit")
    assert len(fam.s_f0) == 3
    assert len(fam.s1) == len(fam.s2) == 4
    assert len(fam.s_f12) == 8
    assert len(fam.s_f) == 8
    assert not set(fam.s1) & set(fam.s2)


def test_pair_sets_are_complement_pairs():
    for case in ("2bit", "3bit"):
        fam = family(case)
        ones = BooleanFunction(fam.arity, (1 << (1 << fam.arity)) - 1)
        for pair in fam.pair_sets.values():
            a, b = pair
            assert a ^ b == ones


def test_pair_set_of_examples():
    fam = family("3bit")
    assert fam.pair_set_of(H("11110000")) == "S_00001111"
    assert fam.pair_set_of(H("00000000")) == "S_00000000"
    assert fam.pair_set_of(H("01000000")) is None
    # oracle for the None: enumerate all 16 members of S_f directly
    assert H("01000000") not in fam.s_f


def test_candidates_examples():
    fam = family("3bit")
    assert fam.candidates(H("01000000")) is fam.s1
    assert fam.candidates(H("00110011")) is fam.s2
    assert fam.candidates(H("11000011")) is fam.s2


def test_candidates_brute_force_oracle():
    # independent filter over S_f12 using the task constraint directly
    for case in ("2bit", "3bit"):
        fam = family(case)
        sf_tables = {m.table for m in fam.s_f}
        for f0 in fam.s_f0:
            expected = [g for g in fam.s_f12 if (f0.table ^ g.table) in sf_tables]
            assert list(fam.candidates(f0)) == expected


def test_candidates_rejects_non_secret():
    fam = family("3bit")
    with pytest.raises(ValueError):
        fam.candidates(H("00000000"))


def test_constraint_invariant():
    for case in ("2bit", "3bit"):
        fam = family(case)
        for f0 in fam.s_f0:
            for g in fam.candidates(f0):
                assert fam.pair_set_of(f0 ^ g) is not None


def test_candidate_states_pairwise_orthogonal():
    # orthogonality oracle via popcount arithmetic, no state machinery
    for case in ("2bit", "3bit"):
        fam = family(case)
        for sset in (fam.s1, fam.s2):
            for f, g in combinations(sset, 2):
                assert sign_dot(f, g) == 0


def test_two_bit_families_are_forced():
    """Exactly two orthonormal 4-ray bases exist among 2-bit sign vectors;
    S1 and S2 must be those two (one representative per ray)."""
    rays = sorted({min(m, m ^ 0b1111) for m in range(16)})
    bases = [set(c) for c in combinations(rays, 4)
             if all(popcount(u ^ v) == 2 for u, v in combinations(c, 2))]
    assert len(bases) == 2
    fam = family("2bit")
    s1_rays = {min(f.table, f.table ^ 0b1111) for f in fam.s1}
    s2_rays = {min(f.table, f.table ^ 0b1111) for f in fam.s2}
    assert {frozenset(s1_rays), frozenset(s2_rays)} == {frozenset(b) for b in bases}


def test_secret_split_matches_candidate_sets():
    for case in ("2bit", "3bit"):
        fam = family(case)
        assert fam.s1_f0 in fam.s1
        assert fam.candidates(fam.s1_f0) is fam.s1
        # Gamma is indexed with the S1-side secret first (clone_intermediates,
        # score_clone_exact, the gamma1 and gamma23 objectives), while
        # gamesim._run finds that secret through s1_f0: the two must agree
        assert fam.s_f0[0] is fam.s1_f0
        for v, f in fam.s2_f0_by_query.items():
            assert f.evaluate(0) == v
            assert fam.candidates(f) is fam.s2


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_instance_always_valid():
    """Every draw is a valid instance, and the shared object its index
    names in ``fam.instances``."""
    for case in ("2bit", "3bit"):
        fam = family(case)
        rng = random.Random(42)
        for _ in range(5000):
            inst = fam.sample_instance(rng)
            assert fam.validate_instance(inst)
            assert fam.instances[inst.index] is inst


def test_instance_indices_run_in_draw_order():
    """``fam.instances`` lists every instance once, f0 -> f1 -> f2 in set
    order, and each carries its position."""
    for case in ("2bit", "3bit"):
        fam = family(case)
        order = [(f0, f1, f2) for f0 in fam.s_f0 for f1 in fam.candidates(f0)
                 for f2 in fam.candidates(f0)]
        assert [(i.f0, i.f1, i.f2) for i in fam.instances] == order
        assert [i.index for i in fam.instances] == list(range(len(order)))
        assert len(set(fam.instances)) == len(order)


def test_caller_built_instance_equals_the_shared_one():
    """A caller-built instance keeps index -1 and is equal to, hashes as
    and prints as the shared instance of its functions; a copy made with
    ``dataclasses.replace`` also reads -1."""
    for case in ("2bit", "3bit"):
        for shared in family(case).instances:
            built = TaskInstance(shared.f0, shared.f1, shared.f2)
            assert built.index == -1 and shared.index >= 0
            assert built == shared and hash(built) == hash(shared)
            assert repr(built) == repr(shared)
            copied = dataclasses.replace(shared, f2=shared.f1)
            assert copied.index == -1 and copied == TaskInstance(shared.f0, shared.f1,
                                                                 shared.f1)


def test_sample_instance_deterministic():
    fam = family("3bit")
    a = fam.sample_instance(random.Random(123))
    b = fam.sample_instance(random.Random(123))
    assert a == b


def test_sample_instance_matches_randrange_formula():
    """The instance grid draws the same instances, consuming the same
    stream, as indexing each set with rng.randrange(len(set))."""
    for case in ("2bit", "3bit"):
        fam = family(case)
        rng, ref = random.Random(17), random.Random(17)
        for _ in range(3000):
            f0 = fam.s_f0[ref.randrange(len(fam.s_f0))]
            cand = fam.candidates(f0)
            f1 = cand[ref.randrange(len(cand))]
            f2 = cand[ref.randrange(len(cand))]
            inst = fam.sample_instance(rng)
            assert inst == TaskInstance(f0, f1, f2)
            # draw order: f0's block of n * n, then f1's row of n
            n = len(cand)
            assert inst.index == (fam.s_f0.index(f0) * n + cand.index(f1)) * n + cand.index(f2)
        assert rng.getstate() == ref.getstate()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), warmup=st.integers(0, 5))
def test_sample_instance_is_three_nested_choice_calls(seed, warmup):
    """The sampler returns the very object three nested rng.choice calls
    pick from the grid and consumes the same stream, from any state."""
    for case in ("2bit", "3bit"):
        fam = family(case)
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(warmup):
            rng.random()
            ref.random()
        c = ref.choice
        for _ in range(200):
            assert fam.sample_instance(rng) is c(c(c(fam._grid)))
        assert rng.getstate() == ref.getstate()


def test_sample_f0_uniform():
    fam = family("3bit")
    rng = random.Random(0)
    n = 100_000
    target = H("01000000")
    hits = sum(fam.sample_instance(rng).f0 == target for _ in range(n))
    p = 1 / 3
    assert abs(hits / n - p) <= 3 * sqrt(p * (1 - p) / n)


def test_sample_candidates_uniform():
    fam = family("3bit")
    rng = random.Random(7)
    n = 100_000
    counts = {}
    for _ in range(n):
        inst = fam.sample_instance(rng)
        counts[(inst.f0.table, inst.f1.table)] = counts.get(
            (inst.f0.table, inst.f1.table), 0) + 1
    # every candidate of each secret appears with frequency 1/8 conditioned
    # on that secret (1/3 of the draws), within 3 sigma
    for f0 in fam.s_f0:
        n_f0 = sum(c for (t0, _), c in counts.items() if t0 == f0.table)
        for g in fam.candidates(f0):
            freq = counts.get((f0.table, g.table), 0) / n_f0
            p = 1 / len(fam.candidates(f0))
            assert abs(freq - p) <= 3 * sqrt(p * (1 - p) / n_f0)
