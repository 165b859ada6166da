"""Boolean function families for the two-functional guessing task.

Functions from n bits to one bit (n = 2 or 3) are stored as truth-table
bitmasks and named ``h_{a1...am}`` where the i-th name digit is the value
of the function on input i read as a binary number, i.e. a1 = f(00...0).

The three-bit families are fixed data: a set of three secret functions
(``S_f0``), two eight-member candidate families (``S1``, ``S2``) whose
phase states form orthonormal bases, eight two-member complement pair
sets labelled by their ``S2`` representative, and their union ``S_f``.
An instance of the task draws f0 from ``S_f0`` and f1, f2 from
``S1 u S2`` subject to f0 xor f1 and f0 xor f2 landing in ``S_f``.
Every set is a plain tuple of ``BooleanFunction`` in its listed order;
``pair_sets`` maps each label to its pair ``(rep, complement(rep))``.

The two-bit families are not spelled out anywhere as data; they are
reconstructed here as the unique structure with the same shape: candidate
sets must be orthonormal phase-state bases of the 4-dimensional register
(there are exactly two such bases up to complements), ``S2`` must contain
the two secret functions it classifies, and the pair sets are the four
complement pairs reachable as f0 xor g. The reconstruction is pinned down
by tests and reproduces the published scoring structure, including the
1/16 both-guesses chance term.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of an n-bit -> 1-bit function, n in {2, 3}.

    ``table`` holds the truth table as a bitmask with bit k = f(k).
    """

    arity: int
    table: int

    def __post_init__(self):
        if self.arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {self.arity}")
        if not 0 <= self.table < (1 << self.size):
            raise ValueError(f"table {self.table:#x} out of range for arity {self.arity}")

    @property
    def size(self) -> int:
        return 1 << self.arity

    @classmethod
    def from_bits(cls, bits: str) -> "BooleanFunction":
        """Build from a digit string, e.g. "01000000" (first digit = f(0))."""
        arity = {4: 2, 8: 3}.get(len(bits))
        if arity is None:
            raise ValueError(f"need 4 or 8 digits, got {bits!r}")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"invalid digits in {bits!r}")
        return cls(arity, int(bits[::-1], 2))     # digit i is bit i

    @property
    def bits(self) -> str:
        return "".join(str((self.table >> i) & 1) for i in range(self.size))

    @property
    def name(self) -> str:
        return "h_{" + self.bits + "}"

    def evaluate(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise ValueError(f"input {x} out of range for arity {self.arity}")
        return (self.table >> x) & 1

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        """Pointwise addition modulo 2 of two truth tables."""
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("arity mismatch in xor")
        return BooleanFunction(self.arity, self.table ^ other.table)

    def complement(self) -> "BooleanFunction":
        return BooleanFunction(self.arity, self.table ^ ((1 << self.size) - 1))


@dataclass(frozen=True)
class TaskInstance:
    f0: BooleanFunction
    f1: BooleanFunction
    f2: BooleanFunction
    #: position of a shared instance in ``TaskFamily.instances`` (draw
    #: order), set only by ``TaskFamily``; -1 for one a caller builds or
    #: copies with ``dataclasses.replace``. Equality, hash and repr ignore it.
    index: int = field(default=-1, init=False, compare=False, repr=False)


_THREE_BIT = {
    "s_f0": ("01000000", "00110011", "11000011"),
    "s1": ("01000000", "10110000", "10001100", "00100110",
           "00010101", "10000011", "00101001", "00011010"),
    "s2": ("00000000", "00001111", "01010101", "00110011",
           "10011001", "11000011", "01101001", "10100101"),
}

# Reconstructed (see module docstring); S2 = the orthonormal family
# containing the two secret functions distinguishable by one classical
# query, S1 = the other orthonormal family, pair sets = S2-member pairs.
_TWO_BIT = {
    "s_f0": ("0010", "0101", "1001"),
    "s1": ("0001", "0010", "0100", "0111"),
    "s2": ("0000", "0011", "0101", "1001"),
}

CASES = ("2bit", "3bit")


class TaskFamily:
    """All function sets for one case, plus task sampling and set lookups.

    ``instances`` holds every task instance once, in draw order, each with
    its position as ``index``; ``sample_instance`` returns these shared
    objects, so ``instances[inst.index] is inst`` and a per-instance table
    is read with one list lookup per draw.
    """

    def __init__(self, case: str):
        if case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {case!r}")
        data = _THREE_BIT if case == "3bit" else _TWO_BIT
        self.case = case
        self.arity = 3 if case == "3bit" else 2

        def fns(key):
            return tuple(BooleanFunction.from_bits(b) for b in data[key])

        self.s_f0 = fns("s_f0")
        self.s1 = fns("s1")
        self.s2 = fns("s2")
        self.s_f12 = self.s1 + self.s2

        # pair sets (h, complement(h)) labelled by their S2 representative
        self.pair_sets: dict[str, tuple[BooleanFunction, BooleanFunction]] = {
            "S_" + rep.bits: (rep, rep.complement()) for rep in self.s2}
        self.pair_label_by_table = {m.table: label
                                    for label, pair in self.pair_sets.items()
                                    for m in pair}
        self.s_f = tuple(m for pair in self.pair_sets.values() for m in pair)

        # candidates(f0) = {g in S_f12 : f0 xor g in S_f}, brute-force filter
        self._candidates: dict[int, tuple[BooleanFunction, ...]] = {}
        for f0 in self.s_f0:
            members = tuple(g for g in self.s_f12
                            if (f0 ^ g).table in self.pair_label_by_table)
            if members not in (self.s1, self.s2):  # pragma: no cover
                raise AssertionError("candidate filter does not match S1/S2")
            self._candidates[f0.table] = self.s1 if members == self.s1 else self.s2

        # the lone S_f0 member whose candidates are S1, and the two whose
        # candidates are S2 keyed by their value on input 0 (the classical
        # query input used by the no-cloning strategy)
        s1_side = [f for f in self.s_f0 if self._candidates[f.table] is self.s1]
        s2_side = [f for f in self.s_f0 if self._candidates[f.table] is self.s2]
        if len(s1_side) != 1 or len(s2_side) != 2:
            raise AssertionError("unexpected S_f0 split")
        self.s1_f0 = s1_side[0]
        self.s2_f0_by_query = {f.evaluate(0): f for f in s2_side}
        if set(self.s2_f0_by_query) != {0, 1}:
            raise AssertionError("query input 0 does not distinguish the S2 secrets")

        # every task instance in draw order, f0 -> f1 -> f2 in set order,
        # each carrying its position, and the same objects nested as
        # _grid[f0][f1][f2], so that sampling is three uniform picks and
        # returns a shared object. S1 and S2 are bases of one register, so
        # every secret has the same number n of candidates and secret i's
        # instances fill positions i * n * n to (i + 1) * n * n - 1.
        if len(self.s1) != len(self.s2):
            raise AssertionError("candidate sets differ in size")
        n0, n = len(self.s_f0), len(self.s1)
        cells = [(f0, f1, f2) for f0 in self.s_f0
                 for f1 in self._candidates[f0.table]
                 for f2 in self._candidates[f0.table]]
        self.instances = tuple(TaskInstance(*cell) for cell in cells)
        for i, inst in enumerate(self.instances):
            object.__setattr__(inst, "index", i)
        self._grid = tuple(tuple(self.instances[(i * n + j) * n:(i * n + j + 1) * n]
                                 for j in range(n)) for i in range(n0))
        # (size, bits) of each pick
        self._draws = (n0, n0.bit_length(), n, n.bit_length())

    # -- set lookups -------------------------------------------------

    def pair_set_of(self, f: BooleanFunction) -> str | None:
        """Label of the unique pair set containing f, or None if f not in S_f."""
        if f.arity != self.arity:
            raise ValueError("arity mismatch for this case")
        return self.pair_label_by_table.get(f.table)

    def candidates(self, f0: BooleanFunction) -> tuple[BooleanFunction, ...]:
        """Functions g in S_f12 with f0 xor g in S_f: the ``s1`` or ``s2``
        tuple itself, in its listed order."""
        if f0.arity != self.arity:
            raise ValueError("arity mismatch for this case")
        try:
            return self._candidates[f0.table]
        except KeyError:
            raise ValueError(f"{f0.name} is not in S_f0") from None

    # -- sampling ----------------------------------------------------

    def sample_instance(self, rng: random.Random) -> TaskInstance:
        """Draw f0 uniformly from S_f0 and f1, f2 iid uniform from candidates(f0).

        The three draws are made in that order, each an index into the set
        in its listed order. An index below n is drawn as
        ``rng.getrandbits(n.bit_length())``, drawn again while it is >= n:
        the rejection loop ``random.Random.choice`` runs, so this returns
        what three nested ``rng.choice`` calls return and leaves ``rng`` in
        the same state. The same instance comes back as a shared (frozen)
        object every time it is drawn.
        """
        bits = rng.getrandbits
        n0, k0, n, k = self._draws
        i = bits(k0)
        while i >= n0:
            i = bits(k0)
        row = self._grid[i]
        i = bits(k)
        while i >= n:
            i = bits(k)
        col = row[i]
        i = bits(k)
        while i >= n:
            i = bits(k)
        return col[i]

    def validate_instance(self, inst: TaskInstance) -> bool:
        """Check the task constraint: f0 in S_f0, f1/f2 in S_f12, xors in S_f."""
        return (inst.f0 in self.s_f0
                and inst.f1 in self.s_f12 and inst.f2 in self.s_f12
                and self.pair_set_of(inst.f0 ^ inst.f1) is not None
                and self.pair_set_of(inst.f0 ^ inst.f2) is not None)


@cache
def family(case: str) -> TaskFamily:
    """Cached TaskFamily for "2bit" or "3bit"."""
    return TaskFamily(case)
