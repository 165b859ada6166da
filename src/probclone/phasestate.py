"""Oracle phase states, inner products, Gram matrices and measurement.

Querying an n-bit function f through a phase oracle turns the uniform
superposition into the real state with amplitude (-1)^f(x) / sqrt(2^n) at
basis index x. The ancilla target qubit of the textbook query circuit is
factored out; oracles act as diagonal +-1 phases on the 2^n-dimensional
register, which reproduces every state the analysis needs. Applying the
oracle of g to the phase state of f gives the phase state of f xor g, so
oracles act on truth tables by XOR and never need a state of their own.

Amplitudes are exact: a state stores integers over the common sqrt(2^n)
normalisation, so inner products and Gram matrices are Fractions and
identities like "this basis is orthonormal" hold exactly. ``measure`` is
the single measurement: the exact outcome distribution of a state in a
complete orthonormal basis. ``case_gram`` is the candidates' Gram of a
case, from which ``feasibility`` derives the case's slice constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .funcspace import BooleanFunction, family


@dataclass(frozen=True)
class StateVector:
    """Unit vector of dimension 4 or 8 with amplitudes ``ints[x] / sqrt(dim)``."""

    dim: int
    ints: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (4, 8):
            raise ValueError(f"dim must be 4 or 8, got {self.dim}")
        ints = tuple(int(k) for k in self.ints)
        if len(ints) != self.dim:
            raise ValueError("length mismatch")
        if sum(k * k for k in ints) != self.dim:
            raise ValueError("exact amplitudes must have unit norm")
        object.__setattr__(self, "ints", ints)

    @property
    def amps(self) -> tuple[complex, ...]:
        """The amplitudes as complex floats, for display."""
        scale = 1.0 / math.sqrt(self.dim)
        return tuple(complex(k * scale) for k in self.ints)

    def sign_string(self) -> str:
        """"+-++..." shorthand; only defined for +-1 phase states."""
        if any(abs(k) != 1 for k in self.ints):
            raise ValueError("not a phase state")
        return "".join("+" if k > 0 else "-" for k in self.ints)


def phase_state(f: BooleanFunction) -> StateVector:
    """Exact phase state of f: amplitude (-1)^f(x) / sqrt(2^arity) at x."""
    return StateVector(f.size, ints=[1 - 2 * f.evaluate(x) for x in range(f.size)])


def inner(u: StateVector, v: StateVector) -> Fraction:
    """<u|v> as an exact Fraction (real amplitudes, so symmetric)."""
    if u.dim != v.dim:
        raise ValueError("dimension mismatch in inner product")
    return Fraction(sum(a * b for a, b in zip(u.ints, v.ints)), u.dim)


def overlap2(u: StateVector, v: StateVector) -> Fraction:
    """|<u|v>|^2, exactly."""
    z = inner(u, v)
    return z * z


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of the exact pairwise inner products of real states.

    Entries are ints or Fractions (``gram`` and ``case_gram`` build no
    other) and are compared exactly: a float or complex entry, or a
    matrix with ``G[j][i] != G[i][j]`` for some i, j, is rejected.
    """

    entries: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("gram must be square")
        if any(type(e) not in (int, Fraction) for row in self.entries for e in row):
            raise ValueError(f"gram entries must be exact ints or Fractions: {self.entries!r}")
        for i in range(n):
            for j in range(i, n):
                if self.entries[j][i] != self.entries[i][j]:
                    raise ValueError(f"gram is not symmetric at ({i + 1}, {j + 1}): "
                                     f"{self.entries[i][j]!r} and {self.entries[j][i]!r}")

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def is_identity(self) -> bool:
        """True when every entry equals the identity's, compared exactly."""
        return all(e == (1 if i == j else 0)
                   for i, row in enumerate(self.entries) for j, e in enumerate(row))

    @cached_property
    def _float_rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(float(e) for e in row) for row in self.entries)

    def to_lists(self) -> list[list[float]]:
        """The entries as floats, in fresh lists on every call; the floats
        are computed once per Gram (``case_gram``'s is reused by every point)."""
        return [list(row) for row in self._float_rows]


def gram(states: Sequence[StateVector]) -> GramMatrix:
    states = list(states)
    if not states:
        raise ValueError("gram of empty state list")
    if len({s.dim for s in states}) != 1:
        raise ValueError("dimension mismatch in gram")
    return GramMatrix(tuple(tuple(inner(u, v) for v in states) for u in states))


@cache
def case_gram(case: str) -> GramMatrix:
    """Exact Gram matrix of the case's three candidate phase states."""
    return gram([phase_state(f) for f in family(case).s_f0])


@cache
def _orthonormal_basis(basis: tuple[StateVector, ...]) -> tuple[StateVector, ...]:
    """``basis`` if it is complete and exactly orthonormal; checked once per basis."""
    if not basis or len(basis) != basis[0].dim or not gram(basis).is_identity():
        raise ValueError("measurement basis must be complete and orthonormal")
    return basis


def measure(state: StateVector, basis: Sequence[StateVector]) -> tuple[Fraction, ...]:
    """Exact outcome distribution (|<b_k|state>|^2, ...) of ``state`` in ``basis``.

    The basis must be complete and exactly orthonormal, so the outcome
    probabilities sum to exactly 1 and a state proportional to a basis
    element always yields that element.
    """
    return tuple(overlap2(b, state) for b in _orthonormal_basis(tuple(basis)))
