"""Oracle phase states, inner products, Gram matrices and discrimination.

Querying an n-bit function f through a phase oracle turns the uniform
superposition into the real state with amplitude (-1)^f(x) / sqrt(2^n) at
basis index x. The ancilla target qubit of the textbook query circuit is
factored out; oracles act as diagonal +-1 phases on the 2^n-dimensional
register, which reproduces every state the analysis needs.

Two arithmetic modes coexist:

* exact: amplitudes are stored as integers over a common sqrt(2^n)
  normalisation, so inner products and Gram matrices are Fractions and
  identities like "this basis is orthonormal" hold exactly;
* float: arbitrary complex amplitudes for simulation work.

Global phase is never touched during evolution; ``equivalent`` compares
states up to a phase by canonicalising on the fly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .funcspace import BooleanFunction

#: outcome of ``discriminate`` when the state has support outside the basis
OUTSIDE_BASIS = -1

_NORM_TOL = 1e-12


class StateVector:
    """Unit vector of dimension 4 or 8, exact or floating point."""

    __slots__ = ("dim", "_ints", "_amps")

    def __init__(self, dim: int, amps: Sequence[complex] | None = None,
                 ints: Sequence[int] | None = None):
        if dim not in (4, 8):
            raise ValueError(f"dim must be 4 or 8, got {dim}")
        self.dim = dim
        if (amps is None) == (ints is None):
            raise ValueError("provide exactly one of amps or ints")
        if ints is not None:
            ints = tuple(int(k) for k in ints)
            if len(ints) != dim:
                raise ValueError("length mismatch")
            if sum(k * k for k in ints) != dim:
                raise ValueError("exact amplitudes must have unit norm")
            self._ints = ints
            self._amps = None
        else:
            amps = tuple(complex(a) for a in amps)
            if len(amps) != dim:
                raise ValueError("length mismatch")
            norm2 = sum(abs(a) ** 2 for a in amps)
            if abs(norm2 - 1.0) > _NORM_TOL:
                raise ValueError(f"state norm^2 = {norm2!r} is not 1")
            self._ints = None
            self._amps = amps

    @property
    def is_exact(self) -> bool:
        return self._ints is not None

    @property
    def ints(self) -> tuple[int, ...] | None:
        return self._ints

    @property
    def amps(self) -> tuple[complex, ...]:
        if self._amps is None:
            scale = 1.0 / math.sqrt(self.dim)
            self._amps = tuple(complex(k * scale) for k in self._ints)
        return self._amps

    def negated(self) -> "StateVector":
        if self.is_exact:
            return StateVector(self.dim, ints=[-k for k in self._ints])
        return StateVector(self.dim, amps=[-a for a in self.amps])

    def sign_string(self) -> str:
        """"+-++..." shorthand; only defined for exact +-1 phase states."""
        if not self.is_exact or any(abs(k) != 1 for k in self._ints):
            raise ValueError("not a phase state")
        return "".join("+" if k > 0 else "-" for k in self._ints)

    @classmethod
    def from_signs(cls, signs: str) -> "StateVector":
        cleaned = signs.replace("−", "-").strip()
        if set(cleaned) - {"+", "-"}:
            raise ValueError(f"invalid sign string {signs!r}")
        return cls(len(cleaned), ints=[1 if c == "+" else -1 for c in cleaned])

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "amps": [[a.real, a.imag] for a in self.amps]}

    @classmethod
    def from_json(cls, data: dict) -> "StateVector":
        return cls(data["dim"], amps=[complex(re, im) for re, im in data["amps"]])

    def __eq__(self, other):
        if not isinstance(other, StateVector) or other.dim != self.dim:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self._ints == other._ints
        return self.amps == other.amps

    def __hash__(self):
        return hash((self.dim, self._ints if self.is_exact else self.amps))

    def __repr__(self):
        if self.is_exact:
            return f"StateVector(dim={self.dim}, ints={self._ints})"
        return f"StateVector(dim={self.dim}, amps={self.amps})"


def phase_state(f: BooleanFunction) -> StateVector:
    """Exact phase state of f: amplitude (-1)^f(x) / sqrt(2^arity) at x."""
    return StateVector(f.size, ints=[1 - 2 * f.evaluate(x) for x in range(f.size)])


def apply_phase_oracle(state: StateVector, f: BooleanFunction) -> StateVector:
    """Multiply amplitude at x by (-1)^f(x); preserves norm and exactness."""
    if state.dim != f.size:
        raise ValueError("dimension mismatch between state and oracle")
    signs = [1 - 2 * f.evaluate(x) for x in range(f.size)]
    if state.is_exact:
        return StateVector(state.dim, ints=[s * k for s, k in zip(signs, state.ints)])
    return StateVector(state.dim, amps=[s * a for s, a in zip(signs, state.amps)])


def inner(u: StateVector, v: StateVector):
    """<u|v>, conjugate-linear in u. Exact Fraction when both states are exact."""
    if u.dim != v.dim:
        raise ValueError("dimension mismatch in inner product")
    if u.is_exact and v.is_exact:
        return Fraction(sum(a * b for a, b in zip(u.ints, v.ints)), u.dim)
    return sum(a.conjugate() * b for a, b in zip(u.amps, v.amps))


def overlap2(u: StateVector, v: StateVector):
    """|<u|v>|^2; Fraction in exact mode."""
    z = inner(u, v)
    if isinstance(z, Fraction):
        return z * z
    return abs(z) ** 2


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of pairwise inner products.

    Entries are compared exactly, with no tolerance: a square matrix
    with ``G[j][i] != conj(G[i][j])`` for some i, j is rejected, so every
    route that reads M off one triangle sees the same matrix. ``gram``
    of exact or float states is Hermitian bit for bit.
    """

    entries: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("gram must be square")
        for i in range(n):
            for j in range(i, n):
                if self.entries[j][i] != self.entries[i][j].conjugate():
                    raise ValueError(f"gram is not Hermitian at ({i + 1}, {j + 1}): "
                                     f"{self.entries[i][j]!r} and {self.entries[j][i]!r}")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(e, (int, Fraction)) for row in self.entries for e in row)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def is_identity(self, tol: float = 0.0) -> bool:
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                want = 1 if i == j else 0
                if isinstance(e, (int, Fraction)):
                    if e != want:
                        return False
                elif abs(e - want) > tol:
                    return False
        return True

    def to_lists(self) -> list[list[float]]:
        out = []
        for row in self.entries:
            out.append([float(e) if isinstance(e, (int, Fraction)) else complex(e).real
                        for e in row])
        return out


def gram(states: Sequence[StateVector]) -> GramMatrix:
    states = list(states)
    if not states:
        raise ValueError("gram of empty state list")
    if len({s.dim for s in states}) != 1:
        raise ValueError("dimension mismatch in gram")
    return GramMatrix(tuple(tuple(inner(u, v) for v in states) for u in states))


def canonicalized(state: StateVector) -> StateVector:
    """Fix the global phase by making the first nonzero amplitude positive.

    Used only for comparison and display; evolution never touches phase.
    """
    if state.is_exact:
        lead = next((k for k in state.ints if k != 0), 1)
        return state.negated() if lead < 0 else state
    lead = next((a for a in state.amps if abs(a) > 1e-14), 1.0)
    phase = lead / abs(lead)
    return StateVector(state.dim, amps=[a / phase for a in state.amps])


def equivalent(u: StateVector, v: StateVector, tol: float = 1e-10) -> bool:
    """Equality up to a global phase (exact global sign for exact states)."""
    if u.dim != v.dim:
        return False
    if u.is_exact and v.is_exact:
        return u.ints == v.ints or u.ints == tuple(-k for k in v.ints)
    return abs(abs(inner(u, v)) - 1.0) <= tol


def discriminate(state: StateVector, basis: Sequence[StateVector],
                 rng, check: bool = True) -> int:
    """Measure ``state`` against an orthonormal ``basis``.

    Returns the index of the observed basis element, sampled with
    probability |<basis[k]|state>|^2, or ``OUTSIDE_BASIS`` when the
    leftover weight outside the span is observed. A state proportional
    to one basis element always yields that element.
    """
    basis = list(basis)
    if not basis or len(basis) > state.dim:
        raise ValueError("basis size must be between 1 and dim")
    if check:
        g = gram(basis)
        if not g.is_identity(tol=1e-10):
            raise ValueError("basis is not orthonormal")
    r = rng.random()
    cum = 0.0
    for k, b in enumerate(basis):
        cum += float(overlap2(b, state))
        if r < cum:
            return k
    return OUTSIDE_BASIS
