"""Exact arithmetic over roots of unity and phase-valued matrices.

A root of unity is stored as the reduced rational number of *turns*
(full revolutions), so products, powers and conjugates are integer
arithmetic and equality is decidable with no tolerance.  Matrices whose
entries are either zero or a common amplitude times a root of unity
(Fourier, clock/shift and generalized Pauli matrices all have this
shape) are kept in the same exact form for as long as products preserve
it, and drop to dense complex arrays otherwise.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import cos, gcd, pi, sin, sqrt
from typing import Callable, Optional, Sequence, Union

import numpy as np

Rational = Union[int, Fraction]

__all__ = [
    "ExactPhase",
    "PhaseMatrix",
    "ONE",
    "MINUS_ONE",
    "phase_from_fraction",
    "q_power",
    "half_turn_power",
    "is_rational",
    "as_fraction",
]


def is_rational(x) -> bool:
    """True for values the exact path accepts (int or Fraction, not bool/float)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_fraction(x: Rational) -> Fraction:
    if not is_rational(x):
        raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
    return Fraction(x)


# exp(2*pi*i*t) for quarter turns, kept exact so sigma-like matrices
# convert to complex without rounding noise
_QUARTER = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


class ExactPhase:
    """The unit complex number exp(2*pi*i*turns), turns reduced and in [0, 1)."""

    __slots__ = ("turns",)

    turns: Fraction

    def __init__(self, turns: Rational):
        object.__setattr__(self, "turns", Fraction(turns) % 1)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPhase is immutable")

    def __repr__(self) -> str:
        return f"ExactPhase({self.turns!s})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPhase) and self.turns == other.turns

    def __hash__(self) -> int:
        return hash(("ExactPhase", self.turns))

    def __mul__(self, other: "ExactPhase") -> "ExactPhase":
        if not isinstance(other, ExactPhase):
            return NotImplemented
        return ExactPhase(self.turns + other.turns)

    def __pow__(self, k: int) -> "ExactPhase":
        return ExactPhase(self.turns * k)

    def conjugate(self) -> "ExactPhase":
        return ExactPhase(-self.turns)

    def to_complex(self) -> complex:
        t = self.turns
        exact = _QUARTER.get(t)
        if exact is not None:
            return exact
        angle = 2.0 * pi * float(t)
        return complex(cos(angle), sin(angle))


ONE = ExactPhase(0)
MINUS_ONE = ExactPhase(Fraction(1, 2))


def phase_from_fraction(num: int, den: int) -> ExactPhase:
    """exp(2*pi*i*num/den) in reduced canonical form; den must be positive."""
    if den <= 0:
        raise ValueError("denominator must be a positive integer")
    return ExactPhase(Fraction(num, den))


def q_power(d: int, exponent: Rational) -> ExactPhase:
    """q**exponent for q = exp(2*pi*i/d); rational exponents widen the denominator."""
    return ExactPhase(Fraction(exponent) / d)


def half_turn_power(exponent: Rational) -> ExactPhase:
    """exp(i*pi*exponent) for rational exponent."""
    return ExactPhase(Fraction(exponent) / 2)


def _exact_sum(phases: Sequence[ExactPhase]) -> Optional[complex]:
    """Exact value of sum(p) when decidable without cyclotomic arithmetic.

    Covers the empty sum, the all-equal sum, and multisets invariant under
    rotation by a prime root of unity (which forces exact cancellation).
    Returns None when no exact shortcut applies.
    """
    if not phases:
        return 0j
    counts = Counter(p.turns for p in phases)
    if len(counts) == 1:
        ((t, n),) = counts.items()
        return n * ExactPhase(t).to_complex()
    lcm = 1
    for t in counts:
        lcm = lcm * t.denominator // gcd(lcm, t.denominator)
    f, rest = 2, lcm
    primes = []
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)
    for p in primes:
        shift = Fraction(1, p)
        if Counter((t + shift) % 1 for t in counts.elements()) == counts:
            return 0j
    return None


class PhaseMatrix:
    """Square matrix with entries amplitude * phase or exact zero.

    The amplitude is tracked symbolically and is either 1 or 1/sqrt(dim);
    ``entries[i][j]`` is an ExactPhase or None (exact zero).  Instances are
    immutable by convention: no method mutates ``entries`` after
    construction, so values can be shared freely between workers.
    """

    __slots__ = ("dim", "scaled", "entries")

    def __init__(self, entries: Sequence[Sequence[Optional[ExactPhase]]],
                 scaled: bool = False):
        dim = len(entries)
        rows = [list(row) for row in entries]
        if any(len(row) != dim for row in rows):
            raise ValueError("phase matrix must be square")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scaled", bool(scaled))
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "PhaseMatrix":
        return cls([[ONE if i == j else None for j in range(dim)]
                    for i in range(dim)])

    @classmethod
    def diagonal(cls, phases: Sequence[ExactPhase], scaled: bool = False) -> "PhaseMatrix":
        dim = len(phases)
        return cls([[phases[i] if i == j else None for j in range(dim)]
                    for i in range(dim)], scaled)

    @classmethod
    def from_exponents(cls, dim: int,
                       exponent: Callable[[int, int], Optional[Rational]],
                       scaled: bool = False) -> "PhaseMatrix":
        """Build entries q**exponent(i, j) with q = exp(2*pi*i/dim); None means zero."""
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                e = exponent(i, j)
                row.append(None if e is None else q_power(dim, e))
            rows.append(row)
        return cls(rows, scaled)

    # -- queries -------------------------------------------------------

    @property
    def amplitude(self) -> float:
        return 1.0 / sqrt(self.dim) if self.scaled else 1.0

    @property
    def amplitude_tag(self) -> str:
        return f"1/sqrt({self.dim})" if self.scaled else "1"

    def entry(self, i: int, j: int) -> Optional[ExactPhase]:
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PhaseMatrix)
                and self.dim == other.dim
                and self.scaled == other.scaled
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"PhaseMatrix(dim={self.dim}, amplitude={self.amplitude_tag})"

    # -- algebra -------------------------------------------------------

    def __matmul__(self, other):
        """Exact product when every result entry stays monomial, else complex.

        Falls back to a dense complex product when some entry would be a
        sum of phases or when both amplitudes are 1/sqrt(dim) (the product
        amplitude 1/dim is outside the symbolic tags).
        """
        if not isinstance(other, PhaseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.scaled and other.scaled:
            return self.to_complex() @ other.to_complex()
        d = self.dim
        result: list[list[Optional[ExactPhase]]] = [[None] * d for _ in range(d)]
        for i in range(d):
            arow = self.entries[i]
            out = result[i]
            for k in range(d):
                aik = arow[k]
                if aik is None:
                    continue
                brow = other.entries[k]
                for j in range(d):
                    bkj = brow[j]
                    if bkj is None:
                        continue
                    if out[j] is not None:
                        return self.to_complex() @ other.to_complex()
                    out[j] = aik * bkj
        return PhaseMatrix(result, self.scaled or other.scaled)

    def dagger(self) -> "PhaseMatrix":
        d = self.dim
        rows = [[None if self.entries[j][i] is None else self.entries[j][i].conjugate()
                 for j in range(d)] for i in range(d)]
        return PhaseMatrix(rows, self.scaled)

    def __pow__(self, n: int):
        if n < 0:
            return self.dagger() ** (-n)
        acc: PhaseMatrix = PhaseMatrix.identity(self.dim)
        for _ in range(n):
            acc = acc @ self
            if isinstance(acc, np.ndarray):
                raise ValueError("power left the exact monomial form")
        return acc

    def scaled_by(self, phase: ExactPhase) -> "PhaseMatrix":
        """Multiply every entry by a global exact phase."""
        rows = [[None if e is None else e * phase for e in row]
                for row in self.entries]
        return PhaseMatrix(rows, self.scaled)

    # -- numeric views ---------------------------------------------------

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Dense view, so np.asarray(m, dtype=complex), m @ ndarray and ndarray @ m work."""
        return self.to_complex()

    def to_complex(self) -> np.ndarray:
        amp = self.amplitude
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e is not None:
                    out[i, j] = amp * e.to_complex()
        return out

    def trace(self) -> complex:
        diag = [self.entries[i][i] for i in range(self.dim)]
        present = [p for p in diag if p is not None]
        total = _exact_sum(present)
        if total is None:
            total = sum(p.to_complex() for p in present)
        return self.amplitude * total


def trace_pair(a: PhaseMatrix, b: PhaseMatrix) -> complex:
    """tr(a^dag b) without forming the product, exact whenever decidable.

    The pairing collects conj(a[k][i]) * b[k][i] over all positions where
    both entries are present, then reuses the exact-sum shortcuts.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    phases = []
    for k in range(a.dim):
        arow, brow = a.entries[k], b.entries[k]
        for i in range(a.dim):
            if arow[i] is not None and brow[i] is not None:
                phases.append(arow[i].conjugate() * brow[i])
    total = _exact_sum(phases)
    if total is None:
        total = sum(p.to_complex() for p in phases)
    return a.amplitude * b.amplitude * total
