"""Exact arithmetic over roots of unity and phase-valued matrices.

A single root of unity (``ExactPhase``) is stored as the reduced rational
number of *turns* (full revolutions), so products, powers and conjugates
are integer arithmetic and equality is decidable with no tolerance.

A ``PhaseMatrix`` has entries that are either exact zero or a common
amplitude (1 or 1/sqrt(dim)) times a root of unity.  Fourier, clock/shift
and generalized Pauli matrices all have this shape.  The matrix stores
one common modulus N, an integer exponent array and a zero mask: the
entry at (i, j) is exp(2*pi*i * exponents[i, j] / N) where mask[i, j]
holds, and exact zero elsewhere.  N is kept minimal (it shares no factor
with every present exponent), so equal matrices have equal arrays.
Exponents are int64 while every sum of two of them stays below 2**53,
and Python integers beyond that, so no operation overflows.

When every row and every column holds exactly one present entry (X, Z,
u_ab, V_ra, D_ra, P_r, T_n and the identity), the matrix also has a
monomial view: a column per row and an exponent per row, both tuples of
ints.  ``@``, ``**``, ``==``, ``dagger``, ``scaled_by``, ``trace`` and
``trace_pair`` run on that view in O(dim) without forming the dim x dim
arrays, which are derived from it when first asked for.  Products that
would turn an entry into a sum of phases drop to dense complex arrays.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import cos, gcd, lcm, pi, sin, sqrt
from typing import Optional, Sequence, Union

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


# exp(2*pi*i*k/4) for k = 0..3, kept exact so sigma-like matrices convert
# to complex without rounding noise
_QUARTER = (1 + 0j, 1j, -1 + 0j, -1j)
_QUARTER_RE = np.array([1.0, 0.0, -1.0, 0.0])
_QUARTER_IM = np.array([0.0, 1.0, 0.0, -1.0])

# exponents mod N stay int64 below this modulus: the sum of two of them,
# and 4 * e for the quarter-turn test, stay exact, and e / N rounds once
_INT64_MODULUS_LIMIT = 2 ** 53


def exponent_dtype(modulus: int):
    """Array dtype for exponents mod ``modulus``: int64, or Python ints when large."""
    return np.int64 if modulus < _INT64_MODULUS_LIMIT else object


def _phase_complex(e: int, n: int) -> complex:
    """exp(2*pi*i*e/n) for 0 <= e < n, exact on quarter turns."""
    if (4 * e) % n == 0:
        return _QUARTER[4 * e // n]
    angle = 2.0 * pi * (e / n)
    return complex(cos(angle), sin(angle))


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
        return _phase_complex(self.turns.numerator, self.turns.denominator)


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


def _exact_sum(exps: Sequence[int], n: int) -> Optional[complex]:
    """Exact value of sum(exp(2*pi*i*e/n) for e in exps), 0 <= e < n, when
    decidable without cyclotomic arithmetic.

    Covers the empty sum, the all-equal sum, and multisets invariant under
    rotation by a prime root of unity (which forces exact cancellation).
    A rotation is a shift of every exponent by some s mod n.  A multiset
    invariant under a nontrivial shift is invariant under one of prime
    order (a multiple of it), and any invariant shift maps the first
    exponent e0 onto another, so the differences e - e0 are the only
    shifts to try; no factorisation of n is needed.  Returns None when no
    exact shortcut applies.
    """
    if not exps:
        return 0j
    counts = Counter(exps)
    if len(counts) == 1:
        ((e, k),) = counts.items()
        return k * _phase_complex(e, n)
    e0 = exps[0]
    for e in counts:
        shift = e - e0
        # the shift is a bijection on residues, so equal counts at e and
        # e + shift for every e make the multiset invariant
        if shift and all(counts.get((f + shift) % n) == k for f, k in counts.items()):
            return 0j
    return None


def _complex_sum(exps: Sequence[int], n: int) -> complex:
    total = _exact_sum(exps, n)
    if total is None:
        total = sum(_phase_complex(e, n) for e in exps)
    return total


class PhaseMatrix:
    """Square matrix with entries amplitude * exp(2*pi*i*e/N) or exact zero.

    The amplitude is tracked symbolically and is either 1 or 1/sqrt(dim).
    ``modulus`` is N; ``exponents`` and ``mask`` are the read-only
    dim x dim arrays (exponents are 0 where the mask is False);
    ``monomial_view`` is the (columns, exponents) view of a generalized
    permutation matrix, or None.  Instances are immutable, so values can
    be shared freely between workers.
    """

    __slots__ = ("dim", "scaled", "modulus", "_mono", "_exps", "_mask")

    def __init__(self, entries: Sequence[Sequence[Optional[ExactPhase]]],
                 scaled: bool = False):
        """From rows of ExactPhase entries, None meaning exact zero."""
        rows = [list(row) for row in entries]
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("phase matrix must be square")
        n = lcm(*(e.turns.denominator for row in rows for e in row if e is not None))
        exps = [[0 if e is None else e.turns.numerator * (n // e.turns.denominator)
                 for e in row] for row in rows]
        mask = [[e is not None for e in row] for row in rows]
        _store_arrays(self, dim, scaled, n,
                      np.array(exps, dtype=exponent_dtype(n)).reshape(dim, dim),
                      np.array(mask, dtype=bool).reshape(dim, dim))

    def __setattr__(self, name, value):
        raise AttributeError("PhaseMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_arrays(cls, dim: int, scaled: bool, n: int, exps: np.ndarray,
                     mask: np.ndarray) -> "PhaseMatrix":
        m = object.__new__(cls)
        _store_arrays(m, dim, scaled, n, exps, mask)
        return m

    @classmethod
    def _from_monomial(cls, scaled: bool, n: int, cols: tuple, exps: tuple) -> "PhaseMatrix":
        g = gcd(n, *exps)
        if g > 1:
            n //= g
            exps = tuple(e // g for e in exps)
        m = object.__new__(cls)
        for name, value in (("dim", len(cols)), ("scaled", bool(scaled)), ("modulus", n),
                            ("_mono", (cols, exps)), ("_exps", None), ("_mask", None)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def identity(cls, dim: int) -> "PhaseMatrix":
        return cls._from_monomial(False, 1, tuple(range(dim)), (0,) * dim)

    @classmethod
    def diagonal(cls, phases: Sequence[ExactPhase], scaled: bool = False) -> "PhaseMatrix":
        n = lcm(*(p.turns.denominator for p in phases))
        exps = tuple(p.turns.numerator * (n // p.turns.denominator) for p in phases)
        return cls._from_monomial(scaled, n, tuple(range(len(phases))), exps)

    @classmethod
    def monomial(cls, cols: Sequence[int], exponents: Sequence[int], den: int = 1,
                 scaled: bool = False) -> "PhaseMatrix":
        """Generalized permutation matrix: entry (i, cols[i]) is
        q**(exponents[i] / den) with q = exp(2*pi*i/dim), dim = len(cols)."""
        dim = len(cols)
        cols = tuple(int(c) % dim for c in cols)
        if len(set(cols)) != dim or len(exponents) != dim:
            raise ValueError("a monomial matrix needs one entry per row and column")
        n = dim * den
        return cls._from_monomial(scaled, n, cols, tuple(int(e) % n for e in exponents))

    @classmethod
    def from_exponents(cls, dim: int, exponents, scaled: bool = False, den: int = 1,
                       mask=None) -> "PhaseMatrix":
        """Entries q**(exponents[i, j] / den) with q = exp(2*pi*i/dim).

        ``exponents`` is a dim x dim integer array; where the optional
        boolean ``mask`` is False the entry is exact zero.
        """
        n = dim * den
        exps = np.asarray(exponents, dtype=exponent_dtype(n)) % n
        mask = (np.ones((dim, dim), dtype=bool) if mask is None
                else np.array(mask, dtype=bool))
        if exps.shape != (dim, dim) or mask.shape != (dim, dim):
            raise ValueError(f"exponents and mask must have shape ({dim}, {dim})")
        return cls._from_arrays(dim, scaled, n, exps, mask)

    # -- queries -------------------------------------------------------

    @property
    def amplitude(self) -> float:
        return 1.0 / sqrt(self.dim) if self.scaled else 1.0

    @property
    def amplitude_tag(self) -> str:
        return f"1/sqrt({self.dim})" if self.scaled else "1"

    @property
    def monomial_view(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(column of each row, exponent of each row), or None if not monomial."""
        return self._mono

    @property
    def exponents(self) -> np.ndarray:
        return self._dense()[0]

    @property
    def mask(self) -> np.ndarray:
        return self._dense()[1]

    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        if self._exps is None:
            cols, exps = self._mono
            rows = np.arange(self.dim)
            e = np.zeros((self.dim, self.dim), dtype=exponent_dtype(self.modulus))
            mask = np.zeros((self.dim, self.dim), dtype=bool)
            e[rows, cols] = exps
            mask[rows, cols] = True
            e.flags.writeable = mask.flags.writeable = False
            object.__setattr__(self, "_exps", e)
            object.__setattr__(self, "_mask", mask)
        return self._exps, self._mask

    def entry(self, i: int, j: int) -> Optional[ExactPhase]:
        e, mask = self._dense()
        return ExactPhase(Fraction(int(e[i, j]), self.modulus)) if mask[i, j] else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseMatrix):
            return False
        if (self.dim, self.scaled, self.modulus) != (other.dim, other.scaled, other.modulus):
            return False
        if self._mono is not None or other._mono is not None:
            return self._mono == other._mono
        return bool(np.array_equal(self._mask, other._mask)
                    and np.array_equal(self._exps, other._exps))

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
        n = lcm(self.modulus, other.modulus)
        sa, sb = n // self.modulus, n // other.modulus
        scaled = self.scaled or other.scaled
        if self._mono is not None and other._mono is not None:
            (ac, ae), (bc, be) = self._mono, other._mono
            return PhaseMatrix._from_monomial(
                scaled, n, tuple(bc[c] for c in ac),
                tuple((x * sa + be[c] * sb) % n for c, x in zip(ac, ae)))
        ea, ma = self._dense()
        eb, mb = other._dense()
        terms = ma.astype(np.int64) @ mb.astype(np.int64)
        if terms.max(initial=0) > 1:
            return self.to_complex() @ other.to_complex()
        # each result entry has at most one term a[i, k] b[k, j], and the
        # exponents are 0 where the masks are False, so these sums pick it
        dt = exponent_dtype(n)
        exps = (ea.astype(dt) * sa @ mb.astype(dt) + ma.astype(dt) @ (eb.astype(dt) * sb)) % n
        return PhaseMatrix._from_arrays(self.dim, scaled, n, exps, terms > 0)

    def dagger(self) -> "PhaseMatrix":
        n = self.modulus
        if self._mono is not None:
            cols, exps = self._mono
            rows = [0] * self.dim
            conj = [0] * self.dim
            for i, (c, e) in enumerate(zip(cols, exps)):
                rows[c] = i
                conj[c] = -e % n
            return PhaseMatrix._from_monomial(self.scaled, n, tuple(rows), tuple(conj))
        e, mask = self._dense()
        return PhaseMatrix._from_arrays(self.dim, self.scaled, n, -e.T % n, mask.T)

    def __pow__(self, k: int):
        """Square-and-multiply; raises ValueError if a product leaves the exact form."""
        if k < 0:
            return self.dagger() ** (-k)
        result, base = PhaseMatrix.identity(self.dim), self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
            if isinstance(result, np.ndarray) or isinstance(base, np.ndarray):
                raise ValueError("power left the exact monomial form")
        return result

    def scaled_by(self, phase: ExactPhase) -> "PhaseMatrix":
        """Multiply every entry by a global exact phase."""
        t = phase.turns
        n = lcm(self.modulus, t.denominator)
        s, shift = n // self.modulus, t.numerator * (n // t.denominator)
        if self._mono is not None:
            cols, exps = self._mono
            return PhaseMatrix._from_monomial(self.scaled, n, cols,
                                              tuple((e * s + shift) % n for e in exps))
        e, mask = self._dense()
        return PhaseMatrix._from_arrays(self.dim, self.scaled, n,
                                        (e.astype(exponent_dtype(n)) * s + shift) % n, mask)

    # -- numeric views ---------------------------------------------------

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Dense view, so np.asarray(m, dtype=complex), m @ ndarray and ndarray @ m work."""
        return self.to_complex()

    def to_complex(self) -> np.ndarray:
        e, mask = self._dense()
        n = self.modulus
        present = e[mask]
        # the same float operations as ExactPhase.to_complex, one array pass
        angle = 2.0 * pi * np.asarray(present / n, dtype=float)
        re, im = np.cos(angle), np.sin(angle)
        quarter = (4 * present) % n == 0
        k = ((4 * present[quarter]) // n).astype(np.intp)
        re[quarter], im[quarter] = _QUARTER_RE[k], _QUARTER_IM[k]
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out.real[mask] = self.amplitude * re
        out.imag[mask] = self.amplitude * im
        return out

    def trace(self) -> complex:
        if self._mono is not None:
            cols, exps = self._mono
            diag = [e for i, (c, e) in enumerate(zip(cols, exps)) if c == i]
        else:
            e, mask = self._dense()
            diag = np.diagonal(e)[np.diagonal(mask)].tolist()
        return self.amplitude * _complex_sum(diag, self.modulus)


def _store_arrays(m: PhaseMatrix, dim: int, scaled: bool, n: int, exps: np.ndarray,
                  mask: np.ndarray) -> None:
    """Set m's slots from exponents mod n and a mask, reducing n to lowest terms
    and deriving the monomial view when m has one."""
    exps = np.where(mask, exps, 0)
    g = gcd(n, int(np.gcd.reduce(exps, axis=None)))
    if g > 1:
        n //= g
        exps //= g
    exps = exps.astype(exponent_dtype(n))
    mono = None
    if (np.count_nonzero(mask) == dim and np.all(mask.any(axis=0))
            and np.all(mask.any(axis=1))):
        rows, cols = np.nonzero(mask)  # row-major, so rows is 0..dim-1
        mono = (tuple(cols.tolist()), tuple(exps[rows, cols].tolist()))
    exps.flags.writeable = False
    mask = mask.copy()
    mask.flags.writeable = False
    for name, value in (("dim", dim), ("scaled", bool(scaled)), ("modulus", n),
                        ("_mono", mono), ("_exps", exps), ("_mask", mask)):
        object.__setattr__(m, name, value)


def trace_pair(a: PhaseMatrix, b: PhaseMatrix) -> complex:
    """tr(a^dag b) without forming the product, exact whenever decidable.

    The pairing collects conj(a[k][i]) * b[k][i] over all positions where
    both entries are present, in row-major order, then reuses the
    exact-sum shortcuts.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    n = lcm(a.modulus, b.modulus)
    sa, sb = n // a.modulus, n // b.modulus
    if a._mono is not None and b._mono is not None:
        (ac, ae), (bc, be) = a._mono, b._mono
        exps = [(y * sb - x * sa) % n for c, x, c2, y in zip(ac, ae, bc, be) if c == c2]
    else:
        ea, ma = a._dense()
        eb, mb = b._dense()
        both = ma & mb
        dt = exponent_dtype(n)
        exps = ((eb[both].astype(dt) * sb - ea[both].astype(dt) * sa) % n).tolist()
    return a.amplitude * b.amplitude * _complex_sum(exps, n)
