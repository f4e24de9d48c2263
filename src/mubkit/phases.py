"""Exact arithmetic over roots of unity and phase-valued matrices.

A single root of unity (``ExactPhase``) is stored as the reduced rational
number of *turns* (full revolutions), so products, powers and conjugates
are integer arithmetic and equality is decidable with no tolerance.

A ``PhaseMatrix`` has entries that are a common amplitude (1 or
1/sqrt(dim)) times a root of unity exp(2*pi*i*e/N), with one common
modulus N kept minimal, so equal matrices have equal exponents.  It has
one of two shapes:

* monomial: one entry per row and column, exact zero elsewhere (X, Z,
  u_ab, V_ra, D_ra, P_r, T_n and the identity), stored as a column and
  an exponent per row;
* full: an entry at every position (F_ra, H_ra), stored as a read-only
  dim x dim exponent array.

A 1 x 1 matrix is monomial.  ``@`` of two monomials is monomial and
costs O(dim); a monomial on either side of a full matrix permutes its
rows or columns.  A product whose entries would be sums of phases (full
@ full), or whose amplitude would be 1/dim (two 1/sqrt(dim) factors), is
no PhaseMatrix and raises ValueError; ``np.asarray(a) @ b`` is the dense
product.  Exponents are int64 while every sum of two of them stays below
2**53, and Python integers beyond that, so no operation overflows.

A trace is a sum of k roots of unity exp(2*pi*i*e/N), decided exactly
in one place, ``_decide`` (all equal, or cancelling under a shift N/p
for a prime p of gcd(N, k)); any other sum is a float sum in the given
order.  ``_sums`` is the one rule built on it: decide every sum of an
array at once, then sum the rest in floats, times an amplitude.
``_complex_sums`` takes sums row by row through it; ``trace_pair`` calls
that on one row.

Families of monomial matrices, stacked by ``_stack`` over one common
modulus, have two batched kernels: ``trace_gram`` (every tr(a^dag b),
equal to ``trace_pair`` pair by pair, in array passes) and
``_products``, the one product kernel (mats[i] @ mats[j] for index
arrays i and j; ``pairwise_products`` is it over every pair).  Both are
flat integer gathers, with no per-pair index arithmetic:

* kernel layout: ``trace_gram`` gathers the exponent differences of a
  block with ``np.take`` into a (dim, pairs) array, one column per sum,
  and ``_decide`` and ``_sums`` reduce over axis 0; ``_products`` reads
  the raveled stack at j * dim + (column of mats[i]);
* dtype rule: inside ``trace_gram`` exponents are int32 while N < 2**30
  (a difference plus N, and a sorted exponent plus N/p, stay below
  2**31), then int64 and Python ints as ``exponent_dtype``; ``_stack``
  itself keeps ``exponent_dtype(N)``, because callers add stacked
  exponents (``verify`` sums d of them for (V_ra)^d);
* a difference or a sum of two exponents is brought back into [0, N)
  by one conditional +N or -N, not by % N.

Full families stack by ``_stack_full``; ``_join`` chains stacks over one
modulus, and ``_dense_stack`` (``_stack_complex`` of a family) is the
float view with the bytes of ``to_complex``.  Exponents over one modulus
are equal exactly when the matrices are.  ``monomial``
and ``from_exponents`` check their input (TypeError for a non-integer
entry, ValueError for den < 1); builders whose columns are a
permutation by construction call ``_from_monomial``.

Every float view (``to_complex``, the float F_ra and the chirp of
``qdft``) goes through ``_phase_array``.  For integer exponents mod
N <= ``_ROOTS_LIMIT`` = 4096 it is one gather from ``_roots(N)``, a
read-only table of the N-th roots built once by the formula; at most 64
tables of at most 64 KB are cached, 4 MB in all.  Float exponents
and larger N go through the formula, ``_phase_formula``, whose bytes
the tables reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import cos, gcd, lcm, pi, sin, sqrt
from typing import Iterator, Optional, Sequence, Union

import numpy as np

Rational = Union[int, Fraction]

__all__ = [
    "ExactPhase",
    "PhaseMatrix",
    "q_power",
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
# to complex without rounding noise; one table, so _phase_complex and
# _phase_array give equal bytes (+0.0, never -0.0)
_QUARTER_RE = np.array([1.0, 0.0, -1.0, 0.0])
_QUARTER_IM = np.array([0.0, 1.0, 0.0, -1.0])
_QUARTER = tuple(complex(re, im) for re, im in zip(_QUARTER_RE, _QUARTER_IM))

# exponents mod N stay int64 below this modulus: the sum of two of them,
# and 4 * e for the quarter-turn test, stay exact, and e / N rounds once
_INT64_MODULUS_LIMIT = 2 ** 53


def exponent_dtype(modulus: int):
    """Array dtype for exponents mod ``modulus``: int64, or Python ints when large."""
    return np.int64 if modulus < _INT64_MODULUS_LIMIT else object


def _phase_complex(e: Union[int, float], n: int) -> complex:
    """exp(2*pi*i*e/n) for 0 <= e < n, exact on quarter turns.

    e is an integer, or a float reduced mod n, which can round up to n;
    so the quarter index is taken mod 4, as in _phase_array.
    """
    if (4 * e) % n == 0:
        return _QUARTER[int(4 * e // n) % 4]
    angle = 2.0 * pi * (e / n)
    return complex(cos(angle), sin(angle))


def _phase_formula(e: np.ndarray, n: int) -> np.ndarray:
    """exp(2*pi*i*e/n) over an array of exponents 0 <= e <= n, with the
    float operations of _phase_complex and its exact quarter turns.

    e holds integers, or floats reduced mod n; such a float can round up
    to n, so the quarter index is taken mod 4.
    """
    angle = 2.0 * pi * np.asarray(e / n, dtype=float)
    out = np.empty(angle.shape, dtype=complex)
    out.real, out.imag = np.cos(angle), np.sin(angle)
    quarter = (4 * e) % n == 0
    k = ((4 * e[quarter]) // n).astype(np.intp) % 4
    out.real[quarter], out.imag[quarter] = _QUARTER_RE[k], _QUARTER_IM[k]
    return out


# moduli up to this one get a cached table of their roots: 64 KB each at
# most, and at most _ROOTS_CACHED of them, so the cache holds 4 MB at most
_ROOTS_LIMIT = 1 << 12
_ROOTS_CACHED = 64


@lru_cache(maxsize=_ROOTS_CACHED)
def _roots(n: int) -> np.ndarray:
    """The read-only table exp(2*pi*i*e/n) for e = 0..n-1, by _phase_formula."""
    table = _phase_formula(np.arange(n), n)
    table.flags.writeable = False
    return table


def _phase_array(e: np.ndarray, n: int) -> np.ndarray:
    """exp(2*pi*i*e/n) over an array of exponents, as _phase_formula gives it.

    Integer exponents 0 <= e < n with n <= _ROOTS_LIMIT are one gather
    from the table _roots(n); float exponents, object arrays and larger
    moduli go through the formula.
    """
    if n <= _ROOTS_LIMIT and e.dtype.kind in "iu":
        return _roots(n)[e]
    return _phase_formula(e, n)


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


def q_power(d: int, exponent: Rational) -> ExactPhase:
    """q**exponent for q = exp(2*pi*i/d); rational exponents widen the denominator."""
    return ExactPhase(Fraction(exponent) / d)


def _integer(x, what: str) -> int:
    """x as a Python int; TypeError unless x is an int or a numpy integer
    (a bool, a float or a Fraction is no integer entry)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{what}: expected an integer, got {type(x).__name__}")
    return int(x)


def _checked_den(den) -> int:
    """The denominator of a constructor's exponents, an integer >= 1."""
    den = _integer(den, "den")
    if den < 1:
        raise ValueError(f"den must be at least 1, got {den}")
    return den


def _primes(n: int) -> list[int]:
    """The distinct primes of n >= 1, by trial division."""
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def _decide(cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks (all equal, cancels) over the columns of a k x m array of
    exponents mod n, k >= 1: each column is one sum.

    A column cancels (sums to exactly 0) when a nonzero shift of every
    exponent leaves its multiset unchanged.  Such a shift has a multiple
    of prime order p, so p divides n, and its orbits have p members, so p
    divides k: the shifts n/p for the primes p of gcd(n, k) <= k are the
    only ones to try, and trial division always factors gcd(n, k).  The
    columns are sorted once, and only when there is such a prime: a
    multiset is invariant under n/p exactly when its sorted column is p
    runs of k/p, each the one before plus n/p.
    """
    k = len(cols)
    equal = (cols == cols[0]).all(axis=0)
    cancel = np.zeros(cols.shape[1], dtype=bool)
    primes = _primes(gcd(n, k))
    if primes:
        # each column sorted as a contiguous row, which numpy sorts fastest,
        # in a copy (cols.T can be the caller's array)
        srt = cols.T.copy()
        srt.sort(axis=1)
        srt = np.ascontiguousarray(srt.T)
        for p in primes:
            cancel |= (srt[k // p:] == srt[:k - k // p] + n // p).all(axis=0)
    return equal, cancel


def _sums(cols: np.ndarray, n: int, level: np.ndarray, amps: Sequence[float],
          table: dict) -> np.ndarray:
    """amps[level[u]] * sum(exp(2*pi*i*e/n) for e in cols[:, u]) for each
    column u of a k x m array of exponents 0 <= e < n, k >= 1, decided in
    one _decide pass.  An all-equal column is amps[level] * (k * phase), one
    Python product per distinct (first exponent, level), kept in table
    (one table serves one k, n and amps); a cancelling column is 0j; any
    other is its float sum, with _phase_complex in column order, times
    its amplitude."""
    equal, cancel = _decide(cols, n)
    out = np.zeros(cols.shape[1], dtype=complex)
    if equal.any():
        k, levels = len(cols), len(amps)
        first = cols[0, equal].astype(exponent_dtype(n))
        keys, which = np.unique(first * levels + level[equal], return_inverse=True)
        keys = keys.tolist()
        for key in keys:
            if key not in table:
                table[key] = amps[key % levels] * (k * _phase_complex(key // levels, n))
        out[equal] = np.array([table[key] for key in keys], dtype=complex)[which]
    for u in np.flatnonzero(~(equal | cancel)).tolist():
        out[u] = amps[level[u]] * sum(_phase_complex(e, n) for e in cols[:, u].tolist())
    return out


def _complex_sums(rows: np.ndarray, n: int) -> list[complex]:
    """sum(exp(2*pi*i*e/n) for e in row) for each row of k >= 1 exponents
    0 <= e < n: _sums of the transposed rows at amplitude 1.0, which
    changes no bit (no sum has a -0.0 part)."""
    return _sums(rows.T, n, np.zeros(len(rows), dtype=np.intp), (1.0,), {}).tolist()


def _complex_sum(exps: Sequence[int], n: int) -> complex:
    """sum(exp(2*pi*i*e/n) for e in exps), 0 <= e < n: _complex_sums of one row."""
    if not exps:
        return 0j
    return _complex_sums(np.array([exps], dtype=exponent_dtype(n)), n)[0]


class PhaseMatrix:
    """Square matrix with entries amplitude * exp(2*pi*i*e/N), monomial or full.

    The amplitude is tracked symbolically and is either 1 or 1/sqrt(dim).
    ``modulus`` is N.  A monomial matrix has ``monomial_view``, the
    (columns, exponents) tuples of its rows, and ``exponents`` None; a
    full one has the read-only dim x dim array ``exponents`` and
    ``monomial_view`` None.  Instances are immutable, so values can be
    shared freely between workers.
    """

    __slots__ = ("dim", "scaled", "modulus", "_mono", "_exps")

    def __setattr__(self, name, value):
        raise AttributeError("PhaseMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _new(cls, scaled: bool, n: int, mono: Optional[tuple],
             exps: Optional[np.ndarray]) -> "PhaseMatrix":
        m = object.__new__(cls)
        _set_dim(m, len(mono[0]) if mono is not None else len(exps))
        _set_scaled(m, bool(scaled))
        _set_modulus(m, n)
        _set_mono(m, mono)
        _set_exps(m, exps)
        return m

    @classmethod
    def _from_monomial(cls, scaled: bool, n: int, cols: tuple, exps: tuple) -> "PhaseMatrix":
        g = gcd(n, *exps)
        if g > 1:
            n //= g
            exps = tuple(e // g for e in exps)
        return cls._new(scaled, n, (cols, exps), None)

    @classmethod
    def _from_full(cls, scaled: bool, n: int, exps: np.ndarray) -> "PhaseMatrix":
        """From a fresh dim x dim array of exponents mod n, which it takes over."""
        if len(exps) == 1:
            return cls._from_monomial(scaled, n, (0,), (int(exps[0, 0]),))
        g = gcd(n, int(np.gcd.reduce(exps, axis=None)))
        if g > 1:
            n //= g
            exps = exps // g
        exps = exps.astype(exponent_dtype(n), copy=False)
        exps.flags.writeable = False
        return cls._new(scaled, n, None, exps)

    @classmethod
    def identity(cls, dim: int) -> "PhaseMatrix":
        return cls._from_monomial(False, 1, tuple(range(dim)), (0,) * dim)

    @classmethod
    def monomial(cls, cols: Sequence[int], exponents: Sequence[int], den: int = 1,
                 scaled: bool = False) -> "PhaseMatrix":
        """Generalized permutation matrix: entry (i, cols[i]) is
        q**(exponents[i] / den) with q = exp(2*pi*i/dim), dim = len(cols).
        Raises TypeError for a non-integer entry and ValueError for den < 1."""
        dim = len(cols)
        cols = tuple(_integer(c, "columns") % dim for c in cols)
        if len(set(cols)) != dim or len(exponents) != dim:
            raise ValueError("a monomial matrix needs one entry per row and column")
        n = dim * _checked_den(den)
        return cls._from_monomial(scaled, n, cols,
                                  tuple(_integer(e, "exponents") % n for e in exponents))

    @classmethod
    def from_exponents(cls, dim: int, exponents, scaled: bool = False,
                       den: int = 1) -> "PhaseMatrix":
        """Full matrix with entries q**(exponents[i, j] / den), q = exp(2*pi*i/dim);
        ``exponents`` is a dim x dim integer array.  Raises TypeError for a
        non-integer entry and ValueError for dim < 1 or den < 1."""
        if _integer(dim, "dim") < 1:
            raise ValueError("dim must be at least 1")
        n = dim * _checked_den(den)
        # a signed integer array needs no look at its entries; any other
        # input (nested lists, object, unsigned or float arrays) is checked
        # entry by entry and reduced as Python ints
        exps = exponents if isinstance(exponents, np.ndarray) else np.array(exponents, dtype=object)
        if exps.dtype.kind != "i":
            exps = np.array([_integer(e, "exponents") % n for e in exps.flat],
                            dtype=object).reshape(exps.shape)
        exps = exps.astype(exponent_dtype(n), copy=False) % n
        if exps.shape != (dim, dim):
            raise ValueError(f"exponents must have shape ({dim}, {dim})")
        return cls._from_full(scaled, n, exps)

    # -- queries -------------------------------------------------------

    @property
    def amplitude(self) -> float:
        return 1.0 / sqrt(self.dim) if self.scaled else 1.0

    @property
    def amplitude_tag(self) -> str:
        return f"1/sqrt({self.dim})" if self.scaled else "1"

    @property
    def monomial_view(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(column of each row, exponent of each row), or None if full."""
        return self._mono

    @property
    def exponents(self) -> Optional[np.ndarray]:
        """The dim x dim exponent array, or None if monomial."""
        return self._exps

    def _along(self, cols: Sequence[int]) -> np.ndarray:
        """Exponents at (i, cols[i]) for every row i, which must all be present."""
        if self._mono is not None:
            return np.array(self._mono[1], dtype=exponent_dtype(self.modulus))
        return self._exps[np.arange(self.dim), list(cols)]

    def entry(self, i: int, j: int) -> Optional[ExactPhase]:
        if self._mono is not None:
            cols, exps = self._mono
            return ExactPhase(Fraction(exps[i], self.modulus)) if cols[i] == j else None
        return ExactPhase(Fraction(int(self._exps[i, j]), self.modulus))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseMatrix):
            return False
        if (self.dim, self.scaled, self.modulus) != (other.dim, other.scaled, other.modulus):
            return False
        if self._mono is not None or other._mono is not None:
            return self._mono == other._mono
        return bool(np.array_equal(self._exps, other._exps))

    def __repr__(self) -> str:
        return f"PhaseMatrix(dim={self.dim}, amplitude={self.amplitude_tag})"

    # -- algebra -------------------------------------------------------

    def __matmul__(self, other):
        """Exact product; at least one factor must be monomial and at most
        one scaled, else the product is no PhaseMatrix and ValueError is raised."""
        if not isinstance(other, PhaseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if (self.scaled and other.scaled) or (self._mono is None and other._mono is None):
            raise ValueError("this product has entries that are sums of phases or "
                             "amplitude 1/dim, so it is no PhaseMatrix; "
                             "np.asarray(a) @ b is the dense product")
        n = lcm(self.modulus, other.modulus)
        sa, sb = n // self.modulus, n // other.modulus
        scaled = self.scaled or other.scaled
        if self._mono is not None and other._mono is not None:
            (ac, ae), (bc, be) = self._mono, other._mono
            return PhaseMatrix._from_monomial(
                scaled, n, tuple(bc[c] for c in ac),
                tuple((x * sa + be[c] * sb) % n for c, x in zip(ac, ae)))
        dt = exponent_dtype(n)
        if self._mono is not None:
            # (ab)[i, j] = a[i, c_i] b[c_i, j]: row c_i of b, shifted by a's phase
            cols, exps = self._mono
            out = (np.array(exps, dtype=dt)[:, None] * sa
                   + other._exps[list(cols)].astype(dt) * sb)
        else:
            # (ab)[i, c_k] = a[i, k] b[k, c_k]: column k of a moves to column c_k
            cols, exps = other._mono
            out = np.empty((self.dim, self.dim), dtype=dt)
            out[:, list(cols)] = self._exps.astype(dt) * sa + np.array(exps, dtype=dt) * sb
        return PhaseMatrix._from_full(scaled, n, out % n)

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
        return PhaseMatrix._from_full(self.scaled, n, -self._exps.T % n)

    def __pow__(self, k: int) -> "PhaseMatrix":
        """Square-and-multiply; raises ValueError where a product is no PhaseMatrix."""
        if k < 0:
            return self.dagger() ** (-k)
        result, base = PhaseMatrix.identity(self.dim), self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
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
        return PhaseMatrix._from_full(
            self.scaled, n, (self._exps.astype(exponent_dtype(n)) * s + shift) % n)

    # -- numeric views ---------------------------------------------------

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Dense view, so np.asarray(m, dtype=complex), m @ ndarray and ndarray @ m work."""
        return self.to_complex()

    def to_complex(self) -> np.ndarray:
        n = self.modulus
        if self._mono is not None:
            cols, exps = self._mono
            where = (np.arange(self.dim), list(cols))
            e = np.array(exps, dtype=exponent_dtype(n))
        else:
            where, e = ..., self._exps
        return _dense((self.dim, self.dim), where, _phase_array(e, n), self.scaled)

    def trace(self) -> complex:
        return trace_pair(PhaseMatrix.identity(self.dim), self)


def _dense(shape: tuple, where, phases: np.ndarray, scaled: bool) -> np.ndarray:
    """A complex array of zeros with phases at where, times the amplitude
    1/sqrt(dim) when scaled (dim = shape[-1]): the float operations of
    ExactPhase.to_complex (1.0 * x is x, so an unscaled matrix needs no
    product)."""
    out = np.zeros(shape, dtype=complex)
    if scaled:
        amplitude = 1.0 / sqrt(shape[-1])
        out.real[where] = amplitude * phases.real
        out.imag[where] = amplitude * phases.imag
    else:
        out[where] = phases
    return out


# the slot setters, which bypass PhaseMatrix.__setattr__ in _new
_set_dim, _set_scaled, _set_modulus, _set_mono, _set_exps = (
    PhaseMatrix.__dict__[name].__set__ for name in PhaseMatrix.__slots__)


def trace_pair(a: PhaseMatrix, b: PhaseMatrix) -> complex:
    """tr(a^dag b) without forming the product, exact whenever decidable.

    The pairing collects conj(a[k][i]) * b[k][i] over all positions where
    both entries are present, in row-major order, and sums it with
    _complex_sum.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    n = lcm(a.modulus, b.modulus)
    sa, sb = n // a.modulus, n // b.modulus
    if a._mono is not None and b._mono is not None:
        (ac, ae), (bc, be) = a._mono, b._mono
        exps = [(y * sb - x * sa) % n for c, x, c2, y in zip(ac, ae, bc, be) if c == c2]
    else:
        if a._mono is None and b._mono is None:
            ea, eb = a._exps, b._exps
        else:
            # a monomial factor pairs with the other one entry per row
            cols = (a._mono or b._mono)[0]
            ea, eb = a._along(cols), b._along(cols)
        dt = exponent_dtype(n)
        exps = ((eb.astype(dt) * sb - ea.astype(dt) * sa) % n).ravel().tolist()
    return a.amplitude * b.amplitude * _complex_sum(exps, n)


# most exponent differences trace_gram holds at once: 256 KB as int32,
# 512 KB as int64
_GRAM_BLOCK = 1 << 16


# exponents inside trace_gram are int32 below this modulus: a difference
# of two of them plus n, and a sorted exponent plus n/p, stay below 2**31
_INT32_MODULUS_LIMIT = 2 ** 30


def _kernel_dtype(modulus: int):
    """Dtype of exponents inside trace_gram: int32 below 2**30, else exponent_dtype."""
    return np.int32 if modulus < _INT32_MODULUS_LIMIT else exponent_dtype(modulus)


def _stack(mats: Sequence[PhaseMatrix]) -> tuple[int, np.ndarray, np.ndarray]:
    """Common modulus N of a monomial family, and the column and the
    exponent mod N of every row, as two len(mats) x dim arrays."""
    if any(m._mono is None for m in mats):
        raise ValueError("a batched kernel needs monomial matrices")
    if len({m.dim for m in mats}) > 1:
        raise ValueError("dimension mismatch")
    dim = mats[0].dim if mats else 0
    n = lcm(*(m.modulus for m in mats))
    dt = exponent_dtype(n)
    size = len(mats) * dim
    cols = np.fromiter(chain.from_iterable(m._mono[0] for m in mats), np.intp, size)
    exps = np.fromiter(chain.from_iterable(m._mono[1] for m in mats), dt, size)
    scale = np.fromiter((n // m.modulus for m in mats), dt, len(mats))
    cols, exps = cols.reshape(len(mats), dim), exps.reshape(len(mats), dim)
    return n, cols, exps * scale[:, None]


def _stack_full(mats: Sequence[PhaseMatrix]) -> tuple[int, np.ndarray]:
    """Common modulus N of a nonempty family of full matrices, and their
    exponents mod N as one len(mats) x dim x dim array."""
    if any(m._exps is None for m in mats):
        raise ValueError("a full stack needs full matrices")
    if len({m.dim for m in mats}) > 1:
        raise ValueError("dimension mismatch")
    n = lcm(*(m.modulus for m in mats))
    dt = exponent_dtype(n)
    scale = np.array([n // m.modulus for m in mats], dtype=dt)
    return n, np.array([m._exps for m in mats], dtype=dt) * scale[:, None, None]


def _join(*stacks: tuple[int, np.ndarray, np.ndarray]) -> tuple[int, np.ndarray, np.ndarray]:
    """One monomial stack (N, cols, exps) of several, in order, over the
    lcm N of their moduli."""
    n = lcm(*(s[0] for s in stacks))
    dt = exponent_dtype(n)
    return (n, np.concatenate([s[1] for s in stacks]),
            np.concatenate([s[2].astype(dt) * (n // s[0]) for s in stacks]))


def _reduced(x, n: int) -> np.ndarray:
    """An int or an integer array reduced mod n, as an exponent_dtype(n) array."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuO":
        raise TypeError(f"expected integer labels, got {x.dtype}")
    if n >= _INT64_MODULUS_LIMIT:
        return np.asarray(x.astype(object) % n, dtype=object)
    return np.asarray(x % n, dtype=np.int64)


def _dense_stack(n: int, cols: Optional[np.ndarray], exps: np.ndarray,
                 scaled: bool = False) -> np.ndarray:
    """The dense complex view, with each member's to_complex bytes, of a
    stack over n: monomial (cols, exps), or full (None, exps).  e/N and
    e s / (N s) are one float, as division rounds both quotients alike."""
    shape, where = exps.shape, ...
    if cols is not None:
        shape, where = shape + shape[-1:], (*np.ogrid[:len(cols), :shape[-1]], cols)
    return _dense(shape, where, _phase_array(exps, n), scaled)


def _stack_complex(mats: Sequence[PhaseMatrix]) -> np.ndarray:
    """np.array([m.to_complex() for m in mats]), with its bytes, for a
    nonempty family of one dim, one shape and one amplitude: _dense_stack
    of its stack over the family's common modulus."""
    if len({m.scaled for m in mats}) > 1:
        raise ValueError("a dense stack needs one amplitude")
    full = mats[0]._mono is None
    n, *stack = _stack_full(mats) if full else _stack(mats)
    return _dense_stack(n, None if full else stack[0], stack[-1], mats[0].scaled)


def trace_gram(mats: Sequence[PhaseMatrix]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """tr(mats[i]^dag mats[j]) over a family of monomial matrices, block by block.

    Yields (i, j, traces), each trace equal to trace_pair(mats[i], mats[j]),
    repr included; a pair in no block shares no position (0j).  One
    lexsort makes the members of each column pattern contiguous.  Member
    p of the sorted family pairs with every member of its pattern, so its
    pairs are one run of partners; the runs are cut into blocks of at
    most _GRAM_BLOCK differences, gathered from the exponents in the
    kernel layout and summed by _sums (all equal is dim * phase, and a
    multiset invariant under a shift N/p, p a prime of gcd(N, dim), is
    0j).  Partly overlapping patterns go through trace_pair.
    """
    mats = list(mats)
    if not mats:
        return
    n, cols, exps = _stack(mats)
    count, dim = cols.shape
    # members of one pattern in index order, patterns in lexicographic order
    members = np.lexsort(cols.T[::-1])
    srt = cols[members]
    bounds = np.flatnonzero(np.concatenate(([True], (srt[1:] != srt[:-1]).any(axis=1), [True])))
    start, size = bounds[:-1], np.diff(bounds)
    group = np.empty(count, dtype=np.intp)
    group[members] = np.repeat(np.arange(len(start)), size)
    patterns = srt[start]
    # pattern pairs that share some but not all positions
    shared = (patterns[:, None, :] == patterns[None, :, :]).any(axis=2)
    shared[np.diag_indices(len(patterns))] = False
    if shared.any():
        i, j = np.nonzero(shared[group[:, None], group])
        yield i, j, np.array([trace_pair(mats[x], mats[y]) for x, y in zip(i, j)], dtype=complex)
    # sorted member p has the run of pairs ends[p] - runs[p] .. ends[p] - 1,
    # and pair t of it pairs p with the sorted member t - back[p]
    runs = np.repeat(size, size)
    ends = np.cumsum(runs)
    back = ends - runs - np.repeat(start, size)
    exps = np.ascontiguousarray(exps[members].T, dtype=_kernel_dtype(n))
    scaled = np.fromiter((m.scaled for m in mats), dtype=np.intp, count=count)[members]
    unit = 1.0 / sqrt(dim)
    amps, step, table = (1.0, unit, unit * unit), max(1, _GRAM_BLOCK // dim), {}
    total = int(ends[-1])
    for first in range(0, total, step):
        last = min(first + step, total)
        lo, hi = np.searchsorted(ends, (first, last - 1), side="right").tolist()
        counts = runs[lo:hi + 1].copy()
        counts[0] -= first - (ends[lo] - runs[lo])
        counts[-1] -= ends[hi] - last
        p = np.repeat(np.arange(lo, hi + 1), counts)
        q = np.arange(first, last) - np.repeat(back[lo:hi + 1], counts)
        diff = exps.take(q, axis=1) - exps.take(p, axis=1)  # the exponents tr(p^dag q) sums
        diff += (diff < 0) * np.asarray(n, dtype=diff.dtype)
        yield members[p], members[q], _sums(diff, n, scaled[p] + scaled[q], amps, table)


def _products(n: int, cols: np.ndarray, exps: np.ndarray, i: np.ndarray,
              j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column and the exponent mod n of every row of mats[i] @ mats[j],
    for index arrays i and j of one shape, over the _stack (n, cols, exps)
    of a family; the amplitude is left out.  The modulus of each matrix is
    minimal, so two rows of stacks over one n are equal exactly when the
    matrices are (for equal amplitudes)."""
    # row r of a @ b sits in column b[a[r]], with exponent e_a[r] + e_b[a[r]]:
    # both read the raveled stack at b's entry j * dim + a[r]
    at = j[..., None] * cols.shape[1] + cols[i]
    total = exps[i] + exps.take(at)
    total -= (total >= n) * np.asarray(n, dtype=total.dtype)
    return cols.take(at), total


def pairwise_products(mats: Sequence[PhaseMatrix]) -> tuple[int, np.ndarray, np.ndarray]:
    """Every product of a monomial family at once: (N, cols, exps), where
    cols[i, j] and exps[i, j] are the column and the exponent mod N of
    each row of mats[i] @ mats[j].  The amplitude is left out."""
    n, cols, exps = _stack(mats)
    i, j = np.indices((len(cols), len(cols)))
    return (n, *_products(n, cols, exps, i, j))
