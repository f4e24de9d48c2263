"""Quadratic discrete Fourier transforms.

The two-parameter family F_{ra} extends the ordinary DFT matrix with a
phase quadratic in the row index,

    (F_ra)_{nm} = q^{n(d-n)a/2 + (d-1)^2 r/4 + n[m - (d-1)r/2]} / sqrt(d),

with q = exp(2*pi*i/d), a an integer mod d and r a real parameter.  For
rational r every entry is an exact root of unity and the matrix is built
in phase arithmetic.  A float r goes through the same exponent formula,
evaluated as floats over the same modulus into a dense complex array;
its entries are within 1e-11 of the exact ones for d <= 1000 (the bound
of ``mubkit matrix --d``) and |r| <= 2, its row phases within 5e-16 * d
of those of the same float taken exactly (measured for d <= 2^20).  H_ra
is F_ra with the rows reversed, and the diagonal D_ra, F_ra = D_ra F,
holds the row phases.  So ``forward`` is sqrt(d) * ifft(D_ra x) and
``inverse`` conj(D_ra) * fft(y) / sqrt(d), in O(d) memory, within
2e-15 * ||x||_2 of the dense products (at most 6.3e-16 measured over
d <= 2000, rational and float r); at d = 2^20 Parseval held within
2.4e-17 * ||x||_2 ||x'||_2 and the round trip within 7.6e-16 * max |x_m|.
``det_fra`` is closed-form, from the DFT's eigenvalue multiplicities
(McClellan & Parks, IEEE Trans. Audio Electroacoust. 20 (1972) 66).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt
from typing import Union

import cmath

import numpy as np

from .phases import PhaseMatrix, _phase_array, _phase_complex, exponent_dtype, is_rational

Real = Union[int, Fraction, float]

__all__ = [
    "HadamardReport",
    "fra_matrix",
    "hra_matrix",
    "dra_matrix",
    "forward",
    "inverse",
    "parseval_check",
    "gauss_sum",
    "trace_fra",
    "det_fra",
    "is_generalized_hadamard",
]


def _checked_a(d: int, a):
    """a reduced mod d, after checking the (d, a) of an F_ra function: an
    int, or an array of an integer dtype, one stacked value per entry."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not (isinstance(a, int) or isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
        raise TypeError("a must be an integer")
    return a % d


def _row(d: int, r: Real, a) -> tuple[np.ndarray, int]:
    """(den * row(n) for n = 0..d-1, den): the row phases of F_ra, which are
    the diagonal of D_ra, as exponents of q over den, in O(d), with
    row(n) = n(d-n)a/2 + (d-1)(d-1-2n)r/4.

    r enters as rn/rd: its numerator and denominator for rational r, or
    (float(r), 1) for a float r.  den = 4 rd and the row is reduced mod
    den * d; the array holds integers for rational r and floats otherwise.
    The a term is an integer below den * d, so a float row carries only
    the rounding of its r term.  a is an int or an integer array, along
    whose axes the rows stack.  Every term is below den * d^2: int64 while
    that is below 2^53, Python ints beyond.
    """
    a = _checked_a(d, a)
    exact = is_rational(r)
    rn, rd = (r.numerator, r.denominator) if exact else (float(r), 1)
    den = 4 * rd
    n = den * d
    i = np.arange(d, dtype=exponent_dtype(n * d))
    # 2 a rd n(d-n) mod den d is 2 rd (a (n(d-n) mod 2d) mod 2d)
    ka = np.asarray(a).astype(i.dtype)[..., None] * (i * (d - i) % (2 * d)) % (2 * d) * (2 * rd)
    kr = (d - 1) * rn % n if exact else (d - 1) * rn
    row = (ka + kr * (d - 1 - 2 * i)) % n
    return row.astype(exponent_dtype(n) if exact else float, copy=False), den


def _exponents(d: int, r: Real, a) -> tuple[np.ndarray, int]:
    """(den * F_ra exponents, den) as a d x d array, E(n, m) = row(n) + nm,
    nm reduced mod d; stacked along the axes of an array a, as _row."""
    row, den = _row(d, r, a)
    k = np.arange(d)
    nm = (k[:, None] * k[None, :]) % d
    return row[..., None] + den * nm.astype(row.dtype), den


def _build(d: int, r: Real, e: np.ndarray, den: int) -> Union[PhaseMatrix, np.ndarray]:
    """Entries q**(e / den) / sqrt(d): exact phases for rational r, a dense
    complex array otherwise."""
    if is_rational(r):
        return PhaseMatrix.from_exponents(d, e, scaled=True, den=den)
    return _phase_array(e, den * d) / sqrt(d)


def fra_matrix(d: int, r: Real = 0, a: int = 0) -> Union[PhaseMatrix, np.ndarray]:
    """Quadratic Fourier matrix F_ra; exact for rational r."""
    return _build(d, r, *_exponents(d, r, a))


def hra_matrix(d: int, r: Real = 0, a: int = 0) -> Union[PhaseMatrix, np.ndarray]:
    """Row-reversed companion of F_ra; its columns are the transformed basis."""
    e, den = _exponents(d, r, a)
    return _build(d, r, e[::-1], den)


def dra_matrix(d: int, r: Real = 0, a: int = 0) -> Union[PhaseMatrix, np.ndarray]:
    """Diagonal Gaussian factor with F_ra = D_ra @ F; its entries are the row phases."""
    row, den = _row(d, r, a)
    if is_rational(r):
        return PhaseMatrix._from_monomial(False, den * d, tuple(range(d)), tuple(row.tolist()))
    return np.diag(_phase_array(row, den * d))


def _signal(x, d: int) -> np.ndarray:
    """x as a complex d-vector."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d,):
        raise ValueError(f"signal must have length {d}")
    return x


def _chirp(d: int, r: Real, a: int) -> np.ndarray:
    """The diagonal of D_ra as complex numbers."""
    row, den = _row(d, r, a)
    return _phase_array(row, den * d)


def forward(x, d: int, r: Real = 0, a: int = 0) -> np.ndarray:
    """y_n = sum_m (F_ra)_{mn} x_m, as sqrt(d) * ifft(D_ra x) since F_ra = D_ra F."""
    x = _signal(x, d)
    return np.fft.ifft(_chirp(d, r, a) * x, norm="ortho")


def inverse(y, d: int, r: Real = 0, a: int = 0) -> np.ndarray:
    """x_m = sum_n conj((F_ra)_{mn}) y_n, as conj(D_ra) fft(y) / sqrt(d);
    inverts :func:`forward`."""
    y = _signal(y, d)
    return _chirp(d, r, a).conj() * np.fft.fft(y, norm="ortho")


def parseval_check(x, xp, d: int, r: Real = 0, a: int = 0) -> tuple[complex, complex]:
    """Return (sum conj(y_n) y'_n, sum conj(x_m) x'_m) for the same F_ra,
    with y and y' the :func:`forward` transforms of x and x' under one D_ra."""
    signals = _signal(x, d), _signal(xp, d)
    chirp = _chirp(d, r, a)
    y, yp = (np.fft.ifft(chirp * v, norm="ortho") for v in signals)
    return complex(np.vdot(y, yp)), complex(np.vdot(x, xp))


# terms gauss_sum holds at once, so its memory is bounded for any |w|
_GAUSS_BLOCK = 1 << 16


def gauss_sum(u, v: Real, w: int):
    """S(u, v, w) = sum_{k=0}^{|w|-1} exp(i*pi*(u k^2 + v k)/w) by direct
    summation, the terms added left to right in k.

    u is an int and v an int, a Fraction or a float; or either is an array
    (integer u, integer or float v) and the two broadcast to an array of
    sums, one per (u, v), each summed as the scalar one.  S has period
    2|w| in u and in v, and each term has it in u k^2 and v k, so these are
    reduced modulo 2|w|: exactly for integers and Fractions, with fmod,
    which is exact, for floats.  A term is then the root of unity of its
    reduced exponent over 2|w| (phases._phase_array, exact on quarter
    turns).  The sum runs over blocks of k, _GAUSS_BLOCK terms at once, so
    time is O(|w|) and memory is bounded independently of |w|.
    """
    if w == 0:
        raise ValueError("w must be nonzero")
    period = 2 * abs(w)
    dt = exponent_dtype(2 * period * period)
    u = np.asarray(u % period).astype(dt)
    if isinstance(v, Fraction):
        v = float(v % period)
    v = np.asarray(v)
    v = np.fmod(v, period) if v.dtype.kind == "f" else np.asarray(v % period).astype(dt)
    total = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=complex)
    step = max(1, _GAUSS_BLOCK // max(total.size, 1))
    for k0 in range(0, abs(w), step):
        k = np.arange(k0, min(k0 + step, abs(w)), dtype=dt)
        e = (u[..., None] * (k * k % period) + v[..., None] * k) % period
        terms = _phase_array(e if w > 0 else -e % period, period)
        # one running sum: the previous total, then the block's terms in order
        total = np.concatenate([total[..., None], terms], axis=-1).cumsum(axis=-1)[..., -1]
    return complex(total) if total.ndim == 0 else total


def trace_fra(d: int, r: Real = 0, a=0):
    """Closed-form trace of F_ra via a quadratic Gauss sum.

    tr F_ra = exp(i*pi*(d-1)^2 r/(2d)) S(2-a, d(a-r)+r, d) / sqrt(d);
    an integer array a gives the traces along it, from one gauss_sum.
    """
    a = _checked_a(d, a)
    rf = float(r)
    s = gauss_sum(2 - a, d * (a - rf) + rf, d)
    return _product(cmath.exp(1j * pi * (d - 1) ** 2 * rf / (2 * d)), s, sqrt(d))


def _product(c: complex, s, x: float):
    """c s / x for a complex or a complex array s, by parts, with the float
    operations of Python's complex * and /: so an array gives each entry
    the bytes of the scalar call, where numpy's complex ufuncs may fuse a
    product or divide by a reciprocal, an ulp apart."""
    s = np.asarray(s)
    t = np.empty(s.shape, dtype=complex)
    t.real = (c.real * s.real - c.imag * s.imag) / x
    t.imag = (c.real * s.imag + c.imag * s.real) / x
    return complex(t) if t.ndim == 0 else t


def det_fra(d: int, a: int) -> complex:
    """det F_0a = exp(i*pi*(d^2-1)a/6) det F, with
    det F = (-1)^floor((d+2)/4) i^floor((d+1)/4) (-i)^floor((d-1)/4),
    Q quarter turns; so the turn ((d^2-1)a + 3Q)/12, exact on quarter turns."""
    a = _checked_a(d, a)
    quarters = 2 * ((d + 2) // 4) + (d + 1) // 4 + 3 * ((d - 1) // 4)
    return _phase_complex(((d * d - 1) * a + 3 * quarters) % 12, 12)


@dataclass(frozen=True)
class HadamardReport:
    """Verdict of the generalized-Hadamard test with the measured residuals."""

    dim: int
    unitarity_residual: float
    modulus_residual: float
    tolerance: float

    @property
    def is_hadamard(self) -> bool:
        return (self.unitarity_residual <= self.tolerance
                and self.modulus_residual <= self.tolerance)

    def __bool__(self) -> bool:
        return self.is_hadamard


def is_generalized_hadamard(m) -> HadamardReport:
    """True iff m is unitary and every entry has modulus 1/sqrt(d), within 1e-10."""
    arr = np.asarray(m, dtype=complex)
    n, nc = arr.shape
    if n != nc:
        raise ValueError("matrix must be square")
    unit = float(np.max(np.abs(arr.conj().T @ arr - np.eye(n))))
    mod = float(np.max(np.abs(np.abs(arr) - 1.0 / sqrt(n))))
    return HadamardReport(n, unit, mod, 1e-10)
