"""Quadratic discrete Fourier transforms.

The two-parameter family F_{ra} extends the ordinary DFT matrix with a
phase quadratic in the row index,

    (F_ra)_{nm} = q^{n(d-n)a/2 + (d-1)^2 r/4 + n[m - (d-1)r/2]} / sqrt(d),

with q = exp(2*pi*i/d), a an integer mod d and r a real parameter.  For
rational r every entry is an exact root of unity and the matrix is built
in phase arithmetic.  A float r goes through the same exponent formula,
evaluated as floats over the same modulus into a dense complex array;
its entries are within 1e-11 of the exact ones for d <= 1000 (the bound
of ``mubkit matrix --d``) and |r| <= 2.  The companion matrix H_ra
carries the same columns with the rows in reverse order, and D_ra is
the diagonal Gaussian factor with F_ra = D_ra F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fmod, pi, sqrt
from typing import Union

import cmath

import numpy as np

from .phases import PhaseMatrix, exponent_dtype, is_rational

Real = Union[int, Fraction, float]

__all__ = [
    "QdftParams",
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


@dataclass(frozen=True)
class QdftParams:
    """Validated (d, r, a) parameter triple; a is reduced mod d."""

    d: int
    r: Real = 0
    a: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if not isinstance(self.a, int):
            raise TypeError("a must be an integer")
        object.__setattr__(self, "a", self.a % self.d)

    @property
    def exact(self) -> bool:
        return is_rational(self.r)


def _exponents(p: QdftParams) -> tuple[np.ndarray, int]:
    """(den * F_ra exponents, den) as a d x d array, E(n, m) = row(n) + nm with
    row(n) = n(d-n)a/2 + (d-1)^2 r/4 - n(d-1)r/2.

    r enters as rn/rd: its numerator and denominator for rational r, or
    (float(r), 1) for a float r.  den = 4 rd, row(n) is reduced mod
    den * d and nm mod d; the array holds integers for rational r and
    floats otherwise.
    """
    d = p.d
    rn, rd = (p.r.numerator, p.r.denominator) if p.exact else (float(p.r), 1)
    den = 4 * rd
    n = den * d
    row = [(2 * i * (d - i) * p.a * rd + (d - 1) ** 2 * rn - 2 * i * (d - 1) * rn) % n
           for i in range(d)]
    dt = exponent_dtype(n) if p.exact else float
    k = np.arange(d)
    nm = (k[:, None] * k[None, :]) % d
    return np.array(row, dtype=dt)[:, None] + den * nm.astype(dt), den


def _unit_phases(e: np.ndarray, n: int) -> np.ndarray:
    """exp(2*pi*i*e/n) for a float array e."""
    angle = 2.0 * pi * e / n
    out = np.empty(e.shape, dtype=complex)
    out.real, out.imag = np.cos(angle), np.sin(angle)
    return out


def _build(p: QdftParams, e: np.ndarray, den: int) -> Union[PhaseMatrix, np.ndarray]:
    """Entries q**(e / den) / sqrt(d): exact phases for rational r, a dense
    complex array otherwise."""
    if p.exact:
        return PhaseMatrix.from_exponents(p.d, e, scaled=True, den=den)
    return _unit_phases(e, den * p.d) / sqrt(p.d)


def fra_matrix(d: int, r: Real = 0, a: int = 0) -> Union[PhaseMatrix, np.ndarray]:
    """Quadratic Fourier matrix F_ra; exact for rational r."""
    p = QdftParams(d, r, a)
    return _build(p, *_exponents(p))


def hra_matrix(d: int, r: Real = 0, a: int = 0) -> Union[PhaseMatrix, np.ndarray]:
    """Row-reversed companion of F_ra; its columns are the transformed basis."""
    p = QdftParams(d, r, a)
    e, den = _exponents(p)
    return _build(p, e[::-1], den)


def dra_matrix(d: int, r: Real = 0, a: int = 0) -> Union[PhaseMatrix, np.ndarray]:
    """Diagonal Gaussian factor with F_ra = D_ra @ F; its entries are the row phases."""
    p = QdftParams(d, r, a)
    e, den = _exponents(p)
    # column 0 of F_ra is row(n), since nm = 0 there
    if p.exact:
        return PhaseMatrix.monomial(range(d), e[:, 0], den)
    return np.diag(_unit_phases(e[:, 0], den * d))


def forward(x, d: int, r: Real = 0, a: int = 0) -> np.ndarray:
    """y_n = sum_m (F_ra)_{mn} x_m."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d,):
        raise ValueError(f"signal must have length {d}")
    return np.asarray(fra_matrix(d, r, a), dtype=complex).T @ x


def inverse(y, d: int, r: Real = 0, a: int = 0) -> np.ndarray:
    """x_m = sum_n conj((F_ra)_{mn}) y_n; inverts :func:`forward`."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (d,):
        raise ValueError(f"signal must have length {d}")
    return np.asarray(fra_matrix(d, r, a), dtype=complex).conj() @ y


def parseval_check(x, xp, d: int, r: Real = 0, a: int = 0) -> tuple[complex, complex]:
    """Return (sum conj(y_n) y'_n, sum conj(x_m) x'_m) for the same F_ra."""
    x = np.asarray(x, dtype=complex)
    xp = np.asarray(xp, dtype=complex)
    if x.shape != (d,) or xp.shape != (d,):
        raise ValueError(f"signals must have length {d}")
    y = forward(x, d, r, a)
    yp = forward(xp, d, r, a)
    return complex(np.vdot(y, yp)), complex(np.vdot(x, xp))


def gauss_sum(u: int, v: Real, w: int) -> complex:
    """S(u, v, w) = sum_{k=0}^{|w|-1} exp(i*pi*(u k^2 + v k)/w) by direct summation.

    S has period 2|w| in u and in v.  A u or v of magnitude 2^53 or more,
    where float() rounds integers or overflows, is first reduced modulo
    2|w|, exactly (fmod is exact on floats).  Smaller values, such as the
    v of trace_fra and gauss_inner_product, are summed as given.
    """
    if w == 0:
        raise ValueError("w must be nonzero")
    period = 2 * abs(w)
    if abs(u) >= 2 ** 53:
        u %= period
    if abs(v) >= 2 ** 53:
        v = fmod(v, period) if isinstance(v, float) else v % period
    vf = float(v)
    return sum(cmath.exp(1j * pi * (u * k * k + vf * k) / w) for k in range(abs(w)))


def trace_fra(d: int, r: Real = 0, a: int = 0) -> complex:
    """Closed-form trace of F_ra via a quadratic Gauss sum.

    tr F_ra = exp(i*pi*(d-1)^2 r/(2d)) S(2-a, d(a-r)+r, d) / sqrt(d).
    """
    p = QdftParams(d, r, a)
    rf = float(p.r)
    s = gauss_sum(2 - p.a, p.d * (p.a - rf) + rf, p.d)
    return cmath.exp(1j * pi * (p.d - 1) ** 2 * rf / (2 * p.d)) * s / sqrt(p.d)


def det_fra(d: int, a: int) -> complex:
    """det F_0a = exp(i*pi*(d^2-1)a/6) det F, with det F evaluated numerically."""
    p = QdftParams(d, 0, a)
    det_f = complex(np.linalg.det(np.asarray(fra_matrix(p.d), dtype=complex)))
    return cmath.exp(1j * pi * (p.d * p.d - 1) * p.a / 6) * det_f


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
