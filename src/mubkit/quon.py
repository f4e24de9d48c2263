"""Deformed-oscillator construction of su(2) and its cyclic eigenbasis.

Two commuting q-deformed oscillator algebras (q a primitive k-th root of
unity, nilpotent ladder operators) act on a k^2-dimensional tensor
space.  From them one assembles a diagonal positive operator h and a
unitary cyclic operator v_ra; their products give a polar decomposition
of the su(2) ladder operators on the spin-j subspace (k = 2j+1).  v_ra,
h and the su(2) triple come from the oscillator generators alone, an
independent cross-check of :mod:`mubkit.weyl` and :mod:`mubkit.qdft`.
The common eigenvectors are not an oscillator result: they are the
columns of H_ra from :mod:`mubkit.qdft`, with eigenvalues Lambda_ra.

v_ra = s_x s_y is a weighted monomial: it sends each |n1, n2) to the one
state |n1+1, n2-1) (indices mod k) with one complex weight, read from the
q-numbers [n]_q that are the generator entries of :func:`quon_rep`, and
the s_x, s_y formulas of :func:`build_vra_quonic`.  It is held as that (target, weight) pair of
length k^2, and its spin-j block is read from k of those entries, so the
su(2) triple needs O(k^2) work and memory; h is kept as its diagonal.
The dense k^2 x k^2 matrix is built only by :func:`build_vra_quonic`.
The private builders take a as an int or as an integer array: one
formula, whose weights, blocks and triples stack along the leading axes
of a, so a family a = 0..k-1 costs one call.

The spin label m and the computational index n are tied by n = j - m,
so index 0 is the highest-weight state.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import Union

import numpy as np

from . import qdft
from .phases import _phase_array, _phase_complex, is_rational

Real = Union[int, Fraction, float]

__all__ = [
    "QuonRep",
    "Su2Triple",
    "q_number",
    "quon_rep",
    "tensor_index",
    "build_h",
    "build_vra_quonic",
    "restrict_to_j",
    "su2_generators",
    "eigenbasis",
    "eigenvalue_vra",
    "overlap_same_a",
    "rotation_conjugation_residual",
]


def _two_j(j: Real) -> int:
    f = j if isinstance(j, Fraction) else Fraction(j)
    if f.denominator not in (1, 2) or f.numerator <= 0:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return 2 * f.numerator // f.denominator


def _q_numbers(count: int, k: int) -> list[complex]:
    """[n]_q for n = 0..count-1, each sum 1 + q + ... + q^(n-1) extending
    the one before it in the same order of addition."""
    q = cmath.exp(2j * pi / k)
    out, total = [1 + 0j], 0
    for i in range(count - 1):
        total += q ** i
        out.append(total + 0j)
    return out


def q_number(n: int, k: int) -> complex:
    """[n]_q = (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1) for n >= 1, with
    q = exp(2*pi*i/k); by convention [0]_q = 1 (not the n >= 1 formula)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    return _q_numbers(n + 1, k)[n]


@dataclass(frozen=True)
class QuonRep:
    """k-dimensional matrices of the two oscillator algebras.

    x_plus raises with unit coefficient and x_minus lowers with [n]_q;
    y_plus raises with [n+1]_q and y_minus lowers with unit coefficient;
    both number operators are diag(0, 1, ..., k-1).
    """

    k: int
    x_plus: np.ndarray
    x_minus: np.ndarray
    n_x: np.ndarray
    y_plus: np.ndarray
    y_minus: np.ndarray
    n_y: np.ndarray


def quon_rep(k: int) -> QuonRep:
    if k < 2:
        raise ValueError("k must be at least 2")
    qn = np.array(_q_numbers(k, k))
    n = np.arange(1, k)
    x_plus = np.zeros((k, k), dtype=complex)
    x_minus = np.zeros((k, k), dtype=complex)
    y_plus = np.zeros((k, k), dtype=complex)
    y_minus = np.zeros((k, k), dtype=complex)
    x_plus[n, n - 1] = 1.0
    y_plus[n, n - 1] = qn[n]
    x_minus[n - 1, n] = qn[n]
    y_minus[n - 1, n] = 1.0
    number = np.diag(np.arange(k, dtype=float)).astype(complex)
    return QuonRep(k, x_plus, x_minus, number, y_plus, y_minus, number.copy())


def tensor_index(k: int, n1: int, n2: int) -> int:
    """Flat index of |n1, n2) in the k^2-dimensional tensor space."""
    return n1 * k + n2


def build_h(k: int) -> np.ndarray:
    """Diagonal of the operator h: entry sqrt(n1 (n2 + 1)) at |n1, n2),
    in the order of :func:`tensor_index`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n1, n2 = np.divmod(np.arange(k * k), k)
    return np.sqrt(n1 * (n2 + 1.0))


def _vra_monomial(k: int, r: Real = 0, a=0) -> tuple[np.ndarray, np.ndarray]:
    """v_ra as (dest, weight): v_ra |i) = weight[..., i] |dest[i]) for every
    flat index i of the tensor space.  a is an int, or an integer array of
    a values that weight stacks along its leading axes: weight has shape
    np.shape(a) + (k^2,), and dest does not depend on a.

    s_y takes |n1, n2) to |n1, n2-1) with q^{-a(n1-n2)/2}, its phase
    taken at the source, except that its wrap term takes |n1, 0) to
    |n1, k-1) with e^{i phi_r/2} (y_+)^{k-1}/[k-1]_q!.  s_x then takes
    |n1, n2) to |n1+1, n2) with q^{a(n1+1+n2)/2}, taken at the target,
    except that its wrap term takes |k-1, n2) to |0, n2) with
    e^{i phi_r/2} (x_-)^{k-1}/[k-1]_q!.  Each wrap weight is a running
    product of ratios of generator entries to [n]_q, so it stays finite
    where [k-1]_q! overflows (k above about 200).
    """
    a = np.asarray(qdft._checked_a(k, a))[..., None]
    half = cmath.exp(1j * pi * (k - 1) * float(r) / 2)
    qn = np.array(_q_numbers(k, k))[1:]
    # the generator entries x_-[n-1, n] and y_+[n, n-1] are [n]_q itself,
    # so both wrap weights are e^{i phi_r/2} times this running product
    wrap = half * np.prod(qn / qn)
    n1, n2 = np.divmod(np.arange(k * k), k)
    m1, m2 = (n1 + 1) % k, (n2 - 1) % k
    # q^{e/2} = exp(i pi e / k), e taken mod 2k
    weight_y = np.where(n2 > 0, _phase_array(-a * (n1 - n2) % (2 * k), 2 * k), wrap)
    weight_x = np.where(n1 < k - 1, _phase_array(a * (m1 + m2) % (2 * k), 2 * k), wrap)
    return m1 * k + m2, weight_x * weight_y


def build_vra_quonic(k: int, r: Real = 0, a: int = 0) -> np.ndarray:
    """Unitary cyclic operator v_ra = s_x s_y on the k^2-dim tensor space.

    s_x = q^{a(N_x+N_y)/2} x_+  +  e^{i phi_r/2} (x_-)^{k-1} / [k-1]_q!
    s_y = y_- q^{-a(N_x-N_y)/2}  +  e^{i phi_r/2} (y_+)^{k-1} / [k-1]_q!

    with phi_r = pi (k-1) r.  Satisfies (v_ra)^k = e^{i pi (k-1)(r+a)} I.
    The dense matrix, one entry per column, of the monomial form that the
    rest of this module uses.
    """
    dest, weight = _vra_monomial(k, r, a)
    out = np.zeros((k * k, k * k), dtype=complex)
    out[dest, np.arange(k * k)] = weight
    return out


def _spin_indices(k: int) -> np.ndarray:
    """Flat indices of |k-1-n, n) = |j+m, j-m) for n = j - m = 0..k-1."""
    n = np.arange(k)
    return tensor_index(k, k - 1 - n, n)


def _check_leak(leak: float) -> None:
    if leak > 1e-12:
        raise ValueError(f"subspace is not stable: leakage {leak:.3e}")


def restrict_to_j(op: np.ndarray, j: Real) -> np.ndarray:
    """Matrix of a tensor-space operator on the spin-j subspace.

    The subspace is spanned by |j+m, j-m) and the result is indexed by the
    computational label n = j - m.  Raises if any column leaks outside the
    subspace beyond 1e-12.
    """
    two_j = _two_j(j)
    k = two_j + 1
    if op.shape != (k * k, k * k):
        raise ValueError(f"operator must act on a {k * k}-dimensional space")
    flat = _spin_indices(k)
    keep = np.zeros(k * k, dtype=bool)
    keep[flat] = True
    _check_leak(float(np.max(np.abs(op[~keep][:, flat]))))
    return op[np.ix_(flat, flat)]


def _restrict_monomial(dest: np.ndarray, weight: np.ndarray, j: Real) -> np.ndarray:
    """:func:`restrict_to_j` of the monomial |i) -> weight[..., i] |dest[i]),
    read from its k entries on the spin-j subspace; leading axes of weight
    stack monomials of one dest, and give k x k blocks stacked alike."""
    k = _two_j(j) + 1
    flat = _spin_indices(k)
    n1, n2 = np.divmod(dest[flat], k)
    w = weight[..., flat]
    inside = n1 + n2 == k - 1
    _check_leak(float(np.max(np.abs(w[..., ~inside]), initial=0.0)))
    # |k-1-n, n) is subspace index n = n2
    out = np.zeros(w.shape[:-1] + (k, k), dtype=complex)
    out[..., n2[inside], np.flatnonzero(inside)] = w[..., inside]
    return out


def _vra_block(k: int, r: Real = 0, a=0) -> np.ndarray:
    """v_ra on the spin-j subspace, j = (k-1)/2: a k x k matrix, stacked
    along leading axes for an integer array a as in :func:`_vra_monomial`."""
    return _restrict_monomial(*_vra_monomial(k, r, a), Fraction(k - 1, 2))


@dataclass(frozen=True)
class Su2Triple:
    """su(2) ladder triple from the polar decomposition j_+ = h v_ra."""

    j_plus: np.ndarray
    j_minus: np.ndarray
    j_z: np.ndarray
    r: Real
    a: int


def _su2_triple(k: int, r: Real, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j_+, j_-, j_z) = (h v, v^dag h, (h^2 - v^dag h^2 v)/2) on the spin-j
    space, k = 2j+1, stacked over a as :func:`_vra_block` is."""
    h = build_h(k)[_spin_indices(k)]
    v = _vra_block(k, r, a)
    h2 = h * h
    v_dag = np.swapaxes(v.conj(), -1, -2)
    return h[:, None] * v, v_dag * h, (np.diag(h2) - v_dag @ (h2[:, None] * v)) / 2


def su2_generators(j: Real, r: Real = 0, a: int = 0) -> Su2Triple:
    """j_+ = h v, j_- = v^dag h, j_z = (h^2 - v^dag h^2 v)/2 on the spin-j space."""
    k = _two_j(j) + 1
    a = qdft._checked_a(k, a)
    return Su2Triple(*_su2_triple(k, r, a), r, a)


def eigenbasis(j: Real, r: Real = 0, a: int = 0) -> list[np.ndarray]:
    """Common eigenvectors of the Casimir and v_ra: the columns of
    :func:`mubkit.qdft.hra_matrix` at d = 2j+1, as dense vectors.

    Component n of vector alpha, m = j - n, is
    q^{(j+m)(j-m+1)a/2 - jmr + (j+m)alpha} / sqrt(2j+1).
    """
    h = np.asarray(qdft.hra_matrix(_two_j(j) + 1, r, a), dtype=complex)
    return list(np.ascontiguousarray(h.T))


def eigenvalue_vra(j: Real, r: Real, a: int, alpha: int) -> complex:
    """Eigenvalue q^{j(r+a) - alpha} of v_ra on eigenvector alpha, as
    2j(rn + a rd) - 2 rd alpha over 2 rd d, with r = rn/rd split as in
    qdft's row phases ((float(r), 1) for a float r).  The integer terms
    are reduced before a float r term joins them.
    """
    two_j = _two_j(j)
    d = two_j + 1
    rn, rd = (r.numerator, r.denominator) if is_rational(r) else (float(r), 1)
    modulus = 2 * rd * d
    e = (two_j * qdft._checked_a(d, a) * rd - 2 * rd * alpha) % modulus
    return _phase_complex((e + two_j * rn) % modulus, modulus)


def overlap_same_a(j: Real, r: Real, s: Real, a: int, alpha: int, beta: int) -> complex:
    """Overlap of eigenvectors at the same a and different r, s.

    Equals q^{j(beta-alpha)} sin(pi x) / ((2j+1) sin(pi x/(2j+1))) with
    x = j(s-r) + alpha - beta; the sine ratio is taken at its analytic
    limit when both sines vanish.  The unimodular prefactor makes the
    closed form equal the inner product itself, not just its modulus.
    """
    two_j = _two_j(j)
    d = two_j + 1
    x = two_j / 2 * (float(s) - float(r)) + alpha - beta
    den = cmath.sin(pi * x / d).real
    if abs(den) < 1e-12:
        t = round(x / d)
        ratio = d * (-1) ** (two_j * t)
    else:
        ratio = cmath.sin(pi * x).real / den
    return _phase_complex(two_j * (beta - alpha) % (2 * d), 2 * d) * ratio / d


def rotation_conjugation_residual(j: Real, r: Real, a: int, p: int) -> float:
    """Residual of P v_ra P^dag = e^{-i phi} v_ra for the rotation by phi = 2 pi p/(2j+1).

    P is the diagonal rotation operator acting as e^{-i m phi} on the spin
    component m (any global phase drops out of the conjugation).
    """
    two_j = _two_j(j)
    d = two_j + 1
    v = _vra_block(d, r, a)
    # component n corresponds to m = j - n; every cmath call comes before
    # the complex @, after which cmath ran up to 6x slower on one host
    diag = np.array([cmath.exp(-2j * pi * p * (two_j - 2 * n) / (2 * d))
                     for n in range(d)])
    rhs = cmath.exp(-2j * pi * p / d) * v
    rot = np.diag(diag)
    lhs = rot @ v @ rot.conj().T
    return float(np.max(np.abs(lhs - rhs)))
