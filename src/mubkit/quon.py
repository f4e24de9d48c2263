"""Deformed-oscillator construction of su(2) and its cyclic eigenbasis.

Two commuting q-deformed oscillator algebras (q a primitive k-th root of
unity, nilpotent ladder operators) act on a k^2-dimensional tensor
space.  From them one assembles a diagonal positive operator h and a
unitary cyclic operator v_ra; their products give a polar decomposition
of the su(2) ladder operators on the spin-j subspace (k = 2j+1).
Everything here is built from the oscillator generators, so it serves as
an independent cross-check of the direct matrix constructions in
:mod:`mubkit.weyl` and :mod:`mubkit.qdft`.

The spin label m and the computational index n are tied by n = j - m,
so index 0 is the highest-weight state.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt
from typing import Union

import numpy as np

from .phases import _phase_complex, as_fraction, is_rational

Real = Union[int, Fraction, float]

__all__ = [
    "QuonRep",
    "Su2Triple",
    "q_number",
    "q_factorial",
    "quon_rep",
    "tensor_index",
    "build_h",
    "build_vra_quonic",
    "vra_tensor_power_phase",
    "restrict_to_j",
    "su2_generators",
    "eigenbasis",
    "eigenvalue_vra",
    "overlap_same_a",
    "rotation_conjugation_residual",
]


def _two_j(j: Real) -> int:
    two = Fraction(j) * 2
    if two.denominator != 1 or two <= 0:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return int(two)


def q_number(n: int, k: int) -> complex:
    """[n]_q = (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1) for n >= 1, with
    q = exp(2*pi*i/k); by convention [0]_q = 1 (not the n >= 1 formula)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1 + 0j
    q = cmath.exp(2j * pi / k)
    return sum(q ** i for i in range(n)) + 0j


def q_factorial(n: int, k: int) -> complex:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    out = 1 + 0j
    for i in range(1, n + 1):
        out *= q_number(i, k)
    return out


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
    x_plus = np.zeros((k, k), dtype=complex)
    x_minus = np.zeros((k, k), dtype=complex)
    y_plus = np.zeros((k, k), dtype=complex)
    y_minus = np.zeros((k, k), dtype=complex)
    for n in range(k - 1):
        x_plus[n + 1, n] = 1.0
        y_plus[n + 1, n] = q_number(n + 1, k)
    for n in range(1, k):
        x_minus[n - 1, n] = q_number(n, k)
        y_minus[n - 1, n] = 1.0
    number = np.diag(np.arange(k, dtype=float)).astype(complex)
    return QuonRep(k, x_plus, x_minus, number, y_plus, y_minus, number.copy())


def tensor_index(k: int, n1: int, n2: int) -> int:
    """Flat index of |n1, n2) in the k^2-dimensional tensor space."""
    return n1 * k + n2


def build_h(k: int) -> np.ndarray:
    """Diagonal operator with entry sqrt(n1 (n2 + 1)) at |n1, n2)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    diag = [sqrt(n1 * (n2 + 1)) for n1 in range(k) for n2 in range(k)]
    return np.diag(diag).astype(complex)


def _half_q_diag(k: int, weight) -> np.ndarray:
    """diag over |n1,n2) of exp(2*pi*i*weight(n1,n2)/(2k)) given doubled exponents."""
    diag = [cmath.exp(1j * pi * weight(n1, n2) / k)
            for n1 in range(k) for n2 in range(k)]
    return np.diag(diag)


def build_vra_quonic(k: int, r: Real = 0, a: int = 0) -> np.ndarray:
    """Unitary cyclic operator v_ra = s_x s_y on the k^2-dim tensor space.

    s_x = q^{a(N_x+N_y)/2} x_+  +  e^{i phi_r/2} (x_-)^{k-1} / [k-1]_q!
    s_y = y_- q^{-a(N_x-N_y)/2}  +  e^{i phi_r/2} (y_+)^{k-1} / [k-1]_q!

    with phi_r = pi (k-1) r.  Satisfies (v_ra)^k = e^{i pi (k-1)(r+a)} I.
    """
    rep = quon_rep(k)
    a = a % k
    phi = pi * (k - 1) * float(r)
    fact = q_factorial(k - 1, k)
    eye = np.eye(k)
    wrap_x = np.linalg.matrix_power(rep.x_minus, k - 1) / fact
    wrap_y = np.linalg.matrix_power(rep.y_plus, k - 1) / fact
    s_x = (_half_q_diag(k, lambda n1, n2: a * (n1 + n2)) @ np.kron(rep.x_plus, eye)
           + cmath.exp(1j * phi / 2) * np.kron(wrap_x, eye))
    s_y = (np.kron(eye, rep.y_minus) @ _half_q_diag(k, lambda n1, n2: -a * (n1 - n2))
           + cmath.exp(1j * phi / 2) * np.kron(eye, wrap_y))
    return s_x @ s_y


def vra_tensor_power_phase(k: int, r: Real, a: int) -> complex:
    """Scalar of (v_ra)^k = e^{i pi (k-1)(r+a)} I on the full tensor space."""
    return cmath.exp(1j * pi * (k - 1) * (float(r) + (a % k)))


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
    flat = [tensor_index(k, k - 1 - n, n) for n in range(k)]
    keep = np.zeros(k * k, dtype=bool)
    keep[flat] = True
    sub = op[np.ix_(flat, flat)]
    leak = float(np.max(np.abs(op[~keep][:, flat]))) if k * k > k else 0.0
    if leak > 1e-12:
        raise ValueError(f"subspace is not stable: leakage {leak:.3e}")
    return sub


@dataclass(frozen=True)
class Su2Triple:
    """su(2) ladder triple from the polar decomposition j_+ = h v_ra."""

    j_plus: np.ndarray
    j_minus: np.ndarray
    j_z: np.ndarray
    r: Real
    a: int


def su2_generators(j: Real, r: Real = 0, a: int = 0) -> Su2Triple:
    """j_+ = h v, j_- = v^dag h, j_z = (h^2 - v^dag h^2 v)/2 on the spin-j space."""
    two_j = _two_j(j)
    k = two_j + 1
    h = restrict_to_j(build_h(k), j)
    v = restrict_to_j(build_vra_quonic(k, r, a), j)
    h2 = h @ h
    return Su2Triple(h @ v, v.conj().T @ h, (h2 - v.conj().T @ h2 @ v) / 2, r, a % k)


def _q(d: int, e) -> complex:
    """q**e for q = exp(2*pi*i/d): an exact phase for rational e, else cmath."""
    if is_rational(e):
        # e = u/v is the turn u/(dv), evaluated on integers
        e = Fraction(e)
        n = d * e.denominator
        return _phase_complex(e.numerator % n, n)
    return cmath.exp(2j * pi * e / d)


def eigenbasis(j: Real, r: Real = 0, a: int = 0) -> list[np.ndarray]:
    """Common eigenvectors of the Casimir and v_ra, in computational order.

    Vector alpha has m-component q^{(j+m)(j-m+1)a/2 - jmr + (j+m)alpha}
    divided by sqrt(2j+1); component n of the returned arrays corresponds
    to m = j - n.  These are exactly the columns of the quadratic Fourier
    companion matrix H_ra.
    """
    two_j = _two_j(j)
    d = two_j + 1
    a = a % d
    rr = as_fraction(r) if is_rational(r) else float(r)
    out = []
    for alpha in range(d):
        vec = np.zeros(d, dtype=complex)
        for n in range(d):
            # j+m = 2j-n, j-m+1 = n+1, jm = (2j)(2j-2n)/4
            vec[n] = _q(d, Fraction((two_j - n) * (n + 1) * a, 2)
                        - Fraction(two_j * (two_j - 2 * n), 4) * rr
                        + (two_j - n) * alpha)
        out.append(vec / sqrt(d))
    return out


def eigenvalue_vra(j: Real, r: Real, a: int, alpha: int) -> complex:
    """Eigenvalue q^{j(r+a) - alpha} of v_ra on eigenvector alpha."""
    two_j = _two_j(j)
    d = two_j + 1
    rr = as_fraction(r) if is_rational(r) else float(r)
    return _q(d, Fraction(two_j, 2) * (rr + (a % d)) - alpha)


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
    return _q(d, Fraction(two_j, 2) * (beta - alpha)) * ratio / d


def rotation_conjugation_residual(j: Real, r: Real, a: int, p: int) -> float:
    """Residual of P v_ra P^dag = e^{-i phi} v_ra for the rotation by phi = 2 pi p/(2j+1).

    P is the diagonal rotation operator acting as e^{-i m phi} on the spin
    component m (any global phase drops out of the conjugation).
    """
    two_j = _two_j(j)
    d = two_j + 1
    v = restrict_to_j(build_vra_quonic(d, r, a), j)
    # component n corresponds to m = j - n
    diag = np.array([cmath.exp(-2j * pi * p * (two_j - 2 * n) / (2 * d))
                     for n in range(d)])
    rot = np.diag(diag)
    lhs = rot @ v @ rot.conj().T
    rhs = cmath.exp(-2j * pi * p / d) * v
    return float(np.max(np.abs(lhs - rhs)))
