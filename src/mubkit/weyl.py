"""Weyl pairs, generalized Pauli operators and the finite sine algebra.

Everything here is a generalized permutation matrix over roots of unity,
so all identities (q-commutation, trace orthogonality, the group
composition law, the sine-algebra product rule) are checked in exact
phase arithmetic.  The shift matrix X and clock matrix Z satisfy

    X Z = q Z X,    X^d = Z^d = I,    q = exp(2*pi*i/d),

and V_ra = P_r X Z^a is the one-parameter deformation whose eigenvector
matrix is the quadratic Fourier companion H_ra:

    V_ra H_ra = H_ra Lambda_ra,    Lambda_ra = diag(q^{(d-1)(r+a)/2 - alpha}),

which :mod:`mubkit.verify` checks exactly as ``qdft.hra_diagonalizes_vra``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Union

import numpy as np

from .phases import (ExactPhase, PhaseMatrix, _reduced, as_fraction, exponent_dtype, q_power,
                     trace_gram)
from .qdft import fra_matrix

Rational = Union[int, Fraction]
_ARRAY = np.ndarray  # a stack's label type, tested by identity on the scalar path

__all__ = [
    "PauliGroupElement",
    "x_matrix",
    "z_matrix",
    "pr_matrix",
    "vra_matrix",
    "vra_band_matrix",
    "vra_power_phase",
    "u_ab",
    "vra_q_commutation_checks",
    "weyl_relation_check",
    "pauli_trace_orthogonality",
    "pauli_compose",
    "pauli_element_matrix",
    "t_matrix",
    "sine_product_check",
    "sine_commutator_check",
]


class PauliGroupElement(NamedTuple):
    """q^a X^b Z^c with all three exponents reduced mod d."""

    a: int
    b: int
    c: int


def _check_dim(d: int) -> None:
    """ValueError unless d >= 1: below that no Weyl matrix exists."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")


def _shift_clock(d: int, shift, clock, phase=0, den: int = 1):
    """q^(phase/den) X^shift Z^clock as a monomial: row n has its entry in
    column m = n + shift mod d, with exponent phase + den*clock*m over den.

    den*clock*d is a multiple of the modulus den*d, so clock enters mod d
    and labels of any size go in as Python integers; only d is checked.
    Int labels give one PhaseMatrix; 1-d integer arrays (object where a
    label map's products could pass int64), ints broadcast among them,
    give the stack (den*d, cols, exps), one row per label as in _stack."""
    _check_dim(d)
    n = den * d
    if type(shift) is _ARRAY or type(clock) is _ARRAY or type(phase) is _ARRAY:
        cols = np.arange(d) + _reduced(shift, d)[..., None]
        cols -= d * (cols >= d)
        # den (clock m mod d) is den clock m mod n, and below n
        e = _reduced(phase, n)[..., None]
        exps = e + den * (_reduced(clock, d)[..., None] * cols % d).astype(e.dtype)
        exps -= (exps >= n) * np.asarray(n, dtype=exps.dtype)
        return n, np.broadcast_to(cols, exps.shape), exps
    s, step = shift % d, den * (clock % d)
    cols = (*range(s, d), *range(s))
    return PhaseMatrix._from_monomial(False, n, cols, tuple((phase + step * m) % n for m in cols))


# label maps: a builder is _shift_clock of its labels (shift, clock, phase,
# den), evaluated on ints for one matrix or on integer arrays for a stack;
# a map whose int64 arithmetic on arrays could pass 2**63 computes in
# Python ints (_wide) instead, as the scalar path does

_INT64_LIMIT = 2 ** 63


def _largest(x) -> int:
    """max |x| over an int or an integer array, 0 for an empty array."""
    if type(x) is not _ARRAY:
        return abs(x)
    return max(abs(int(x.min())), abs(int(x.max()))) if x.size else 0


def _wide(*labels) -> tuple:
    """labels, each array among them as an object array of Python ints."""
    return tuple(x.astype(object) if type(x) is _ARRAY else x for x in labels)


def _pauli_labels(a, b, c):
    """P(a, b, c) = q^a X^b Z^c."""
    return b, c, a, 1


def _t_labels(n1, n2):
    """T_(n1,n2) = q^{n1 n2/2} Z^{n1} X^{n2} = q^{-n1 n2/2} X^{n2} Z^{n1}."""
    if _ARRAY in (type(n1), type(n2)) and _largest(n1) * _largest(n2) >= _INT64_LIMIT:
        n1, n2 = _wide(n1, n2)
    return n2, n1, -n1 * n2, 2


def _phase_labels(t, den: int):
    """q^(t/den) I."""
    return 0, 0, t, den


def x_matrix(d: int) -> PhaseMatrix:
    """Cyclic shift: X|n> = |n-1 mod d>, ones on the superdiagonal and corner."""
    return _shift_clock(d, 1, 0)


def z_matrix(d: int) -> PhaseMatrix:
    """Clock matrix diag(1, q, ..., q^(d-1))."""
    return _shift_clock(d, 0, 1)


def pr_matrix(d: int, r: Rational) -> PhaseMatrix:
    """diag(1, ..., 1, exp(i*pi*(d-1)*r)); r must be rational for exactness."""
    _check_dim(d)
    r = as_fraction(r)
    n = 2 * r.denominator * d
    # the corner e^{i*pi*(d-1)r} is q^{d(d-1)r/2}
    return PhaseMatrix._from_monomial(False, n, tuple(range(d)),
                                      (0,) * (d - 1) + (d * (d - 1) * r.numerator % n,))


def vra_band_matrix(d: int, r: Rational = 0, a=0):
    """V_ra from its explicit band form: (V)_{n-1,n} = q^{na}, corner e^{i*pi*(d-1)r};
    for a 1-d integer array a, the stack (N, cols, exps) of the family."""
    _check_dim(d)
    r = as_fraction(r)
    den = 2 * r.denominator
    # row n-1 holds q^{na} in column n; the corner e^{i*pi*(d-1)r} is
    # q^{d(d-1)r/2}, which is what the last row's exponent over den says
    band = den * _reduced(np.arange(1, d) * _reduced(a, d)[..., None] % d, den * d)
    corner = np.full(band.shape[:-1] + (1,), d * (d - 1) * r.numerator % (den * d), band.dtype)
    exps = np.concatenate([band, corner], axis=-1)
    cols = np.broadcast_to((*range(1, d), 0), exps.shape)
    if isinstance(a, np.ndarray):
        return den * d, cols, exps
    return PhaseMatrix._from_monomial(False, den * d, tuple(cols.tolist()), tuple(exps.tolist()))


def vra_matrix(d: int, r: Rational = 0, a=0):
    """V_ra = P_r X Z^a, X Z^a in closed form, equal to the band matrix;
    for a 1-d integer array a, the stack (N, cols, exps) of the family."""
    pr, xz = pr_matrix(d, r), _shift_clock(d, 1, a)
    if isinstance(xz, PhaseMatrix):
        return pr @ xz
    # P_r is diagonal: its phase at row n joins row n of each X Z^a
    (n, cols, exps), m = xz, lcm(pr.modulus, d)
    diagonal = np.array(pr.monomial_view[1], dtype=exponent_dtype(m)) * (m // pr.modulus)
    return m, cols, (exps.astype(diagonal.dtype) * (m // n) + diagonal) % m


def vra_power_phase(d: int, r: Rational, a: int) -> ExactPhase:
    """Global phase of (V_ra)^d, namely exp(i*pi*(d-1)(r+a))."""
    return q_power(2, (as_fraction(r) + a) * (d - 1))


def u_ab(d: int, idx: tuple[int, int]) -> PhaseMatrix:
    """Generalized Pauli matrix X^a Z^b, exact."""
    a, b = idx
    return _shift_clock(d, a, b)


def vra_q_commutation_checks(d: int, r: Rational, a: int) -> tuple[bool, bool]:
    """Exact q-commutation relations of the V family.

    First:  V_ra Z = q Z V_ra, valid for every r.
    Second: V_ra V_r0 = q^{-a} V_r0 V_ra, valid for every r; at r = 0 (and
    more generally whenever (d-1)r is even, so the corner phase is +1) the
    second relation is the familiar V_ra X = q^{-a} X V_ra, since X = V_00.
    For other r the bare-X form fails on the wrap-around column, which is
    why the deformed shift V_r0 replaces X here.
    """
    z = z_matrix(d)
    v = vra_matrix(d, r, a)
    v0 = vra_matrix(d, r, 0)
    first = (v @ z) == (z @ v).scaled_by(q_power(d, 1))
    second = (v @ v0) == (v0 @ v).scaled_by(q_power(d, -a))
    return first, second


def weyl_relation_check(d: int, m: int, n: int) -> bool:
    """X^m Z^n = q^{mn} Z^n X^m exactly, X^d = Z^d = I exactly, and
    F^dag X F = Z within 1e-10."""
    x = x_matrix(d)
    z = z_matrix(d)
    xm, zn = x ** m, z ** n
    if xm @ zn != (zn @ xm).scaled_by(q_power(d, m * n)):
        return False
    ident = PhaseMatrix.identity(d)
    if x ** d != ident or z ** d != ident:
        return False
    f = fra_matrix(d).to_complex()
    return bool(np.max(np.abs(f.conj().T @ x.to_complex() @ f
                              - z.to_complex())) < 1e-10)


def pauli_trace_orthogonality(d: int) -> float:
    """Max deviation of tr(u_ab^dag u_a'b') from d*delta_{aa'}delta_{bb'}.

    Traces are taken on the exact product diagonals, so the return value
    is 0.0 whenever every pairing cancels or matches exactly.
    """
    _check_dim(d)
    return _gram_residual(d, [u_ab(d, (a, b)) for a in range(d) for b in range(d)])


def _gram_residual(d: int, paulis: list[PhaseMatrix]) -> float:
    """Max deviation of the trace Gram of the d^2 matrices u_ab from d * I."""
    worst = 0.0
    for i, j, tr in trace_gram(paulis):
        worst = max(worst, float(np.max(np.abs(tr - d * (i == j)))))
    return worst


def pauli_compose(d: int, g: PauliGroupElement | tuple[int, int, int],
                  g2: PauliGroupElement | tuple[int, int, int]) -> PauliGroupElement:
    """Composition law of the order-d^3 Pauli group:
    (a, b, c)(a', b', c') = (a + a' - c b', b + b', c + c') mod d."""
    a, b, c = g
    a2, b2, c2 = g2
    return PauliGroupElement((a + a2 - c * b2) % d, (b + b2) % d, (c + c2) % d)


def pauli_element_matrix(d: int, g: PauliGroupElement | tuple[int, int, int]) -> PhaseMatrix:
    """Matrix q^a X^b Z^c of a Pauli group element."""
    return _shift_clock(d, *_pauli_labels(*g))


def t_matrix(d: int, s: tuple[int, int]) -> PhaseMatrix:
    """Sine-algebra generator T_(n1,n2) = q^{n1 n2/2} Z^{n1} X^{n2}.

    Z^{n1} X^{n2} = q^{-n1 n2} X^{n2} Z^{n1}, so T is q^{-n1 n2/2} X^{n2} Z^{n1}.
    """
    return _shift_clock(d, *_t_labels(*s))


def sine_product_check(d: int, m: tuple[int, int], n: tuple[int, int]) -> bool:
    """T_m T_n = q^{-(m x n)/2} T_{m+n} exactly, with m x n = m1 n2 - m2 n1."""
    m1, m2 = m
    n1, n2 = n
    lhs = t_matrix(d, m) @ t_matrix(d, n)
    cross = m1 * n2 - m2 * n1
    rhs = t_matrix(d, (m1 + n1, m2 + n2)).scaled_by(q_power(d, Fraction(-cross, 2)))
    return lhs == rhs


def sine_commutator_check(d: int, m: tuple[int, int], n: tuple[int, int]) -> float:
    """Residual of [T_m, T_n] = -2i sin(pi (m x n)/d) T_{m+n}."""
    m1, m2 = m
    n1, n2 = n
    tm = t_matrix(d, m).to_complex()
    tn = t_matrix(d, n).to_complex()
    cross = m1 * n2 - m2 * n1
    coeff = -2j * np.sin(np.pi * cross / d)
    rhs = coeff * t_matrix(d, (m1 + n1, m2 + n2)).to_complex()
    return float(np.max(np.abs(tm @ tn - tn @ tm - rhs)))

