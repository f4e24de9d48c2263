"""Coupling coefficients in the cyclic {j^2, shift} quantization scheme.

The usual magnetic basis |j, m> is traded for the shift-operator
eigenbasis |j alpha> via the unitary coefficients
q^{(j+m) alpha}/sqrt(2j+1), q = exp(2*pi*i/(2j+1)).  Ordinary 3-jm
symbols and Clebsch-Gordan coefficients then acquire discrete-Fourier
phase weights, giving the complex-valued f-bar symbol: invariant under
even column permutations, multiplied by (-1)^(j1+j2+j3) under odd ones,
and conjugated by the inverse alpha phases.

Half-integer spins are passed as doubled integers (two_j = 2j) to keep
all index arithmetic exact.
"""

from __future__ import annotations

from math import exp, lgamma, sqrt
from typing import Iterable

from .phases import _phase_complex

__all__ = [
    "wigner_3jm",
    "clebsch_gordan",
    "cg_alpha",
    "fbar",
    "basis_change_coeff",
    "fbar_conjugation_factor",
]


def _check_pair(two_j: int, two_m: int) -> None:
    if not isinstance(two_j, int) or not isinstance(two_m, int):
        raise TypeError("spins and projections must be doubled integers")
    if two_j < 0:
        raise ValueError("spin must be non-negative")
    if abs(two_m) > two_j or (two_j - two_m) % 2 != 0:
        raise ValueError(f"projection 2m={two_m} invalid for 2j={two_j}")


def _check_alphas(*pairs: tuple[int, int]) -> None:
    """Every (two_j, alpha) pair must have alpha in 0..2j."""
    for two_j, alpha in pairs:
        if not 0 <= alpha <= two_j:
            raise ValueError(f"alpha must lie in 0..2j, got {alpha}")


def _triangle_ok(two_j1: int, two_j2: int, two_j3: int) -> bool:
    if (two_j1 + two_j2 + two_j3) % 2 != 0:
        return False
    return (abs(two_j1 - two_j2) <= two_j3 <= two_j1 + two_j2)


def _lfact(n: int) -> float:
    return lgamma(n + 1)


def wigner_3jm(two_j1: int, two_j2: int, two_j3: int,
               two_m1: int, two_m2: int, two_m3: int) -> float:
    """Ordinary 3-jm symbol from the Racah single-sum closed form.

    Log-factorial accumulation in floating point; accurate far beyond
    1e-10 for the desk-scale spins used here.
    """
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_j3, two_m3)):
        _check_pair(tj, tm)
    if two_m1 + two_m2 + two_m3 != 0 or not _triangle_ok(two_j1, two_j2, two_j3):
        return 0.0
    # everything below is an ordinary integer once the selection rules hold
    jjj = (two_j1 + two_j2 + two_j3) // 2
    a1 = (two_j1 + two_j2 - two_j3) // 2
    a2 = (two_j1 - two_j2 + two_j3) // 2
    a3 = (-two_j1 + two_j2 + two_j3) // 2
    log_delta = _lfact(a1) + _lfact(a2) + _lfact(a3) - _lfact(jjj + 1)
    log_norm = 0.5 * (log_delta
                      + _lfact((two_j1 + two_m1) // 2) + _lfact((two_j1 - two_m1) // 2)
                      + _lfact((two_j2 + two_m2) // 2) + _lfact((two_j2 - two_m2) // 2)
                      + _lfact((two_j3 + two_m3) // 2) + _lfact((two_j3 - two_m3) // 2))
    b1 = (two_j1 - two_m1) // 2          # j1 - m1
    b2 = (two_j2 + two_m2) // 2          # j2 + m2
    c1 = (two_j3 - two_j2 + two_m1) // 2  # j3 - j2 + m1
    c2 = (two_j3 - two_j1 - two_m2) // 2  # j3 - j1 - m2
    t_min = max(0, -c1, -c2)
    t_max = min(a1, b1, b2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        log_term = (_lfact(t) + _lfact(a1 - t) + _lfact(b1 - t) + _lfact(b2 - t)
                    + _lfact(c1 + t) + _lfact(c2 + t))
        total += (-1) ** t * exp(log_norm - log_term)
    sign = (-1) ** ((two_j1 - two_j2 - two_m3) // 2)
    return sign * total


def clebsch_gordan(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                   two_j3: int, two_m3: int) -> float:
    """(j1 m1 j2 m2 | j3 m3) from the 3-jm symbol."""
    if two_m1 + two_m2 != two_m3:
        return 0.0
    sign = (-1) ** ((two_j1 - two_j2 + two_m3) // 2)
    return (sign * sqrt(two_j3 + 1)
            * wigner_3jm(two_j1, two_j2, two_j3, two_m1, two_m2, -two_m3))


def _m_range(two_j: int) -> Iterable[int]:
    return range(-two_j, two_j + 1, 2)


def _alpha_phase(two_j: int, two_m: int, alpha: int, sign: int) -> complex:
    """(q_j)^{sign * (j+m) * alpha}, q_j = exp(2*pi*i/(2j+1)), exact on quarter turns."""
    return _phase_complex(sign * ((two_j + two_m) // 2) * alpha % (two_j + 1), two_j + 1)


def cg_alpha(two_j1: int, two_j2: int, alpha1: int, alpha2: int,
             two_j3: int, alpha3: int) -> complex:
    """Clebsch-Gordan coefficient in the cyclic scheme.

    Triple sum of the magnetic coefficients weighted by
    (q1)^{-(j1+m1)a1} (q2)^{-(j2+m2)a2} (q3)^{+(j3+m3)a3} and normalized
    by sqrt((2j1+1)(2j2+1)(2j3+1)).  Zero outside the triangle rule.
    Each alpha_k must lie in 0..2j_k.
    """
    _check_alphas((two_j1, alpha1), (two_j2, alpha2), (two_j3, alpha3))
    if not _triangle_ok(two_j1, two_j2, two_j3):
        return 0j
    norm = 1.0 / sqrt((two_j1 + 1) * (two_j2 + 1) * (two_j3 + 1))
    total = 0j
    for two_m1 in _m_range(two_j1):
        for two_m2 in _m_range(two_j2):
            two_m3 = two_m1 + two_m2
            if abs(two_m3) > two_j3:
                continue
            cg = clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j3, two_m3)
            if cg == 0.0:
                continue
            total += (cg
                      * _alpha_phase(two_j1, two_m1, alpha1, -1)
                      * _alpha_phase(two_j2, two_m2, alpha2, -1)
                      * _alpha_phase(two_j3, two_m3, alpha3, +1))
    return norm * total


def fbar(two_j1: int, two_j2: int, two_j3: int,
         alpha1: int, alpha2: int, alpha3: int) -> complex:
    """The f-bar symbol: a 3-jm symbol Fourier-weighted in all three columns.

    Triple sum of 3-jm values against (q_k)^{-(j_k+m_k) alpha_k} for
    k = 1, 2, 3, normalized by sqrt(prod(2j_k+1)); zero outside the
    triangle rule.  Each alpha_k must lie in 0..2j_k.
    """
    _check_alphas((two_j1, alpha1), (two_j2, alpha2), (two_j3, alpha3))
    if not _triangle_ok(two_j1, two_j2, two_j3):
        return 0j
    norm = 1.0 / sqrt((two_j1 + 1) * (two_j2 + 1) * (two_j3 + 1))
    total = 0j
    for two_m1 in _m_range(two_j1):
        for two_m2 in _m_range(two_j2):
            two_m3 = -(two_m1 + two_m2)
            if abs(two_m3) > two_j3:
                continue
            w = wigner_3jm(two_j1, two_j2, two_j3, two_m1, two_m2, two_m3)
            if w == 0.0:
                continue
            total += (w
                      * _alpha_phase(two_j1, two_m1, alpha1, -1)
                      * _alpha_phase(two_j2, two_m2, alpha2, -1)
                      * _alpha_phase(two_j3, two_m3, alpha3, -1))
    return norm * total


def fbar_conjugation_factor(two_j1: int, two_j2: int, two_j3: int,
                            alpha1: int, alpha2: int, alpha3: int) -> complex:
    """Factor relating conj(fbar) to fbar:

    conj(fbar) = (-1)^(j1+j2+j3) (q1)^(-a1) (q2)^(-a2) (q3)^(-a3) fbar.

    The alpha phases enter inverted (substituting m -> -m flips each
    (j+m) alpha weight by the full-period phase (q_k)^{2 j_k alpha_k},
    which equals (q_k)^{-alpha_k}).  Each alpha_k must lie in 0..2j_k.
    """
    _check_alphas((two_j1, alpha1), (two_j2, alpha2), (two_j3, alpha3))
    sign = (-1) ** ((two_j1 + two_j2 + two_j3) // 2)
    return (sign
            * _phase_complex(-alpha1 % (two_j1 + 1), two_j1 + 1)
            * _phase_complex(-alpha2 % (two_j2 + 1), two_j2 + 1)
            * _phase_complex(-alpha3 % (two_j3 + 1), two_j3 + 1))


def basis_change_coeff(two_j: int, two_m: int, alpha: int) -> complex:
    """<j, m | j alpha> = q^{(j+m) alpha} / sqrt(2j+1)."""
    _check_pair(two_j, two_m)
    _check_alphas((two_j, alpha))
    return _alpha_phase(two_j, two_m, alpha, +1) / sqrt(two_j + 1)
