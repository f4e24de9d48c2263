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

``fbar_table`` and ``cg_alpha_table`` give every alpha of one spin triple
from one magnetic tensor (d1*d2 Racah sums), contracted one axis at a
time with each spin's phase table; ``fbar`` and ``cg_alpha`` are the same
contraction against one column of each table.
"""

from __future__ import annotations

from math import exp, lgamma, sqrt
from typing import Iterable

import numpy as np

from .phases import _phase_array, _phase_complex

__all__ = [
    "wigner_3jm",
    "clebsch_gordan",
    "cg_alpha",
    "cg_alpha_table",
    "fbar",
    "fbar_table",
    "basis_change_coeff",
    "fbar_conjugation_factor",
]


def _check_spins(*two_js: int) -> None:
    for two_j in two_js:
        if not isinstance(two_j, int):
            raise TypeError("spins and projections must be doubled integers")
        if two_j < 0:
            raise ValueError("spin must be non-negative")


def _check_pair(two_j: int, two_m: int) -> None:
    if not isinstance(two_m, int):
        raise TypeError("spins and projections must be doubled integers")
    _check_spins(two_j)
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


def _log_factorials(n: int) -> list[float]:
    """log(k!) = lgamma(k + 1) for k = 0..n."""
    return [lgamma(k + 1) for k in range(n + 1)]


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
    lf = _log_factorials((two_j1 + two_j2 + two_j3) // 2 + 1)
    return _racah(two_j1, two_j2, two_j3, two_m1, two_m2, lf)


def _racah(two_j1: int, two_j2: int, two_j3: int, two_m1: int, two_m2: int,
           lf: list[float]) -> float:
    """The Racah single sum of wigner_3jm, with m3 = -(m1 + m2), for
    arguments that pass its selection rules; lf[n] = log(n!) for
    n = 0..j1+j2+j3+1."""
    two_m3 = -(two_m1 + two_m2)
    # everything below is an ordinary integer once the selection rules hold
    jjj = (two_j1 + two_j2 + two_j3) // 2
    a1 = (two_j1 + two_j2 - two_j3) // 2
    a2 = (two_j1 - two_j2 + two_j3) // 2
    a3 = (-two_j1 + two_j2 + two_j3) // 2
    log_delta = lf[a1] + lf[a2] + lf[a3] - lf[jjj + 1]
    log_norm = 0.5 * (log_delta
                      + lf[(two_j1 + two_m1) // 2] + lf[(two_j1 - two_m1) // 2]
                      + lf[(two_j2 + two_m2) // 2] + lf[(two_j2 - two_m2) // 2]
                      + lf[(two_j3 + two_m3) // 2] + lf[(two_j3 - two_m3) // 2])
    b1 = (two_j1 - two_m1) // 2          # j1 - m1
    b2 = (two_j2 + two_m2) // 2          # j2 + m2
    c1 = (two_j3 - two_j2 + two_m1) // 2  # j3 - j2 + m1
    c2 = (two_j3 - two_j1 - two_m2) // 2  # j3 - j1 - m2
    t_min = max(0, -c1, -c2)
    t_max = min(a1, b1, b2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        log_term = (lf[t] + lf[a1 - t] + lf[b1 - t] + lf[b2 - t]
                    + lf[c1 + t] + lf[c2 + t])
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


def _threejm_tensor(two_j1: int, two_j2: int, two_j3: int) -> np.ndarray:
    """Every 3-jm symbol of a triple that obeys the triangle rule, at
    [j1+m1, j2+m2, j3+m3]: d1*d2 Racah sums over one log-factorial table,
    the rest of the (2j1+1, 2j2+1, 2j3+1) array zero."""
    lf = _log_factorials((two_j1 + two_j2 + two_j3) // 2 + 1)
    out = np.zeros((two_j1 + 1, two_j2 + 1, two_j3 + 1))
    for two_m1 in _m_range(two_j1):
        for two_m2 in _m_range(two_j2):
            two_m3 = -(two_m1 + two_m2)
            if abs(two_m3) <= two_j3:
                out[(two_j1 + two_m1) // 2, (two_j2 + two_m2) // 2, (two_j3 + two_m3) // 2] = (
                    _racah(two_j1, two_j2, two_j3, two_m1, two_m2, lf))
    return out


def _cg_tensor(two_j1: int, two_j2: int, two_j3: int) -> np.ndarray:
    """(j1 m1 j2 m2 | j3 m3) at [j1+m1, j2+m2, j3+m3]: the 3-jm tensor with
    m3 -> -m3 (its last axis reversed) times (-1)^(j1-j2+m3) sqrt(2j3+1),
    as in clebsch_gordan."""
    k = (two_j1 - two_j2 + np.arange(-two_j3, two_j3 + 1, 2)) // 2
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return _threejm_tensor(two_j1, two_j2, two_j3)[:, :, ::-1] * (sign * sqrt(two_j3 + 1))


def _phase_table(two_j: int, sign: int, alphas) -> np.ndarray:
    """(q_j)^{sign (j+m) alpha}, q_j = exp(2*pi*i/(2j+1)), at row j+m and one
    column per alpha; exact on quarter turns."""
    d = two_j + 1
    return _phase_array(sign * np.outer(np.arange(d), alphas) % d, d)


_FBAR_SIGNS = (-1, -1, -1)
_CG_SIGNS = (-1, -1, +1)


def _coupling(tensor, two_js, signs, alphas) -> np.ndarray:
    """sum over m of tensor[j1+m1, j2+m2, j3+m3] prod_k (q_k)^{sign_k (j_k+m_k) a_k}
    / sqrt(prod(2j_k+1)) at [a1, a2, a3] for every a_k in alphas[k].

    tensor is _threejm_tensor or _cg_tensor, built once for the triple and
    contracted one axis at a time; zeros outside the triangle rule.
    """
    _check_spins(*two_js)
    if not _triangle_ok(*two_js):
        return np.zeros([len(a) for a in alphas], dtype=complex)
    out = tensor(*two_js)
    for two_j, sign, alpha in zip(two_js, signs, alphas):
        # the contracted axis is always the first; its alpha axis goes last
        out = np.tensordot(out, _phase_table(two_j, sign, alpha), axes=(0, 0))
    return out / sqrt((two_js[0] + 1) * (two_js[1] + 1) * (two_js[2] + 1))


def fbar_table(two_j1: int, two_j2: int, two_j3: int) -> np.ndarray:
    """fbar(j1, j2, j3, a1, a2, a3) at [a1, a2, a3], every a_k = 0..2j_k:
    one 3-jm tensor of d1*d2 Racah sums, Fourier-weighted in all three
    columns at once."""
    two_js = (two_j1, two_j2, two_j3)
    return _coupling(_threejm_tensor, two_js, _FBAR_SIGNS,
                     [range(two_j + 1) for two_j in two_js])


def cg_alpha_table(two_j1: int, two_j2: int, two_j3: int) -> np.ndarray:
    """cg_alpha(j1, j2, a1, a2, j3, a3) at [a1, a2, a3], every a_k = 0..2j_k:
    one Clebsch-Gordan tensor, Fourier-weighted in all three columns at
    once."""
    two_js = (two_j1, two_j2, two_j3)
    return _coupling(_cg_tensor, two_js, _CG_SIGNS,
                     [range(two_j + 1) for two_j in two_js])


def cg_alpha(two_j1: int, two_j2: int, alpha1: int, alpha2: int,
             two_j3: int, alpha3: int) -> complex:
    """Clebsch-Gordan coefficient in the cyclic scheme.

    Triple sum of the magnetic coefficients weighted by
    (q1)^{-(j1+m1)a1} (q2)^{-(j2+m2)a2} (q3)^{+(j3+m3)a3} and normalized
    by sqrt((2j1+1)(2j2+1)(2j3+1)).  Zero outside the triangle rule.
    Each alpha_k must lie in 0..2j_k.  One entry of ``cg_alpha_table``,
    at the cost of one tensor: O(d1*d2) Racah sums.
    """
    _check_alphas((two_j1, alpha1), (two_j2, alpha2), (two_j3, alpha3))
    return complex(_coupling(_cg_tensor, (two_j1, two_j2, two_j3), _CG_SIGNS,
                             ([alpha1], [alpha2], [alpha3]))[0, 0, 0])


def fbar(two_j1: int, two_j2: int, two_j3: int,
         alpha1: int, alpha2: int, alpha3: int) -> complex:
    """The f-bar symbol: a 3-jm symbol Fourier-weighted in all three columns.

    Triple sum of 3-jm values against (q_k)^{-(j_k+m_k) alpha_k} for
    k = 1, 2, 3, normalized by sqrt(prod(2j_k+1)); zero outside the
    triangle rule.  Each alpha_k must lie in 0..2j_k.  One entry of
    ``fbar_table``, at the cost of one tensor: O(d1*d2) Racah sums.
    """
    _check_alphas((two_j1, alpha1), (two_j2, alpha2), (two_j3, alpha3))
    return complex(_coupling(_threejm_tensor, (two_j1, two_j2, two_j3), _FBAR_SIGNS,
                             ([alpha1], [alpha2], [alpha3]))[0, 0, 0])


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
    return _phase_complex((two_j + two_m) // 2 * alpha % (two_j + 1), two_j + 1) / sqrt(two_j + 1)
