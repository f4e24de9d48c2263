"""Mutually unbiased bases from quadratic Fourier matrices.

In prime dimension p the columns of H_ra for a = 0..p-1, together with
the computational basis, form a complete set of p+1 mutually unbiased
bases; the cross-basis inner products reduce to quadratic Gauss sums of
modulus sqrt(p).  For d = 4 the complete set of five comes instead from
tensor products of the d = 2 bases, two of them re-mixed by the fixed
coefficients (1 -+ i)/2.  The same Fourier family also induces the
partition of the nonidentity generalized Pauli matrices into d + 1
commuting classes, one per basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import Union

import numpy as np

from .phases import PhaseMatrix, _primes, pairwise_products
from .qdft import fra_matrix, gauss_sum, hra_matrix, is_generalized_hadamard
from .weyl import _gram_residual, u_ab

Real = Union[int, Fraction, float]

__all__ = [
    "Basis",
    "MubSet",
    "CommutingClass",
    "PartitionReport",
    "is_prime",
    "mub_prime",
    "mub_three",
    "unbiasedness",
    "orthonormality",
    "max_pairwise_deviation",
    "gauss_inner_product",
    "product_hadamard",
    "mub_dim4",
    "entanglement_det",
    "commuting_classes",
    "sl_partition_check",
]


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis: the columns of the matrix it was built from.

    ``matrix`` keeps that matrix as built (a PhaseMatrix when exact, else
    an ndarray); ``vectors`` is its dense complex view.
    """

    dim: int
    matrix: Union[PhaseMatrix, np.ndarray]
    label: str

    @cached_property
    def vectors(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)

    def column(self, i: int) -> np.ndarray:
        return self.vectors[:, i]


@dataclass(frozen=True)
class MubSet:
    dim: int
    bases: list[Basis]
    declared_complete: bool = False

    def __post_init__(self):
        if self.declared_complete and len(self.bases) != self.dim + 1:
            raise ValueError("a complete set must hold dim + 1 bases")


def is_prime(n: int) -> bool:
    """Trial division; fine at desk scale."""
    return n >= 2 and _primes(n) == [n]


def _computational_basis(d: int) -> Basis:
    return Basis(d, PhaseMatrix.identity(d), "computational")


def _fourier_basis(d: int, r: Real, a: int) -> Basis:
    return Basis(d, hra_matrix(d, r, a), f"r={r},a={a}")


def mub_prime(p: int, r: Real = 0) -> MubSet:
    """Complete set of p + 1 mutually unbiased bases in prime dimension p."""
    if not is_prime(p):
        raise ValueError(
            f"d = {p} is not prime: the Fourier family only guarantees a "
            f"complete set of d+1 mutually unbiased bases in prime dimension; "
            f"for composite d use mub_three, which returns the guaranteed "
            f"triple of unbiased bases")
    bases = [_fourier_basis(p, r, a) for a in range(p)]
    bases.append(_computational_basis(p))
    return MubSet(p, bases, declared_complete=True)


def mub_three(d: int, r: Real = 0, a: int = 0) -> MubSet:
    """The guaranteed triple for arbitrary d: two adjacent Fourier bases
    (parameters a and a+1) plus the computational basis."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    bases = [_fourier_basis(d, r, a % d), _fourier_basis(d, r, (a + 1) % d),
             _computational_basis(d)]
    return MubSet(d, bases, declared_complete=False)


def unbiasedness(b1: Basis, b2: Basis) -> float:
    """Max over all vector pairs of | |<u|v>| - 1/sqrt(d) |."""
    if b1.dim != b2.dim:
        raise ValueError("bases must share a dimension")
    gram = np.abs(b1.vectors.conj().T @ b2.vectors)
    return float(np.max(np.abs(gram - 1.0 / sqrt(b1.dim))))


def orthonormality(b: Basis) -> float:
    """Max deviation of the Gram matrix from the identity."""
    return float(np.max(np.abs(b.vectors.conj().T @ b.vectors - np.eye(b.dim))))


def max_pairwise_deviation(mubs: MubSet) -> float:
    """Worst unbiasedness deviation over all distinct basis pairs."""
    worst = 0.0
    for i, b1 in enumerate(mubs.bases):
        for b2 in mubs.bases[i + 1:]:
            worst = max(worst, unbiasedness(b1, b2))
    return worst


def gauss_inner_product(p: int, r: Real, a: int, alpha: int, b: int, beta: int) -> complex:
    """Inner product of Fourier basis vectors via a quadratic Gauss sum.

    <a alpha; r | b beta; r> = S(a-b, -(a-b)p - 2(alpha-beta), p) / p; the
    r-dependence cancels.  Requires a != b mod p; for p prime the modulus
    is 1/sqrt(p).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if (a - b) % p == 0:
        raise ValueError("the Gauss-sum route needs distinct basis labels a != b")
    return gauss_sum(a - b, -(a - b) * p - 2 * (alpha - beta), p) / p


def product_hadamard(p: int, r: Real, a: int, b: int):
    """Return (F_ra^dag F_rb, Hadamard verdict).

    For p prime and a != b the verdict is always true; for composite p it
    depends on b - a (stride 2 at p = 6 is the classic counterexample).
    """
    if (a - b) % p == 0:
        raise ValueError("labels a and b must differ")
    fa = np.asarray(fra_matrix(p, r, a), dtype=complex)
    fb = np.asarray(fra_matrix(p, r, b), dtype=complex)
    prod = fa.conj().T @ fb
    return prod, is_generalized_hadamard(prod)


# -- the d = 4 tensor construction -----------------------------------------

_LAMBDA = complex(0.5, -0.5)  # (1 - i)/2
_MU = complex(0.5, 0.5)       # (1 + i)/2


def _qubit_columns(a: int) -> list[np.ndarray]:
    """Exact columns of the d=2 Fourier basis with parameter a (r = 0)."""
    h = hra_matrix(2, 0, a)
    # entries are quarter-turn phases, so to_complex() is exact up to the
    # common 1/sqrt(2); keep the phases and the scale separate
    cols = []
    for alpha in range(2):
        cols.append(np.array([h.entry(0, alpha).to_complex(),
                              h.entry(1, alpha).to_complex()]))
    return cols


def mub_dim4() -> MubSet:
    """The five mutually unbiased bases of dimension 4 = 2 x 2.

    The canonical basis plus W_00, W_11, W_01, W_10: the first two are
    plain tensor products |a alpha> x |a beta| of the d = 2 Fourier bases,
    the last two re-mix the a != b products in pairs with the coefficients
    lambda = (1-i)/2 and mu = (1+i)/2.  All arithmetic is exact (dyadic
    Gaussian rationals), so entries come out bit-exact.
    """
    cols = {a: _qubit_columns(a) for a in (0, 1)}

    def product(a: int, b: int, alpha: int, beta: int) -> np.ndarray:
        # phases tensored exactly; the two 1/sqrt(2) amplitudes give 1/2
        return 0.5 * np.kron(cols[a][alpha], cols[b][beta])

    def plain(a: int) -> np.ndarray:
        vecs = [product(a, a, alpha, beta)
                for alpha, beta in ((0, 0), (0, 1), (1, 0), (1, 1))]
        return np.column_stack(vecs)

    def remixed(a: int) -> np.ndarray:
        b = (a + 1) % 2
        vecs = []
        for alpha, beta in ((0, 0), (1, 1), (0, 1), (1, 0)):
            vecs.append(_LAMBDA * product(a, b, alpha, beta)
                        + _MU * product(a, b, alpha ^ 1, beta ^ 1))
        return np.column_stack(vecs)

    bases = [
        Basis(4, np.eye(4, dtype=complex), "computational"),
        Basis(4, plain(0), "W00"),
        Basis(4, plain(1), "W11"),
        Basis(4, remixed(0), "W01"),
        Basis(4, remixed(1), "W10"),
    ]
    return MubSet(4, bases, declared_complete=True)


def entanglement_det(state: np.ndarray, d: int) -> Union[float, np.ndarray]:
    """|det A| of the reshaped bipartite amplitude matrix.

    The state lives on a d x d tensor product with the first factor as the
    row index; 0 means a product state and d^(-d/2) maximal entanglement.
    A stack of states (last axis of length d*d) gives an array of |det A|,
    one per state; a single state gives a float.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 0 or state.shape[-1] != d * d:
        raise ValueError(f"state must have length {d * d}")
    dets = np.abs(np.linalg.det(state.reshape(*state.shape[:-1], d, d)))
    return float(dets) if state.ndim == 1 else dets


# -- commuting classes and the sl(p) partition ------------------------------

@dataclass(frozen=True)
class CommutingClass:
    label: int
    members: list[tuple[int, int]]


def commuting_classes(p: int) -> list[CommutingClass]:
    """Partition of the p^2 - 1 nonidentity Pauli labels into p + 1 classes.

    Class 0 holds the clock powers (0, b); class 1 the shift powers (a, 0);
    class k+1 holds {(a, k a mod p)} for k = 1..p-1.  Members of one class
    commute exactly, and class a+1 contains the label (1, a) of V_0a, whose
    eigenbasis is the matching mutually unbiased basis.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    classes = [CommutingClass(0, [(0, a) for a in range(1, p)]),
               CommutingClass(1, [(a, 0) for a in range(1, p)])]
    for k in range(1, p):
        classes.append(CommutingClass(k + 1, [(a, (k * a) % p) for a in range(1, p)]))
    return classes


def _commute_pairwise(mats: list[PhaseMatrix]) -> bool:
    """a @ b == b @ a for every pair of a monomial family, from one batch."""
    _, cols, exps = pairwise_products(mats)
    return bool(np.array_equal(cols, cols.swapaxes(0, 1))
                and np.array_equal(exps, exps.swapaxes(0, 1)))


@dataclass(frozen=True)
class PartitionReport:
    p: int
    disjoint: bool
    union_complete: bool
    all_abelian: bool
    gram_residual: float

    @property
    def ok(self) -> bool:
        return (self.disjoint and self.union_complete and self.all_abelian
                and self.gram_residual == 0.0)

    def __bool__(self) -> bool:
        return self.ok


def sl_partition_check(p: int) -> PartitionReport:
    """Verify the decomposition of sl(p) into p + 1 abelian pieces.

    Checks that the classes are disjoint, cover every nonidentity label,
    commute internally (exact phase arithmetic) and that the trace Gram
    matrix of all p^2 matrices is p * I (linear independence).
    """
    classes = commuting_classes(p)
    seen: set[tuple[int, int]] = set()
    total = 0
    disjoint = True
    for cls in classes:
        for idx in cls.members:
            if idx in seen:
                disjoint = False
            seen.add(idx)
            total += 1
    union_complete = (total == p * p - 1
                      and seen == {(a, b) for a in range(p) for b in range(p)} - {(0, 0)})
    # each u_ab is built once and serves both the class test and the Gram
    paulis = {(a, b): u_ab(p, (a, b)) for a in range(p) for b in range(p)}
    all_abelian = all(_commute_pairwise([paulis[idx] for idx in cls.members])
                      for cls in classes)
    return PartitionReport(p, disjoint, union_complete, all_abelian,
                           _gram_residual(p, list(paulis.values())))
