from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from mubkit.mub import (Basis, is_prime, mub_prime, mub_three,
                        unbiasedness, orthonormality, max_pairwise_deviation,
                        gauss_inner_product, product_hadamard, mub_dim4,
                        entanglement_det, commuting_classes, sl_partition_check,
                        _commute_pairwise)
from mubkit.qdft import hra_matrix
from mubkit.weyl import u_ab


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    sieve = [False, False] + [True] * 1998
    for f in range(2, 45):
        sieve[f * f::f] = [False] * len(sieve[f * f::f])
    assert [is_prime(n) for n in range(2000)] == sieve


def test_mub_prime_rejects_composite_with_pointer_to_triple():
    with pytest.raises(ValueError, match="mub_three"):
        mub_prime(6)


def test_p2_golden_vectors_including_global_phases():
    ms = mub_prime(2, 0)
    s = 1 / sqrt(2)
    want = [
        np.array([[s, -s], [s, s]]),             # B_00: (|0>+|1>)/sqrt2, -(|0>-|1>)/sqrt2
        np.array([[1j * s, -1j * s], [s, s]]),   # B_01: i(|0>-i|1>)/sqrt2, -i(|0>+i|1>)/sqrt2
        np.eye(2, dtype=complex),
    ]
    for basis, w in zip(ms.bases, want):
        assert np.max(np.abs(basis.vectors - w)) < 1e-15


def test_p3_golden_vectors_including_global_phases():
    q = np.exp(2j * np.pi / 3)
    s = 1 / sqrt(3)
    ms = mub_prime(3, 0)
    want = {
        0: np.column_stack([[1, 1, 1], [q * q, q, 1], [q, q * q, 1]]) * s,
        1: np.column_stack([[q, q, 1], [1, q * q, 1], [q * q, 1, 1]]) * s,
        2: np.column_stack([[q * q, q * q, 1], [q, 1, 1], [1, q, 1]]) * s,
    }
    for a, w in want.items():
        assert np.max(np.abs(ms.bases[a].vectors - w)) < 1e-14
    assert np.array_equal(ms.bases[3].vectors, np.eye(3))


def test_p3_exact_turns_of_fourier_columns():
    # the same golden content at the exact-phase level: H_0a exponent
    # (a + 2*alpha, a + alpha, 0) down each column, as turns over 3
    for a in range(3):
        h = hra_matrix(3, 0, a)
        for alpha in range(3):
            assert h.entry(0, alpha).turns == Fraction((a + 2 * alpha) % 3, 3)
            assert h.entry(1, alpha).turns == Fraction((a + alpha) % 3, 3)
            assert h.entry(2, alpha).turns == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_sets_all_pairs_unbiased(p):
    ms = mub_prime(p, 0)
    assert len(ms.bases) == p + 1
    assert ms.declared_complete
    assert max_pairwise_deviation(ms) < 1e-10
    for b in ms.bases:
        assert orthonormality(b) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("r", [0, 1, Fraction(1, 2)])
def test_prime_sets_sweep(p, r):
    ms = mub_prime(p, r)
    assert max_pairwise_deviation(ms) < 1e-10


def test_fourier_basis_unbiased_to_computational_any_d():
    for d, r, a in ((6, Fraction(1, 3), 4), (9, 1, 5), (10, 0, 7)):
        ms = mub_three(d, r, a)
        fourier, _, computational = ms.bases
        assert unbiasedness(fourier, computational) < 1e-12


def test_basis_never_unbiased_with_itself():
    ms = mub_prime(5, 0)
    b = ms.bases[0]
    assert unbiasedness(b, b) == pytest.approx(1 - 1 / sqrt(5))


def test_unbiasedness_dimension_mismatch():
    with pytest.raises(ValueError):
        unbiasedness(mub_prime(2).bases[0], mub_prime(3).bases[0])


def test_d6_adjacent_pair_is_unbiased_but_stride_two_fails():
    # composite-d structure at d = 6: the a, a+1 Fourier pair stays unbiased
    # (hence the three-basis guarantee below) while a, a+2 breaks down hard
    h = {a: Basis(6, hra_matrix(6, 0, a).to_complex(), f"a={a}") for a in range(3)}
    assert unbiasedness(h[0], h[1]) < 1e-12
    assert unbiasedness(h[0], h[2]) > 1e-3


@pytest.mark.parametrize("d", [6, 10])
def test_composite_three_mub_guarantee(d):
    for a in (0, 1, d - 1):
        ms = mub_three(d, 0, a)
        assert len(ms.bases) == 3
        assert max_pairwise_deviation(ms) < 1e-10


def test_gauss_inner_product_modulus_p3():
    got = gauss_inner_product(3, 0, 0, 0, 1, 0)
    assert abs(abs(got) - 1 / sqrt(3)) < 1e-12


def test_gauss_route_needs_distinct_labels():
    with pytest.raises(ValueError):
        gauss_inner_product(5, 0, 2, 1, 2, 3)
    # the direct route covers the diagonal case
    ms = mub_prime(5, 0)
    v = ms.bases[2].column(1)
    assert abs(np.vdot(v, v) - 1) < 1e-13


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gauss_two_route_agreement(p):
    rng = np.random.default_rng(p)
    ms = mub_prime(p, Fraction(1, 2))
    for _ in range(60):
        a, b = rng.choice(p, size=2, replace=False)
        alpha, beta = rng.integers(0, p, size=2)
        direct = complex(np.vdot(ms.bases[a].column(alpha),
                                 ms.bases[b].column(beta)))
        closed = gauss_inner_product(p, Fraction(1, 2), int(a), int(alpha),
                                     int(b), int(beta))
        assert abs(direct - closed) < 1e-10


def test_product_hadamard_prime_cases():
    _, verdict = product_hadamard(3, 0, 0, 1)
    assert verdict.is_hadamard
    prod, verdict = product_hadamard(2, 0, 0, 1)
    assert verdict.is_hadamard
    assert prod.shape == (2, 2)


def test_product_hadamard_composite_counterexample():
    # d = 6: adjacent labels still give a Hadamard, stride two does not
    _, adjacent = product_hadamard(6, 0, 0, 1)
    assert adjacent.is_hadamard
    _, stride2 = product_hadamard(6, 0, 0, 2)
    assert not stride2.is_hadamard


def test_product_hadamard_rejects_equal_labels():
    with pytest.raises(ValueError):
        product_hadamard(5, 0, 2, 2)


# -- the d = 4 set ----------------------------------------------------------

W00 = 0.5 * np.column_stack([
    [1, 1, 1, 1], [-1, 1, -1, 1], [-1, -1, 1, 1], [1, -1, -1, 1]])
W11 = 0.5 * np.column_stack([
    [-1, 1j, 1j, 1], [1, 1j, -1j, 1], [1, -1j, 1j, 1], [-1, -1j, -1j, 1]])
W01 = 0.5j * np.column_stack([
    [1, -1, -1j, -1j], [1, 1, 1j, -1j], [-1, -1, 1j, -1j], [-1, 1, -1j, -1j]])
W10 = 0.5j * np.column_stack([
    [1, -1j, -1, -1j], [1, 1j, 1, -1j], [-1, -1j, 1, -1j], [-1, 1j, -1, -1j]])


def test_dim4_golden_vectors_bit_exact():
    ms = mub_dim4()
    assert [b.label for b in ms.bases] == ["computational", "W00", "W11", "W01", "W10"]
    assert np.array_equal(ms.bases[0].vectors, np.eye(4, dtype=complex))
    for basis, want in zip(ms.bases[1:], (W00, W11, W01, W10)):
        assert np.array_equal(basis.vectors, want)


def test_dim4_first_vectors_match_printed_form():
    ms = mub_dim4()
    assert np.array_equal(ms.bases[1].column(0), 0.5 * np.array([1, 1, 1, 1]))
    assert np.array_equal(ms.bases[3].column(0),
                          0.5j * np.array([1, -1, -1j, -1j]))


def test_dim4_pairwise_unbiasedness():
    ms = mub_dim4()
    assert ms.declared_complete
    assert max_pairwise_deviation(ms) < 1e-12
    for b in ms.bases:
        assert orthonormality(b) < 1e-12


def test_dim4_entanglement_split():
    ms = mub_dim4()
    for label, want in (("W00", 0.0), ("W11", 0.0), ("W01", 0.5), ("W10", 0.5)):
        basis = next(b for b in ms.bases if b.label == label)
        for i in range(4):
            assert entanglement_det(basis.column(i), 2) == pytest.approx(want, abs=1e-12)


def test_entanglement_det_bell_state():
    bell = np.array([1, 0, 0, 1]) / sqrt(2)
    assert entanglement_det(bell, 2) == pytest.approx(0.5, abs=1e-14)


def test_entanglement_det_length_check():
    for state in (np.ones(5), np.ones((3, 5)), 1.0):
        with pytest.raises(ValueError):
            entanglement_det(state, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_entanglement_det_bound_random_states(d):
    rng = np.random.default_rng(d)
    states, dets = [], []
    for _ in range(1000):
        v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        v /= np.linalg.norm(v)
        states.append(v)
        dets.append(entanglement_det(v, d))
        assert dets[-1] <= d ** (-d / 2) + 1e-12
    # a stack of states gives the same value for each, as an array
    stacked = entanglement_det(np.array(states).reshape(10, 100, d * d), d)
    assert type(dets[0]) is float and stacked.shape == (10, 100)
    assert stacked.ravel().tolist() == dets


# -- commuting classes and the sl(p) partition -------------------------------

def test_commuting_classes_p5_golden():
    got = [set(c.members) for c in commuting_classes(5)]
    want = [
        {(0, 1), (0, 2), (0, 3), (0, 4)},
        {(1, 0), (2, 0), (3, 0), (4, 0)},
        {(1, 1), (2, 2), (3, 3), (4, 4)},
        {(1, 2), (2, 4), (3, 1), (4, 3)},
        {(1, 3), (2, 1), (3, 4), (4, 2)},
        {(1, 4), (2, 3), (3, 2), (4, 1)},
    ]
    assert got == want


def test_commuting_classes_p2_singletons():
    got = [c.members for c in commuting_classes(2)]
    assert got == [[(0, 1)], [(1, 0)], [(1, 1)]]


def commute_exactly(p, members):
    return _commute_pairwise([u_ab(p, idx) for idx in members])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_classes_commute_exactly(p):
    for cls in commuting_classes(p):
        assert len(cls.members) == p - 1
        assert commute_exactly(p, cls.members)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shift_and_clock_do_not_commute(p):
    # X Z = q Z X with q != 1, so a class holding both is not abelian
    assert not commute_exactly(p, [(1, 0), (0, 1)])
    assert not commute_exactly(p, commuting_classes(p)[2].members + [(0, 1)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_class_contains_vra_and_shares_eigenvectors(p):
    classes = commuting_classes(p)
    for a in range(p):
        assert (1, a) in classes[a + 1].members
        basis = hra_matrix(p, 0, a).to_complex()
        for member in classes[a + 1].members:
            u = u_ab(p, member).to_complex()
            for alpha in range(p):
                col = basis[:, alpha]
                lam = complex(np.vdot(col, u @ col))
                assert np.max(np.abs(u @ col - lam * col)) < 1e-10


def test_computational_basis_diagonalizes_class_zero():
    p = 5
    for member in commuting_classes(p)[0].members:
        u = u_ab(p, member).to_complex()
        assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0


def test_partition_counting_small_primes():
    for p in (2, 3):
        classes = commuting_classes(p)
        assert len(classes) == p + 1
        assert sum(len(c.members) for c in classes) == p * p - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_sl_partition_check(p):
    report = sl_partition_check(p)
    assert report.disjoint and report.union_complete and report.all_abelian
    assert report.gram_residual == 0.0
    assert bool(report)


def test_sl_partition_check_at_p61_is_exact():
    report = sl_partition_check(61)
    assert report.ok and type(report.gram_residual) is float

