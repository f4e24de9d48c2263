import itertools
from math import exp, lgamma, sqrt

import numpy as np
import pytest
from sympy import Rational
from sympy import N as sympy_n
from sympy.physics.quantum.cg import CG
from sympy.physics.wigner import wigner_3j

from mubkit import verify, wigner
from mubkit.phases import _phase_complex
from mubkit.wigner import (wigner_3jm, clebsch_gordan, cg_alpha, cg_alpha_table, fbar,
                           fbar_table, basis_change_coeff, fbar_conjugation_factor)


def sympy_3j(two_j1, two_j2, two_j3, two_m1, two_m2, two_m3):
    return float(sympy_n(wigner_3j(Rational(two_j1, 2), Rational(two_j2, 2),
                                   Rational(two_j3, 2), Rational(two_m1, 2),
                                   Rational(two_m2, 2), Rational(two_m3, 2)), 20))


def triples(two_j_max):
    for tj1 in range(0, two_j_max + 1):
        for tj2 in range(0, two_j_max + 1):
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                if tj3 <= two_j_max:
                    yield tj1, tj2, tj3


def test_selection_rule_m_sum():
    assert wigner_3jm(2, 2, 2, 2, 2, 2) == 0.0
    assert wigner_3jm(2, 2, 0, 2, 0, 0) == 0.0


def test_all_zero_symbol():
    assert wigner_3jm(0, 0, 0, 0, 0, 0) == pytest.approx(1.0)


def test_worked_value():
    assert wigner_3jm(2, 2, 0, 2, -2, 0) == pytest.approx(1 / sqrt(3), abs=1e-14)


def test_triangle_violation_is_zero():
    assert wigner_3jm(0, 0, 2, 0, 0, 0) == 0.0


def test_malformed_halves_rejected():
    with pytest.raises(ValueError):
        wigner_3jm(1, 1, 1, 0, 0, 0)  # m parity incompatible with j
    with pytest.raises(ValueError):
        wigner_3jm(2, 2, 2, 4, -2, -2)
    with pytest.raises(TypeError):
        wigner_3jm(1.0, 1, 2, 0, 0, 0)


@pytest.mark.parametrize("tj1,tj2,tj3", list(triples(6)))
def test_3jm_against_sympy(tj1, tj2, tj3):
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            tm3 = -(tm1 + tm2)
            if abs(tm3) > tj3:
                continue
            got = wigner_3jm(tj1, tj2, tj3, tm1, tm2, tm3)
            want = sympy_3j(tj1, tj2, tj3, tm1, tm2, tm3)
            assert got == pytest.approx(want, abs=1e-12)


def test_3jm_orthogonality():
    # sum_{m1 m2} (2j3+1) w(m1 m2 m3) w(m1 m2 m3') = delta_{j3 j3'} delta_{m3 m3'}
    tj1, tj2 = 4, 6
    for tj3, tj3p in itertools.product(range(2, 9, 2), repeat=2):
        for tm3 in range(-tj3, tj3 + 1, 2):
            for tm3p in range(-tj3p, tj3p + 1, 2):
                total = 0.0
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        total += ((tj3 + 1)
                                  * wigner_3jm(tj1, tj2, tj3, tm1, tm2, tm3)
                                  * wigner_3jm(tj1, tj2, tj3p, tm1, tm2, tm3p))
                want = 1.0 if (tj3, tm3) == (tj3p, tm3p) else 0.0
                assert total == pytest.approx(want, abs=1e-10)


def test_clebsch_gordan_against_sympy():
    for tj1, tj2, tj3 in triples(4):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = tm1 + tm2
                if abs(tm3) > tj3:
                    continue
                want = float(sympy_n(CG(Rational(tj1, 2), Rational(tm1, 2),
                                        Rational(tj2, 2), Rational(tm2, 2),
                                        Rational(tj3, 2), Rational(tm3, 2)).doit(), 20))
                got = clebsch_gordan(tj1, tm1, tj2, tm2, tj3, tm3)
                assert got == pytest.approx(want, abs=1e-12)


def test_basis_change_alpha_zero_is_flat():
    for two_j in (1, 2, 5):
        for two_m in range(-two_j, two_j + 1, 2):
            assert basis_change_coeff(two_j, two_m, 0) == pytest.approx(
                1 / sqrt(two_j + 1))


def test_basis_change_spin_half_matches_fourier_phases():
    # at j = 1/2 the coefficients are the r = a = 0 Fourier column phases
    assert basis_change_coeff(1, 1, 1) == pytest.approx(-1 / sqrt(2))
    assert basis_change_coeff(1, -1, 1) == pytest.approx(1 / sqrt(2))


def test_basis_change_unitary():
    two_j = 5
    d = two_j + 1
    u = np.array([[basis_change_coeff(two_j, two_m, alpha)
                   for alpha in range(d)]
                  for two_m in range(-two_j, two_j + 1, 2)])
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_basis_change_range_check():
    with pytest.raises(ValueError):
        basis_change_coeff(2, 0, 3)


@pytest.mark.parametrize("alphas", [(0, 1, 3), (-1, 0, 0), (0, 3, 0)])
def test_alpha_range_check(alphas):
    a1, a2, a3 = alphas
    with pytest.raises(ValueError):
        fbar(2, 2, 2, a1, a2, a3)
    with pytest.raises(ValueError):
        cg_alpha(2, 2, a1, a2, 2, a3)
    with pytest.raises(ValueError):
        fbar_conjugation_factor(2, 2, 2, a1, a2, a3)


def cg_alpha_via_basis_change(tj1, tj2, a1, a2, tj3, a3):
    """Independent route: transform the magnetic coefficients with the
    explicit unitary basis change."""
    total = 0j
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            tm3 = tm1 + tm2
            if abs(tm3) > tj3:
                continue
            cg = float(sympy_n(CG(Rational(tj1, 2), Rational(tm1, 2),
                                  Rational(tj2, 2), Rational(tm2, 2),
                                  Rational(tj3, 2), Rational(tm3, 2)).doit(), 20))
            total += (cg
                      * np.conj(basis_change_coeff(tj1, tm1, a1))
                      * np.conj(basis_change_coeff(tj2, tm2, a2))
                      * basis_change_coeff(tj3, tm3, a3))
    return total


def test_cg_alpha_worked_case_two_routes():
    got = cg_alpha(1, 1, 0, 0, 0, 0)
    want = cg_alpha_via_basis_change(1, 1, 0, 0, 0, 0)
    assert got == pytest.approx(want, abs=1e-12)


def test_cg_alpha_triangle_violation():
    assert cg_alpha(0, 0, 0, 0, 2, 0) == 0j


@pytest.mark.parametrize("tj1,tj2,tj3", list(triples(4)))
def test_cg_alpha_two_route_equivalence(tj1, tj2, tj3):
    for a1 in range(tj1 + 1):
        for a2 in range(tj2 + 1):
            for a3 in range(tj3 + 1):
                got = cg_alpha(tj1, tj2, a1, a2, tj3, a3)
                want = cg_alpha_via_basis_change(tj1, tj2, a1, a2, tj3, a3)
                assert abs(got - want) < 1e-10


def test_cg_alpha_completeness():
    # summing |coefficient|^2 over all (j3, alpha3) returns 1 for any alpha1, alpha2
    tj1 = tj2 = 2
    for a1 in range(tj1 + 1):
        for a2 in range(tj2 + 1):
            total = 0.0
            for tj3 in range(0, tj1 + tj2 + 1, 2):
                for a3 in range(tj3 + 1):
                    total += abs(cg_alpha(tj1, tj2, a1, a2, tj3, a3)) ** 2
            assert total == pytest.approx(1.0, abs=1e-10)


def test_fbar_all_spins_zero():
    assert fbar(0, 0, 0, 0, 0, 0) == pytest.approx(1.0)


def _alpha_sweep(tj1, tj2, tj3):
    return itertools.product(range(tj1 + 1), range(tj2 + 1), range(tj3 + 1))


@pytest.mark.parametrize("tj1,tj2,tj3", list(triples(4)))
def test_fbar_permutation_parity(tj1, tj2, tj3):
    sign = (-1) ** ((tj1 + tj2 + tj3) // 2)
    for a1, a2, a3 in _alpha_sweep(tj1, tj2, tj3):
        base = fbar(tj1, tj2, tj3, a1, a2, a3)
        # even permutation: cyclic
        even = fbar(tj2, tj3, tj1, a2, a3, a1)
        assert abs(base - even) < 1e-10
        # odd permutation: swap the first two columns
        odd = fbar(tj2, tj1, tj3, a2, a1, a3)
        assert abs(odd - sign * base) < 1e-10


@pytest.mark.parametrize("tj1,tj2,tj3", list(triples(4)))
def test_fbar_conjugation_law(tj1, tj2, tj3):
    # conj(fbar) = (-1)^(j1+j2+j3) q1^(-a1) q2^(-a2) q3^(-a3) fbar
    for a1, a2, a3 in _alpha_sweep(tj1, tj2, tj3):
        value = fbar(tj1, tj2, tj3, a1, a2, a3)
        factor = fbar_conjugation_factor(tj1, tj2, tj3, a1, a2, a3)
        assert abs(np.conj(value) - factor * value) < 1e-10


def test_fbar_reduces_to_3jm_at_alpha_zero_j_integer():
    # with all alphas zero the phase weights are 1, so fbar is a plain
    # 3-jm sum; check one case against a hand-assembled sum
    tj = 2
    total = 0.0
    for tm1 in range(-tj, tj + 1, 2):
        for tm2 in range(-tj, tj + 1, 2):
            tm3 = -(tm1 + tm2)
            if abs(tm3) > tj:
                continue
            total += wigner_3jm(tj, tj, tj, tm1, tm2, tm3)
    want = total / sqrt((tj + 1) ** 3)
    assert fbar(tj, tj, tj, 0, 0, 0) == pytest.approx(want, abs=1e-12)


# -- the tables against the scalars and a direct triple sum -----------------

def _weight(two_j, two_m, alpha, sign):
    return _phase_complex(sign * ((two_j + two_m) // 2) * alpha % (two_j + 1), two_j + 1)


def direct_sums(tj1, tj2, tj3):
    """The oracle: for every (a1, a2, a3), the f-bar symbol and cg_alpha as
    triple loops over (m1, m2), each term a magnetic coefficient times
    three phase weights.  The magnetic coefficients are evaluated once per
    (m1, m2)."""
    fbar_terms, cg_terms = [], []
    if (tj1 + tj2 + tj3) % 2 == 0 and abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                if abs(tm1 + tm2) <= tj3:
                    fbar_terms.append((tm1, tm2, -(tm1 + tm2),
                                       wigner_3jm(tj1, tj2, tj3, tm1, tm2, -(tm1 + tm2))))
                    cg_terms.append((tm1, tm2, tm1 + tm2,
                                     clebsch_gordan(tj1, tm1, tj2, tm2, tj3, tm1 + tm2)))
    norm = sqrt((tj1 + 1) * (tj2 + 1) * (tj3 + 1))
    for a1, a2, a3 in _alpha_sweep(tj1, tj2, tj3):
        f = sum((c * _weight(tj1, tm1, a1, -1) * _weight(tj2, tm2, a2, -1)
                 * _weight(tj3, tm3, a3, -1) for tm1, tm2, tm3, c in fbar_terms), 0j)
        g = sum((c * _weight(tj1, tm1, a1, -1) * _weight(tj2, tm2, a2, -1)
                 * _weight(tj3, tm3, a3, +1) for tm1, tm2, tm3, c in cg_terms), 0j)
        yield (a1, a2, a3), f / norm, g / norm


@pytest.mark.parametrize("tj1,tj2,tj3", list(itertools.product(range(7), repeat=3)))
def test_tables_match_scalars_and_direct_sum(tj1, tj2, tj3):
    # every triple with 2j <= 6, triangle violations included
    ftab = fbar_table(tj1, tj2, tj3)
    ctab = cg_alpha_table(tj1, tj2, tj3)
    assert ftab.shape == ctab.shape == (tj1 + 1, tj2 + 1, tj3 + 1)
    assert ftab.dtype == ctab.dtype == complex
    for a, want_fbar, want_cg in direct_sums(tj1, tj2, tj3):
        a1, a2, a3 = a
        assert abs(ftab[a] - want_fbar) < 1e-13
        assert abs(fbar(tj1, tj2, tj3, a1, a2, a3) - want_fbar) < 1e-13
        assert abs(ctab[a] - want_cg) < 1e-13
        assert abs(cg_alpha(tj1, tj2, a1, a2, tj3, a3) - want_cg) < 1e-13


def test_tables_are_zero_outside_the_triangle_rule():
    for triple in ((0, 0, 2), (1, 2, 5), (1, 1, 1), (4, 0, 2)):
        for table in (fbar_table(*triple), cg_alpha_table(*triple)):
            assert table.shape == tuple(tj + 1 for tj in triple)
            assert not table.any()


def racah_reference(tj1, tj2, tj3, tm1, tm2, tm3):
    """The Racah single sum with one lgamma call per factorial, added in
    the order of wigner_3jm; for arguments that pass its selection rules."""
    lf = lambda n: lgamma(n + 1)
    jjj = (tj1 + tj2 + tj3) // 2
    a1, a2, a3 = (tj1 + tj2 - tj3) // 2, (tj1 - tj2 + tj3) // 2, (-tj1 + tj2 + tj3) // 2
    log_delta = lf(a1) + lf(a2) + lf(a3) - lf(jjj + 1)
    log_norm = 0.5 * (log_delta + lf((tj1 + tm1) // 2) + lf((tj1 - tm1) // 2)
                      + lf((tj2 + tm2) // 2) + lf((tj2 - tm2) // 2)
                      + lf((tj3 + tm3) // 2) + lf((tj3 - tm3) // 2))
    b1, b2 = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    c1, c2 = (tj3 - tj2 + tm1) // 2, (tj3 - tj1 - tm2) // 2
    total = 0.0
    for t in range(max(0, -c1, -c2), min(a1, b1, b2) + 1):
        log_term = lf(t) + lf(a1 - t) + lf(b1 - t) + lf(b2 - t) + lf(c1 + t) + lf(c2 + t)
        total += (-1) ** t * exp(log_norm - log_term)
    return (-1) ** ((tj1 - tj2 - tm3) // 2) * total


def test_magnetic_tensors_are_bit_identical_to_the_scalars():
    # the tensors share one log-factorial table per triple; each entry must
    # still be the scalar symbol bit for bit, for every triple with 2j <= 8
    for tj1, tj2, tj3 in triples(8):
        want_3jm = np.zeros((tj1 + 1, tj2 + 1, tj3 + 1))
        want_cg = np.zeros_like(want_3jm)
        for tm1, tm2, tm3 in itertools.product(range(-tj1, tj1 + 1, 2), range(-tj2, tj2 + 1, 2),
                                               range(-tj3, tj3 + 1, 2)):
            at = ((tj1 + tm1) // 2, (tj2 + tm2) // 2, (tj3 + tm3) // 2)
            want_3jm[at] = wigner_3jm(tj1, tj2, tj3, tm1, tm2, tm3)
            want_cg[at] = clebsch_gordan(tj1, tm1, tj2, tm2, tj3, tm3)
        assert wigner._threejm_tensor(tj1, tj2, tj3).tobytes() == want_3jm.tobytes()
        # equal values; a zero entry of the CG tensor may carry the sign
        # of its factor (-1)^(j1-j2+m3)
        assert np.array_equal(wigner._cg_tensor(tj1, tj2, tj3), want_cg)
    # and at the f-bar bound the table entries are the per-factorial sums
    for triple in ((40, 40, 40), (40, 31, 17)):
        tensor = wigner._threejm_tensor(*triple)
        for index in zip(*np.nonzero(tensor)):
            tm1, tm2, tm3 = (2 * int(i) - tj for i, tj in zip(index, triple))
            want = racah_reference(*triple, tm1, tm2, tm3)
            assert np.float64(want).tobytes() == tensor[index].tobytes()


@pytest.mark.parametrize("spins,error", [((1.0, 1, 2), TypeError), ((2, 2, 2.5), TypeError),
                                         ((-1, 1, 0), ValueError), ((2, -2, 0), ValueError),
                                         ((2, 2, -2), ValueError)])
def test_tables_reject_malformed_spins_as_the_scalars_do(spins, error):
    tj1, tj2, tj3 = spins
    for call in (lambda: fbar_table(tj1, tj2, tj3), lambda: cg_alpha_table(tj1, tj2, tj3),
                 lambda: fbar(tj1, tj2, tj3, 0, 0, 0), lambda: cg_alpha(tj1, tj2, 0, 0, tj3, 0)):
        with pytest.raises(error):
            call()


def test_wigner_invariants_keep_their_case_counts():
    sweep = verify._Sweep("wigner", 13)
    counts = {inv.name: len(list(inv.cases(sweep)))
              for inv in verify.INVARIANTS if inv.name.startswith("wigner.")}
    assert counts == {"wigner.threejm_orthogonality": 24, "wigner.fbar_symmetries": 4437,
                      "wigner.basis_change_unitarity": 6, "wigner.cg_alpha_two_route": 1479}
