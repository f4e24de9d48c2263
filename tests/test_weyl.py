import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from mubkit.phases import PhaseMatrix, q_power
from mubkit.qdft import hra_matrix
from mubkit.weyl import (PauliGroupElement, x_matrix, z_matrix, pr_matrix,
                         vra_q_commutation_checks,
                         vra_matrix, vra_band_matrix, vra_power_phase, u_ab,
                         weyl_relation_check, pauli_trace_orthogonality,
                         pauli_compose, pauli_element_matrix,
                         t_matrix, sine_product_check, sine_commutator_check,
                         _shift_clock)
from mubkit.verify import INVARIANTS, _Sweep


def test_x_z_d2_are_sigma_layout():
    assert x_matrix(2).to_complex().tolist() == [[0, 1], [1, 0]]
    assert z_matrix(2).to_complex().tolist() == [[1, 0], [0, -1]]


@pytest.mark.parametrize("d", range(1, 8))
def test_closed_forms_equal_their_definitions(d):
    x, z = x_matrix(d), z_matrix(d)
    assert x == PhaseMatrix.monomial([(n + 1) % d for n in range(d)], [0] * d)
    assert z == PhaseMatrix.monomial(range(d), range(d))
    labels = range(-d, 2 * d)
    for n1, n2 in itertools.product(labels, repeat=2):
        assert u_ab(d, (n1, n2)) == x ** (n1 % d) @ z ** (n2 % d)
        assert t_matrix(d, (n1, n2)) == (z ** (n1 % d) @ x ** (n2 % d)).scaled_by(
            q_power(d, Fraction(n1 * n2, 2)))
    for a, b, c in itertools.product(labels, repeat=3):
        assert pauli_element_matrix(d, (a, b, c)) == (x ** (b % d) @ z ** (c % d)).scaled_by(
            q_power(d, a))


HUGE = 10 ** 30 + 1


def builder_labels(d):
    return [*range(-d, 2 * d), HUGE]


def assert_same_monomial(m, ref):
    assert (m.modulus, m.monomial_view, m.scaled) == (ref.modulus, ref.monomial_view, ref.scaled)


@pytest.mark.parametrize("d", range(1, 10))
def test_unchecked_builders_equal_the_checked_constructor(d):
    # the Weyl builders skip PhaseMatrix.monomial's checks; each must equal
    # the monomial(...) call it replaces, for labels of any sign and size
    labels = builder_labels(d)
    for shift, clock in itertools.product(labels, repeat=2):
        for phase, den in ((0, 1), (-5, 2), (HUGE, 2), (-HUGE * 7, 3)):
            cols = range(shift, shift + d)
            assert_same_monomial(_shift_clock(d, shift, clock, phase, den), PhaseMatrix.monomial(
                cols, [phase + den * clock * m for m in cols], den))
    rs = [Fraction(k, v) for k in labels for v in (1, 2, 3, 10 ** 23 + 7)]
    for r in rs:
        assert_same_monomial(pr_matrix(d, r), PhaseMatrix.monomial(
            range(d), [0] * (d - 1) + [d * (d - 1) * r.numerator], 2 * r.denominator))
    for r, a in itertools.product(rs[::7], labels):
        den = 2 * r.denominator
        assert_same_monomial(vra_band_matrix(d, r, a), PhaseMatrix.monomial(
            [n + 1 for n in range(d)],
            [den * n * a for n in range(1, d)] + [d * (d - 1) * r.numerator], den))


def test_monomial_still_checks_its_input():
    with pytest.raises(ValueError, match="one entry per row and column"):
        PhaseMatrix.monomial([0, 2], [0, 1])  # columns 0 and 2 = 0 mod 2
    with pytest.raises(ValueError, match="one entry per row and column"):
        PhaseMatrix.monomial([1, 1, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="one entry per row and column"):
        PhaseMatrix.monomial([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="one entry per row and column"):
        PhaseMatrix.monomial([0, 1, 2], [0, 1])


@pytest.mark.parametrize("cols, exps", [
    ([0, 1], [0.5, 1]),             # was the exponents (0, 1)
    ([0, 1], [1.9, 1]),             # was (1, 1)
    ([0, 1], [Fraction(1, 2), 1]),  # was (0, 1)
    ([0, 0.7], [0, 1]),             # the column 0.7 was 0
    ([0, 1], [True, 1]),
])
def test_monomial_rejects_a_non_integer_entry(cols, exps):
    with pytest.raises(TypeError, match="expected an integer"):
        PhaseMatrix.monomial(cols, exps)


@pytest.mark.parametrize("exps", [
    [[0, 0.5], [1, 0]],  # was [[0, 0], [1, 0]]
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.zeros((2, 2), dtype=bool),
    np.array([[0, Fraction(1, 2)], [1, 0]], dtype=object),
])
def test_from_exponents_rejects_a_non_integer_entry(exps):
    with pytest.raises(TypeError, match="expected an integer"):
        PhaseMatrix.from_exponents(2, exps)


def test_from_exponents_takes_integers_of_any_size_and_kind():
    want = PhaseMatrix.from_exponents(2, np.array([[0, 3], [1, 2]]), den=2)
    for exps in ([[0, 3], [1, 2]], [[4, 3 + 4 * 2 ** 70], [1, -2]],
                 np.array([[0, 3], [1, 2]], dtype=np.uint8),
                 np.array([[np.int64(4), 3], [1, 2]], dtype=object)):
        assert PhaseMatrix.from_exponents(2, exps, den=2) == want


@pytest.mark.parametrize("den", [0, -1])
def test_constructors_reject_a_denominator_below_one(den):
    # den = -1 gave the modulus -2, and den = 0 raised ZeroDivisionError
    with pytest.raises(ValueError, match="den must be at least 1"):
        PhaseMatrix.monomial([0, 1], [0, 1], den)
    with pytest.raises(ValueError, match="den must be at least 1"):
        PhaseMatrix.from_exponents(2, [[0, 1], [1, 0]], den=den)
    with pytest.raises(ValueError, match="dim must be at least 1"):
        PhaseMatrix.from_exponents(den, np.zeros((0, 0), dtype=int))


@pytest.mark.parametrize("d", [0, -2])
def test_pauli_trace_orthogonality_rejects_a_dimension_below_one(d):
    with pytest.raises(ValueError, match="at least 1"):  # was an exact 0.0
        pauli_trace_orthogonality(d)


@pytest.mark.parametrize("d", [0, -3])
def test_weyl_builders_reject_a_dimension_below_one(d):
    # x_matrix(-3) was a 0 x 0 matrix and x_matrix(0) raised ZeroDivisionError
    for build in (x_matrix, z_matrix, lambda d: u_ab(d, (1, 1)), lambda d: pr_matrix(d, 0),
                  vra_band_matrix, vra_matrix, lambda d: t_matrix(d, (1, 1))):
        with pytest.raises(ValueError, match="at least 1"):
            build(d)


@pytest.mark.parametrize("d", [0, -1])
def test_weyl_checks_reject_a_dimension_below_one(d):
    # sine_product_check(-1, (1, 1), (1, 1)) was True
    for check in (lambda: sine_product_check(d, (1, 1), (1, 1)),
                  lambda: sine_commutator_check(d, (1, 1), (1, 1)),
                  lambda: weyl_relation_check(d, 1, 1),
                  lambda: vra_q_commutation_checks(d, 0, 1)):
        with pytest.raises(ValueError, match="at least 1"):
            check()


def test_p0_is_identity():
    for d in (2, 3, 7):
        assert pr_matrix(d, 0) == PhaseMatrix.identity(d)


def test_x_z_d3_printed_matrices():
    q = np.exp(2j * np.pi / 3)
    want_x = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    want_z = np.diag([1, q, q * q])
    assert np.allclose(x_matrix(3).to_complex(), want_x, atol=1e-15)
    assert np.allclose(z_matrix(3).to_complex(), want_z, atol=1e-15)


def test_vra_d2_layout():
    # [[0, q^a], [q^r, 0]] with q = exp(i pi)
    for a in (0, 1):
        for r in (0, 1, Fraction(1, 2)):
            v = vra_matrix(2, r, a)
            assert v.entry(0, 1) == q_power(2, a)
            assert v.entry(1, 0) == q_power(2, Fraction(r))
            assert v.entry(0, 0) is None and v.entry(1, 1) is None


def test_vra_d3_r0_printed_triples():
    q = np.exp(2j * np.pi / 3)
    want = {
        0: np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex),
        1: np.array([[0, q, 0], [0, 0, q * q], [1, 0, 0]]),
        2: np.array([[0, q * q, 0], [0, 0, q], [1, 0, 0]]),
    }
    for a, m in want.items():
        assert np.allclose(vra_matrix(3, 0, a).to_complex(), m, atol=1e-15)


@pytest.mark.parametrize("d", range(1, 32))
def test_vra_in_closed_form_equals_the_product_with_a_clock_power(d):
    # vra_matrix is P_r times X Z^a in closed form; its first form was the
    # product P_r X Z^a with Z^a by square-and-multiply
    for r in (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1, 10 ** 23 + 7)):
        p, x, z = pr_matrix(d, r), x_matrix(d), z_matrix(d)
        for a in range(d):
            assert vra_matrix(d, r, a) == p @ x @ (z ** a)


def test_band_form_equals_decomposition():
    for d in (2, 3, 5, 8):
        for r in (0, 1, Fraction(1, 4)):
            for a in range(d):
                assert vra_matrix(d, r, a) == vra_band_matrix(d, r, a)


def test_x_and_z_from_vra_members():
    d = 5
    assert vra_matrix(d, 0, 0) == x_matrix(d)
    prod = vra_matrix(d, 0, 0).dagger() @ vra_matrix(d, 0, 1)
    assert prod == z_matrix(d)


def test_diagonalize_d2_spectrum():
    # H_00 carries X = V_00 to diag(1, -1) = Z, exactly
    h = hra_matrix(2, 0, 0)
    assert x_matrix(2) @ h == h @ z_matrix(2)


def test_diagonalize_d3_eigenvalues():
    # eigenvalue q^{(d-1)(r+a)/2 - alpha} = q^{1 - alpha} at d=3, r=0, a=1
    h = hra_matrix(3, 0, 1)
    assert vra_matrix(3, 0, 1) @ h == h @ PhaseMatrix.monomial(range(3), [1, 0, -1])
    hc = h.to_complex()
    got = np.diag(hc.conj().T @ vra_matrix(3, 0, 1).to_complex() @ hc)
    q = np.exp(2j * np.pi / 3)
    want = np.array([q ** (1 - al) for al in range(3)])
    assert np.allclose(got, want, atol=1e-12)


def test_diagonalize_offdiagonal_residual():
    h = hra_matrix(7, Fraction(1, 2), 4).to_complex()
    m = h.conj().T @ vra_matrix(7, Fraction(1, 2), 4).to_complex() @ h
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-10


def test_u00_is_identity():
    assert u_ab(4, (0, 0)) == PhaseMatrix.identity(4)


def test_uab_d2_pauli_family():
    assert u_ab(2, (1, 0)).to_complex().tolist() == [[0, 1], [1, 0]]
    # Y = XZ = -i sigma_y
    assert u_ab(2, (1, 1)).to_complex().tolist() == [[0, -1], [1, 0]]
    assert u_ab(2, (0, 1)).to_complex().tolist() == [[1, 0], [0, -1]]


def test_uab_d3_printed_matrices():
    q = np.exp(2j * np.pi / 3)
    printed = {
        (1, 1): np.array([[0, q, 0], [0, 0, q * q], [1, 0, 0]]),
        (2, 2): np.array([[0, 0, q], [1, 0, 0], [0, q * q, 0]]),
        (2, 1): np.array([[0, 0, q * q], [1, 0, 0], [0, q, 0]]),
        (1, 2): np.array([[0, q * q, 0], [0, 0, q], [1, 0, 0]]),
    }
    for idx, want in printed.items():
        assert np.allclose(u_ab(3, idx).to_complex(), want, atol=1e-15)


def test_weyl_relation_trivial_and_d3():
    assert weyl_relation_check(2, 0, 0)
    assert weyl_relation_check(3, 1, 1)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_weyl_relation_exhaustive(d):
    for m in range(d):
        for n in range(d):
            assert weyl_relation_check(d, m, n)


def test_trace_orthogonality_small_cases():
    from mubkit.phases import trace_pair
    assert trace_pair(u_ab(2, (1, 1)), u_ab(2, (1, 1))) == 2
    assert trace_pair(u_ab(2, (0, 0)), u_ab(2, (1, 1))) == 0


@pytest.mark.parametrize("d", [2, 3, 5, 64])
def test_trace_orthogonality_sweep_is_exact(d):
    value = pauli_trace_orthogonality(d)
    assert type(value) is float and value == 0.0


def test_commutator_identity_same_index():
    # u_ab u_a'b' = q^{-ba'} u_{a+a', b+b'}, so u_12 commutes with itself
    m = u_ab(3, (1, 2))
    assert m @ m == u_ab(3, (2, 4)).scaled_by(q_power(3, -2))
    u = m.to_complex()
    assert np.max(np.abs(u @ u - u @ u)) == 0


def test_anticommutator_vanishes_for_qubit_pair():
    # d=2: X and Z anticommute since ab' - ba' = 1 = d/2
    x = u_ab(2, (1, 0)).to_complex()
    z = u_ab(2, (0, 1)).to_complex()
    assert np.max(np.abs(x @ z + z @ x)) < 1e-15


def test_odd_dimension_has_no_vanishing_anticommutators():
    d = 5
    for a, b, a2, b2 in itertools.product(range(d), repeat=4):
        lhs = u_ab(d, (a, b)).to_complex()
        rhs = u_ab(d, (a2, b2)).to_complex()
        assert np.max(np.abs(lhs @ rhs + rhs @ lhs)) > 1e-9


def test_compose_identity_neutral():
    g = PauliGroupElement(2, 1, 3)
    assert pauli_compose(5, (0, 0, 0), g) == g
    assert pauli_compose(5, g, (0, 0, 0)) == g


def test_compose_d3_worked_case():
    got = pauli_compose(3, (0, 0, 2), (0, 1, 0))
    assert got == PauliGroupElement(1, 1, 2)
    # matrix oracle
    lhs = pauli_element_matrix(3, (0, 0, 2)) @ pauli_element_matrix(3, (0, 1, 0))
    assert lhs == pauli_element_matrix(3, got)


@pytest.mark.parametrize("d", range(2, 9))
def test_compose_matches_matrix_product(d):
    rng = random.Random(100 + d)
    for _ in range(200):
        g = tuple(rng.randrange(d) for _ in range(3))
        g2 = tuple(rng.randrange(d) for _ in range(3))
        lhs = pauli_element_matrix(d, g) @ pauli_element_matrix(d, g2)
        assert lhs == pauli_element_matrix(d, pauli_compose(d, g, g2))


def _pauli_inverse(d, g):
    a, b, c = g
    return PauliGroupElement((-a - c * b) % d, -b % d, -c % d)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_group_commutator_is_central_phase(d):
    rng = random.Random(17)
    for _ in range(50):
        g = PauliGroupElement(*(rng.randrange(d) for _ in range(3)))
        h = PauliGroupElement(*(rng.randrange(d) for _ in range(3)))
        comm = pauli_compose(d, pauli_compose(d, g, h),
                             pauli_compose(d, _pauli_inverse(d, g),
                                           _pauli_inverse(d, h)))
        want = PauliGroupElement((g.b * h.c - g.c * h.b) % d, 0, 0)
        assert comm == want


@pytest.mark.parametrize("d", [2, 3, 4])
def test_group_center_is_the_phase_line(d):
    elements = [PauliGroupElement(a, b, c)
                for a in range(d) for b in range(d) for c in range(d)]
    center = [g for g in elements
              if all(pauli_compose(d, g, h) == pauli_compose(d, h, g)
                     for h in elements)]
    assert sorted(center) == [PauliGroupElement(a, 0, 0) for a in range(d)]


def test_inverse_roundtrip():
    for d in (2, 3, 5):
        rng = random.Random(d)
        for _ in range(20):
            g = PauliGroupElement(*(rng.randrange(d) for _ in range(3)))
            assert pauli_compose(d, g, _pauli_inverse(d, g)) == PauliGroupElement(0, 0, 0)


def test_sine_same_index_commutes():
    assert sine_commutator_check(4, (2, 1), (2, 1)) < 1e-15


def test_sine_d3_coefficient():
    # [T_(1,0), T_(0,1)] = -2i sin(pi/3) T_(1,1)
    t10 = t_matrix(3, (1, 0)).to_complex()
    t01 = t_matrix(3, (0, 1)).to_complex()
    t11 = t_matrix(3, (1, 1)).to_complex()
    want = -2j * np.sin(np.pi / 3) * t11
    assert np.max(np.abs(t10 @ t01 - t01 @ t10 - want)) < 1e-12
    assert sine_commutator_check(3, (1, 0), (0, 1)) < 1e-12


def test_sine_product_identity_random_pairs():
    rng = random.Random(5)
    for _ in range(40):
        m = (rng.randrange(10), rng.randrange(10))
        n = (rng.randrange(10), rng.randrange(10))
        assert sine_product_check(5, m, n)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_regular_representation(d):
    # the registered check: each d-th root of unity lies within 1e-12 of an
    # eigenvalue of X, one case per dimension up to d
    [inv] = [inv for inv in INVARIANTS if inv.name == "weyl.regular_representation"]
    residuals = list(inv.cases(_Sweep("weyl", d)))
    assert len(residuals) == d - 1 and max(residuals) < 1e-12


# -- invariants --------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 13))
def test_vra_q_commutations_exact(d):
    # first relation holds for every r; the second holds with the deformed
    # shift V_r0 for every r, and with the bare X exactly when (d-1)r is even
    x = x_matrix(d)
    for r in (0, 1, Fraction(1, 4)):
        for a in range(d):
            first, second = vra_q_commutation_checks(d, r, a)
            assert first and second
            v = vra_matrix(d, r, a)
            bare = v @ x == (x @ v).scaled_by(q_power(d, -a))
            assert bare == ((Fraction(r) * (d - 1)) % 2 == 0)


@pytest.mark.parametrize("d", range(2, 9))
def test_iterated_vz_relation_exhaustive(d):
    z = z_matrix(d)
    v = vra_matrix(d, 1, d - 1)
    v_pows = [PhaseMatrix.identity(d)]
    z_pows = [PhaseMatrix.identity(d)]
    for _ in range(d):
        v_pows.append(v_pows[-1] @ v)
        z_pows.append(z_pows[-1] @ z)
    for m in range(d):
        for n in range(d):
            lhs = v_pows[m] @ z_pows[n]
            rhs = (z_pows[n] @ v_pows[m]).scaled_by(q_power(d, m * n))
            assert lhs == rhs


@pytest.mark.parametrize("d", range(2, 9))
def test_vra_power_law_and_dth_power(d):
    for r in (0, 1, Fraction(1, 3)):
        for a in range(d):
            v = vra_matrix(d, r, a)
            v0 = vra_matrix(d, r, 0)
            z = z_matrix(d)
            for n in range(d + 1):
                lhs = v ** n
                rhs = ((v0 ** n) @ (z ** ((a * n) % d))).scaled_by(
                    q_power(d, Fraction(-n * (n - 1) * a, 2)))
                assert lhs == rhs
            assert v ** d == PhaseMatrix.identity(d).scaled_by(
                vra_power_phase(d, r, a))


@pytest.mark.parametrize("d", range(2, 9))
def test_nilpotency_relation(d):
    for r in (0, 1, Fraction(2, 3)):
        v0 = vra_matrix(d, r, 0)
        lhs = (v0 ** d).scaled_by(q_power(2, -Fraction(r) * (d - 1)))
        assert lhs == PhaseMatrix.identity(d)
        assert z_matrix(d) ** d == PhaseMatrix.identity(d)


@pytest.mark.parametrize("d", range(2, 9))
def test_v0a_entries_are_character_vector(d):
    for a in range(d):
        v = vra_matrix(d, 0, a)
        chi = [v.entry(d - 1, 0)] + [v.entry(n - 1, n) for n in range(1, d)]
        assert chi == [q_power(d, n * a) for n in range(d)]


def test_uab_linear_independence_via_gram():
    # the trace Gram of the d^2 Pauli matrices is d * I, so they span
    d = 4
    assert pauli_trace_orthogonality(d) == 0.0


@pytest.mark.parametrize("d", [10, 13, 16])
def test_sampled_large_d_identities(d):
    rng = random.Random(d)
    z, x = z_matrix(d), x_matrix(d)
    for _ in range(25):
        m, n = rng.randrange(d), rng.randrange(d)
        xm, zn = x ** m, z ** n
        assert xm @ zn == (zn @ xm).scaled_by(q_power(d, m * n))
        s = (rng.randrange(8), rng.randrange(8))
        t = (rng.randrange(8), rng.randrange(8))
        assert sine_product_check(d, s, t)
        g = tuple(rng.randrange(d) for _ in range(3))
        g2 = tuple(rng.randrange(d) for _ in range(3))
        lhs = pauli_element_matrix(d, g) @ pauli_element_matrix(d, g2)
        assert lhs == pauli_element_matrix(d, pauli_compose(d, g, g2))


def test_t_labels_past_int64_stack_as_the_scalar_matrix():
    # -n1 n2 is about 2^64 here: int64 would wrap it to the exponents
    # [9 3 7 1 5] where t_matrix gives [3 7 1 5 9]
    from mubkit import weyl
    n1, n2 = 2 ** 32 + 1, 2 ** 32 + 3
    n, cols, exps = _shift_clock(5, *weyl._t_labels(np.array([n1]), np.array([n2])))
    want = t_matrix(5, (n1, n2))
    assert (n, want.modulus) == (10, 10)
    assert cols.tolist() == [list(want.monomial_view[0])]
    assert exps.tolist() == [list(want.monomial_view[1])] == [[3, 7, 1, 5, 9]]
    # below the bound the labels stay int64
    assert weyl._t_labels(np.array([3]), np.array([4]))[2].dtype == np.int64


@pytest.mark.parametrize("r", [Fraction(1, 10 ** 20 + 7), Fraction(10 ** 19 + 1, 3),
                               Fraction(-(2 ** 62), 5), Fraction(1, 3)])
def test_lambda_ra_labels_past_int64_stack_as_the_scalar_matrices(r):
    from mubkit import phases, verify
    d = 7
    family = verify._lambda_ra(d, r, np.arange(d))
    one = phases._stack([_shift_clock(d, 0, -1, (d - 1) * (r.numerator + a * r.denominator),
                                      2 * r.denominator) for a in range(d)])
    n, cols, exps = phases._join(family, one)
    assert cols[:d].tolist() == cols[d:].tolist() and exps[:d].tolist() == exps[d:].tolist()
