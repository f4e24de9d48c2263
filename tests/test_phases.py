import random
from fractions import Fraction

import numpy as np
import pytest

from mubkit.phases import (_QUARTER, _ROOTS_LIMIT, ExactPhase, PhaseMatrix, _phase_array,
                           _phase_complex, _phase_formula, _roots, q_power, trace_pair)
from mubkit import qdft, weyl
from mubkit.qdft import fra_matrix
from mubkit.weyl import x_matrix, z_matrix


ONE = ExactPhase(0)
MINUS_ONE = ExactPhase(Fraction(1, 2))


def test_from_fraction_identity():
    assert ExactPhase(Fraction(0, 1)).turns == 0


def test_from_fraction_half_turn():
    p = ExactPhase(Fraction(1, 2))
    assert p.turns == Fraction(1, 2)
    assert p.to_complex() == -1


def test_from_fraction_reduces_mod_one():
    # 7/6 of a turn is the same point as 1/6
    assert ExactPhase(Fraction(7, 6)).turns == Fraction(1, 6)


def test_mul_full_turn():
    assert ExactPhase(Fraction(1, 3)) * ExactPhase(Fraction(2, 3)) == ONE


def test_mul_i_squared():
    i = ExactPhase(Fraction(1, 4))
    assert i * i == MINUS_ONE


def test_mul_rational_addition():
    got = ExactPhase(Fraction(1, 6)) * ExactPhase(Fraction(1, 2))
    assert got.turns == Fraction(1, 6) + Fraction(1, 2)  # 2/3


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_pow_dth_power_of_root(d):
    assert ExactPhase(Fraction(1, d)) ** d == ONE


def test_pow_inverse():
    assert (ExactPhase(Fraction(1, 3)) ** -1).turns == Fraction(2, 3)


def test_pow_wraps():
    assert (ExactPhase(Fraction(1, 5)) ** 7).turns == Fraction(2, 5)


def test_to_complex_special_values():
    assert ExactPhase(0).to_complex() == 1
    assert ExactPhase(Fraction(1, 4)).to_complex() == 1j
    third = ExactPhase(Fraction(1, 3)).to_complex()
    assert abs(third - complex(-0.5, np.sqrt(3) / 2)) < 1e-15


def test_quarter_turns_have_equal_bytes_on_both_routes():
    # ExactPhase.to_complex and PhaseMatrix.to_complex read one quarter
    # table, below the roots-table bound and above it, so the 3/4 turn is
    # 0.0 - 1.0i on both, its real part +0.0
    for n in (4, 12, _ROOTS_LIMIT, 4 * _ROOTS_LIMIT + 4):
        for k in range(4):
            e, want = k * n // 4, np.asarray(_QUARTER[k]).tobytes()
            assert np.asarray(_phase_complex(e, n)).tobytes() == want
            assert _phase_array(np.array([e]), n)[0].tobytes() == want


def test_phase_array_equals_the_formula_bytes():
    # the roots table is the formula over arange(n), so a gather from it
    # gives the formula's bytes; larger moduli and float exponents go
    # through the formula itself
    rng = np.random.default_rng(19)
    for _ in range(600):
        n = int(rng.integers(1, 3 * _ROOTS_LIMIT))
        e = rng.integers(0, n, size=int(rng.integers(1, 40)))
        for exps in (e, e.astype(float) * (1 - 1e-3)):
            assert _phase_array(exps, n).tobytes() == _phase_formula(exps, n).tobytes()
    e = np.arange(30).reshape(5, 6)
    assert _phase_array(e, 30).shape == (5, 6)
    assert _phase_array(e, 30).tobytes() == _phase_formula(e, 30).tobytes()


def test_roots_table_is_read_only_and_a_gather_is_a_copy():
    table = _roots(12)
    assert table is _roots(12) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0
    out = _phase_array(np.array([1, 2]), 12)
    out[0] = 0
    assert table[1] == _phase_formula(np.array([1]), 12)[0]


def test_to_complex_unit_modulus():
    rng = random.Random(7)
    for _ in range(500):
        den = rng.randrange(1, 400)
        num = rng.randrange(0, den)
        assert abs(abs(ExactPhase(Fraction(num, den)).to_complex()) - 1.0) < 1e-15


def test_mul_commutative_associative():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (ExactPhase(Fraction(rng.randrange(0, 60), rng.randrange(1, 60)))
                   for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_pow_zero_and_period():
    p = ExactPhase(Fraction(3, 7))
    assert p ** 0 == ONE
    assert p ** p.turns.denominator == ONE


def test_immutable():
    p = ExactPhase(Fraction(1, 3))
    with pytest.raises(AttributeError):
        p.turns = Fraction(1, 2)


# -- PhaseMatrix ------------------------------------------------------------

def test_phase_matrix_immutable():
    # _new writes the slots through their descriptors; attribute
    # assignment still raises, for every slot and for a new name
    for m in (PhaseMatrix.identity(3), PhaseMatrix.from_exponents(2, [[0, 1], [1, 0]])):
        for name in ("dim", "scaled", "modulus", "_mono", "_exps", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
    assert PhaseMatrix.identity(3).dim == 3

def test_matrix_mul_shift_times_inverse_is_identity():
    x = x_matrix(3)
    assert x @ x.dagger() == PhaseMatrix.identity(3)


def test_matrix_mul_weyl_commutation_d3():
    x, z = x_matrix(3), z_matrix(3)
    assert x @ z == (z @ x).scaled_by(q_power(3, 1))


def test_matrix_mul_scaled_product_goes_complex():
    f = fra_matrix(4)
    with pytest.raises(ValueError, match=r"np\.asarray\(a\) @ b"):
        f.dagger() @ f
    prod = np.asarray(f.dagger()) @ f
    assert np.max(np.abs(prod - np.eye(4))) < 1e-12


def test_matrix_mul_two_shapes():
    f = PhaseMatrix.from_exponents(3, [[0, 1, 2], [2, 2, 0], [1, 0, 1]])
    v = PhaseMatrix.monomial([2, 0, 1], [1, 0, 2], den=2)
    for got, want in ((v @ f, v.to_complex() @ f.to_complex()),
                      (f @ v, f.to_complex() @ v.to_complex())):
        assert got.monomial_view is None and got.exponents is not None
        assert np.max(np.abs(got.to_complex() - want)) < 1e-12
    # full @ full sums phases; two 1/sqrt(3) factors give amplitude 1/3
    scaled_z = PhaseMatrix.monomial([0, 1, 2], [0, 1, 2], scaled=True)
    scaled_x = PhaseMatrix.monomial([1, 2, 0], [0, 0, 0], scaled=True)
    for a, b in ((f, f), (scaled_z, scaled_x)):
        with pytest.raises(ValueError, match=r"np\.asarray\(a\) @ b"):
            a @ b
        assert np.max(np.abs(np.asarray(a) @ b - a.to_complex() @ b.to_complex())) < 1e-12


def test_matrix_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        x_matrix(3) @ x_matrix(4)


def test_matrix_equality_is_exact():
    x = x_matrix(5)
    assert x == x_matrix(5)
    assert x != x.scaled_by(q_power(5, 1))
    assert x ** 5 == PhaseMatrix.identity(5)


def test_matrix_pow_negative_uses_dagger():
    z = z_matrix(4)
    assert z ** -1 == z.dagger()
    assert z ** -3 == (z.dagger()) ** 3


def test_diagonal_and_amplitude_tags():
    m = PhaseMatrix.monomial([0, 1], [0, 1], scaled=True)
    assert m.amplitude_tag == "1/sqrt(2)"
    assert m.amplitude == pytest.approx(1 / np.sqrt(2))
    assert PhaseMatrix.identity(2).amplitude_tag == "1"


def test_to_complex_matches_entries():
    z = z_matrix(6)
    arr = z.to_complex()
    assert arr[2, 2] == pytest.approx(np.exp(2j * np.pi * 2 / 6))
    assert arr[0, 1] == 0


def test_dense_view_and_mixed_products():
    f = fra_matrix(5, Fraction(1, 3), 2)
    arr = np.asarray(f, dtype=complex)
    assert arr.dtype == complex
    assert np.array_equal(arr, f.to_complex())
    dense = np.arange(25, dtype=complex).reshape(5, 5)
    assert np.array_equal(dense @ f, dense @ f.to_complex())
    assert np.array_equal(f @ dense, f.to_complex() @ dense)


def test_trace_exact_zero_for_balanced_phases():
    assert z_matrix(5).trace() == 0
    assert x_matrix(4).trace() == 0
    assert PhaseMatrix.identity(7).trace() == 7


def test_trace_pair_matches_dense():
    x, z = x_matrix(5), z_matrix(5)
    got = trace_pair(x, z)
    want = np.trace(x.to_complex().conj().T @ z.to_complex())
    assert abs(got - want) < 1e-13
    assert trace_pair(x, x) == 5


def amplitude_route(m):
    """The dense view as to_complex formed it for every matrix: the phases
    times the amplitude, written to the real and the imaginary parts."""
    n = m.modulus
    if m.monomial_view is not None:
        cols, exps = m.monomial_view
        where, e = (np.arange(m.dim), list(cols)), np.array(exps)
    else:
        where, e = ..., m.exponents
    phases = _phase_array(e, n)
    out = np.zeros((m.dim, m.dim), dtype=complex)
    out.real[where] = m.amplitude * phases.real
    out.imag[where] = m.amplitude * phases.imag
    return out


def unscaled_builders(d):
    """One matrix of every unscaled builder at dimension d."""
    r, a = Fraction(1, 3), d // 2
    yield from (PhaseMatrix.identity(d), weyl.x_matrix(d), weyl.z_matrix(d),
                weyl.pr_matrix(d, r), weyl.vra_matrix(d, r, a), weyl.vra_band_matrix(d, r, a),
                weyl.u_ab(d, (1, a)), weyl.pauli_element_matrix(d, (a, 1, d - 1)),
                weyl.t_matrix(d, (a, 1)), qdft.dra_matrix(d, r, a))


@pytest.mark.parametrize("d", range(2, 14))
def test_unscaled_to_complex_writes_the_phases_with_the_amplitude_route_bytes(d):
    # an unscaled matrix skips the product by amplitude 1.0, which changes
    # no bit: signed zeros included
    for m in unscaled_builders(d):
        assert not m.scaled
        assert m.to_complex().tobytes() == amplitude_route(m).tobytes()
    f = qdft.fra_matrix(d, Fraction(1, 3), d // 2)
    assert f.scaled and f.to_complex().tobytes() == amplitude_route(f).tobytes()
