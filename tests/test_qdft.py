import cmath
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest

from mubkit import qdft, weyl
from mubkit.phases import PhaseMatrix, _phase_array, _stack, exponent_dtype, q_power
from mubkit.qdft import (_row, fra_matrix, hra_matrix, dra_matrix,
                         forward, inverse, parseval_check, gauss_sum,
                         trace_fra, det_fra, is_generalized_hadamard)
from mubkit.verify import _diagonalizes, _fra_family, _lambda_ra

# F_02 at d=6 as exponents of q = exp(i pi/3); row n, column m carries
# exponent n(6-n)*2/2 + n*m reduced mod 6
GOLDEN_D6_EXPONENTS = [
    [0, 0, 0, 0, 0, 0],
    [5, 0, 1, 2, 3, 4],
    [2, 4, 0, 2, 4, 0],
    [3, 0, 3, 0, 3, 0],
    [2, 0, 4, 2, 0, 4],
    [5, 4, 3, 2, 1, 0],
]


def test_golden_d6_matrix_exact():
    f = fra_matrix(6, 0, 2)
    assert isinstance(f, PhaseMatrix)
    assert f.scaled
    for n in range(6):
        for m in range(6):
            assert f.entry(n, m) == q_power(6, GOLDEN_D6_EXPONENTS[n][m])


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_fra_zero_parameters_is_plain_dft(d):
    f = fra_matrix(d)
    for n in range(d):
        for m in range(d):
            assert f.entry(n, m) == q_power(d, n * m)


def test_fra_d2_a1_from_row_reversal():
    f = fra_matrix(2, 0, 1)
    h = hra_matrix(2, 0, 1)
    for n in range(2):
        for m in range(2):
            assert f.entry(n, m) == h.entry(1 - n, m)


def test_hra_row_reversal_exact_d5():
    r = Fraction(1, 3)
    f = fra_matrix(5, r, 4)
    h = hra_matrix(5, r, 4)
    for n in range(5):
        for m in range(5):
            assert h.entry(n, m) == f.entry(4 - n, m)


def test_hra_d2_columns_carry_printed_phases():
    # columns (q^{a/2 - r/4 + alpha}, q^{r/4}) / sqrt(2) with q = exp(i pi)
    h = hra_matrix(2, 0, 0)
    assert h.entry(0, 0).turns == 0
    assert h.entry(0, 1).turns == Fraction(1, 2)
    assert h.entry(1, 0).turns == 0
    assert h.entry(1, 1).turns == 0
    h01 = hra_matrix(2, 0, 1)
    assert h01.entry(0, 0).turns == Fraction(1, 4)   # i
    assert h01.entry(0, 1).turns == Fraction(3, 4)   # -i
    assert h01.entry(1, 0).turns == 0
    assert h01.entry(1, 1).turns == 0


def test_hra_unitarity_d7():
    h = hra_matrix(7, Fraction(1, 2), 3).to_complex()
    assert np.max(np.abs(h.conj().T @ h - np.eye(7))) < 1e-12


def test_dra_trivial_is_identity():
    assert dra_matrix(4) == PhaseMatrix.identity(4)


def test_dra_factorization_reproduces_golden():
    left = dra_matrix(6, 0, 2) @ fra_matrix(6)
    assert left == fra_matrix(6, 0, 2)


def test_dra_factorization_exact_d4():
    assert dra_matrix(4, 1, 3) @ fra_matrix(4) == fra_matrix(4, 1, 3)


@pytest.mark.parametrize("d,r,a", [(2, 0, 1), (5, Fraction(2, 3), 4),
                                   (8, 1, 5), (9, Fraction(1, 2), 2)])
def test_dra_factorization_sweep(d, r, a):
    assert dra_matrix(d, r, a) @ fra_matrix(d) == fra_matrix(d, r, a)


def test_forward_delta_gives_first_row():
    d = 5
    y = forward(np.eye(d)[0], d, 0, 3)
    f = fra_matrix(d, 0, 3).to_complex()
    assert np.allclose(y, f[0, :], atol=1e-14)


def test_forward_plain_dft_matches_numpy():
    rng = np.random.default_rng(3)
    d = 8
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    got = forward(x, d)
    want = np.fft.ifft(x) * np.sqrt(d)  # positive-exponent kernel
    assert np.allclose(got, want, atol=1e-12)


def test_round_trip_identity():
    rng = np.random.default_rng(9)
    d = 9
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert np.max(np.abs(inverse(forward(x, d, Fraction(2, 3), 5), d,
                                 Fraction(2, 3), 5) - x)) < 1e-12


# forward and inverse against the dense products with F_ra, at the
# tolerance the qdft docstring states for d <= 2000: 2e-15 * ||x||_2
@pytest.mark.parametrize("d", [*range(2, 14), 64, 1000, 2000])
def test_transform_matches_dense_product(d):
    rng = np.random.default_rng(d)
    rs = [Fraction(1, 3), 0.3] if d > 64 else [0, Fraction(1, 3), Fraction(-7, 5), 0.3, -1.999]
    for r in rs:
        for a in sorted({0, d // 2, d - 1}) if d <= 64 else [d - 1]:
            f = np.asarray(fra_matrix(d, r, a))
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            tol = 2e-15 * np.linalg.norm(x)
            assert np.max(np.abs(forward(x, d, r, a) - f.T @ x)) < tol
            assert np.max(np.abs(inverse(x, d, r, a) - f.conj() @ x)) < tol


def test_transform_at_two_to_the_twenty():
    d, r, a = 2 ** 20, Fraction(1, 3), 2
    row, den = _row(d, r, a)
    n = den * d
    m = np.arange(d, dtype=np.int64)
    for k in (12345, d - 1):
        # row k of F_ra from its exact exponents, evaluated on its own
        e = (int(row[k]) + den * (k * m % d)) % n
        want = np.exp(2j * np.pi * (e / n)) / np.sqrt(d)
        assert np.max(np.abs(forward(np.eye(1, d, k)[0], d, r, a) - want)) < 2e-15
    rng = np.random.default_rng(20)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    xp = rng.normal(size=d) + 1j * rng.normal(size=d)
    lhs, rhs = parseval_check(x, xp, d, r, a)
    assert abs(lhs - rhs) < 1e-15 * np.linalg.norm(x) * np.linalg.norm(xp)
    back = inverse(forward(x, d, r, a), d, r, a)
    assert np.max(np.abs(back - x)) < 1e-14 * np.max(np.abs(x))


@pytest.mark.parametrize("d", [1000, 2 ** 17])
def test_float_row_phases_match_those_of_the_same_float(d):
    # the stated 5e-16 * d; the integer a term is reduced before the float
    # r term joins it, and summed as one float it cost 7e-11 at d = 1000
    for r in (0.3, -1.999, 1.234567):
        for a in (0, 1, d // 2, d - 1) if d == 1000 else (d // 2,):
            got, den = _row(d, r, a)
            exact, exact_den = _row(d, Fraction(r), a)
            err = np.max(np.abs(_phase_array(got, den * d)
                                - _phase_array(exact, exact_den * d)))
            assert err < 5e-16 * d


def loop_row(d, r, a, rows=None):
    """The row phases as the per-row loop evaluated them before the array
    expression: Python ints for rational r, Python floats for a float r;
    every row, or the rows listed."""
    exact = not isinstance(r, float)
    rn, rd = (r.numerator, r.denominator) if exact else (r, 1)
    den = 4 * rd
    n = den * d
    ka, kr = 2 * (a % d) * rd, (d - 1) * rn
    return [(ka * i * (d - i) % n + kr * (d - 1 - 2 * i)) % n
            for i in (range(d) if rows is None else rows)], den


def same_row(got, want):
    """Equal dtypes and values: equal bytes, or equal Python ints in an
    object array."""
    return got.dtype == want.dtype and (got.tolist() == want.tolist() if got.dtype == object
                                        else got.tobytes() == want.tobytes())


@pytest.mark.parametrize("d", [2, 3, 7, 13, 100, 1000, 2 ** 17 + 1])
def test_float_row_has_the_bytes_of_the_loop(d):
    # the float r term is not reduced before the sum, so each entry takes
    # the loop's float operations: int to float, multiply, add, then %
    for r in (0.37, -1.3, 1.95, 0.05, -2.0, 1e-9, 1.234567):
        for a in sorted({0, 1, d // 2, d - 1}) if d < 2 ** 17 else (d // 3,):
            want, den = loop_row(d, r, a)
            got, got_den = _row(d, r, a)
            assert got_den == den and same_row(got, np.array(want, dtype=float))


@pytest.mark.parametrize("d", [2, 5, 13, 97])
def test_row_of_an_int_a_equals_that_of_a_0d_or_1d_array(d):
    for r in (0, 1, Fraction(1, 3), Fraction(-3, 7), Fraction(1, 10 ** 20 + 7)):
        for a in range(d):
            row, den = _row(d, r, a)
            want, _ = loop_row(d, r, a)
            assert same_row(row, np.array(want, dtype=exponent_dtype(den * d)))
            for arr in (np.array(a), np.array([a]), np.array([a + d], dtype=np.int32)):
                got, got_den = _row(d, r, arr)
                assert got_den == den and same_row(got.reshape(-1), row)


def test_rational_row_stays_int64_up_to_the_cli_bound():
    # every term of the row is below den d^2, so at d = 10^6 (the largest
    # transform the CLI takes) and r = 1/3 the row needs no Python ints
    d = 10 ** 6
    rows = [0, 1, 12345, d // 2, d - 1]
    row, den = _row(d, Fraction(1, 3), 5)
    assert row.dtype == np.int64 and den == 12
    assert row[rows].tolist() == loop_row(d, Fraction(1, 3), 5, rows)[0]


def test_forward_length_mismatch():
    with pytest.raises(ValueError):
        forward(np.ones(3), 4)


def test_parseval_delta_and_orthogonal():
    d = 6
    e0 = np.eye(d)[0]
    lhs, rhs = parseval_check(e0, e0, d, 0, 2)
    assert abs(lhs - 1) < 1e-12 and abs(rhs - 1) < 1e-12
    e1 = np.eye(d)[1]
    lhs, rhs = parseval_check(e0, e1, d, 0, 2)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_parseval_independent_of_parameters():
    rng = np.random.default_rng(21)
    d = 7
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    xp = rng.normal(size=d) + 1j * rng.normal(size=d)
    l1, r1 = parseval_check(x, xp, d, 0, 0)
    l2, r2 = parseval_check(x, xp, d, Fraction(1, 2), 4)
    assert abs(l1 - r1) < 1e-12
    assert abs(l2 - r2) < 1e-12
    assert abs(l1 - l2) < 1e-12


def test_gauss_sum_single_term():
    assert gauss_sum(3, 5, 1) == pytest.approx(1)


@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_gauss_sum_geometric_series_vanishes(d):
    assert abs(gauss_sum(0, 2, d)) < 1e-12


def test_gauss_sum_rejects_zero_w():
    with pytest.raises(ValueError):
        gauss_sum(1, 1, 0)


def test_gauss_sum_reduces_arguments_by_the_period():
    # S(u, v, w) has period 2|w| in u and in v; values of magnitude 2^53 or
    # more neither overflow float() nor lose the digits of the angle
    base = gauss_sum(1, 0, 5)
    assert gauss_sum(1, 10 ** 400, 5) == base
    assert gauss_sum(10 ** 400 + 1, 0, -5) == gauss_sum(1, 0, -5)
    assert gauss_sum(1, 1e20, 5) == base                  # 1e20 is a multiple of 10
    assert gauss_sum(1, 10 ** 20 + 1, 5) == gauss_sum(1, 1, 5)
    big = Fraction(-10 ** 30 - 1, 3)
    assert gauss_sum(2, big, 5) == gauss_sum(2, big % 10, 5)
    assert gauss_sum(2, -2.0 ** 60, 5) == gauss_sum(2, -6.0, 5)     # 2^60 = 6 mod 10
    # below 2^53 too: summed as given, v = 10^15 left S(1, v, 5) at 0.914+0.071i
    for v in (10 ** 12, 10 ** 15):
        assert abs(gauss_sum(1, v, 5) - base) < 1e-12


def test_gauss_sum_trace_link_d6():
    # the trace parameters (2-a, d(a-r)+r, d) at d=6, r=0, a=2
    s = gauss_sum(0, 12, 6)
    assert abs(s - 6) < 1e-12
    assert abs(trace_fra(6, 0, 2) - sqrt(6)) < 1e-12


def test_trace_two_route_d2():
    direct = fra_matrix(2).trace()
    assert abs(trace_fra(2, 0, 0) - direct) < 1e-12


def test_trace_d4_classical_dft():
    assert abs(trace_fra(4, 0, 0) - (1 + 1j)) < 1e-12


@pytest.mark.parametrize("r", [0, Fraction(1, 2), 1])
@pytest.mark.parametrize("d", range(2, 13))
def test_trace_two_route_sweep(d, r):
    for a in range(d):
        direct = fra_matrix(d, r, a).trace()
        assert abs(trace_fra(d, r, a) - direct) < 1e-10


def test_det_trivial_case():
    det_f = np.linalg.det(fra_matrix(5).to_complex())
    assert abs(det_fra(5, 0) - det_f) < 1e-12


def test_det_d2():
    det_f = np.linalg.det(fra_matrix(2).to_complex())
    assert abs(det_fra(2, 1) - 1j * det_f) < 1e-12


@pytest.mark.parametrize("d", range(2, 61))
def test_det_formula_vs_lu(d):
    # the closed form against the dense LU, its second route
    for a in range(d):
        direct = np.linalg.det(fra_matrix(d, 0, a).to_complex())
        assert abs(det_fra(d, a) - direct) < 1e-12


def test_hadamard_family_member():
    assert is_generalized_hadamard(fra_matrix(5, 0, 3)).is_hadamard


def test_hadamard_identity_fails():
    report = is_generalized_hadamard(np.eye(4))
    assert not report
    assert report.modulus_residual > 0.4


def test_hadamard_composite_product_stride_two_fails():
    # at d = 6 the stride-2 Fourier product loses the Hadamard property
    # (the adjacent product keeps it; see test_mub for both directions)
    f0 = fra_matrix(6, 0, 0).to_complex()
    f2 = fra_matrix(6, 0, 2).to_complex()
    assert not is_generalized_hadamard(f0.conj().T @ f2)


@pytest.mark.parametrize("d", range(2, 33))
def test_unitarity_sweep(d):
    for r in (0, Fraction(1, 2), 1, Fraction(2, 3)):
        for a in range(d):
            f = fra_matrix(d, r, a).to_complex()
            assert np.max(np.abs(f.conj().T @ f - np.eye(d))) < 1e-10


@pytest.mark.parametrize("d", range(2, 13))
def test_row_symmetry_relations_exact(d):
    # (F)_{d-1,al} = q^{(d-1)(r+a)/2 - al} e^{-i pi (d-1) r} (F)_{0,al}
    # (F)_{n-1,al} = q^{(d-1)(r+a)/2 - al + na} (F)_{n,al}
    for r in (0, 1):
        for a in range(d):
            f = fra_matrix(d, r, a)
            lead = Fraction(d - 1, 2) * (Fraction(r) + a)
            corner = q_power(d, Fraction(-d * (d - 1), 2) * Fraction(r))
            for al in range(d):
                want = f.entry(0, al) * q_power(d, lead - al) * corner
                assert f.entry(d - 1, al) == want
                for n in range(1, d):
                    want = f.entry(n, al) * q_power(d, lead - al + n * a)
                    assert f.entry(n - 1, al) == want


def entrywise_row_symmetry(f, d, r, a):
    """The row symmetry compared entry by entry as ExactPhase products."""
    lead = Fraction(d - 1, 2) * (Fraction(r) + a)
    corner = q_power(d, Fraction(-d * (d - 1), 2) * Fraction(r))
    return all(f.entry(d - 1, al) == f.entry(0, al) * q_power(d, lead - al) * corner
               and all(f.entry(n - 1, al) == f.entry(n, al) * q_power(d, lead - al + n * a)
                       for n in range(1, d))
               for al in range(d))


def stacked_row_symmetry(f, d, r, a):
    """The row symmetry as the registered check decides it: V_ra H_ra ==
    H_ra Lambda_ra on stacks, here of one, with H_ra = f, rows reversed."""
    v, lam = _stack([weyl.vra_matrix(d, r, a)]), _stack([_lambda_ra(d, r, a)])
    return bool(_diagonalizes(v, (f.modulus, f.exponents[None, ::-1]), lam)[0])


@pytest.mark.parametrize("d, r, a, n, al", [
    (2, 0, 1, 0, 1), (5, 1, 3, 4, 0), (6, 0, 2, 3, 5), (9, Fraction(2, 5), 4, 8, 8),
    (13, 1, 12, 0, 7), (13, 0, 0, 6, 6)])
def test_row_symmetry_both_forms_flag_a_corrupted_entry(d, r, a, n, al):
    f = fra_matrix(d, r, a)
    assert entrywise_row_symmetry(f, d, r, a) and stacked_row_symmetry(f, d, r, a)
    # over d * N turns from_exponents rebuilds f, and +1 moves one entry
    # by the smallest step that modulus can express
    exps = f.exponents.astype(object) * d
    assert PhaseMatrix.from_exponents(d, exps, f.scaled, f.modulus) == f
    exps[n, al] += 1
    bad = PhaseMatrix.from_exponents(d, exps, f.scaled, f.modulus)
    assert not entrywise_row_symmetry(bad, d, r, a)
    assert not stacked_row_symmetry(bad, d, r, a)


@pytest.mark.parametrize("d", range(2, 9))
def test_hra_diagonalizes_vra_and_its_neighbour_does_not(d):
    # the registered check qdft.hra_diagonalizes_vra on the stacks of V_ra,
    # H_ra (F_ra with its rows reversed) and Lambda_ra over a, and its
    # negative control: H_r,a+1 in place of H_ra fails in every case
    a = np.arange(d)
    for r in (0, Fraction(1, 3), Fraction(1, 2)):
        v, lam = weyl.vra_matrix(d, r, a), _lambda_ra(d, r, a)
        n, e = _fra_family(d, r, a)
        assert _diagonalizes(v, (n, e[:, ::-1]), lam).all()
        assert not _diagonalizes(v, (n, np.roll(e, -1, axis=0)[:, ::-1]), lam).any()


@pytest.mark.parametrize("d", range(2, 13))
def test_reduced_symmetry_relation_r0(d):
    # cyclic form at r = 0: (F)_{n-1 mod d, al} = q^{(d-1)a/2 - al + na} (F)_{n,al}
    for a in range(d):
        f = fra_matrix(d, 0, a)
        lead = Fraction((d - 1) * a, 2)
        for n in range(d):
            for al in range(d):
                want = f.entry(n, al) * q_power(d, lead - al + n * a)
                assert f.entry((n - 1) % d, al) == want


@pytest.mark.parametrize("d", range(2, 17))
def test_fourth_power_of_plain_dft(d):
    f = fra_matrix(d).to_complex()
    assert np.max(np.abs(np.linalg.matrix_power(f, 4) - np.eye(d))) < 1e-10


def test_float_r_falls_back_to_complex():
    import math
    f = fra_matrix(3, 1 / math.pi, 1)
    assert isinstance(f, np.ndarray)
    assert np.max(np.abs(f.conj().T @ f - np.eye(3))) < 1e-12


def test_params_validation():
    # d below 2 and a non-integer a are refused; a is taken mod d
    for bad in (lambda: fra_matrix(1), lambda: det_fra(1, 0)):
        with pytest.raises(ValueError):
            bad()
    for bad in (lambda: fra_matrix(5, 0, 0.5), lambda: det_fra(5, 0.5)):
        with pytest.raises(TypeError):
            bad()
    assert fra_matrix(5, 0, 7) == fra_matrix(5, 0, 2)
    assert det_fra(5, 7) == det_fra(5, 2)
    # rational r is exact, a float r is a dense complex array
    assert isinstance(fra_matrix(5, Fraction(1, 2)), PhaseMatrix)
    assert isinstance(fra_matrix(5, 0.25), np.ndarray)


EVALUATOR_RS = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 2)]


def entries(m):
    return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]


@pytest.mark.parametrize("d", [*range(2, 10), 43, 97, 1000])
@pytest.mark.parametrize("r", EVALUATOR_RS + [Fraction(1999, 1000), Fraction(-1999, 1000)])
def test_float_evaluator_matches_exact(d, r):
    """The float path's stated tolerance, 1e-11 for d <= 1000 and |r| <= 2
    (the qdft docstring); d = 1000, the bound of ``matrix --d``, checks
    F_ra at a = 0 and d - 1, d < 10 keeps its tighter 1e-12, and r = +-1.999
    sits at both ends of the range the CLI admits for a decimal --r."""
    if d == 1000:
        cases = [(fra_matrix, 0), (fra_matrix, d - 1)]
    else:
        cases = [(build, a) for a in range(d) for build in (fra_matrix, hra_matrix, dra_matrix)]
    tol = 1e-12 if d < 10 else 1e-11
    for build, a in cases:
        exact = build(d, r, a)
        dense = build(d, float(r), a)
        assert isinstance(exact, PhaseMatrix) and isinstance(dense, np.ndarray)
        assert np.max(np.abs(dense - np.asarray(exact, dtype=complex))) < tol


@pytest.mark.parametrize("d", range(2, 10))
@pytest.mark.parametrize("r", EVALUATOR_RS)
def test_hra_is_fra_with_rows_reversed(d, r):
    for a in range(d):
        assert entries(hra_matrix(d, r, a)) == entries(fra_matrix(d, r, a))[::-1]
        dense_h = hra_matrix(d, float(r), a)
        dense_f = fra_matrix(d, float(r), a)
        assert np.max(np.abs(dense_h - dense_f[::-1])) < 1e-12


@pytest.mark.parametrize("d", range(2, 10))
def test_exact_dra_equals_the_checked_constructor(d):
    # dra_matrix skips PhaseMatrix.monomial's checks, since _row reduces
    # every phase; it must equal the monomial(...) call it replaces, also
    # for a huge label and denominators whose modulus passes int64
    huge = 10 ** 30 + 1
    rs = [0, Fraction(1, 3), Fraction(-2, 5), Fraction(7, 3), Fraction(1, 10 ** 18 + 9),
          Fraction(huge, 10 ** 23 + 7)]
    for r in rs:
        for a in [*range(-d, 2 * d), huge]:
            row, den = _row(d, r, a)
            m, ref = dra_matrix(d, r, a), PhaseMatrix.monomial(range(d), row, den)
            assert (m.modulus, m.monomial_view, m.scaled) == (ref.modulus, ref.monomial_view,
                                                               ref.scaled)


# -- Gauss sums over arrays ----------------------------------------------------

def cmath_gauss_sum(u, v, w):
    """S(u, v, w) term by term with cmath, from its definition, each angle
    pi (u k^2 + v k)/w taken mod 2 pi in exact arithmetic first."""
    turns = (Fraction(u * k * k + Fraction(v) * k, 2 * w) % 1 for k in range(abs(w)))
    return sum(cmath.exp(2j * pi * float(t)) for t in turns)


@pytest.mark.parametrize("w", [*range(1, 41), -1, -2, -7, -40])
def test_array_gauss_sums_agree_with_the_scalar_ones(w):
    # every (u, v) mod 2|w| in one call, against the scalar call per (u, v)
    # and the sum from the definition
    period = 2 * abs(w)
    u, v = np.divmod(np.arange(period * period), period)
    got = gauss_sum(u, v, w)
    scalar = np.array([gauss_sum(int(x), int(y), w) for x, y in zip(u, v)])
    assert got.shape == u.shape and np.max(np.abs(got - scalar)) <= 1e-12
    cases = zip(u[::7].tolist(), v[::7].tolist())
    assert max(abs(gauss_sum(x, y, w) - cmath_gauss_sum(x, y, w)) for x, y in cases) <= 1e-12


def test_float_v_gauss_sums_broadcast_as_the_scalar_ones():
    u = np.arange(-3, 9)[:, None]
    v = np.array([0.37, -2.5, 1e20, 13.0])
    got = gauss_sum(u, v, 11)
    want = [[gauss_sum(int(x), y, 11) for y in v.tolist()] for x in u[:, 0]]
    assert got.tobytes() == np.array(want).tobytes()
    assert abs(gauss_sum(2, 0.37, -11) - cmath_gauss_sum(2, 0.37, -11)) <= 1e-12


def test_gauss_sum_blocks_leave_its_bytes(monkeypatch):
    # the terms run left to right whatever the block, so a block of 3
    # terms gives the bytes of one block of all of them
    args = [(1, 0, 1000), (7, Fraction(1, 3), -997), (3, 0.37, 500),
            (np.arange(5)[:, None], np.arange(4), 61)]
    want = [np.asarray(gauss_sum(*a)).tobytes() for a in args]
    monkeypatch.setattr(qdft, "_GAUSS_BLOCK", 3)
    assert [np.asarray(gauss_sum(*a)).tobytes() for a in args] == want


def test_gauss_sum_at_a_million_terms_is_within_1e_10():
    # exact exponent reduction: S(1, 0, w) = sqrt(w) e^{i pi/4}
    w = 10 ** 6
    assert abs(gauss_sum(1, 0, w) - sqrt(w) * cmath.exp(1j * pi / 4)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 6, 13, 32])
@pytest.mark.parametrize("r", [0, Fraction(1, 2), 1, 0.37])
def test_trace_fra_over_an_array_of_a_has_the_scalar_bytes(d, r):
    a = np.arange(-1, 2 * d)
    got = qdft.trace_fra(d, r, a)
    assert got.tobytes() == np.array([qdft.trace_fra(d, r, int(x)) for x in a]).tobytes()
