import cmath
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest

from mubkit.quon import (q_number, quon_rep, tensor_index, build_h,
                         build_vra_quonic, restrict_to_j, su2_generators,
                         eigenbasis, eigenvalue_vra, overlap_same_a,
                         rotation_conjugation_residual)
from mubkit import quon
from mubkit.phases import _phase_array, _phase_complex, q_power
from mubkit.weyl import vra_matrix, vra_power_phase
from mubkit.qdft import hra_matrix


def j_of(k):
    return Fraction(k - 1, 2)


def test_q_number_basics():
    for k in (2, 3, 7):
        assert q_number(1, k) == 1
        assert q_number(0, k) == 1  # defined convention, not the n>=1 formula
    got = q_number(2, 3)
    assert abs(got - (1 + cmath.exp(2j * pi / 3))) < 1e-15
    assert abs(got - cmath.exp(1j * pi / 3)) < 1e-15


def test_quon_rep_k2_shift():
    rep = quon_rep(2)
    assert rep.x_plus.tolist() == [[0, 0], [1, 0]]
    assert np.all(rep.x_plus @ np.array([0, 1]) == 0)  # x_+ kills the top state


def test_number_operator_diagonal():
    for k in (2, 4, 6):
        rep = quon_rep(k)
        assert np.allclose(rep.n_x, np.diag(np.arange(k)))
        assert np.allclose(rep.n_y, np.diag(np.arange(k)))


def test_lowering_coefficient_k3():
    rep = quon_rep(3)
    e2 = np.zeros(3); e2[2] = 1
    got = rep.x_minus @ e2
    assert abs(got[1] - cmath.exp(1j * pi / 3)) < 1e-15


@pytest.mark.parametrize("k", range(2, 9))
def test_quon_algebra_relations(k):
    q = cmath.exp(2j * pi / k)
    rep = quon_rep(k)
    for plus, minus, num in ((rep.x_plus, rep.x_minus, rep.n_x),
                             (rep.y_plus, rep.y_minus, rep.n_y)):
        qcomm = minus @ plus - q * plus @ minus
        assert np.max(np.abs(qcomm - np.eye(k))) < 1e-13
        assert np.max(np.abs(num @ plus - plus @ num - plus)) < 1e-13
        assert np.max(np.abs(num @ minus - minus @ num + minus)) < 1e-13
        # nilpotency is structural: the k-th powers are exactly zero
        assert not np.any(np.linalg.matrix_power(plus, k))
        assert not np.any(np.linalg.matrix_power(minus, k))
        assert np.array_equal(num, num.conj().T)


def test_build_h_entries():
    # build_h gives the diagonal of h, indexed like the tensor space
    k = 3
    h = build_h(k)
    assert h.shape == (k * k,)
    assert h[tensor_index(k, 0, 2)] == 0
    assert h[tensor_index(k, 1, 0)] == 1
    assert h[tensor_index(k, 2, 1)] == pytest.approx(2.0)


def test_vra_action_table_k2_trivial_parameters():
    k = 2
    v = build_vra_quonic(k, 0, 0)
    f = lambda n1, n2: tensor_index(k, n1, n2)
    e = np.eye(4)
    # |1,1) -> |0,0);  |0,1) -> |1,0);  |0,0) -> |1,1);  |1,0) -> |0,1)
    assert np.allclose(v @ e[f(1, 1)], e[f(0, 0)], atol=1e-14)
    assert np.allclose(v @ e[f(0, 1)], e[f(1, 0)], atol=1e-14)
    assert np.allclose(v @ e[f(0, 0)], e[f(1, 1)], atol=1e-14)
    assert np.allclose(v @ e[f(1, 0)], e[f(0, 1)], atol=1e-14)


def test_vra_action_main_row_k3():
    k = 3
    q = cmath.exp(2j * pi / 3)
    v = build_vra_quonic(k, 0, 1)
    state = np.zeros(9); state[tensor_index(k, 0, 2)] = 1
    got = v @ state
    want = np.zeros(9, complex); want[tensor_index(k, 1, 1)] = q ** 2
    assert np.max(np.abs(got - want)) < 1e-14


def test_vra_double_corner_phase():
    k = 4
    r = Fraction(1, 3)
    v = build_vra_quonic(k, r, 2)
    state = np.zeros(16); state[tensor_index(k, k - 1, 0)] = 1
    got = v @ state
    want = np.zeros(16, complex)
    want[tensor_index(k, 0, k - 1)] = cmath.exp(1j * pi * (k - 1) * float(r))
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("k,r,a", [(2, 0, 0), (3, 1, 2), (4, Fraction(1, 2), 3),
                                   (5, Fraction(1, 3), 2), (6, 1, 1)])
def test_vra_kth_power_is_global_phase(k, r, a):
    v = build_vra_quonic(k, r, a)
    got = np.linalg.matrix_power(v, k)
    want = vra_power_phase(k, r, a).to_complex() * np.eye(k * k)
    assert np.max(np.abs(got - want)) < 1e-12


def half_q_diag(k, weight):
    """diag over |n1,n2) of exp(i pi weight(n1, n2) / k)."""
    return np.diag([cmath.exp(1j * pi * weight(n1, n2) / k)
                    for n1 in range(k) for n2 in range(k)])


def dense_vra(k, r=0, a=0):
    """v_ra = s_x s_y from the docstring formulas as dense k^2 x k^2
    products: four Kronecker products, matrix powers of the ladders over
    [k-1]_q! (which overflows near k = 200), and one matmul."""
    rep = quon_rep(k)
    a = a % k
    phi = pi * (k - 1) * float(r)
    fact = np.prod([q_number(i, k) for i in range(1, k)])
    eye = np.eye(k)
    wrap_x = np.linalg.matrix_power(rep.x_minus, k - 1) / fact
    wrap_y = np.linalg.matrix_power(rep.y_plus, k - 1) / fact
    s_x = (half_q_diag(k, lambda n1, n2: a * (n1 + n2)) @ np.kron(rep.x_plus, eye)
           + cmath.exp(1j * phi / 2) * np.kron(wrap_x, eye))
    s_y = (np.kron(eye, rep.y_minus) @ half_q_diag(k, lambda n1, n2: -a * (n1 - n2))
           + cmath.exp(1j * phi / 2) * np.kron(eye, wrap_y))
    return s_x @ s_y


@pytest.mark.parametrize("k", range(2, 9))
def test_scatter_build_matches_dense_kron_product(k):
    # measured worst entry difference over this grid: 4.6e-15
    for r in (0, 1, Fraction(1, 3), Fraction(-7, 4), 0.37, -1.25):
        for a in range(k):
            got = build_vra_quonic(k, r, a)
            assert got.shape == (k * k, k * k)
            assert np.max(np.abs(got - dense_vra(k, r, a))) < 1e-13


def wrap_weights_from_generators(k, r, a):
    """quon._vra_monomial with its wrap weights read from the dense
    generator matrices of quon_rep, as it was first written."""
    rep = quon_rep(k)
    a = np.asarray(a)[..., None]
    half = cmath.exp(1j * pi * (k - 1) * float(r) / 2)
    n = np.arange(1, k)
    qn = np.array(quon._q_numbers(k, k))[n]
    wrap_x = np.prod(rep.x_minus[n - 1, n] / qn)
    wrap_y = np.prod(rep.y_plus[n, n - 1] / qn)
    n1, n2 = np.divmod(np.arange(k * k), k)
    m1, m2 = (n1 + 1) % k, (n2 - 1) % k
    weight_y = np.where(n2 > 0, _phase_array(-a * (n1 - n2) % (2 * k), 2 * k), half * wrap_y)
    weight_x = np.where(n1 < k - 1, _phase_array(a * (m1 + m2) % (2 * k), 2 * k), half * wrap_x)
    return m1 * k + m2, weight_x * weight_y


@pytest.mark.parametrize("k", [*range(2, 65), 256])
def test_wrap_weights_from_q_numbers_keep_their_bytes(k):
    # the wrap weights read [n]_q directly, not from six dense k x k
    # generators: the weights and the spin blocks keep every bit (at
    # k = 256 for five a, as every a would hold 268 MB of weights)
    a = np.arange(k) if k <= 64 else np.array([0, 1, 5, 128, 255])
    for r in (0, Fraction(1, 3), 0.37):
        dest, weight = quon._vra_monomial(k, r, a)
        want_dest, want = wrap_weights_from_generators(k, r, a)
        assert dest.tobytes() == want_dest.tobytes() and weight.tobytes() == want.tobytes()
        want_block = quon._restrict_monomial(want_dest, want, j_of(k))
        assert quon._vra_block(k, r, a).tobytes() == want_block.tobytes()


def test_vra_kth_power_matches_printed_case():
    # at k=3, r=1, a=2 the constant reduces to e^{i phi_r} = e^{2 i pi} = 1
    v = build_vra_quonic(3, 1, 2)
    assert np.max(np.abs(np.linalg.matrix_power(v, 3) - np.eye(9))) < 1e-13


def test_restrict_h_gives_ladder_weights():
    k = 4
    j = j_of(k)
    h = restrict_to_j(np.diag(build_h(k)), j)
    # diagonal sqrt((j+m)(j-m+1)) with m = j - n
    for n in range(k):
        m = float(j) - n
        assert h[n, n] == pytest.approx(sqrt((float(j) + m) * (float(j) - m + 1)))


def test_restrict_identity():
    k = 5
    assert np.allclose(restrict_to_j(np.eye(k * k), j_of(k)), np.eye(k))


def test_restrict_detects_leakage():
    k = 3
    rep = quon_rep(k)
    leaky = np.kron(rep.x_plus, np.eye(k))  # raises n1 only, leaves the subspace
    with pytest.raises(ValueError, match="not stable"):
        restrict_to_j(leaky, j_of(k))


def test_monomial_restriction_detects_leakage():
    # x_+ (x) I as a monomial: |n1, n2) -> |n1+1, n2), and 0 from n1 = k-1
    k = 3
    n1, n2 = np.divmod(np.arange(k * k), k)
    dest = tensor_index(k, np.minimum(n1 + 1, k - 1), n2)
    weight = np.where(n1 < k - 1, 1.0 + 0j, 0j)
    with pytest.raises(ValueError, match="not stable"):
        quon._restrict_monomial(dest, weight, j_of(k))


def test_monomial_restriction_equals_dense_restriction():
    for k in range(2, 9):
        for r, a in ((0, 0), (Fraction(1, 3), k - 1), (0.37, k // 2)):
            dense = restrict_to_j(build_vra_quonic(k, r, a), j_of(k))
            assert np.array_equal(quon._vra_block(k, r, a), dense)


def test_restricted_v_equals_direct_2x2():
    got = restrict_to_j(build_vra_quonic(2, 0, 0), Fraction(1, 2))
    assert np.max(np.abs(got - vra_matrix(2, 0, 0).to_complex())) < 1e-14


@pytest.mark.parametrize("k", range(2, 9))
def test_oracle_equivalence_sweep(k):
    for r in (0, 1, Fraction(1, 3)):
        for a in range(k):
            got = restrict_to_j(build_vra_quonic(k, r, a), j_of(k))
            want = vra_matrix(k, r, a).to_complex()
            assert np.max(np.abs(got - want)) < 1e-12


def test_su2_standard_spin_half():
    trip = su2_generators(Fraction(1, 2), 0, 0)
    assert np.allclose(trip.j_plus, [[0, 1], [0, 0]], atol=1e-14)
    assert np.allclose(trip.j_minus, [[0, 0], [1, 0]], atol=1e-14)
    assert np.allclose(trip.j_z, [[0.5, 0], [0, -0.5]], atol=1e-14)


def test_jz_eigenvalues_j1():
    trip = su2_generators(1, 0, 2)
    # component n corresponds to m = j - n
    assert np.allclose(trip.j_z, np.diag([1.0, 0.0, -1.0]), atol=1e-12)


def test_jplus_coefficient_j1_a1():
    trip = su2_generators(1, 0, 1)
    q = cmath.exp(2j * pi / 3)
    # j_+ |1,0> = q^{(j-m)a} sqrt((j-m)(j+m+1)) |1,1> = q sqrt(2) |1,1>
    col = trip.j_plus[:, 1]  # m = 0 is computational index 1
    want = np.zeros(3, complex); want[0] = q * sqrt(2)
    assert np.max(np.abs(col - want)) < 1e-12


@pytest.mark.parametrize("two_j", range(1, 12))
def test_su2_closure(two_j):
    j = Fraction(two_j, 2)
    for r in (0, Fraction(1, 2)):
        for a in range(two_j + 1):
            t = su2_generators(j, r, a)
            comm = lambda x, y: x @ y - y @ x
            assert np.max(np.abs(comm(t.j_z, t.j_plus) - t.j_plus)) < 1e-10
            assert np.max(np.abs(comm(t.j_z, t.j_minus) + t.j_minus)) < 1e-10
            assert np.max(np.abs(comm(t.j_plus, t.j_minus) - 2 * t.j_z)) < 1e-10


@pytest.mark.parametrize("two_j", range(1, 12))
def test_casimir(two_j):
    j = Fraction(two_j, 2)
    t = su2_generators(j, Fraction(1, 2), 1 % (two_j + 1))
    casimir = (t.j_plus @ t.j_minus + t.j_minus @ t.j_plus) / 2 + t.j_z @ t.j_z
    jj = float(j) * (float(j) + 1)
    assert np.max(np.abs(casimir - jj * np.eye(two_j + 1))) < 1e-10


def test_eigenbasis_example_spin_half():
    # alpha component phases e^{i pi (a/2 - r/4 + alpha)} and e^{i pi r/4}
    for a in (0, 1):
        for r in (0, 1, Fraction(1, 2)):
            vecs = eigenbasis(Fraction(1, 2), r, a)
            for alpha, v in enumerate(vecs):
                top = cmath.exp(1j * pi * (a / 2 - float(r) / 4 + alpha)) / sqrt(2)
                bot = cmath.exp(1j * pi * float(r) / 4) / sqrt(2)
                assert abs(v[0] - top) < 1e-14
                assert abs(v[1] - bot) < 1e-14


def test_eigenbasis_example_spin_one():
    # B_00 at j=1: columns (1,1,1), (q^2,q,1), (q,q^2,1) over sqrt(3)
    q = cmath.exp(2j * pi / 3)
    vecs = eigenbasis(1, 0, 0)
    want = [np.array([1, 1, 1]), np.array([q * q, q, 1]), np.array([q, q * q, 1])]
    for v, w in zip(vecs, want):
        assert np.max(np.abs(v - w / sqrt(3))) < 1e-14


def test_eigenbasis_matches_hra_columns():
    for k in (2, 3, 5):
        for a in range(k):
            h = hra_matrix(k, Fraction(1, 2), a).to_complex()
            vecs = eigenbasis(j_of(k), Fraction(1, 2), a)
            for alpha in range(k):
                assert np.max(np.abs(vecs[alpha] - h[:, alpha])) < 1e-14


def test_eigenbasis_orthonormal():
    vecs = eigenbasis(Fraction(3, 2), Fraction(1, 2), 2)
    for i, u in enumerate(vecs):
        for jj, w in enumerate(vecs):
            want = 1.0 if i == jj else 0.0
            assert abs(np.vdot(u, w) - want) < 1e-13


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(2, 5), Fraction(3, 2)])
def test_float_evaluator_matches_exact(k, r):
    j = j_of(k)
    for a in range(k):
        exact = eigenbasis(j, r, a)
        dense = eigenbasis(j, float(r), a)
        assert np.max(np.abs(np.array(dense) - np.array(exact))) < 1e-12
        for alpha in range(k):
            assert abs(eigenvalue_vra(j, float(r), a, alpha)
                       - eigenvalue_vra(j, r, a, alpha)) < 1e-12


@pytest.mark.parametrize("r", [0.37, -1.3, 1.999, 0.001])
def test_float_r_matches_exact_route_at_the_same_binary_value(r):
    # the integer terms of each exponent are reduced before the float r
    # term joins them; measured worst gap 3.7e-15 (eigenbasis) and
    # 2.6e-15 (eigenvalues) over this grid
    exact = Fraction(r)
    for d in [*range(2, 40), 101, 257]:
        j = j_of(d)
        for a in (0, 1, d // 2, d - 1):
            got = np.array(eigenbasis(j, r, a))
            assert np.max(np.abs(got - np.array(eigenbasis(j, exact, a)))) <= 1e-14
            for alpha in range(d):
                assert abs(eigenvalue_vra(j, r, a, alpha)
                           - eigenvalue_vra(j, exact, a, alpha)) <= 1e-14


@pytest.mark.parametrize("n", [3, 8, 12, 257])
def test_phase_complex_float_exponent_equals_phase_array(n):
    # a float exponent reduced mod n can round up to n itself; the two
    # read one quarter-turn table, so their bytes match
    for e in (0.0, n / 4, n / 2, 3 * n / 4, 0.3, float(n)):
        assert (np.asarray(_phase_complex(e, n)).tobytes()
                == _phase_array(np.array([e]), n)[0].tobytes())


@pytest.mark.parametrize("k", range(2, 9))
def test_eigenvalue_equation(k):
    j = j_of(k)
    for r in (0, 1, Fraction(1, 3)):
        for a in range(k):
            v = restrict_to_j(build_vra_quonic(k, r, a), j)
            for alpha, vec in enumerate(eigenbasis(j, r, a)):
                lam = eigenvalue_vra(j, r, a, alpha)
                assert np.max(np.abs(v @ vec - lam * vec)) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_pseudo_invariance_under_cyclic_rotations(k):
    for p in range(k):
        assert rotation_conjugation_residual(j_of(k), Fraction(1, 3), 1 % k, p) < 1e-12


def test_overlap_same_vector_is_one():
    assert overlap_same_a(1, Fraction(1, 2), Fraction(1, 2), 1, 2, 2) == pytest.approx(1)


def test_overlap_same_r_distinct_alpha_vanishes():
    assert abs(overlap_same_a(Fraction(3, 2), 1, 1, 2, 0, 3)) < 1e-14


def test_overlap_two_route_worked_case():
    j = 1
    direct = np.vdot(eigenbasis(j, 0, 0)[0], eigenbasis(j, Fraction(1, 2), 0)[0])
    closed = overlap_same_a(j, 0, Fraction(1, 2), 0, 0, 0)
    assert abs(direct - closed) < 1e-12


@pytest.mark.parametrize("two_j", range(1, 7))
def test_overlap_two_route_sweep(two_j):
    j = Fraction(two_j, 2)
    d = two_j + 1
    grid = (0, Fraction(1, 2), 1)
    for r in grid:
        for s in grid:
            basis_r = eigenbasis(j, r, 0)
            basis_s = eigenbasis(j, s, 0)
            for alpha in range(d):
                for beta in range(d):
                    direct = np.vdot(basis_r[alpha], basis_s[beta])
                    closed = overlap_same_a(j, r, s, 0, alpha, beta)
                    assert abs(direct - closed) < 1e-10


def test_invalid_spin_rejected():
    with pytest.raises(ValueError):
        eigenbasis(Fraction(1, 3), 0, 0)
    with pytest.raises(ValueError):
        q_number(1, 1)
    with pytest.raises(TypeError):
        eigenbasis(1, 0, 1.0)


def test_eigenvalue_vra_takes_integer_labels_only():
    # eigenvalue_vra checks a as qdft does, like eigenbasis
    for a in (1.5, 1.0, Fraction(1, 2)):
        with pytest.raises(TypeError):
            eigenvalue_vra(1, 0, a, 0)
        with pytest.raises(TypeError):
            eigenbasis(1, 0, a)
    assert eigenvalue_vra(1, Fraction(1, 3), -2, 1) == eigenvalue_vra(1, Fraction(1, 3), 1, 1)


def exact_phase_route(d, e):
    """q**e for rational e through ExactPhase, one entry at a time."""
    return q_power(d, e).to_complex()


@pytest.mark.parametrize("r", [0, Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), 1,
                               Fraction(-7, 4)])
def test_integer_phases_are_bit_identical_to_exact_phase_route(r):
    # the reference evaluates the documented exponents directly:
    # component n = j - m of vector alpha is q^{(j+m)(j-m+1)a/2 - jmr + (j+m)alpha},
    # and the eigenvalue is q^{j(r+a) - alpha}.  The bytes match, signed
    # zeros included: ExactPhase.to_complex and PhaseMatrix.to_complex
    # read one quarter-turn table
    for d in range(2, 40):
        j = j_of(d)
        for a in (0, 1, d // 2, d - 1):
            # m = j - n: j+m = d-1-n and j-m+1 = n+1
            lead = [(d - 1 - n) * (n + 1) * Fraction(a, 2) - j * (j - n) * r for n in range(d)]
            want = np.array([[exact_phase_route(d, lead[n] + (d - 1 - n) * alpha)
                              for n in range(d)] for alpha in range(d)]) / sqrt(d)
            assert np.asarray(eigenbasis(j, r, a)).tobytes() == want.tobytes()
            for alpha in range(d):
                want = np.asarray(exact_phase_route(d, j * (r + a) - alpha))
                assert np.asarray(eigenvalue_vra(j, r, a, alpha)).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [255, 256])
@pytest.mark.parametrize("r", [Fraction(1, 3), 0.37])
def test_su2_oracle_at_k_in_the_hundreds(k, r):
    # measured at k = 255 and 256, a = 5: closure and Casimir residuals
    # up to 4.3e-14 j(j+1), block against weyl up to 4.2e-14, k-th power
    # against the exact phase up to 2.8e-13, weights unimodular to 7.5e-15
    a = 5
    j = j_of(k)
    jj = float(j) * (float(j) + 1)
    t = su2_generators(j, r, a)
    comm = lambda x, y: x @ y - y @ x
    assert np.max(np.abs(comm(t.j_z, t.j_plus) - t.j_plus)) <= 1e-12 * jj
    assert np.max(np.abs(comm(t.j_z, t.j_minus) + t.j_minus)) <= 1e-12 * jj
    assert np.max(np.abs(comm(t.j_plus, t.j_minus) - 2 * t.j_z)) <= 1e-12 * jj
    casimir = (t.j_plus @ t.j_minus + t.j_minus @ t.j_plus) / 2 + t.j_z @ t.j_z
    assert np.max(np.abs(casimir - jj * np.eye(k))) <= 1e-12 * jj
    # a decimal r is compared with the exact matrix at the same binary value
    want = vra_matrix(k, Fraction(r), a).to_complex()
    assert np.max(np.abs(quon._vra_block(k, r, a) - want)) < 1e-12
    # [k-1]_q! overflows here; the wrap weights stay finite and unimodular
    dest, weight = quon._vra_monomial(k, r, a)
    assert np.all(np.isfinite(weight))
    assert np.max(np.abs(np.abs(weight) - 1)) < 1e-12
    # the k-fold composite of the map is the identity times the global phase
    start = np.arange(k * k)
    at, product = start, np.ones(k * k, dtype=complex)
    for _ in range(k):
        product = product * weight[at]
        at = dest[at]
    assert np.array_equal(at, start)
    phase = vra_power_phase(k, Fraction(r), a).to_complex()
    assert np.max(np.abs(product - phase)) < 1e-11


def test_quon_relations_at_k_256():
    # measured residual 1.7e-12 against generator entries up to k/pi
    k = 256
    q = cmath.exp(2j * pi / k)
    rep = quon_rep(k)
    for plus, minus, num in ((rep.x_plus, rep.x_minus, rep.n_x),
                             (rep.y_plus, rep.y_minus, rep.n_y)):
        assert np.max(np.abs(minus @ plus - q * plus @ minus - np.eye(k))) < 1e-11
        assert np.max(np.abs(num @ plus - plus @ num - plus)) < 1e-11
        assert np.max(np.abs(num @ minus - minus @ num + minus)) < 1e-11
        assert not np.any(np.linalg.matrix_power(plus, k))
        assert not np.any(np.linalg.matrix_power(minus, k))


def test_every_builder_of_v_ra_takes_integer_a_only():
    # a = 0.5 was read as an a of its own by the oscillator builders
    with pytest.raises(TypeError):
        su2_generators(1, 0, 0.5)
    with pytest.raises(TypeError):
        build_vra_quonic(3, 0, 1.5)
    with pytest.raises(TypeError):
        rotation_conjugation_residual(1, 0, 0.5, 1)
    with pytest.raises(TypeError):
        eigenbasis(1, 0, 0.5)
    with pytest.raises(TypeError):
        eigenvalue_vra(1, 0, 0.5, 0)
    # a stack of a needs an integer dtype
    with pytest.raises(TypeError):
        quon._vra_monomial(3, 0, np.array([0.0, 1.0]))
    assert su2_generators(1, 0, -1).a == 2


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("r", [0, Fraction(1, 3), 0.37])
def test_stacked_a_gives_the_bytes_of_one_a_at_a_time(k, r):
    a = np.arange(-1, 2 * k)
    dest, weight = quon._vra_monomial(k, r, a)
    blocks = quon._vra_block(k, r, a)
    triples = quon._su2_triple(k, r, a)
    assert weight.shape == (len(a), k * k) and blocks.shape == (len(a), k, k)
    for i, one in enumerate(a.tolist()):
        one_dest, one_weight = quon._vra_monomial(k, r, one)
        assert np.array_equal(one_dest, dest)
        assert one_weight.tobytes() == weight[i].tobytes()
        assert quon._vra_block(k, r, one).tobytes() == blocks[i].tobytes()
        t = su2_generators(j_of(k), r, one)
        for got, stacked in zip((t.j_plus, t.j_minus, t.j_z), triples):
            assert got.tobytes() == stacked[i].tobytes()
