"""Every stacked family equals the stack of its scalar builder.

The verify checks read whole families at once: the Weyl label maps
evaluated by ``weyl._shift_clock`` on integer arrays, V_ra and its band
form over an array of a, and the F_ra, H_ra, D_ra and Lambda_ra rows of
qdft's row expression over an array of a.  Each oracle here builds the
same matrices one at a time with the public builders, stacks the
monomial ones with ``phases._stack`` and compares the full ones member
by member; rows are compared as turns, since a family's common modulus
need not be the lcm of the minimal ones.
"""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit import phases, qdft, verify, weyl
from mubkit.phases import PhaseMatrix, q_power

HUGE = 10 ** 23
# r = 1/(10^23 + 7) puts every modulus of the family above 2^63
RS = (0, 1, Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(-7, 4),
      Fraction(1, HUGE + 7))


def assert_same_turns(exps, n, want, m):
    """Two stacks of exponents, over moduli n and m, hold the same turns."""
    common = lcm(n, m)
    assert np.array_equal(np.asarray(exps).astype(object) * (common // n),
                          np.asarray(want).astype(object) * (common // m))


def assert_same_monomials(stack, mats):
    n, cols, exps = stack
    m, want_cols, want_exps = phases._stack(mats)
    assert np.array_equal(cols, want_cols)
    assert_same_turns(exps, n, want_exps, m)


def assert_same_full(stack, mats):
    n, exps = stack
    assert len(exps) == len(mats)
    for e, m in zip(exps, mats):
        assert_same_turns(e, n, m.exponents, m.modulus)


def labels(values):
    """An int64 array of small labels, or an object array once a product of
    two labels (T's phase -n1 n2) could pass int64."""
    dtype = np.int64 if all(abs(v) < 2 ** 31 for v in values) else object
    return np.array(values, dtype=dtype)


@pytest.mark.parametrize("d", range(1, 14))
def test_label_maps_stack_every_label(d):
    # every P(a, b, c) mod d, every T_(n1, n2) mod 2d and every q^(t/2) I,
    # t mod 4d: the label maps evaluated on arrays against their builders
    g = list(itertools.product(range(d), repeat=3))
    a, b, c = labels([x for x, _, _ in g]), labels([y for _, y, _ in g]), labels([z for _, _, z in g])
    assert_same_monomials(weyl._shift_clock(d, *weyl._pauli_labels(a, b, c)),
                          [weyl.pauli_element_matrix(d, x) for x in g])
    s = list(itertools.product(range(2 * d), repeat=2))
    n1, n2 = labels([x for x, _ in s]), labels([y for _, y in s])
    assert_same_monomials(weyl._shift_clock(d, *weyl._t_labels(n1, n2)),
                          [weyl.t_matrix(d, x) for x in s])
    t = labels(range(4 * d))
    assert_same_monomials(weyl._shift_clock(d, *weyl._phase_labels(t, 2)),
                          [PhaseMatrix.identity(d).scaled_by(q_power(2 * d, x)) for x in range(4 * d)])


@pytest.mark.parametrize("d", range(1, 14))
def test_vra_and_band_families_over_every_a(d):
    a = np.arange(d)
    for r in RS:
        for f in (weyl.vra_matrix, weyl.vra_band_matrix):
            assert_same_monomials(f(d, r, a), [f(d, r, x) for x in range(d)])


@pytest.mark.parametrize("d", range(2, 14))
def test_fra_hra_dra_and_lambda_families_over_every_a(d):
    a = np.arange(d)
    for r in RS:
        n, e = verify._fra_family(d, r, a)
        assert_same_full((n, e), [qdft.fra_matrix(d, r, x) for x in range(d)])
        assert_same_full((n, e[:, ::-1]), [qdft.hra_matrix(d, r, x) for x in range(d)])
        assert_same_monomials(verify._dra_family(d, r, a),
                              [qdft.dra_matrix(d, r, x) for x in range(d)])
        # a as Python ints: r's denominator times a can pass 2^63
        assert_same_monomials(verify._lambda_ra(d, r, a.astype(object)),
                              [verify._lambda_ra(d, r, x) for x in range(d)])


@pytest.mark.parametrize("d", range(1, 17))
def test_xz_powers_are_the_powers_of_x_and_z(d):
    n, cols, exps = verify._xz_powers(d, d + 1)
    want = [m ** p for p in range(d + 1) for m in (weyl.x_matrix(d), weyl.z_matrix(d))]
    assert_same_monomials((n, cols, exps), want)


FAMILY_DRAWS = settings(max_examples=60, deadline=None)
BIG = st.integers(-HUGE, HUGE)


@FAMILY_DRAWS
@given(d=st.integers(1, 64), data=st.data())
def test_label_maps_on_drawn_labels(d, data):
    g = data.draw(st.lists(st.tuples(BIG, BIG, BIG), min_size=1, max_size=20))
    cols = [labels(list(x)) for x in zip(*g)]
    assert_same_monomials(weyl._shift_clock(d, *weyl._pauli_labels(*cols)),
                          [weyl.pauli_element_matrix(d, x) for x in g])
    s = [x[:2] for x in g]
    assert_same_monomials(weyl._shift_clock(d, *weyl._t_labels(*cols[:2])),
                          [weyl.t_matrix(d, x) for x in s])


@FAMILY_DRAWS
@given(d=st.integers(2, 64),
       r=st.one_of(st.sampled_from(RS), st.fractions(-3, 3, max_denominator=HUGE + 7)),
       data=st.data())
def test_families_on_drawn_a(d, r, data):
    a = np.array(data.draw(st.lists(st.integers(-3 * d, 3 * d), min_size=1, max_size=8)))
    for f in (weyl.vra_matrix, weyl.vra_band_matrix):
        assert_same_monomials(f(d, r, a), [f(d, r, int(x)) for x in a])
    assert_same_full(verify._fra_family(d, r, a), [qdft.fra_matrix(d, r, int(x)) for x in a])
    assert_same_monomials(verify._dra_family(d, r, a), [qdft.dra_matrix(d, r, int(x)) for x in a])


def test_stacked_rows_need_integer_a():
    with pytest.raises(TypeError):
        qdft._row(5, 0, np.array([0.5]))
    # labels are integers on both paths, as the scalar builders require
    for a in (1.5, np.array([0.5, 1.0])):
        with pytest.raises(TypeError):
            weyl.vra_band_matrix(5, 0, a)
        with pytest.raises(TypeError):
            weyl.vra_matrix(5, 0, a)
    with pytest.raises(TypeError):
        weyl._shift_clock(5, np.array([0.5]), 0)


@pytest.mark.parametrize("d", [2, 5, 13, 97])
@pytest.mark.parametrize("r", [0.25, 0.7, -1.237])
def test_float_r_rows_stack_as_the_scalar_rows(d, r):
    # a float r takes a stack of a as a rational one does, with the bytes
    # of each scalar row: mub_prime builds its float bases from it
    a = np.arange(-d, 2 * d)
    rows, den = qdft._row(d, r, a)
    want = [qdft._row(d, r, int(x)) for x in a]
    assert rows.dtype == float and {w[1] for w in want} == {den}
    assert rows.tobytes() == np.array([w[0] for w in want]).tobytes()
