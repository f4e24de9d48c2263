"""Property tests of the PhaseMatrix kernel against two references.

The matrices are monomial or full, the two shapes a PhaseMatrix has.
The first reference keeps every entry as a Fraction of a turn (or None
for exact zero) and multiplies entry by entry; exact results must equal
it, and a product it cannot hold as one phase per entry must raise
ValueError.  The second is the dense complex view,
np.asarray(m, dtype=complex); every result must agree with it within
1e-12.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm, sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mubkit import phases
from mubkit.cli import payload_to_matrix, phase_matrix_payload
from mubkit.phases import (ExactPhase, PhaseMatrix, _complex_sum, pairwise_products,
                           trace_gram, trace_pair)
from mubkit.qdft import dra_matrix, fra_matrix, hra_matrix
from mubkit.weyl import u_ab

TOL = 1e-12

# moduli of the generated matrices: small ones share factors, the large
# ones exceed int64 once two of them are combined
SMALL_MODULI = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 30, 49]
LARGE_MODULI = [4 * 13 * 1_000_000_007, 2 ** 61 - 1, 10 ** 18 + 9]

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


# -- the Fraction reference ----------------------------------------------------

def ref_product(a, b):
    """Entry-wise product of turn tables, or None where an entry is a sum."""
    d = len(a)
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for k in range(d):
            if a[i][k] is None:
                continue
            for j in range(d):
                if b[k][j] is None:
                    continue
                if out[i][j] is not None:
                    return None
                out[i][j] = (a[i][k] + b[k][j]) % 1
    return out


def ref_dagger(a):
    d = len(a)
    return [[None if a[j][i] is None else -a[j][i] % 1 for j in range(d)] for i in range(d)]


# every prime that divides a modulus or a phase denominator used below
PRIMES = [2, 3, 5, 7, 13, 1_000_000_007, 1_000_000_009, 2 ** 61 - 1, 10 ** 18 + 9]


def ref_exact_sum(turns):
    """The exact-sum shortcuts on Fractions: empty, all equal, and rotation
    by 1/p for each prime p dividing the common denominator."""
    if not turns:
        return 0j
    counts = Counter(turns)
    if len(counts) == 1:
        ((t, k),) = counts.items()
        return k * ExactPhase(t).to_complex()
    den = 1
    for t in counts:
        den = den * t.denominator // gcd(den, t.denominator)
    for p in PRIMES:
        if den % p == 0 and Counter((t + Fraction(1, p)) % 1
                                    for t in counts.elements()) == counts:
            return 0j
    return None


def any_shift_sum(exps, n):
    """Oracle for _complex_sum that factors nothing: the empty sum, the
    all-equal sum, and 0j for a multiset that some shift e - e0 (e0 the
    first exponent) leaves unchanged, trying every such shift; any other
    sum is the float sum in the given order."""
    if not exps:
        return 0j
    counts = Counter(exps)
    if len(counts) == 1:
        ((e, k),) = counts.items()
        return k * phases._phase_complex(e, n)
    for e in counts:
        shift = e - exps[0]
        if shift and all(counts.get((f + shift) % n) == k for f, k in counts.items()):
            return 0j
    return sum(phases._phase_complex(e, n) for e in exps)


def table(m):
    return [[None if m.entry(i, j) is None else m.entry(i, j).turns
             for j in range(m.dim)] for i in range(m.dim)]


def build(turns, scaled):
    """PhaseMatrix of a monomial or full table of turns (None for zero)."""
    dim = len(turns)
    den = lcm(*(t.denominator for row in turns for t in row if t is not None))
    # a turn t is q**(e / den) with q = exp(2*pi*i/dim) and e = t * den * dim
    exps = [[None if t is None else t.numerator * (den // t.denominator) * dim for t in row]
            for row in turns]
    if all(e is not None for row in exps for e in row):
        return PhaseMatrix.from_exponents(dim, exps, scaled, den)
    cols = [next(j for j, e in enumerate(row) if e is not None) for row in exps]
    return PhaseMatrix.monomial(cols, [row[c] for row, c in zip(exps, cols)], den, scaled)


def dense(m):
    return np.asarray(m, dtype=complex)


# -- strategies ------------------------------------------------------------------

moduli = st.one_of(st.sampled_from(SMALL_MODULI), st.sampled_from(LARGE_MODULI))


@st.composite
def monomial_tables(draw, dim):
    n = draw(moduli)
    cols = draw(st.permutations(range(dim)))
    turns = [[None] * dim for _ in range(dim)]
    for i, c in enumerate(cols):
        turns[i][c] = Fraction(draw(st.integers(0, n - 1)), n)
    return turns


@st.composite
def full_tables(draw, dim):
    n = draw(moduli)
    return [[Fraction(draw(st.integers(0, n - 1)), n) for _ in range(dim)] for _ in range(dim)]


@st.composite
def matrix_pairs(draw):
    dim = draw(st.integers(1, 5))
    tables = st.one_of(monomial_tables(dim), full_tables(dim))
    return (draw(tables), draw(st.booleans()), draw(tables), draw(st.booleans()))


# -- properties ------------------------------------------------------------------

@PROPERTY_SETTINGS
@given(matrix_pairs())
def test_round_trip_equality_and_dagger(pair):
    ta, sa, tb, sb = pair
    a, b = build(ta, sa), build(tb, sb)
    assert table(a) == ta
    assert a == build(ta, sa)
    present = [[t is not None for t in row] for row in ta]
    monomial = all(sum(row) == 1 for row in present) and all(sum(col) == 1 for col in zip(*present))
    assert (a.monomial_view is not None) == monomial
    if monomial:
        cols, exps = a.monomial_view
        assert [Fraction(e, a.modulus) for e in exps] == [ta[i][c] for i, c in enumerate(cols)]
    assert (a == b) == (ta == tb and sa == sb)
    assert table(a.dagger()) == ref_dagger(ta)
    assert np.max(np.abs(dense(a.dagger()) - dense(a).conj().T)) < TOL


@PROPERTY_SETTINGS
@given(matrix_pairs())
def test_matmul_matches_both_references(pair):
    ta, sa, tb, sb = pair
    a, b = build(ta, sa), build(tb, sb)
    want = dense(a) @ dense(b)
    ref = None if sa and sb else ref_product(ta, tb)
    if ref is None:
        with pytest.raises(ValueError, match=r"np\.asarray\(a\) @ b"):
            a @ b
        assert np.max(np.abs(np.asarray(a) @ b - want)) < TOL
        return
    got = a @ b
    assert isinstance(got, PhaseMatrix)
    assert table(got) == ref
    assert got.scaled == (sa or sb)
    assert np.max(np.abs(dense(got) - want)) < TOL


@PROPERTY_SETTINGS
@given(matrix_pairs(), st.integers(-6, 6))
def test_pow_matches_both_references(pair, k):
    ta, sa, _, _ = pair
    a = build(ta, sa)
    base = ref_dagger(ta) if k < 0 else ta
    ref = [[Fraction(0) if i == j else None for j in range(len(ta))] for i in range(len(ta))]
    for step in range(abs(k)):
        ref = None if (sa and step > 0) or ref is None else ref_product(ref, base)
    try:
        got = a ** k
    except ValueError:
        assert ref is None  # the step-by-step product leaves the exact form too
        return
    if ref is not None:
        assert table(got) == ref
    # every entry of an exact power is one product of phases, so the dense
    # power adds no sums and agrees to rounding
    arr = dense(a).conj().T if k < 0 else dense(a)
    assert np.max(np.abs(dense(got) - np.linalg.matrix_power(arr, abs(k)))) < TOL


@PROPERTY_SETTINGS
@given(matrix_pairs(), st.integers(0, 10 ** 6), st.sampled_from([1, 2, 7, 12, 1_000_000_007]))
def test_scaled_by_matches_both_references(pair, num, den):
    ta, sa, _, _ = pair
    phase = ExactPhase(Fraction(num, den))
    got = build(ta, sa).scaled_by(phase)
    assert table(got) == [[None if t is None else (t + phase.turns) % 1 for t in row]
                          for row in ta]
    assert np.max(np.abs(dense(got) - phase.to_complex() * dense(build(ta, sa)))) < TOL


@PROPERTY_SETTINGS
@given(matrix_pairs())
def test_trace_and_trace_pair_match_both_references(pair):
    ta, sa, tb, sb = pair
    a, b = build(ta, sa), build(tb, sb)
    d = len(ta)
    amp = a.amplitude
    got = a.trace()
    assert abs(got - np.trace(dense(a))) < TOL
    exact = ref_exact_sum([ta[i][i] for i in range(d) if ta[i][i] is not None])
    if exact is not None:
        assert got == amp * exact

    got = trace_pair(a, b)
    assert abs(got - np.trace(dense(a).conj().T @ dense(b))) < TOL
    terms = [(tb[k][i] - ta[k][i]) % 1 for k in range(d) for i in range(d)
             if ta[k][i] is not None and tb[k][i] is not None]
    exact = ref_exact_sum(terms)
    if exact is not None:
        assert got == a.amplitude * b.amplitude * exact


@PROPERTY_SETTINGS
@given(matrix_pairs())
def test_payload_round_trip(pair):
    ta, sa, _, _ = pair
    m = build(ta, sa)
    assert payload_to_matrix(phase_matrix_payload(m)) == m


@pytest.mark.parametrize("n", range(1, 13))
def test_complex_sum_equals_the_any_shift_rule_on_every_small_multiset(n):
    for k in range(7):
        for multiset in combinations_with_replacement(range(n), k):
            for exps in (list(multiset), list(multiset[::-1])):
                got, want = _complex_sum(exps, n), any_shift_sum(exps, n)
                assert got == want and repr(got) == repr(want)


# moduli with a prime above 4096**2, which trial division of N would take
# thousands of steps to reach; _decide factors only gcd(N, k) <= k
HUGE_PRIME_MODULI = [4 * (10 ** 9 + 7), 10 ** 18 + 9, 6 * (2 ** 61 - 1), 30 * 1_000_000_009]


@st.composite
def huge_prime_rows(draw):
    """(N, exponents): whole orbits of a shift N/p for a small prime p of N,
    loose exponents, or one exponent repeated, in a random order."""
    n = draw(st.sampled_from(HUGE_PRIME_MODULI))
    exponents = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n // 2, n // 3]))
    p = draw(st.sampled_from([p for p in (2, 3, 5) if n % p == 0] or [1]))
    exps = []
    for e in draw(st.lists(exponents, max_size=3)):
        exps += [(e + s * (n // p)) % n for s in range(p)]
    exps += draw(st.lists(exponents, max_size=4))
    if exps and draw(st.booleans()):
        exps = [exps[0]] * len(exps)
    return n, draw(st.permutations(exps))


@PROPERTY_SETTINGS
@given(huge_prime_rows())
def test_complex_sum_equals_the_any_shift_rule_over_a_huge_prime_modulus(row):
    n, exps = row
    got, want = _complex_sum(exps, n), any_shift_sum(exps, n)
    assert got == want and repr(got) == repr(want)


@st.composite
def sum_columns(draw):
    """(N, a k x m array of exponents mod N, a level 0-2 per column): columns
    all equal, whole orbits of a shift N/p, or loose, over small,
    boundary and huge moduli."""
    n = draw(st.sampled_from(SMALL_MODULI + BOUNDARY_MODULI + HUGE_PRIME_MODULI))
    k = draw(st.integers(1, 6))
    exponents = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n // 2, n - 1]))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["equal", "orbit", "loose"]))
        p = draw(st.sampled_from([p for p in (2, 3, 5) if n % p == 0 and k % p == 0] or [1]))
        if kind == "equal":
            col = [draw(exponents)] * k
        elif kind == "orbit":
            col = [(e + s * (n // p)) % n for e in draw(st.lists(exponents, min_size=k // p,
                                                                  max_size=k // p))
                   for s in range(p)]
            col += [draw(exponents) for _ in range(k - len(col))]
        else:
            col = draw(st.lists(exponents, min_size=k, max_size=k))
        columns.append(draw(st.permutations(col)))
    levels = draw(st.lists(st.integers(0, 2), min_size=len(columns), max_size=len(columns)))
    return n, np.array(columns, dtype=phases.exponent_dtype(n)).T, np.array(levels)


@PROPERTY_SETTINGS
@given(sum_columns())
def test_sums_equal_the_per_sum_rule_at_each_amplitude(case):
    # the one rule of trace_pair, trace_gram and the verify traces: the
    # amplitude times the sum any_shift_sum gives, repr included, so the
    # sign of every zero part counts
    n, cols, level = case
    unit = 1.0 / sqrt(len(cols))
    amps = (1.0, unit, unit * unit)
    want = [amps[lv] * any_shift_sum(col, n) for col, lv in zip(cols.T.tolist(), level.tolist())]
    # the stack's dtype and trace_gram's, where it narrows to int32
    for dtype in (phases.exponent_dtype(n), phases._kernel_dtype(n)):
        table = {}
        for _ in range(2):  # the second call reads the all-equal sums from table
            got = phases._sums(cols.astype(dtype), n, level, amps, table).tolist()
            assert [repr(x) for x in got] == [repr(x) for x in want]
    rows = np.ascontiguousarray(cols.T)
    before = rows.copy()
    sums = phases._complex_sums(rows, n)
    assert np.array_equal(rows, before)  # the sort works on a copy
    assert [repr(x) for x in sums] == [repr(any_shift_sum(row, n)) for row in rows.tolist()]


def test_exact_results_are_builtin_types():
    x = build([[None, Fraction(0)], [Fraction(0), None]], False)
    assert type(x == x) is bool and type(x != x) is bool
    assert type(trace_pair(x, x)) is complex and type(x.trace()) is complex


# -- huge denominators ---------------------------------------------------------

HUGE_R = [Fraction(1, 1_000_000_007), Fraction(-999_999_937, 1_000_000_007),
          Fraction(3, 10 ** 18 + 9)]


def fra_turns(d, r, a, n, m):
    """(F_ra)_{nm} in turns, straight from the closed form."""
    e = Fraction(n * (d - n) * a, 2) + Fraction((d - 1) ** 2, 4) * r + n * (m - Fraction(d - 1, 2) * r)
    return (e / d) % 1


@pytest.mark.parametrize("r", HUGE_R)
def test_huge_denominator_matches_fraction_reference(r):
    d, a = 13, 5
    f, h, dr = fra_matrix(d, r, a), hra_matrix(d, r, a), dra_matrix(d, r, a)
    want = [[fra_turns(d, r, a, n, m) for m in range(d)] for n in range(d)]
    assert table(f) == want
    assert table(h) == want[::-1]
    assert table(dr) == [[want[n][0] if n == m else None for m in range(d)] for n in range(d)]
    # products and pairings across two huge moduli, whose common modulus
    # is beyond int64
    other = dra_matrix(d, Fraction(1, 1_000_000_009), 2)
    assert table(f @ other) == ref_product(want, table(other))
    assert table(other @ dr) == ref_product(table(other), table(dr))
    assert abs(trace_pair(other, dr) - np.trace(dense(other).conj().T @ dense(dr))) < TOL
    assert np.max(np.abs(dense(f) - np.exp(2j * np.pi * np.array(
        [[float(t) for t in row] for row in want])) / np.sqrt(d))) < TOL


# -- batched kernels over monomial families --------------------------------------

# moduli beyond int64 that still factor by trial division, so families over
# them take the batched path on Python-int exponents
SMOOTH_LARGE_MODULI = [2 ** 60, 3 ** 38, 2 ** 30 * 3 ** 20 * 5 ** 5]


@st.composite
def monomial_families(draw):
    """2-7 monomial matrices of one dim over mixed moduli.  Column patterns
    come from the cyclic shifts (pairwise disjoint) and a few random
    permutations (which partly overlap them); a member may repeat an
    earlier one up to a global phase, so all-equal differences occur."""
    dim = draw(st.integers(1, 5))
    patterns = [tuple((i + s) % dim for i in range(dim)) for s in range(dim)]
    patterns += draw(st.lists(st.permutations(range(dim)).map(tuple), max_size=2))
    mats = []
    for _ in range(draw(st.integers(2, 7))):
        if mats and draw(st.booleans()):
            m = draw(st.sampled_from(mats))
            mats.append(m.scaled_by(ExactPhase(Fraction(draw(st.integers(0, 11)), 12))))
            continue
        n = draw(st.one_of(moduli, st.sampled_from(SMOOTH_LARGE_MODULI)))
        cols = draw(st.sampled_from(patterns))
        exps = draw(st.lists(st.one_of(st.integers(0, n - 1), st.sampled_from([0, n // 2])),
                             min_size=dim, max_size=dim))
        # entry q**(e / n) with q = exp(2*pi*i/dim), here a turn e / (dim * n)
        mats.append(PhaseMatrix.monomial(cols, exps, n, draw(st.booleans())))
    return mats


def gram_dict(mats):
    got = {}
    for i, j, traces in trace_gram(mats):
        assert len(i) == len(j) == len(traces)
        for x, y, t in zip(i.tolist(), j.tolist(), traces.tolist()):
            assert (x, y) not in got
            got[x, y] = t
    return got


@PROPERTY_SETTINGS
@given(monomial_families())
def test_trace_gram_equals_trace_pair_for_every_pair(mats):
    got = gram_dict(mats)
    for x, a in enumerate(mats):
        for y, b in enumerate(mats):
            want = trace_pair(a, b)
            value = got.get((x, y), 0j)
            assert value == want and repr(value) == repr(want)


def assert_product_rows(n, cols, exps, a, b):
    """cols and exps, over the modulus n, are the rows of a @ b."""
    if a.scaled and b.scaled:
        return  # a @ b raises: its amplitude would be 1/dim
    prod = a @ b
    pc, pe = prod.monomial_view
    assert tuple(cols.tolist()) == pc
    assert [Fraction(int(e), n) for e in exps] == [Fraction(e, prod.modulus) for e in pe]


@PROPERTY_SETTINGS
@given(monomial_families(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                     max_size=12))
def test_pairwise_products_equal_matmul(mats, pairs):
    n, cols, exps = pairwise_products(mats)
    for x, a in enumerate(mats):
        for y, b in enumerate(mats):
            assert_product_rows(n, cols[x, y], exps[x, y], a, b)
    # the stacked kernel under both, at index pairs in any order, repeats included
    i = np.array([x % len(mats) for x, _ in pairs], dtype=np.intp)
    j = np.array([y % len(mats) for _, y in pairs], dtype=np.intp)
    n, cols, exps = phases._stack(mats)
    got_cols, got_exps = phases._products(n, cols, exps, i, j)
    assert got_cols.shape == got_exps.shape == (len(pairs), mats[0].dim)
    for c, (x, y) in enumerate(zip(i.tolist(), j.tolist())):
        assert_product_rows(n, got_cols[c], got_exps[c], mats[x], mats[y])


# common moduli at the bound below which trace_gram narrows exponents to
# int32 (2**30): odd and even just below it, odd and even just above it
BOUNDARY_MODULI = [2 ** 30 - 35, 2 ** 30 - 2, 2 ** 30 + 3, 2 * (2 ** 29 + 11)]


@st.composite
def boundary_families(draw):
    """2-8 monomial matrices of one dim over one common modulus N from
    BOUNDARY_MODULI: an exponent dim * e over den N is the turn e / N.
    Exponents near 0, N/2 and N - 1 give differences of either sign at
    the int32 edge; a member may repeat an earlier one up to a global
    turn over N, so all-equal differences occur, and the last member, the
    turn 1/N on the diagonal, pins the common modulus at N."""
    dim = draw(st.integers(1, 5))
    n = draw(st.sampled_from(BOUNDARY_MODULI))
    patterns = [tuple((i + s) % dim for i in range(dim)) for s in range(dim)]
    patterns += draw(st.lists(st.permutations(range(dim)).map(tuple), max_size=2))
    turns = st.one_of(st.integers(0, n - 1), st.sampled_from([0, 1, n // 2, n - 1]))
    mats = []
    for _ in range(draw(st.integers(1, 7))):
        if mats and draw(st.booleans()):
            m = draw(st.sampled_from(mats))
            mats.append(m.scaled_by(ExactPhase(Fraction(draw(turns), n))))
            continue
        exps = draw(st.lists(turns, min_size=dim, max_size=dim))
        mats.append(PhaseMatrix.monomial(draw(st.sampled_from(patterns)),
                                         [dim * e for e in exps], n, draw(st.booleans())))
    return mats + [PhaseMatrix.monomial(range(dim), [dim] * dim, n)]


@PROPERTY_SETTINGS
@given(boundary_families())
def test_trace_gram_equals_trace_pair_at_the_int32_bound(mats):
    assert phases._stack(mats)[0] in BOUNDARY_MODULI
    assert_gram_is_trace_pair(mats)


@PROPERTY_SETTINGS
@given(boundary_families())
def test_pairwise_products_equal_matmul_at_the_int32_bound(mats):
    n, cols, exps = pairwise_products(mats)
    assert n in BOUNDARY_MODULI
    for x, a in enumerate(mats):
        for y, b in enumerate(mats):
            assert_product_rows(n, cols[x, y], exps[x, y], a, b)


@pytest.mark.parametrize("n", [5, 2 ** 30 - 35, 2 ** 30 + 3, 2 ** 53 - 111, 2 ** 61 - 1])
def test_stack_keeps_the_exponent_dtype(n):
    # the kernels narrow their own copies only: callers of _stack add
    # stacked exponents (verify sums d of them for (V_ra)^d)
    mats = [PhaseMatrix.monomial(range(3), [3, 6, 9], n),
            PhaseMatrix.monomial([1, 2, 0], [0, 3, 0], n, scaled=True)]
    m, cols, exps = phases._stack(mats)
    assert m == n and cols.dtype == np.intp
    assert exps.dtype == phases.exponent_dtype(n) == (np.int64 if n < 2 ** 53 else object)


@pytest.mark.parametrize("d", range(1, 14))
def test_trace_gram_matches_trace_pair_on_every_pauli_pair(d):
    mats = [u_ab(d, (a, b)) for a in range(d) for b in range(d)]
    got = gram_dict(mats)
    # the u_ab with equal a share their columns, other pairs share none
    assert len(got) == d ** 3
    for x, a in enumerate(mats):
        for y, b in enumerate(mats):
            want = trace_pair(a, b)
            value = got.get((x, y), 0j)
            assert value == want and repr(value) == repr(want)


def test_trace_gram_sums_a_multiset_no_shortcut_decides():
    # diag(1, 1, 1) against diag(1, 1, q): the sum 2 + q neither cancels nor
    # is a multiple of one phase, so it is the float sum of _complex_sum
    a = PhaseMatrix.identity(3)
    b = PhaseMatrix.monomial(range(3), [0, 0, 1])
    got = gram_dict([a, b])
    assert got[0, 1] == _complex_sum([0, 0, 1], 3) == trace_pair(a, b)
    assert got[0, 1].imag != 0.0


def test_batched_kernels_take_monomial_families_only():
    full = fra_matrix(3)
    with pytest.raises(ValueError, match="monomial"):
        list(trace_gram([u_ab(3, (1, 1)), full]))
    with pytest.raises(ValueError, match="monomial"):
        pairwise_products([full])
    with pytest.raises(ValueError, match="dimension"):
        list(trace_gram([u_ab(3, (1, 1)), u_ab(4, (1, 1))]))
    assert list(trace_gram([])) == []


@st.composite
def uneven_pattern_families(draw):
    """Monomial families whose column patterns have unequal member counts:
    a few cyclic shifts (pairwise disjoint) and several random permutations
    (which partly overlap them and each other), each used by 1-4 members
    over mixed moduli, some scaled, some repeating an earlier member up to
    a global phase."""
    dim = draw(st.integers(2, 5))
    patterns = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3, unique=True))
    patterns = [tuple((i + s) % dim for i in range(dim)) for s in patterns]
    patterns += draw(st.lists(st.permutations(range(dim)).map(tuple), min_size=2, max_size=4))
    mats = []
    for cols in patterns:
        n = draw(st.one_of(moduli, st.sampled_from(SMOOTH_LARGE_MODULI)))
        for _ in range(draw(st.integers(1, 4))):
            if mats and mats[-1].monomial_view[0] == cols and draw(st.booleans()):
                turn = ExactPhase(Fraction(draw(st.integers(0, 11)), 12))
                mats.append(mats[-1].scaled_by(turn))
                continue
            exps = draw(st.lists(st.one_of(st.integers(0, n - 1), st.sampled_from([0, n // 2])),
                                 min_size=dim, max_size=dim))
            mats.append(PhaseMatrix.monomial(cols, exps, n, draw(st.booleans())))
    return draw(st.permutations(mats))


def sharing_pairs(mats):
    """Every (x, y) whose matrices share a position: the pairs trace_gram yields."""
    cols = [m.monomial_view[0] for m in mats]
    return {(x, y) for x, a in enumerate(cols) for y, b in enumerate(cols)
            if any(p == q for p, q in zip(a, b))}


def assert_gram_is_trace_pair(mats):
    got = gram_dict(mats)  # asserts that no (i, j) comes twice
    assert set(got) == sharing_pairs(mats)
    for (x, y), value in got.items():
        want = trace_pair(mats[x], mats[y])
        assert value == want and repr(value) == repr(want)


@PROPERTY_SETTINGS
@given(uneven_pattern_families())
def test_trace_gram_over_uneven_and_overlapping_patterns(mats):
    assert_gram_is_trace_pair(mats)


@PROPERTY_SETTINGS
@given(mats=uneven_pattern_families(), block=st.sampled_from([1, 5, 16]))
def test_trace_gram_blocks_split_one_pattern(mats, block):
    # _GRAM_BLOCK // dim pairs per block: 1 to 8 pairs, so the pairs of one
    # pattern spread over several blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phases, "_GRAM_BLOCK", block)
        assert_gram_is_trace_pair(mats)


@pytest.mark.parametrize("block", [1, 13, 50])
def test_trace_gram_blocks_split_the_pauli_family(monkeypatch, block):
    monkeypatch.setattr(phases, "_GRAM_BLOCK", block)
    d = 5
    assert_gram_is_trace_pair([u_ab(d, (a, b)) for a in range(d) for b in range(d)])


def trace_pair_calls(monkeypatch):
    """The (a, b) of every trace_pair call trace_gram makes from now on."""
    calls, real = [], phases.trace_pair
    monkeypatch.setattr(phases, "trace_pair", lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


@pytest.mark.parametrize("n", [1_000_000_007, 4099 * 4111, 10 ** 18 + 9])
def test_trace_gram_with_a_modulus_trial_division_cannot_factor(monkeypatch, n):
    # one pattern with equal, cancelling and undecided multisets, a partly
    # overlapping one and a disjoint one; only the partly overlapping
    # pairs go through trace_pair
    mats = [PhaseMatrix.monomial(range(4), [0, n, 2 * n, 3 * n], n),
            PhaseMatrix.monomial(range(4), [5, 5, 5, 5], n, scaled=True),
            PhaseMatrix.monomial(range(4), [1, 0, 0, 7], n),
            PhaseMatrix.monomial(range(4), [0, 2 * n, 0, 2 * n], n),
            PhaseMatrix.monomial([0, 1, 3, 2], [2, 9, 0, 4], n),
            PhaseMatrix.monomial([1, 2, 3, 0], [3, 3, 3, 3], n)]
    calls = trace_pair_calls(monkeypatch)
    assert_gram_is_trace_pair(mats)
    assert calls and all(a.monomial_view[0] != b.monomial_view[0] for a, b in calls)


@pytest.mark.parametrize("n", [4 * (10 ** 9 + 7), 10 ** 18 + 9, *BOUNDARY_MODULI])
def test_trace_gram_decides_same_pattern_pairs_without_trace_pair(monkeypatch, n):
    # one pattern at common modulus n, with differences that are all
    # equal, that cancel under the shift n/2 (n even) and that neither decides
    rows = [[0, 0, 0, 0], [5, 5, 5, 5], [0, n // 2, 0, n // 2], [1, 0, 0, 7],
            [3, 3 + n // 2, 9, 9 + n // 2]]
    # q**(4e / n) with q = exp(2*pi*i/4) is exp(2*pi*i*e/n)
    mats = [PhaseMatrix.monomial(range(4), [4 * e for e in row], n, scaled)
            for row in rows for scaled in (False, True)]
    assert phases._stack(mats)[0] == n
    calls = trace_pair_calls(monkeypatch)
    assert_gram_is_trace_pair(mats)
    assert calls == []


# -- stacks of one family: the float view and the traces, member by member ----

@st.composite
def one_shape_families(draw):
    """2-5 matrices of one dim, one shape (all monomial or all full) and
    one amplitude, over mixed moduli."""
    dim = draw(st.integers(2, 5))
    tables = monomial_tables(dim) if draw(st.booleans()) else full_tables(dim)
    scaled = draw(st.booleans())
    return [build(draw(tables), scaled) for _ in range(draw(st.integers(2, 5)))]


@PROPERTY_SETTINGS
@given(one_shape_families())
def test_stacked_float_view_has_the_bytes_of_to_complex(mats):
    want = np.array([m.to_complex() for m in mats])
    assert phases._stack_complex(mats).tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(one_shape_families().filter(lambda mats: mats[0].monomial_view is None))
def test_full_stack_and_its_diagonal_sums_equal_each_member(mats):
    n, exps = phases._stack_full(mats)
    for m, e in zip(mats, exps):
        turns = [[Fraction(int(x), n) for x in row] for row in e.tolist()]
        assert turns == table(m)
    sums = phases._complex_sums(np.diagonal(exps, axis1=1, axis2=2), n)
    for m, s in zip(mats, sums):
        want = m.trace()
        assert m.amplitude * s == want and repr(m.amplitude * s) == repr(want)


def test_stacks_take_one_shape_and_one_amplitude():
    with pytest.raises(ValueError, match="full"):
        phases._stack_full([fra_matrix(3), u_ab(3, (1, 1))])
    with pytest.raises(ValueError, match="dimension"):
        phases._stack_full([fra_matrix(3), fra_matrix(4)])
    scaled = PhaseMatrix.monomial(range(3), [0, 1, 2], scaled=True)
    with pytest.raises(ValueError, match="amplitude"):
        phases._stack_complex([u_ab(3, (1, 1)), scaled])
