"""The invariant registry of mubkit.verify: each check is declared once,
passes on its own, and every suite keeps the checks it has reported."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mubkit import mub, phases, qdft, quon, verify, weyl
from mubkit.phases import PhaseMatrix, q_power
from mubkit.verify import INVARIANTS, SUITES, run_suite
from test_qdft import entrywise_row_symmetry

# checks per suite that `mubkit verify <suite> --d-max 13` reported when
# the benchmark was introduced (perfbench/oracle.py): a suite may gain
# checks but not lose them
SEED_CHECK_COUNTS = {"weyl": 10, "qdft": 8, "su2": 7, "mub": 9, "wigner": 4}


def suite_of(check):
    return check.name.split(".", 1)[0]


@pytest.mark.parametrize("inv", INVARIANTS, ids=lambda inv: inv.name)
def test_each_check_passes_on_its_own(inv, monkeypatch):
    monkeypatch.setattr(verify, "INVARIANTS", [inv])
    d_max = max(5, inv.min_d_max)
    [result] = SUITES[suite_of(inv)](d_max, 0)
    assert result.name == inv.name and result.tolerance == inv.tolerance
    assert result.passed, result
    if inv.tolerance == 0.0:
        assert type(result.residual) is float and result.residual == 0.0


@pytest.mark.parametrize("inv", [inv for inv in INVARIANTS if inv.tolerance == 0.0],
                         ids=lambda inv: inv.name)
def test_exact_checks_decide_by_bools(inv, monkeypatch):
    # tolerance 0 claims an exact verdict, so every case is a builtin bool,
    # not a float residual or an object whose truth hides a threshold
    seen = []

    def cases(sweep):
        for case in inv.cases(sweep):
            seen.append(case)
            yield case

    monkeypatch.setattr(verify, "INVARIANTS", [inv._replace(cases=cases)])
    SUITES[suite_of(inv)](max(5, inv.min_d_max), 0)
    assert seen and all(type(case) is bool for case in seen)


def test_names_are_unique_and_carry_their_suite_prefix():
    names = [inv.name for inv in INVARIANTS]
    assert len(names) == len(set(names))
    assert {suite_of(inv) for inv in INVARIANTS} == set(SUITES)
    for suite in SUITES:
        assert all(r.name.startswith(suite + ".") for r in run_suite(suite, d_max=2))


def test_every_suite_at_d_max_13_runs_in_declaration_order():
    results = run_suite("all", d_max=13)
    assert [r.name for r in results] == [inv.name for inv in INVARIANTS]
    counts = Counter(suite_of(r) for r in results)
    assert all(counts[suite] >= n for suite, n in SEED_CHECK_COUNTS.items()), counts
    assert all(r.passed for r in results)


def test_a_check_below_its_bound_is_left_out():
    below = [r.name for r in run_suite("weyl", d_max=8)]
    above = [r.name for r in run_suite("weyl", d_max=9)]
    assert "weyl.sampled_large_dimension" not in below
    assert above == below + ["weyl.sampled_large_dimension"]
    # mub.gauss_two_route skips p = 2, so it starts at the first odd prime
    below = [r.name for r in run_suite("mub", d_max=2)]
    above = [r.name for r in run_suite("mub", d_max=3)]
    assert "mub.gauss_two_route" not in below and "mub.gauss_two_route" in above


@pytest.mark.parametrize("inv", INVARIANTS, ids=lambda inv: inv.name)
def test_every_check_tests_a_case_at_every_bound(inv, monkeypatch):
    # a check that runs no case would report a pass that tests nothing, so
    # from its min_d_max on every bound a suite accepts gives it a case
    seen = Counter()

    def cases(sweep):
        for case in inv.cases(sweep):
            seen[sweep.d_max] += 1
            yield case

    monkeypatch.setattr(verify, "INVARIANTS", [inv._replace(cases=cases)])
    bounds = range(max(2, inv.min_d_max), 14)
    for d_max in bounds:
        SUITES[suite_of(inv)](d_max, 0)
    assert [d for d in bounds if not seen[d]] == []


# -- the sampled checks decide their drawn cases in array passes -------------

SUITE_RNG = {"weyl": random.Random, "qdft": np.random.default_rng,
             "su2": lambda seed: None, "mub": np.random.default_rng}


def run_one(name, d_max=13, seed=0):
    inv = next(inv for inv in INVARIANTS if inv.name == name)
    return verify._Sweep(suite_of(inv), d_max, SUITE_RNG[suite_of(inv)](seed)).check(inv)


@pytest.mark.parametrize("name", ["weyl.pauli_composition_law", "weyl.sampled_large_dimension"])
def test_a_wrong_composition_law_fails_the_batched_checks(name, monkeypatch):
    assert run_one(name).passed
    real = weyl.pauli_compose

    def wrong(d, g, h):  # the sign of the c b' term flipped
        a, b, c = real(d, g, h)
        return weyl.PauliGroupElement((a + 2 * g[2] * h[1]) % d, b, c)

    monkeypatch.setattr(weyl, "pauli_compose", wrong)
    assert run_one(name).residual == float("inf")


@pytest.mark.parametrize("name", ["weyl.sine_product_exact", "weyl.sine_commutator"])
def test_a_wrong_phase_of_t_fails_the_batched_sine_checks(name, monkeypatch):
    # both checks read the stack of T from the label map that t_matrix
    # evaluates, so one phase q^{1/2} too many there reaches the builder
    # and both checks
    assert run_one(name).passed
    real, want = weyl._t_labels, weyl.t_matrix(5, (3, 4)).scaled_by(q_power(2 * 5, 1))

    def wrong(n1, n2):
        shift, clock, phase, den = real(n1, n2)
        return shift, clock, phase + 1, den

    monkeypatch.setattr(weyl, "_t_labels", wrong)
    assert weyl.t_matrix(5, (3, 4)) == want
    assert not run_one(name).passed


@pytest.mark.parametrize("name", ["weyl.pauli_composition_law", "weyl.sampled_large_dimension"])
def test_a_pauli_label_map_off_by_one_phase_fails_the_batched_checks(name, monkeypatch):
    # P(g) read as q P(g): P(g) P(h) picks up q^2 and I P(gh) only q
    assert run_one(name).passed
    real, want = weyl._pauli_labels, weyl.pauli_element_matrix(5, (2, 2, 3))

    def wrong(a, b, c):
        return real(a + 1, b, c)

    monkeypatch.setattr(weyl, "_pauli_labels", wrong)
    assert weyl.pauli_element_matrix(5, (1, 2, 3)) == want
    assert run_one(name).residual == float("inf")


def test_a_conjugated_gauss_inner_product_fails_the_gauss_check(monkeypatch):
    assert run_one("mub.gauss_two_route").passed
    real = mub.gauss_inner_product
    monkeypatch.setattr(mub, "gauss_inner_product", lambda *args: real(*args).conjugate())
    assert run_one("mub.gauss_two_route").residual > 0.5


def test_batched_checks_draw_in_the_per_case_order():
    # the reference is the per-case loop: g then h for each Pauli case, and
    # (m, n) mod 2d for each sine case, on the weyl generator of seed 0
    ref = random.Random(0)
    for d in range(2, 9):
        for _ in range(200):
            tuple(ref.randrange(d) for _ in range(3))
            tuple(ref.randrange(d) for _ in range(3))
    sweep = verify._Sweep("weyl", 13, random.Random(0))
    sweep.check(next(inv for inv in INVARIANTS if inv.name == "weyl.pauli_composition_law"))
    assert sweep.rng.getstate() == ref.getstate()
    want = [(d, (ref.randrange(2 * d), ref.randrange(2 * d)),
             (ref.randrange(2 * d), ref.randrange(2 * d)))
            for d in range(2, 9) for _ in range(40)]
    assert sweep.sine_draws == want
    # the states of the entanglement check, one stack per d
    ref_np = np.random.default_rng(0)
    for d in (2, 3):
        for _ in range(1000):
            ref_np.normal(size=d * d), ref_np.normal(size=d * d)
    sweep = verify._Sweep("mub", 13, np.random.default_rng(0))
    sweep.check(next(inv for inv in INVARIANTS if inv.name == "mub.entanglement_bound"))
    assert sweep.rng.bit_generator.state == ref_np.bit_generator.state


# -- the exhaustive sweeps decide each (d, r) family on stacks over a ---------
#
# each oracle is the per-case loop the family pass replaced: one matrix per
# case (d, r, a), built and decided on its own

def dra_cases(cap, rs, d_max=13):
    return ((d, r, a) for d in range(2, min(d_max, cap) + 1) for r in rs for a in range(d))


def vra_q_commutation_cases():
    for d, r, a in dra_cases(8, (0, 1, Fraction(1, 4))):
        first, second = weyl.vra_q_commutation_checks(d, r, a)
        yield first and second


def vra_power_and_band_form_cases():
    for d, r, a in dra_cases(8, (0, Fraction(1, 3))):
        v = weyl.vra_matrix(d, r, a)
        yield (v ** d) == PhaseMatrix.identity(d).scaled_by(weyl.vra_power_phase(d, r, a))
        yield weyl.vra_matrix(d, r, a) == weyl.vra_band_matrix(d, r, a)


def unitarity_cases():
    for d, r, a in dra_cases(13, (0, Fraction(1, 2), 1, Fraction(2, 3))):
        f = qdft.fra_matrix(d, r, a).to_complex()
        yield float(np.max(np.abs(f.conj().T @ f - np.eye(d))))


def gaussian_factorization_cases():
    for d, r, a in dra_cases(13, (0, 1, Fraction(1, 2))):
        yield qdft.dra_matrix(d, r, a) @ qdft.fra_matrix(d) == qdft.fra_matrix(d, r, a)


def row_symmetry_cases():
    # the row relations entry by entry in ExactPhase products, independent
    # of the V_ra H_ra == H_ra Lambda_ra kernel the check runs
    for d, r, a in dra_cases(13, (0, 1)):
        yield entrywise_row_symmetry(qdft.fra_matrix(d, r, a), d, r, a)


def hra_diagonalizes_vra_cases():
    for d, r, a in dra_cases(8, (0, Fraction(1, 3), Fraction(1, 2))):
        v, lam = phases._stack([weyl.vra_matrix(d, r, a)]), phases._stack([verify._lambda_ra(d, r, a)])
        h = qdft.hra_matrix(d, r, a)
        yield bool(verify._diagonalizes(v, (h.modulus, h.exponents[None]), lam)[0])


def trace_two_route_cases():
    for d, r, a in dra_cases(13, (0, Fraction(1, 2), 1)):
        direct = qdft.fra_matrix(d, r, a).trace()
        yield abs(qdft.trace_fra(d, r, a) - direct)


def vra_kth_power_cases():
    for k, r, a in dra_cases(8, (0, 1, Fraction(1, 3))):
        dest, weight = quon._vra_monomial(k, r, a)
        start = np.arange(k * k)
        at, product = start, np.ones(k * k, dtype=complex)
        for _ in range(k):
            product = product * weight[at]
            at = dest[at]
        want = weyl.vra_power_phase(k, r, a).to_complex()
        yield (float(np.max(np.abs(product - want))) if np.array_equal(at, start)
               else float("inf"))


def oracle_equivalence_cases():
    for k, r, a in dra_cases(8, (0, 1, Fraction(1, 3))):
        got = quon._vra_block(k, r, a)
        want = weyl.vra_matrix(k, r, a).to_complex()
        yield float(np.max(np.abs(got - want)))


def closure_and_casimir_cases():
    for d, r, a in dra_cases(12, (0, Fraction(1, 2))):
        j = Fraction(d - 1, 2)
        t = quon.su2_generators(j, r, a)
        yield float(np.max(np.abs(t.j_z @ t.j_plus - t.j_plus @ t.j_z - t.j_plus)))
        yield float(np.max(np.abs(t.j_z @ t.j_minus - t.j_minus @ t.j_z + t.j_minus)))
        yield float(np.max(np.abs(t.j_plus @ t.j_minus - t.j_minus @ t.j_plus - 2 * t.j_z)))
        casimir = (t.j_plus @ t.j_minus + t.j_minus @ t.j_plus) / 2 + t.j_z @ t.j_z
        jj = float(j) * (float(j) + 1)
        yield float(np.max(np.abs(casimir - jj * np.eye(d))))


def eigenvalue_equation_cases():
    for k, r, a in dra_cases(8, (0, 1, Fraction(1, 3))):
        j = Fraction(k - 1, 2)
        v = quon._vra_block(k, r, a)
        for alpha, vec in enumerate(quon.eigenbasis(j, r, a)):
            lam = quon.eigenvalue_vra(j, r, a, alpha)
            yield float(np.max(np.abs(v @ vec - lam * vec)))


def overlap_two_route_cases():
    for two_j in range(1, 7):
        j = Fraction(two_j, 2)
        d = two_j + 1
        for r, s in itertools.product((0, Fraction(1, 2), 1), repeat=2):
            br = quon.eigenbasis(j, r, 0)
            bs = quon.eigenbasis(j, s, 0)
            for alpha in range(d):
                for beta in range(d):
                    direct = complex(np.vdot(br[alpha], bs[beta]))
                    closed = quon.overlap_same_a(j, r, s, 0, alpha, beta)
                    yield abs(direct - closed)


# (per-case oracle, cases at d_max 13): the counts may grow, never shrink
FAMILY_PASSES = {
    "weyl.vra_q_commutation": (vra_q_commutation_cases, 105),
    "weyl.vra_power_and_band_form": (vra_power_and_band_form_cases, 140),
    "qdft.unitarity": (unitarity_cases, 360),
    "qdft.gaussian_factorization": (gaussian_factorization_cases, 270),
    "qdft.row_symmetry": (row_symmetry_cases, 180),
    "qdft.hra_diagonalizes_vra": (hra_diagonalizes_vra_cases, 105),
    "qdft.trace_two_route": (trace_two_route_cases, 270),
    "su2.vra_kth_power": (vra_kth_power_cases, 105),
    "su2.oracle_equivalence": (oracle_equivalence_cases, 105),
    "su2.closure_and_casimir": (closure_and_casimir_cases, 616),
    "su2.eigenvalue_equation": (eigenvalue_equation_cases, 609),
    "su2.overlap_two_route": (overlap_two_route_cases, 1251),
}


def family_cases(name, d_max=13):
    inv = next(inv for inv in INVARIANTS if inv.name == name)
    return list(inv.cases(verify._Sweep(suite_of(inv), d_max, np.random.default_rng(0))))


@pytest.mark.parametrize("name", FAMILY_PASSES)
def test_family_pass_yields_the_values_of_the_per_case_loop(name):
    oracle, count = FAMILY_PASSES[name]
    got, want = family_cases(name), list(oracle())
    assert len(got) >= count
    # equal values of equal types: builtin bools, or floats with equal bits
    assert [type(x) for x in got] == [type(x) for x in want]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_the_sweep_memo_builds_each_matrix_once(monkeypatch):
    # the F_ra exponents, a matrix or a family over a, all come from
    # qdft._exponents
    calls = Counter()
    real = qdft._exponents

    def counted(d, r, a):
        calls[d, r, tuple(np.atleast_1d(a).tolist())] += 1
        return real(d, r, a)

    monkeypatch.setattr(qdft, "_exponents", counted)
    run_suite("qdft", d_max=13)
    # four family passes read the F_ra family at r = 1, and no other check
    # reads F_ra there: each family is evaluated once, over every a at once
    at_r1 = {key: n for key, n in calls.items() if key[1] == 1}
    assert at_r1 == {(d, 1, tuple(range(d))): 1 for d in range(2, 14)}


def test_a_conjugated_eigenvalue_fails_the_eigenvalue_equation(monkeypatch):
    assert run_one("su2.eigenvalue_equation").passed
    real = quon.eigenvalue_vra
    monkeypatch.setattr(quon, "eigenvalue_vra", lambda *args: real(*args).conjugate())
    assert run_one("su2.eigenvalue_equation").residual > 0.5


def test_a_conjugated_trace_fails_the_trace_two_route(monkeypatch):
    assert run_one("qdft.trace_two_route").passed
    real = qdft.trace_fra
    monkeypatch.setattr(qdft, "trace_fra", lambda *args: real(*args).conjugate())
    assert run_one("qdft.trace_two_route").residual > 0.5


def test_a_band_corner_off_by_q_fails_the_band_form(monkeypatch):
    assert run_one("weyl.vra_power_and_band_form").passed
    real = weyl.vra_band_matrix

    def off_by_q(d, r=0, a=0):
        # the corner entry (d-1, 0) of each member of the family times q,
        # every other entry as it was
        n, cols, exps = real(d, r, a)
        exps = exps.copy()
        exps[:, -1] = (exps[:, -1] + n // d) % n
        return n, cols, exps

    monkeypatch.setattr(weyl, "vra_band_matrix", off_by_q)
    assert run_one("weyl.vra_power_and_band_form").residual == float("inf")


def test_a_doubled_clock_power_fails_the_second_q_commutation(monkeypatch):
    # V_r,2a still satisfies V Z = q Z V, but V V_r0 = q^{-2a} V_r0 V,
    # not q^{-a}: the second relation fails in every case but a = 0
    assert run_one("weyl.vra_q_commutation").passed
    real = weyl.vra_matrix
    monkeypatch.setattr(weyl, "vra_matrix", lambda d, r=0, a=0: real(d, r, 2 * a))
    cases = family_cases("weyl.vra_q_commutation")
    assert cases == [a == 0 for d in range(2, 9) for _ in range(3) for a in range(d)]


@pytest.mark.parametrize("name", ["qdft.unitarity", "qdft.row_symmetry", "qdft.hra_diagonalizes_vra",
                                  "qdft.trace_two_route", "su2.eigenvalue_equation"])
def test_a_corrupted_fra_entry_fails_the_family_checks(name, monkeypatch):
    # entry (0, 0) of every F_ra one step off in the row expression's
    # exponents, which the F_ra and H_ra families read
    assert run_one(name).passed
    real = qdft._exponents

    def corrupted(d, r, a):
        e, den = real(d, r, a)
        e[..., 0, 0] += 1
        return e, den

    monkeypatch.setattr(qdft, "_exponents", corrupted)
    assert not run_one(name).passed


def test_a_dra_family_with_its_phase_dropped_fails_the_gaussian_factorization(monkeypatch):
    # D_ra = I: D_ra @ F == F_ra then holds only where F_ra = F
    assert run_one("qdft.gaussian_factorization").passed
    real = verify._dra_family

    def dropped(d, r, a):
        n, cols, row = real(d, r, a)
        return n, cols, np.zeros_like(row)

    monkeypatch.setattr(verify, "_dra_family", dropped)
    cases = family_cases("qdft.gaussian_factorization")
    assert not all(cases) and any(cases)


def test_a_doubled_clock_power_fails_the_su2_oracle(monkeypatch):
    # the spin block of v_ra is V_ra, not V_r,2a, wherever 2a != a mod k
    assert run_one("su2.oracle_equivalence").passed
    real = weyl.vra_matrix
    monkeypatch.setattr(weyl, "vra_matrix", lambda d, r=0, a=0: real(d, r, 2 * a))
    cases = family_cases("su2.oracle_equivalence")
    assert [x > 0.5 for x in cases] == [a > 0 for k in range(2, 9) for _ in range(3) for a in range(k)]


# cases each check yields at --d-max 13 and 32 (seed 0): a change of work
# changes the benchmark's verify_sweep, so a count may grow only on purpose
CASE_COUNTS = {
    "weyl.shift_clock_commutation": (210, 210), "weyl.vra_q_commutation": (105, 105),
    "weyl.vra_power_and_band_form": (140, 140), "weyl.pauli_trace_orthogonality": (7, 7),
    "weyl.pauli_composition_law": (1400, 1400), "weyl.sine_product_exact": (280, 280),
    "weyl.sine_commutator": (280, 280), "weyl.dft_conjugates_shift_to_clock": (7, 7),
    "weyl.regular_representation": (7, 7), "weyl.sampled_large_dimension": (250, 400),
    "qdft.unitarity": (360, 2108), "qdft.gaussian_factorization": (270, 1581),
    "qdft.row_symmetry": (180, 1054), "qdft.hra_diagonalizes_vra": (105, 105),
    "qdft.fourth_power_identity": (12, 15), "qdft.trace_two_route": (270, 1581),
    "qdft.determinant_two_route": (54, 54), "qdft.parseval_and_round_trip": (72, 186),
    "qdft.hadamard_family": (12, 31), "su2.quon_relations": (70, 70),
    "su2.vra_kth_power": (105, 105), "su2.oracle_equivalence": (105, 105),
    "su2.closure_and_casimir": (616, 616), "su2.eigenvalue_equation": (609, 609),
    "su2.cyclic_pseudo_invariance": (35, 35), "su2.overlap_two_route": (1251, 1251),
    "mub.prime_complete_sets": (768, 768), "mub.gauss_two_route": (5, 5),
    "mub.composite_three_mub": (2, 2), "mub.composite_negative_control": (1, 1),
    "mub.dim4_five_bases": (1, 1), "mub.dim4_entanglement_split": (16, 16),
    "mub.entanglement_bound": (2, 2), "mub.sl_partition": (53, 53),
    "mub.class_eigenbasis_association": (416, 416), "wigner.threejm_orthogonality": (24, 24),
    "wigner.fbar_symmetries": (4437, 4437), "wigner.basis_change_unitarity": (6, 6),
    "wigner.cg_alpha_two_route": (1479, 1479),
}


@pytest.mark.parametrize("d_max", [13, 32])
def test_every_check_keeps_its_case_count(d_max):
    counts = {}
    for suite in SUITES:
        sweep = verify._Sweep(suite, d_max, random.Random(0) if suite == "weyl"
                              else np.random.default_rng(0))
        for inv in INVARIANTS:
            if suite_of(inv) == suite:
                counts[inv.name] = sum(1 for _ in inv.cases(sweep))
    assert counts == {name: pair[d_max == 32] for name, pair in CASE_COUNTS.items()}


def test_each_diagonalizes_family_is_decided_once(monkeypatch):
    # row_symmetry (d <= 13, r in {0, 1}) and hra_diagonalizes_vra (d <= 8,
    # r in {0, 1/3, 1/2}) share the (d <= 8, r = 0) families: 38 families
    # in all, each decided by one _diagonalizes call, whichever check asks
    calls = []
    real = verify._diagonalizes
    monkeypatch.setattr(verify, "_diagonalizes", lambda *args: calls.append(1) or real(*args))
    sweep = verify._Sweep("qdft", 13, np.random.default_rng(0))
    counts = [sum(1 for _ in inv.cases(sweep)) for inv in INVARIANTS
              if inv.name in ("qdft.row_symmetry", "qdft.hra_diagonalizes_vra")]
    assert counts == [180, 105] and len(calls) == 12 * 2 + 7 * 3 - 7
    assert all(sweep.diagonalizes(range(2, 9), (0,)))
    assert len(calls) == 38
