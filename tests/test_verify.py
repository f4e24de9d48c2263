"""The invariant registry of mubkit.verify: each check is declared once,
passes on its own, and every suite keeps the checks it has reported."""

import random
from collections import Counter

import numpy as np
import pytest

from mubkit import mub, verify, weyl
from mubkit.phases import q_power
from mubkit.verify import INVARIANTS, SUITES, run_suite

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

SUITE_RNG = {"weyl": random.Random, "mub": np.random.default_rng}


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
    assert run_one(name).passed
    real = weyl.t_matrix
    monkeypatch.setattr(weyl, "t_matrix", lambda d, s: real(d, s).scaled_by(q_power(2 * d, 1)))
    assert not run_one(name).passed


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
