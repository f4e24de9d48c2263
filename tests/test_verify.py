"""The invariant registry of mubkit.verify: each check is declared once,
passes on its own, and every suite keeps the checks it has reported."""

from collections import Counter

import pytest

from mubkit import verify
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

