import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit.cli import (build_parser, main, parse_half_integers, parse_rational,
                        parse_document, render_document, payload_to_matrix)
from mubkit.weyl import vra_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rational_forms(capsys):
    assert parse_rational("3") == 3
    assert parse_rational("1/2") == Fraction(1, 2)
    value = parse_rational("0.25")
    assert isinstance(value, float) and value == 0.25
    assert "floating-point" in capsys.readouterr().err


def test_matrix_pretty_golden_header(capsys):
    code, out, _ = run(capsys, "matrix", "fra", "--d", "6", "--r", "0",
                       "--a", "2", "--format", "pretty")
    assert code == 0
    assert "amplitude 1/sqrt(6)" in out
    rows = out.strip().splitlines()[2:]
    assert rows[0].split() == ["1"] * 6
    assert rows[1].split() == ["q^5", "1", "q^1", "q^2", "q^3", "q^4"]
    assert rows[5].split() == ["q^5", "q^4", "q^3", "q^2", "q^1", "1"]


def test_matrix_x_d2(capsys):
    code, out, _ = run(capsys, "matrix", "x", "--d", "2", "--format", "pretty")
    assert code == 0
    assert [".", "1"] == out.strip().splitlines()[-2].split()


def test_matrix_json_round_trip_and_parse_back(capsys):
    code, out, _ = run(capsys, "matrix", "vra", "--d", "3", "--r", "1/2",
                       "--a", "1", "--format", "json")
    assert code == 0
    text = out.strip()
    doc = parse_document(text)
    assert render_document(doc, "json") == text
    assert payload_to_matrix(doc["payload"]) == vra_matrix(3, Fraction(1, 2), 1)


def test_matrix_csv_format(capsys):
    code, out, _ = run(capsys, "matrix", "z", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re0,im0,re1,im1"
    assert [float(v) for v in lines[1].split(",")] == [1.0, 0.0, 0.0, 0.0]
    assert [float(v) for v in lines[2].split(",")] == [0.0, 0.0, -1.0, 0.0]


def test_matrix_requires_extra_index_for_uab(capsys):
    code, _, err = run(capsys, "matrix", "uab", "--d", "3", "--a", "1")
    assert code == 2
    assert "--b" in err


def test_matrix_float_r_uses_complex_payload(capsys):
    code, out, err = run(capsys, "matrix", "fra", "--d", "3", "--r", "0.125",
                         "--format", "json")
    assert code == 0
    assert "floating-point" in err
    doc = parse_document(out.strip())
    assert doc["payload"]["type"] == "complex_matrix"


def test_mub_prime_verify_passes(capsys):
    code, out, _ = run(capsys, "mub", "--p", "3", "--r", "0", "--verify",
                       "--format", "pretty")
    assert code == 0
    assert "overall: PASS" in out
    assert "4 bases" in out


def test_mub_composite_suggests_triple(capsys):
    code, _, err = run(capsys, "mub", "--p", "6")
    assert code == 2
    assert "three-mub" in err


def test_mub_three_composite_passes(capsys):
    code, out, _ = run(capsys, "mub", "--p", "6", "--three-mub", "--verify",
                       "--format", "pretty")
    assert code == 0
    assert "overall: PASS" in out


def test_mub_dim4_verify(capsys):
    code, out, _ = run(capsys, "mub", "--dim4", "--verify", "--format", "pretty")
    assert code == 0
    assert "5 bases" in out
    assert "W01" in out
    assert "overall: PASS" in out


def test_mub_json_bases_are_exact_for_rational_r(capsys):
    code, out, _ = run(capsys, "mub", "--p", "2", "--r", "0", "--format", "json")
    assert code == 0
    doc = parse_document(out.strip())
    bases = doc["payload"]["bases"]
    assert [b["label"] for b in bases] == ["r=0,a=0", "r=0,a=1", "computational"]
    assert all(b["matrix"]["type"] == "phase_matrix" for b in bases)
    first = payload_to_matrix(bases[0]["matrix"]).to_complex()
    assert np.allclose(first, np.array([[1, -1], [1, 1]]) / np.sqrt(2))


def test_verify_smoke_minimal(capsys):
    code, out, _ = run(capsys, "verify", "all", "--d-max", "2",
                       "--format", "pretty")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_json_reports_checks(capsys):
    code, out, _ = run(capsys, "verify", "qdft", "--d-max", "3",
                       "--format", "json")
    assert code == 0
    doc = parse_document(out.strip())
    assert doc["payload"]["passed"] is True
    assert any(c["name"] == "qdft.trace_two_route"
               for c in doc["payload"]["checks"])


def test_gauss_geometric_zero(capsys):
    code, out, _ = run(capsys, "gauss", "--u", "0", "--v", "2", "--w", "5",
                       "--format", "json")
    assert code == 0
    re, im = parse_document(out.strip())["payload"]["value"]
    assert abs(complex(re, im)) < 1e-12


def test_transform_delta_gives_dft_row(tmp_path, capsys):
    path = tmp_path / "delta0.json"
    path.write_text("[[1,0],[0,0],[0,0],[0,0]]")
    code, out, _ = run(capsys, "transform", "--d", "4", "--r", "0", "--a", "0",
                       "--in", str(path), "--format", "json")
    assert code == 0
    entries = parse_document(out.strip())["payload"]["entries"]
    got = np.array([complex(re, im) for re, im in entries])
    assert np.allclose(got, np.full(4, 0.5), atol=1e-14)


def test_transform_round_trip_via_cli(tmp_path, capsys):
    path = tmp_path / "sig.csv"
    rng = np.random.default_rng(4)
    x = rng.normal(size=3)
    path.write_text("re,im\n" + "\n".join(f"{float(v)!r},0.0" for v in x))
    code, out, _ = run(capsys, "transform", "--d", "3", "--r", "1/2", "--a", "2",
                       "--in", str(path), "--format", "json")
    assert code == 0
    entries = parse_document(out.strip())["payload"]["entries"]
    y = np.array([complex(re, im) for re, im in entries])
    back = tmp_path / "back.json"
    back.write_text(json.dumps([[v.real, v.imag] for v in y]))
    code, out, _ = run(capsys, "transform", "--d", "3", "--r", "1/2", "--a", "2",
                       "--in", str(back), "--inverse", "--format", "json")
    assert code == 0
    entries = parse_document(out.strip())["payload"]["entries"]
    got = np.array([complex(re, im) for re, im in entries])
    assert np.allclose(got, x, atol=1e-12)


def test_transform_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,number\nx,y")
    code, _, err = run(capsys, "transform", "--d", "2", "--in", str(path))
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("name, text, entry", [
    ("nan.csv", "re,im\n1,0\nnan,0\n2,1\ninf,0\n", "signal entry 1 is (nan+0j)"),
    ("inf.csv", "re,im\n1,0\n3,0\n2,1\ninf,0\n", "signal entry 3 is (inf+0j)"),
    ("big.json", "[[1,0],[1e400,0],[3,0],[2,1]]", "signal entry 1 is (inf+0j)"),
    ("true.json", "[[1,0],[3,0],[true],[2,1]]", "JSON signal entry 2 ([true]) is not a number"),
    ("str.json", '[[1,0],["3"],[2,1],[1,1]]', 'JSON signal entry 1 (["3"]) is not a number'),
])
@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
def test_transform_refuses_non_finite_and_non_number_entries(tmp_path, capsys, name, text, entry, fmt):
    # each would otherwise give nan/inf output, or read true as 1 and "3" as 3
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "transform", "--d", "4", "--in", str(path), "--format", fmt)
    assert code == 2 and out == ""
    assert entry in err and err.startswith("error: ")


def test_transform_refuses_a_csv_line_of_three_fields(tmp_path, capsys):
    # the third field was dropped and the line read as 1 + 0i
    path = tmp_path / "three.csv"
    path.write_text("re,im\n1,0,9\n2,1\n3,0\n4,0\n")
    code, out, err = run(capsys, "transform", "--d", "4", "--in", str(path))
    assert code == 2 and out == ""
    assert "malformed CSV signal line: '1,0,9'" in err


def test_fbar_cross_prints_parity(capsys):
    code, out, _ = run(capsys, "fbar", "--j", "1,1,1", "--alpha", "0,1,2",
                       "--format", "pretty")
    assert code == 0
    assert "parity check: PASS" in out


def test_fbar_half_integer_spins(capsys):
    code, out, _ = run(capsys, "fbar", "--j", "1/2,1/2,1", "--alpha", "0,1,0",
                       "--format", "json")
    assert code == 0
    doc = parse_document(out.strip())
    assert doc["params"]["two_j"] == [1, 1, 2]
    assert doc["payload"]["parity_ok"] is True


def test_fbar_alpha_out_of_range_is_usage_error(capsys):
    code, out, err = run(capsys, "fbar", "--j", "1,1,1", "--alpha", "0,1,9",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert "alpha must lie in 0..2j" in err


@pytest.mark.parametrize("argv", [
    ("matrix", "fra", "--d", "3", "--r", "nan"),
    ("matrix", "fra", "--d", "3", "--r", "inf"),
    ("gauss", "--u", "1", "--v=-inf", "--w", "3"),
])
def test_non_finite_parameter_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_json_rendering_refuses_nan():
    doc = {"payload": {"type": "complex_scalar", "value": [float("nan"), 0.0]}}
    with pytest.raises(ValueError):
        render_document(doc, "json")


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_mub_builds_its_fourier_bases_in_one_family_pass(capsys, monkeypatch, verify):
    # the p bases of H_ra come from one evaluation of the exponent formula
    # over a = 0..p-1, and the complex stack of the set only with --verify
    from mubkit import mub, phases, qdft
    calls, dense = [], []
    real, real_dense = qdft._exponents, phases._dense

    def counted(*args):
        calls.append(args)
        return real(*args)

    def counted_dense(*args):
        dense.append(args)
        return real_dense(*args)

    monkeypatch.setattr(mub, "_exponents", counted)
    monkeypatch.setattr(phases, "_dense", counted_dense)
    code, _, _ = run(capsys, "mub", "--p", "7", "--r", "1/3", *verify, "--format", "json")
    assert code == 0
    [(d, r, a)] = calls
    assert (d, r) == (7, Fraction(1, 3)) and a.tolist() == list(range(7))
    assert len(dense) == (8 if verify else 0)


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "nosuchkind", "--d", "3"])
    assert exc.value.code == 2


def test_format_defaults_to_pretty(capsys):
    code, out, _ = run(capsys, "matrix", "z", "--d", "2")
    assert code == 0
    assert out.startswith("# matrix ")


def test_basis_set_has_no_csv_rendering(capsys):
    code, _, err = run(capsys, "mub", "--dim4", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize("argv", [
    ("matrix", "fra", "--d", "5", "--a", "2", "--r", "{}"),
    ("matrix", "hra", "--d", "7", "--r", "{}"),
    ("mub", "--three-mub", "--p", "6", "--a", "1", "--r", "{}"),
    ("gauss", "--u", "1", "--w", "7", "--v", "{}"),
])
@pytest.mark.parametrize("value", ["-3/7", "-2", "-0.25"])
def test_negative_value_after_space_reads_as_value(capsys, argv, value):
    spaced = [a.replace("{}", value) for a in argv]
    joined = list(argv[:-2]) + [f"{argv[-2]}={value}"]
    code, out, _ = run(capsys, *spaced, "--format", "json")
    assert code == 0
    assert (code, out) == run(capsys, *joined, "--format", "json")[:2]


def test_negative_indices_after_space(capsys):
    code, out, _ = run(capsys, "matrix", "uab", "--d", "5", "--a", "-2", "--b", "-3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"kind": "uab", "d": 5, "r": "0", "a": -2, "b": -3}


def test_negative_non_finite_after_space_is_usage_error(capsys):
    code, out, err = run(capsys, "gauss", "--u", "1", "--v", "-inf", "--w", "3")
    assert code == 2
    assert out == ""
    assert "value must be finite" in err


def test_gauss_term_count_bound(capsys):
    code, out, err = run(capsys, "gauss", "--u", "1", "--v", "0", "--w", "-10000001")
    assert code == 2 and out == ""
    assert "|w| = 10000001 exceeds 10000000" in err and "|w| terms" in err


@pytest.mark.parametrize("argv, count", [
    (("matrix", "fra", "--d", "32"), 32 ** 2),
    (("matrix", "x", "--d", "40"), 40 ** 2),
    (("mub", "--p", "11"), 12 * 11 ** 2),
    (("mub", "--three-mub", "--p", "19"), 3 * 19 ** 2),
])
def test_payload_entry_bound(capsys, monkeypatch, argv, count):
    from mubkit import cli
    monkeypatch.setattr(cli, "MAX_PAYLOAD_ENTRIES", 1000)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"would emit {count} matrix entries" in err and "limit is 1000" in err
    assert run(capsys, "matrix", "fra", "--d", "31", "--format", "json")[0] == 0


def test_payload_entry_bound_admits_benchmark_sizes(capsys):
    from mubkit import cli
    assert cli.MAX_PAYLOAD_ENTRIES == 10 ** 6
    assert 44 * 43 ** 2 <= cli.MAX_PAYLOAD_ENTRIES   # mub --p 43
    assert 98 * 97 ** 2 <= cli.MAX_PAYLOAD_ENTRIES   # mub --p 97
    code, _, err = run(capsys, "mub", "--p", "101")
    assert code == 2 and "would emit 1040502 matrix entries" in err


def test_mub_entry_bound_comes_before_primality(capsys):
    # trial division of 2^61 - 1, a prime, would not finish
    code, out, err = run(capsys, "mub", "--p", str(2 ** 61 - 1))
    assert code == 2 and out == ""
    assert "matrix entries; the limit is 1000000" in err


def test_composite_p_message_depends_on_the_entry_bound(capsys):
    # p = 99 is within the bound and fails the primality test; from
    # p = 100 on the bound is checked first
    code, out, err = run(capsys, "mub", "--p", "99")
    assert code == 2 and out == "" and "p = 99 is not prime" in err
    code, out, err = run(capsys, "mub", "--p", "100")
    assert code == 2 and out == ""
    assert "would emit 1010000 matrix entries" in err and "not prime" not in err


def gauss_doc(capsys, u, v, w="5"):
    code, out, _ = run(capsys, "gauss", "--u", str(u), "--v", str(v), "--w", w,
                       "--format", "json")
    assert code == 0
    return parse_document(out)


def test_gauss_reduces_exact_arguments_by_the_period(capsys):
    # S(u, v, w) has period 2|w| in u and in v
    big = 10 ** 400
    doc = gauss_doc(capsys, 1, big)
    assert doc["params"]["v"] == str(big)
    assert doc["payload"] == gauss_doc(capsys, 1, 0)["payload"]
    assert gauss_doc(capsys, big + 1, 0)["payload"] == gauss_doc(capsys, 1, 0)["payload"]
    # not rounded through float(v)
    assert gauss_doc(capsys, 1, 10 ** 20 + 1)["payload"] == gauss_doc(capsys, 1, 1)["payload"]
    assert gauss_doc(capsys, 2, Fraction(-10 ** 30 - 1, 3))["payload"] == (
        gauss_doc(capsys, 2, Fraction(-10 ** 30 - 1, 3) % 10)["payload"])
    # a decimal is reduced exactly too
    assert gauss_doc(capsys, 1, "1e20")["payload"] == gauss_doc(capsys, 1, 0)["payload"]
    code, _, err = run(capsys, "gauss", "--u", "1", "--v", "0", "--w", "0")
    assert code == 2 and "w must be nonzero" in err


def test_fbar_spin_bound(capsys):
    code, out, err = run(capsys, "fbar", "--j", "1,41/2,21", "--alpha", "0,0,0")
    assert code == 2 and out == ""
    assert "2j = 42 exceeds 40" in err and "accuracy" in err
    code, _, _ = run(capsys, "fbar", "--j", "20,20,1", "--alpha", "0,0,0", "--format", "json")
    assert code == 0


@pytest.mark.parametrize("suite", ["weyl", "all"])
def test_verify_negative_seed_is_usage_error(capsys, suite):
    # refused before any suite runs, so no suite fails on its own terms
    code, out, err = run(capsys, "verify", suite, "--seed", "-1", "--format", "json")
    assert code == 2 and out == ""
    assert "--seed -1 is negative" in err


def test_fbar_alpha_not_an_integer_is_usage_error(capsys):
    code, out, err = run(capsys, "fbar", "--j", "1,1,1", "--alpha", "0,x,1")
    assert code == 2 and out == ""
    assert "--alpha '0,x,1' is not a list of integers" in err and "0,1,2" in err


def test_verify_dimension_bound(capsys):
    from mubkit import cli
    assert cli.MAX_VERIFY_D == 32
    code, out, err = run(capsys, "verify", "qdft", "--d-max", "33")
    assert code == 2 and out == ""
    assert "--d-max 33 exceeds 32" in err and "d_max^3" in err
    code, out, err = run(capsys, "verify", "weyl", "--d-max", "1")
    assert code == 2 and out == "" and "--d-max 1 is below 2" in err
    # the benchmark and acceptance criterion 12 sweep up to 13
    assert run(capsys, "verify", "mub", "--d-max", "13", "--format", "json")[0] == 0


def test_transform_dimension_bound(tmp_path, capsys):
    # --d takes the entry bound of matrix and mub, checked before the
    # signal file is read: this one does not exist
    code, out, err = run(capsys, "transform", "--d", "1000001",
                         "--in", str(tmp_path / "missing.csv"))
    assert code == 2 and out == ""
    assert "would emit 1000001 vector entries; the limit is 1000000" in err
    assert "matrix entries" not in err
    assert "cannot read" not in err
    path = tmp_path / "x.csv"
    path.write_text("\n".join(["1,0"] + ["0,0"] * 4095))
    code, out, _ = run(capsys, "transform", "--d", "4096", "--r", "1/3", "--a", "2",
                       "--in", str(path), "--format", "json")
    y = np.array(parse_document(out)["payload"]["entries"]) @ [1, 1j]
    # e_0 goes to row 0 of F_ra, the constant q^{(d-1)^2 r/4} / sqrt(d)
    assert code == 0 and y.shape == (4096,)
    assert np.max(np.abs(y - y[0])) < 1e-15 and abs(abs(y[0]) - 1 / 64) < 1e-15


def test_phase_payload_neither_monomial_nor_full_is_usage_error():
    from mubkit.cli import UsageError
    payload = {"type": "phase_matrix", "dim": 2, "amplitude": "1",
               "entries": [[[0, 1], [1, 2]], [[1, 3], None]]}
    with pytest.raises(UsageError, match="monomial .* or full"):
        payload_to_matrix(payload)
    # a row with two entries and a row with none is not monomial either
    payload["entries"] = [[[0, 1], [1, 2]], [None, None]]
    with pytest.raises(UsageError, match="monomial .* or full"):
        payload_to_matrix(payload)


def matrix_entries(capsys, *argv):
    code, out, _ = run(capsys, "matrix", *argv, "--format", "json")
    assert code == 0
    return parse_document(out)["payload"]["entries"]


def turn(value):
    t = Fraction(value) % 1
    return [t.numerator, t.denominator]


def test_huge_labels_reach_the_builders_as_python_ints(capsys):
    b = 10 ** 30 + 1
    assert (matrix_entries(capsys, "uab", "--d", "5", "--a", "1", "--b", str(b))
            == matrix_entries(capsys, "uab", "--d", "5", "--a", "1", "--b", str(b % 5)))
    # T_(n1, n2) depends on n1 mod 2d: the phase is q^{n1 n2 / 2}
    n1 = 10 ** 23 + 3
    assert (matrix_entries(capsys, "t", "--d", "4", "--n1", str(n1), "--n2", "5")
            == matrix_entries(capsys, "t", "--d", "4", "--n1", str(n1 % 8), "--n2", "5"))
    # modulus 2 d (10^23 + 7) > 2^63
    d, r = 4, Fraction(1, 10 ** 23 + 7)
    expected = [[turn(0) if j == i else None for j in range(d)] for i in range(d)]
    expected[d - 1][d - 1] = turn((d - 1) * r / 2)
    assert matrix_entries(capsys, "pr", "--d", str(d), "--r", str(r)) == expected
    d, r, a = 3, Fraction(10 ** 25 + 1, 3), 2
    expected = [[None] * d for _ in range(d)]
    for n in range(1, d):
        expected[n - 1][n] = turn(Fraction(n * a, d))
    expected[d - 1][0] = turn((d - 1) * r / 2)
    assert matrix_entries(capsys, "vra", "--d", str(d), "--r", str(r), "--a", str(a)) == expected


def test_verify_failing_exact_check_exits_1(capsys, monkeypatch):
    from mubkit import weyl
    monkeypatch.setattr(weyl, "z_matrix", weyl.x_matrix)
    code, out, _ = run(capsys, "verify", "weyl", "--d-max", "3", "--format", "pretty")
    assert code == 1
    assert "FAIL  weyl.shift_clock_commutation" in out
    assert "residual inf" in out
    assert out.rstrip().endswith("overall: FAIL")
    # JSON has no inf: the failed check's residual is written as null
    code, out, _ = run(capsys, "verify", "weyl", "--d-max", "3", "--format", "json")
    payload = parse_document(out)["payload"]
    assert code == 1 and payload["passed"] is False
    failed = {c["name"]: c for c in payload["checks"] if not c["passed"]}
    assert failed["weyl.shift_clock_commutation"]["residual"] is None
    code, out, _ = run(capsys, "verify", "weyl", "--d-max", "3", "--format", "csv")
    assert code == 1 and "weyl.shift_clock_commutation,inf,0.0,False" in out


def test_verify_failing_float_check_exits_1(capsys, monkeypatch):
    from mubkit import qdft
    real = qdft.trace_fra
    monkeypatch.setattr(qdft, "trace_fra", lambda d, r=0, a=0: real(d, r, a) + 1e-6)
    code, out, _ = run(capsys, "verify", "qdft", "--d-max", "3", "--format", "pretty")
    assert code == 1
    assert "FAIL  qdft.trace_two_route" in out
    assert "PASS  qdft.unitarity" in out
    assert out.rstrip().endswith("overall: FAIL")
    code, out, _ = run(capsys, "verify", "qdft", "--d-max", "3", "--format", "json")
    payload = parse_document(out)["payload"]
    assert code == 1 and payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["qdft.trace_two_route"]
    assert abs(failed[0]["residual"] - 1e-6) < 1e-9


def test_verify_nan_residual_fails(capsys, monkeypatch):
    # nan compares false with everything, so a max over the cases would
    # pass it over; the check must fail with residual inf instead
    from mubkit import qdft
    monkeypatch.setattr(qdft, "trace_fra", lambda d, r=0, a=0: np.full(np.shape(a), complex("nan")))
    code, out, _ = run(capsys, "verify", "qdft", "--d-max", "3", "--format", "pretty")
    assert code == 1
    assert "FAIL  qdft.trace_two_route" in out and "residual inf" in out
    assert out.rstrip().endswith("overall: FAIL")
    code, out, _ = run(capsys, "verify", "qdft", "--d-max", "3", "--format", "json")
    payload = parse_document(out)["payload"]
    assert code == 1 and payload["passed"] is False
    [failed] = [c for c in payload["checks"] if not c["passed"]]
    assert failed["name"] == "qdft.trace_two_route" and failed["residual"] is None


def test_mub_verify_with_a_corrupted_basis_exits_1(capsys, monkeypatch):
    from mubkit import mub
    real = mub.mub_prime

    def corrupted(p, r=0):
        ms = real(p, r)
        first = ms.bases[0]
        bad = mub.Basis(p, np.asarray(first.matrix, dtype=complex) + 1e-6, first.label)
        return mub.MubSet(p, [bad] + ms.bases[1:], declared_complete=True)

    monkeypatch.setattr(mub, "mub_prime", corrupted)
    code, out, _ = run(capsys, "mub", "--p", "5", "--verify", "--format", "pretty")
    assert code == 1
    assert "FAIL  orthonormal[r=0,a=0]" in out
    assert "FAIL  unbiased[r=0,a=0|r=0,a=1]" in out
    assert "PASS  unbiased[r=0,a=1|r=0,a=2]" in out
    assert out.rstrip().endswith("overall: FAIL")
    code, out, _ = run(capsys, "mub", "--p", "5", "--verify", "--format", "json")
    report = parse_document(out)["payload"]["verification"]
    assert code == 1 and report["passed"] is False
    assert {c["name"]: c["passed"] for c in report["checks"]}["orthonormal[r=0,a=0]"] is False


def test_mub_verify_nan_residual_is_json_null(capsys, monkeypatch):
    # a first basis whose float view holds a nan, its exact matrix emitted
    # as built: every residual that reads it is nan, fails and is null
    from mubkit import mub
    real = mub.mub_prime

    class NanBasis(mub.Basis):
        @property
        def vectors(self):
            vectors = np.asarray(self.matrix, dtype=complex).copy()
            vectors[0, 0] = complex("nan")
            return vectors

    def with_nan(p, r=0):
        ms = real(p, r)
        first = ms.bases[0]
        bad = NanBasis(p, first.matrix, first.label)
        return mub.MubSet(p, [bad] + ms.bases[1:], declared_complete=True)

    monkeypatch.setattr(mub, "mub_prime", with_nan)
    code, out, _ = run(capsys, "mub", "--p", "3", "--verify", "--format", "json")
    report = parse_document(out)["payload"]["verification"]
    assert code == 1 and report["passed"] is False
    bad = [c for c in report["checks"] if "r=0,a=0" in c["name"]]
    assert [c["name"] for c in bad] == ["unbiased[r=0,a=0|r=0,a=1]", "unbiased[r=0,a=0|r=0,a=2]",
                                        "unbiased[r=0,a=0|computational]", "orthonormal[r=0,a=0]"]
    assert all(c["residual"] is None and c["passed"] is False for c in bad)
    assert all(c["passed"] for c in report["checks"] if c not in bad)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 3), (5, 5)])
def test_complex_payloads_keep_the_float_pairs(shape):
    from mubkit import cli
    rng = np.random.default_rng(0)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    arr.flat[0] = complex(-0.0, 0.0)
    pair = lambda v: [float(v.real), float(v.imag)]
    if len(shape) == 1:
        got, want = cli.complex_vector_payload(arr)["entries"], [pair(v) for v in arr]
    else:
        got = cli.complex_matrix_payload(arr)["entries"]
        want = [[pair(v) for v in row] for row in arr]
    assert json.dumps(got) == json.dumps(want)
    assert all(type(x) is float for x in np.ravel(got).tolist())


@pytest.mark.parametrize("argv", [
    ("matrix", "fra", "--d", "5"),
    ("mub", "--p", "5"),
    ("transform", "--d", "2", "--in", "{signal}"),
])
@pytest.mark.parametrize("value, exact", [("2.5", "5/2"), ("-3.1", "-31/10")])
def test_decimal_r_beyond_two_is_usage_error(tmp_path, capsys, argv, value, exact):
    signal = tmp_path / "x.csv"
    signal.write_text("1,0\n0,0\n")
    argv = [a.format(signal=signal) for a in argv]
    code, out, err = run(capsys, *argv, "--r", value, "--format", "json")
    assert code == 2 and out == ""
    assert "outside [-2, 2]" in err and f"--r {exact}" in err
    assert run(capsys, *argv, "--r", exact, "--format", "json")[0] == 0
    assert run(capsys, *argv, "--r", "-1.999", "--format", "json")[0] == 0


# -- round trips ------------------------------------------------------------------

ROUND_TRIP = settings(max_examples=40, deadline=None)
KINDS = ["fra", "hra", "dra", "vra", "x", "z", "pr", "uab", "t"]


def handled(*argv):
    """The document a command builds, before rendering."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.handler(args)[0]


def assert_json_round_trip(doc):
    text = render_document(doc, "json")
    assert render_document(json.loads(text), "json") == text


@given(st.one_of(st.integers(), st.fractions()))
def test_parse_rational_reads_back_str(x):
    assert parse_rational(str(x)) == x


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=6))
def test_parse_half_integers_doubles_k_over_2(ks):
    assert parse_half_integers(",".join(str(Fraction(k, 2)) for k in ks)) == ks


@ROUND_TRIP
@given(kind=st.sampled_from(KINDS), d=st.integers(2, 9), a=st.integers(-9, 18),
       r=st.fractions(-2, 2, max_denominator=12), decimal=st.booleans())
def test_matrix_json_round_trip(kind, d, a, r, decimal):
    # monomial and full phase_matrix payloads, and complex_matrix for a decimal r
    r_text = repr(float(r)) if decimal and kind in ("fra", "hra", "dra") else str(r)
    extra = {"uab": ["--b", a + 1], "t": ["--n1", a, "--n2", 2 * a]}.get(kind, [])
    assert_json_round_trip(handled("matrix", kind, "--d", d, "--r", r_text, "--a", a, *extra))


@ROUND_TRIP
@given(p=st.sampled_from([2, 3, 5, 7, 11]), r=st.fractions(-2, 2, max_denominator=6),
       three=st.booleans())
def test_basis_set_with_verification_json_round_trip(p, r, three):
    argv = ["mub", "--p", p + 1 if three else p, "--r", r, "--verify"]
    assert_json_round_trip(handled(*argv, *(["--three-mub"] if three else [])))


@ROUND_TRIP
@given(u=st.integers(-30, 30), v=st.fractions(-30, 30, max_denominator=7),
       w=st.integers(1, 40), negative=st.booleans())
def test_complex_scalar_json_round_trip(u, v, w, negative):
    assert_json_round_trip(handled("gauss", "--u", u, "--v", v, "--w", -w if negative else w))


@ROUND_TRIP
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=8))
def test_complex_vector_json_round_trip(values):
    from mubkit import cli
    payload = cli.complex_vector_payload(np.array(values, dtype=complex))
    assert_json_round_trip(cli.document("transform", {"d": len(values)}, payload))


@ROUND_TRIP
@given(st.lists(st.tuples(st.floats(), st.sampled_from([0.0, 1e-12, 1e-10])), max_size=5))
def test_verification_report_json_round_trip(checks):
    # a non-finite residual is written as null
    from mubkit import cli
    from mubkit.verify import CheckResult
    results = [CheckResult(f"c{i}", res, tol) for i, (res, tol) in enumerate(checks)]
    results.append(CheckResult("nan", float("nan"), 0.0))
    doc = cli.document("verify", {}, cli._report_payload(results))
    assert doc["payload"]["checks"][-1]["residual"] is None
    assert_json_round_trip(doc)


@ROUND_TRIP
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3), st.data())
def test_fbar_value_json_round_trip(two_js, data):
    spins = ",".join(str(Fraction(tj, 2)) for tj in two_js)
    alphas = ",".join(str(data.draw(st.integers(0, tj))) for tj in two_js)
    assert_json_round_trip(handled("fbar", "--j", spins, "--alpha", alphas))


def test_the_parser_is_built_once_and_usage_errors_leave_it_clean(capsys):
    # main reads one cached parser; after an argparse error and a handler's
    # usage error in this process, a request prints the bytes of a fresh
    # interpreter
    argv = ["mub", "--p", "5", "--r", "1/3", "--verify", "--format", "json"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    fresh = subprocess.run([sys.executable, "-m", "mubkit", *argv], capture_output=True,
                           env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["mub", "--p", "five"])
    assert exc.value.code == 2
    assert run(capsys, "mub", "--p", "6")[0] == 2
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == fresh.stdout
