"""CLI payloads against the paper's closed form, computed here in Fractions.

    (F_ra)_{nm} = q^{n(d-n)a/2 + (d-1)^2 r/4 + n[m - (d-1)r/2]} / sqrt(d),
    (H_ra)_{n,alpha} = (F_ra)_{d-1-n, alpha},   (D_ra)_{nn} = (F_ra)_{n0},

with q = exp(2*pi*i/d).  Each JSON entry must be the reduced
[numerator, denominator] pair of the entry's turns, as plain ints.
"""

import json
from fractions import Fraction

import pytest

from mubkit.cli import main
from mubkit.mub import sl_partition_check
from mubkit.weyl import pauli_trace_orthogonality

RS = ["0", "1/2", "1/3", "2/5", "-3/7"]


def fra_turns(d, r, a, n, m):
    e = Fraction(n * (d - n) * a, 2) + Fraction((d - 1) ** 2, 4) * r + n * (m - Fraction(d - 1, 2) * r)
    return (e / d) % 1


def pair(t):
    return None if t is None else [t.numerator, t.denominator]


def want_entries(kind, d, r, a):
    f = [[fra_turns(d, r, a, n, m) for m in range(d)] for n in range(d)]
    if kind == "fra":
        rows = f
    elif kind == "hra":
        rows = f[::-1]
    else:
        rows = [[f[n][0] if n == m else None for m in range(d)] for n in range(d)]
    return [[pair(t) for t in row] for row in rows]


def payload(capsys, *argv):
    code = main([*argv, "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)["payload"]


def assert_plain_ints(entries):
    for row in entries:
        for p in row:
            assert p is None or (type(p[0]) is int and type(p[1]) is int)


@pytest.mark.parametrize("kind", ["fra", "hra", "dra"])
@pytest.mark.parametrize("r", RS)
def test_matrix_payload_matches_closed_form(capsys, kind, r):
    for d in range(2, 14):
        for a in range(d):
            got = payload(capsys, "matrix", kind, "--d", str(d), f"--r={r}", "--a", str(a))
            assert got["entries"] == want_entries(kind, d, Fraction(r), a)
            assert got["amplitude"] == ("1" if kind == "dra" else f"1/sqrt({d})")
            assert_plain_ints(got["entries"])


def identity_entries(d):
    return [[[0, 1] if i == j else None for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("r", RS)
def test_mub_payloads_match_closed_form(capsys, r):
    bases = payload(capsys, "mub", "--p", "7", f"--r={r}")["bases"]
    assert [b["matrix"]["entries"] for b in bases[:7]] == [
        want_entries("hra", 7, Fraction(r), a) for a in range(7)]
    assert bases[7]["matrix"]["entries"] == identity_entries(7)
    for a in range(6):
        bases = payload(capsys, "mub", "--three-mub", "--p", "6", "--a", str(a),
                        f"--r={r}")["bases"]
        assert [b["matrix"]["entries"] for b in bases] == [
            want_entries("hra", 6, Fraction(r), a), want_entries("hra", 6, Fraction(r), (a + 1) % 6),
            identity_entries(6)]
        for b in bases:
            assert_plain_ints(b["matrix"]["entries"])


@pytest.mark.parametrize("d", [2, 5, 7])
def test_exact_residuals_are_builtin_floats(d):
    value = pauli_trace_orthogonality(d)
    assert type(value) is float and value == 0.0
    report = sl_partition_check(d)
    assert type(report.gram_residual) is float and report.gram_residual == 0.0
