"""Command-line interface: construct matrices and bases, run transforms,
evaluate Gauss sums and coupling symbols, and drive the verification
suites.

Output formats: ``json`` (canonical: sorted keys, fixed separators, exact
phases as [numerator, denominator] turn pairs plus an amplitude tag, so
emit -> parse -> emit is byte-identical), ``csv`` (re/im pair columns,
row-major) and ``pretty`` (entries rendered as powers of q, the default).

Exit codes: 0 success, 1 a requested verification failed, 2 usage error,
including input beyond the resource and accuracy bounds below.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import mub, qdft, weyl, wigner
from .phases import PhaseMatrix
from .verify import SUITES, CheckResult, _basis_set_checks, run_suite

SCHEMA_VERSION = "1"
FORMATS = ("json", "csv", "pretty")

__all__ = ["main", "render_document", "parse_document", "payload_to_matrix"]


# Bounds on input; a command beyond them exits 2 and names the reason.
# Matrix entries one response may hold: d^2 for `matrix`, (p+1) p^2 for
# `mub`, d for `transform`.  10^6 entries is a JSON document of about
# 20 MB; it admits `matrix --d 1000`, `mub --p 97` and `transform --d 10^6`.
MAX_PAYLOAD_ENTRIES = 10 ** 6
# `gauss` adds its |w| terms one at a time.
MAX_GAUSS_TERMS = 10 ** 7
# `fbar` sums 3-jm symbols in floating point.  Against sympy's exact
# wigner_3j at j1 = j2 = j3 = j their error grows from about 3e-13 at
# j = 20 to 7e-11 at j = 30 and 2e-9 at j = 40.
MAX_FBAR_TWO_J = 40
# Only the `qdft` suite of `verify` has no dimension cap of its own (the
# others stop at 16 or below), so a larger --d-max only grows qdft: its
# d_max^2 (d, r, a) cases each build d x d matrices, about d_max^3 in all.
# `verify qdft --d-max` took 0.13 s at 13, 0.8 s at 32, 2.4 s at 48 and
# 5.3 s at 64 (2-core x86 host, Python 3.11).
MAX_VERIFY_D = 32


class UsageError(Exception):
    pass


def _check_entries(count: int, what: str, shape: str) -> None:
    """Refuse a payload of more than MAX_PAYLOAD_ENTRIES entries; shape
    ("matrix" or "vector") names them in the message."""
    if count > MAX_PAYLOAD_ENTRIES:
        raise UsageError(f"{what} would emit {count} {shape} entries; the limit "
                         f"is {MAX_PAYLOAD_ENTRIES}, to bound time and memory")


# -- parameter parsing --------------------------------------------------------

def parse_rational(text: str) -> Union[int, Fraction, float]:
    """Accept 'n', 'n/m' (exact path) or a decimal literal (float path)."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return int(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"cannot parse rational or decimal value: {text!r}")
    if not math.isfinite(value):
        raise UsageError(f"value must be finite, got {text!r}")
    print(f"warning: {text!r} is not rational; using the floating-point path",
          file=sys.stderr)
    return value


def _parse_r(text: str) -> Union[int, Fraction, float]:
    """The --r of matrix, mub and transform.  A decimal takes the
    floating-point path of qdft, which holds its 1e-11 tolerance for
    |r| <= 2; beyond, the gap to the exact matrix of the same float
    reaches 6.5e-10 at d = 1000, r = 123456.789."""
    r = parse_rational(text)
    if isinstance(r, float) and abs(r) > 2:
        raise UsageError(f"decimal --r {text} is outside [-2, 2], where the "
                         f"floating-point path holds its 1e-11 tolerance; give "
                         f"it as an exact n/m, e.g. --r {Fraction(repr(r))}")
    return r


def _rational_tag(r: Union[int, Fraction, float]) -> Union[str, float]:
    if isinstance(r, (int, Fraction)):
        return str(Fraction(r))
    return float(r)


def parse_half_integers(text: str) -> list[int]:
    """'1,1/2,2' -> doubled integers [2, 1, 4]."""
    out = []
    for piece in text.split(","):
        value = parse_rational(piece)
        doubled = Fraction(value) * 2 if not isinstance(value, float) else None
        if doubled is None or doubled.denominator != 1:
            raise UsageError(f"{piece!r} is not a half-integer")
        out.append(int(doubled))
    return out


# -- payloads ------------------------------------------------------------------

def phase_matrix_payload(m: PhaseMatrix) -> dict:
    """Entries as reduced [numerator, denominator] turn pairs, None for zero."""
    n = m.modulus
    if m.monomial_view is not None:
        entries = [[None] * m.dim for _ in range(m.dim)]
        for row, c, e in zip(entries, *m.monomial_view):
            g = math.gcd(e, n)
            row[c] = [e // g, n // g]
    else:
        g = np.gcd(m.exponents, n)
        entries = [[[num, den] for num, den in zip(*row)]
                   for row in zip((m.exponents // g).tolist(), (n // g).tolist())]
    return {"type": "phase_matrix", "dim": m.dim, "amplitude": m.amplitude_tag,
            "entries": entries}


def _re_im_pairs(arr: np.ndarray) -> list:
    """Each complex entry as a [re, im] pair of Python floats."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(float).reshape(*arr.shape, 2).tolist()


def complex_matrix_payload(arr: np.ndarray) -> dict:
    return {"type": "complex_matrix", "dim": int(arr.shape[0]),
            "entries": _re_im_pairs(arr)}


def matrix_payload(m) -> dict:
    if isinstance(m, PhaseMatrix):
        return phase_matrix_payload(m)
    return complex_matrix_payload(np.asarray(m, dtype=complex))


def complex_vector_payload(vec: np.ndarray) -> dict:
    return {"type": "complex_vector", "entries": _re_im_pairs(vec)}


def scalar_payload(value: complex) -> dict:
    return {"type": "complex_scalar", "value": [float(value.real), float(value.imag)]}


def payload_to_matrix(payload: dict) -> Union[PhaseMatrix, np.ndarray]:
    """Rebuild a matrix from its JSON payload."""
    if payload["type"] == "phase_matrix":
        rows = payload["entries"]
        dim = len(rows)
        den = math.lcm(*(pair[1] for row in rows for pair in row if pair is not None))
        # turns num/pair_den as q**(e / den) with q = exp(2*pi*i/dim)
        exps = [[None if pair is None else pair[0] * (den // pair[1]) * dim for pair in row]
                for row in rows]
        scaled = payload["amplitude"] != "1"
        present = [[e is not None for e in row] for row in exps]
        if all(map(all, present)):
            return PhaseMatrix.from_exponents(dim, exps, scaled, den)
        if all(sum(row) == 1 for row in present) and all(sum(col) == 1 for col in zip(*present)):
            cols = [row.index(True) for row in present]
            return PhaseMatrix.monomial(cols, [row[c] for row, c in zip(exps, cols)],
                                        den, scaled)
        raise UsageError("a phase_matrix payload must be monomial (one entry per row "
                         "and column) or full (an entry at every position)")
    if payload["type"] == "complex_matrix":
        return np.array([[complex(re, im) for re, im in row]
                         for row in payload["entries"]])
    raise UsageError(f"payload type {payload['type']!r} is not a matrix")


def _report_payload(results: list[CheckResult]) -> dict:
    """JSON has no inf: a non-finite residual, which fails its check, is
    None (null); pretty and csv render it as inf."""
    checks = [{"name": c.name,
               "residual": c.residual if math.isfinite(c.residual) else None,
               "tolerance": c.tolerance, "passed": c.passed} for c in results]
    return {"type": "verification_report", "checks": checks,
            "passed": all(c.passed for c in results)}


def document(command: str, params: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": params, "payload": payload}


# -- rendering -----------------------------------------------------------------

def _pretty_phase(pair: Optional[list], dim: int) -> str:
    if pair is None:
        return "."
    t = Fraction(*pair)
    if t == 0:
        return "1"
    scaled = t * dim
    if scaled.denominator == 1:
        return f"q^{scaled.numerator}"
    if scaled.denominator == 2:
        return f"q^{scaled.numerator}/2"
    return f"e({t.numerator}/{t.denominator})"


def _pretty_complex(v: complex) -> str:
    return f"{v.real:+.6g}{v.imag:+.6g}i"


def _residual(check: dict) -> float:
    return float("inf") if check["residual"] is None else check["residual"]


def _pretty_payload(payload: dict) -> str:
    kind = payload["type"]
    if kind == "phase_matrix":
        dim = payload["dim"]
        cells = [[_pretty_phase(pair, dim) for pair in row] for row in payload["entries"]]
        width = max(len(c) for row in cells for c in row)
        lines = [f"amplitude {payload['amplitude']}, entries as powers of "
                 f"q = e(1/{dim}):"]
        lines += ["  ".join(c.rjust(width) for c in row) for row in cells]
        return "\n".join(lines)
    if kind == "complex_matrix":
        rows = payload["entries"]
        return "\n".join("  ".join(_pretty_complex(complex(re, im)).rjust(22)
                                   for re, im in row) for row in rows)
    if kind == "complex_vector":
        return "\n".join(_pretty_complex(complex(re, im))
                         for re, im in payload["entries"])
    if kind == "complex_scalar":
        re, im = payload["value"]
        return _pretty_complex(complex(re, im))
    if kind == "basis_set":
        lines = [f"{len(payload['bases'])} bases in dimension {payload['dim']}"]
        for entry in payload["bases"]:
            lines.append(f"-- {entry['label']}")
            lines.append(_pretty_payload(entry["matrix"]))
        if "verification" in payload:
            lines.append(_pretty_payload(payload["verification"]))
        return "\n".join(lines)
    if kind == "verification_report":
        lines = []
        for check in payload["checks"]:
            flag = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{flag}  {check['name']:<45s} "
                         f"residual {_residual(check):.3e}  tolerance {check['tolerance']:g}")
        lines.append("overall: " + ("PASS" if payload["passed"] else "FAIL"))
        return "\n".join(lines)
    if kind == "fbar_value":
        lines = [f"fbar = {_pretty_complex(complex(*payload['value']))}",
                 f"odd permutation = {_pretty_complex(complex(*payload['odd_permutation']))}",
                 f"parity factor (-1)^(j1+j2+j3) = {payload['parity_sign']}",
                 "parity check: " + ("PASS" if payload["parity_ok"] else "FAIL")]
        return "\n".join(lines)
    return json.dumps(payload, sort_keys=True, indent=2)


def _csv_payload(payload: dict) -> str:
    kind = payload["type"]
    if kind in ("phase_matrix", "complex_matrix"):
        arr = np.asarray(payload_to_matrix(payload), dtype=complex)
        d = arr.shape[1]
        header = ",".join(f"re{j},im{j}" for j in range(d))
        lines = [header]
        for row in arr:
            lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
        return "\n".join(lines)
    if kind == "complex_vector":
        lines = ["re,im"]
        lines += [f"{re!r},{im!r}" for re, im in payload["entries"]]
        return "\n".join(lines)
    if kind == "complex_scalar":
        re, im = payload["value"]
        return f"re,im\n{re!r},{im!r}"
    if kind == "verification_report":
        lines = ["name,residual,tolerance,passed"]
        lines += [f"{c['name']},{_residual(c)!r},{c['tolerance']!r},{c['passed']}"
                  for c in payload["checks"]]
        return "\n".join(lines)
    raise UsageError(f"payload type {payload['type']!r} has no csv rendering; "
                     f"use --format json or pretty")


def render_document(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if fmt == "csv":
        return _csv_payload(doc["payload"])
    if fmt == "pretty":
        params = " ".join(f"{k}={v}" for k, v in sorted(doc["params"].items()))
        return f"# {doc['command']} {params}\n" + _pretty_payload(doc["payload"])
    raise UsageError(f"unknown format {fmt!r}")


def parse_document(text: str) -> dict:
    return json.loads(text)


# -- commands ------------------------------------------------------------------

def cmd_matrix(args) -> tuple[dict, int]:
    kind = args.kind
    d = args.d
    if d is None or d < 2:
        raise UsageError("matrix requires --d of at least 2")
    _check_entries(d * d, f"matrix --d {d}", "matrix")
    r = _parse_r(args.r)
    need_rational = kind in ("vra", "pr", "t", "uab", "x", "z")
    if need_rational and isinstance(r, float):
        raise UsageError(f"kind {kind!r} is exact-only; give a rational --r")
    if kind == "fra":
        m = qdft.fra_matrix(d, r, args.a)
    elif kind == "hra":
        m = qdft.hra_matrix(d, r, args.a)
    elif kind == "dra":
        m = qdft.dra_matrix(d, r, args.a)
    elif kind == "vra":
        m = weyl.vra_matrix(d, r, args.a)
    elif kind == "x":
        m = weyl.x_matrix(d)
    elif kind == "z":
        m = weyl.z_matrix(d)
    elif kind == "pr":
        m = weyl.pr_matrix(d, r)
    elif kind == "uab":
        if args.b is None:
            raise UsageError("kind uab requires --b")
        m = weyl.u_ab(d, (args.a, args.b))
    elif kind == "t":
        if args.n1 is None or args.n2 is None:
            raise UsageError("kind t requires --n1 and --n2")
        m = weyl.t_matrix(d, (args.n1, args.n2))
    else:
        raise UsageError(f"unknown matrix kind {kind!r}")
    params = {"kind": kind, "d": d, "r": _rational_tag(r), "a": args.a}
    if args.b is not None:
        params["b"] = args.b
    if args.n1 is not None:
        params.update(n1=args.n1, n2=args.n2)
    return document("matrix", params, matrix_payload(m)), 0


def cmd_mub(args) -> tuple[dict, int]:
    r = _parse_r(args.r)
    exit_code = 0
    if args.dim4:
        ms = mub.mub_dim4()
        params = {"construction": "dim4"}
    elif args.three_mub:
        if args.p is None:
            raise UsageError("--three-mub requires --p (the dimension)")
        _check_entries(3 * args.p * args.p, f"mub --three-mub --p {args.p}", "matrix")
        ms = mub.mub_three(args.p, r, args.a)
        params = {"construction": "three", "p": args.p,
                  "r": _rational_tag(r), "a": args.a}
    else:
        if args.p is None:
            raise UsageError("mub requires --p")
        # the bound first: trial division of a huge p would not finish
        _check_entries((args.p + 1) * args.p * args.p, f"mub --p {args.p}", "matrix")
        if not mub.is_prime(args.p):
            raise UsageError(
                f"p = {args.p} is not prime, so a complete set is not "
                f"guaranteed; use --three-mub for the guaranteed triple in "
                f"composite dimension")
        ms = mub.mub_prime(args.p, r)
        params = {"construction": "prime", "p": args.p, "r": _rational_tag(r)}
    payload = {"type": "basis_set", "dim": ms.dim,
               "complete": ms.declared_complete,
               "bases": [{"label": b.label, "matrix": matrix_payload(b.matrix)}
                         for b in ms.bases]}
    if args.verify:
        payload["verification"] = _report_payload(_basis_set_checks(ms))
        exit_code = 0 if payload["verification"]["passed"] else 1
    return document("mub", params, payload), exit_code


def cmd_verify(args) -> tuple[dict, int]:
    if args.d_max < 2:
        raise UsageError(f"--d-max {args.d_max} is below 2, the smallest dimension "
                         f"the suites check; a check with no case would pass empty")
    if args.d_max > MAX_VERIFY_D:
        raise UsageError(f"--d-max {args.d_max} exceeds {MAX_VERIFY_D}: beyond it only "
                         f"the qdft suite grows, and its run time grows as d_max^3")
    if args.seed < 0:
        raise UsageError(f"--seed {args.seed} is negative; the suites draw their "
                         f"random cases from a seed >= 0")
    payload = _report_payload(run_suite(args.suite, d_max=args.d_max, seed=args.seed))
    params = {"suite": args.suite, "d_max": args.d_max, "seed": args.seed}
    return document("verify", params, payload), 0 if payload["passed"] else 1


def cmd_gauss(args) -> tuple[dict, int]:
    v = parse_rational(args.v)
    if abs(args.w) > MAX_GAUSS_TERMS:
        raise UsageError(f"|w| = {abs(args.w)} exceeds {MAX_GAUSS_TERMS}: the sum "
                         f"adds |w| terms one by one, so the run time grows with |w|")
    value = qdft.gauss_sum(args.u, v, args.w)
    params = {"u": args.u, "v": _rational_tag(v), "w": args.w}
    return document("gauss", params, scalar_payload(value)), 0


def _read_vector(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError as exc:
        raise UsageError(f"cannot read signal file: {exc}")
    if not text:
        raise UsageError(f"signal file {path!r} is empty")
    if text.startswith("["):
        try:
            data = json.loads(text)
            return np.array([complex(*pair) if isinstance(pair, list) else complex(pair)
                             for pair in data])
        except (json.JSONDecodeError, TypeError) as exc:
            raise UsageError(f"malformed JSON signal file: {exc}")
    values = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    start = 1 if lines and lines[0].lstrip().lower().startswith("re") else 0
    for line in lines[start:]:
        parts = line.split(",")
        try:
            values.append(complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0))
        except (ValueError, IndexError):
            raise UsageError(f"malformed CSV signal line: {line!r}")
    return np.array(values)


def cmd_transform(args) -> tuple[dict, int]:
    _check_entries(args.d, f"transform --d {args.d}", "vector")
    r = _parse_r(args.r)
    x = _read_vector(args.infile)
    if x.shape != (args.d,):
        raise UsageError(f"signal has length {x.shape[0]}, expected {args.d}")
    if args.inverse:
        y = qdft.inverse(x, args.d, r, args.a)
    else:
        y = qdft.forward(x, args.d, r, args.a)
    params = {"d": args.d, "r": _rational_tag(r), "a": args.a,
              "inverse": bool(args.inverse)}
    return document("transform", params, complex_vector_payload(y)), 0


def cmd_fbar(args) -> tuple[dict, int]:
    two_js = parse_half_integers(args.j)
    try:
        alphas = [int(a) for a in args.alpha.split(",")]
    except ValueError:
        raise UsageError(f"--alpha {args.alpha!r} is not a list of integers; "
                         f"give three, e.g. 0,1,2")
    if len(two_js) != 3 or len(alphas) != 3:
        raise UsageError("--j and --alpha each need exactly three entries")
    if max(two_js) > MAX_FBAR_TWO_J:
        raise UsageError(f"2j = {max(two_js)} exceeds {MAX_FBAR_TWO_J}: the "
                         f"floating-point 3-jm sums lose accuracy beyond j = "
                         f"{MAX_FBAR_TWO_J // 2}")
    tj1, tj2, tj3 = two_js
    a1, a2, a3 = alphas
    value = wigner.fbar(tj1, tj2, tj3, a1, a2, a3)
    odd = wigner.fbar(tj2, tj1, tj3, a2, a1, a3)
    sign = (-1) ** ((tj1 + tj2 + tj3) // 2)
    parity_ok = abs(odd - sign * value) < 1e-10
    payload = {"type": "fbar_value",
               "value": [value.real, value.imag],
               "odd_permutation": [odd.real, odd.imag],
               "parity_sign": sign, "parity_ok": parity_ok}
    params = {"two_j": list(two_js), "alpha": alphas}
    return document("fbar", params, payload), 0


# -- wiring --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction or non-finite value after an option as the
    option's value (`--r -3/7`, `--v -inf`), as argparse already does for
    `-3` and `-0.5`, so that parse_rational sees it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+(/\d+)?|\d*\.?\d+(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mubkit",
        description="quadratic Fourier matrices, Pauli operator families and "
                    "mutually unbiased bases, with exact phase arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="pretty")

    p = sub.add_parser("matrix", help="emit one matrix of the family")
    p.add_argument("kind", choices=["fra", "hra", "dra", "vra", "x", "z",
                                    "pr", "uab", "t"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", default="0")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    add_format(p)
    p.set_defaults(handler=cmd_matrix)

    p = sub.add_parser("mub", help="emit a set of mutually unbiased bases")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--r", default="0")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--dim4", action="store_true")
    p.add_argument("--three-mub", action="store_true", dest="three_mub")
    p.add_argument("--verify", action="store_true")
    add_format(p)
    p.set_defaults(handler=cmd_mub)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("suite", choices=["all"] + sorted(SUITES))
    p.add_argument("--d-max", type=int, default=8, dest="d_max")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("gauss", help="evaluate a quadratic Gauss sum")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=cmd_gauss)

    p = sub.add_parser("transform", help="apply the quadratic Fourier transform "
                                         "to a signal file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", default="0")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--inverse", action="store_true")
    add_format(p)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("fbar", help="evaluate the f-bar coupling symbol")
    p.add_argument("--j", required=True, help="three half-integers, e.g. 1,1,1")
    p.add_argument("--alpha", required=True, help="three integers, e.g. 0,1,2")
    add_format(p)
    p.set_defaults(handler=cmd_fbar)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.handler(args)
        output = render_document(doc, args.format)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
