"""Independent checks of every op's output.

Nothing here calls mubkit.  The H_ra entries are recomputed from the
closed form of the quadratic Fourier matrix,

    (F_ra)_{nm} = q^{n(d-n)a/2 + (d-1)^2 r/4 + n[m - (d-1)r/2]} / sqrt(d),
    (H_ra)_{n,alpha} = (F_ra)_{d-1-n, alpha},

in integer arithmetic for rational r and with numpy for decimal r.
Each check returns a list of problems; an empty list means correct.

CLI outputs are checked in a helper process (`OracleProcess`, which runs
this file as a script), so that parsing a response of several MB and the
reference arrays do not count toward the benchmark process's peak_rss_mb.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import VERIFY_SUITES

# checks per suite that `mubkit verify <suite> --d-max 13` reported at
# the commit that introduced this benchmark; a later commit may add
# checks but not drop them
SEED_CHECK_COUNTS = {"weyl": 10, "qdft": 8, "su2": 7, "mub": 9, "wigner": 4}

FLOAT_TOL = 1e-10


def _parse_r(text: str):
    """The R argument as the CLI grammar reads it: n, n/m, else decimal."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except ValueError:
        return float(text)


def hra_turn_pairs(p: int, r: Fraction) -> np.ndarray:
    """Reduced [numerator, denominator] turn pairs of H_ra for a = 0..p-1,
    shape (p, p, p, 2), from the closed form in integer arithmetic."""
    a = np.arange(p, dtype=np.int64)[:, None, None]
    row = np.arange(p - 1, -1, -1, dtype=np.int64)[None, :, None]  # F row d-1-n
    m = np.arange(p, dtype=np.int64)[None, None, :]
    rn, rd = r.numerator, r.denominator
    # exponent times 4*rd, over the turn denominator 4*rd*p
    num = (2 * row * (p - row) * a * rd + (p - 1) ** 2 * rn
           + 4 * row * m * rd - 2 * row * (p - 1) * rn)
    den = 4 * rd * p
    num = np.mod(num, den)
    g = np.gcd(num, den)
    return np.stack(np.broadcast_arrays(num // g, den // g), axis=-1)


def hra_complex(p: int, r: float) -> np.ndarray:
    """H_ra for a = 0..p-1 as complex arrays, shape (p, p, p)."""
    a = np.arange(p)[:, None, None]
    row = np.arange(p - 1, -1, -1)[None, :, None]
    m = np.arange(p)[None, None, :]
    expo = row * (p - row) * a / 2 + (p - 1) ** 2 * r / 4 + row * (m - (p - 1) * r / 2)
    return np.exp(2j * np.pi * expo / p) / math.sqrt(p)


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _cli_document(code: int, text: str, problems: list) -> dict | None:
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if _canonical(doc) != text.rstrip("\n"):
        problems.append("JSON output is not canonical")
    return doc


def _report_problems(report, want_checks: int, problems: list,
                     name_prefix: str = "") -> None:
    """Recompute pass/fail of a verification report from its residuals."""
    if not isinstance(report, dict) or report.get("type") != "verification_report":
        problems.append("missing verification report")
        return
    checks = report.get("checks", [])
    names = [c.get("name") for c in checks]
    if len(set(names)) != len(names):
        problems.append("duplicate check names")
    for c in checks:
        if not (c["residual"] <= c["tolerance"]) or c["passed"] is not True:
            problems.append(f"check {c['name']} failed: residual {c['residual']}")
        if not str(c["name"]).startswith(name_prefix):
            problems.append(f"check {c['name']} outside suite {name_prefix!r}")
    if report.get("passed") is not True:
        problems.append("report not passed")
    if len(checks) < want_checks:
        problems.append(f"{len(checks)} checks, expected at least {want_checks}")


def check_mub(argv: tuple, code: int, text: str) -> list[str]:
    problems: list[str] = []
    doc = _cli_document(code, text, problems)
    if doc is None:
        return problems
    p = int(argv[argv.index("--p") + 1])
    r = _parse_r(argv[argv.index("--r") + 1])
    exact = isinstance(r, Fraction)
    r_tag = str(r) if exact else r
    if (doc.get("command") != "mub" or doc.get("schema_version") != "1"
            or doc.get("params") != {"construction": "prime", "p": p, "r": r_tag}):
        problems.append(f"wrong header {doc.get('command')} {doc.get('params')}")
    payload = doc.get("payload", {})
    bases = payload.get("bases", [])
    if (payload.get("type") != "basis_set" or payload.get("dim") != p
            or payload.get("complete") is not True or len(bases) != p + 1):
        return problems + ["payload is not a complete basis set"]

    want_labels = [f"r={r_tag},a={a}" for a in range(p)] + ["computational"]
    if [b["label"] for b in bases] != want_labels:
        problems.append("basis labels out of order")
    try:
        if exact:
            kinds = {(b["matrix"]["type"], b["matrix"]["amplitude"]) for b in bases[:p]}
            if kinds != {("phase_matrix", f"1/sqrt({p})")}:
                problems.append(f"Fourier bases are not exact phase matrices: {kinds}")
            got = np.array([b["matrix"]["entries"] for b in bases[:p]], dtype=np.int64)
            want = hra_turn_pairs(p, r)
        else:
            if {b["matrix"]["type"] for b in bases[:p]} != {"complex_matrix"}:
                problems.append("decimal-R bases are not complex matrices")
            got = np.array([b["matrix"]["entries"] for b in bases[:p]], dtype=float)
            want = hra_complex(p, r)
    except (TypeError, ValueError, KeyError) as exc:
        return problems + [f"malformed basis entries: {exc}"]
    if got.shape != (p, p, p, 2):
        return problems + [f"basis entries have shape {got.shape}"]
    if exact:
        bad = np.argwhere(np.any(got != want, axis=-1))
    else:
        bad = np.argwhere(np.abs(got[..., 0] + 1j * got[..., 1] - want) > FLOAT_TOL)
    if len(bad):
        a, n, al = bad[0]
        problems.append(f"{len(bad)} entries differ from the closed form, "
                        f"first at a={a} n={n} alpha={al}")

    ident = bases[p]["matrix"]
    want_ident = [[[0, 1] if i == j else None for j in range(p)] for i in range(p)]
    if (ident.get("type") != "phase_matrix" or ident.get("amplitude") != "1"
            or ident.get("entries") != want_ident):
        problems.append("computational basis is not the exact identity")

    if "--verify" in argv:
        # p(p+1)/2 basis pairs plus p+1 orthonormality checks
        _report_problems(payload.get("verification"), (p + 1) * (p + 2) // 2, problems)
    elif "verification" in payload:
        problems.append("verification present without --verify")
    return problems


def check_verify(argv: tuple, code: int, text: str) -> list[str]:
    problems: list[str] = []
    doc = _cli_document(code, text, problems)
    if doc is None:
        return problems
    suite = argv[1]
    if suite not in VERIFY_SUITES:
        return [f"unknown suite {suite}"]
    want_params = {"suite": suite, "d_max": int(argv[argv.index("--d-max") + 1]),
                   "seed": int(argv[argv.index("--seed") + 1])}
    if doc.get("command") != "verify" or doc.get("params") != want_params:
        problems.append(f"wrong header {doc.get('command')} {doc.get('params')}")
    _report_problems(doc.get("payload"), SEED_CHECK_COUNTS[suite], problems, suite + ".")
    return problems


def check_exact(kind: str, value) -> list[str]:
    """Exact checks return exactly 0.0 or True; nothing close counts."""
    if kind == "pauli_trace_orthogonality":
        ok = type(value) is float and value == 0.0
    elif kind == "sl_partition_check":
        ok = (value.disjoint is True and value.union_complete is True
              and value.all_abelian is True and value.gram_residual == 0.0)
    elif kind == "vra_q_commutation_checks":
        ok = isinstance(value, tuple) and len(value) == 2 and all(v is True for v in value)
    else:
        ok = value is True
    return [] if ok else [f"{kind} returned {value!r}"]


def check_op(op: tuple, result) -> list[str]:
    kind, args = op
    if kind == "cli":
        code, text = result
        if args[0] == "mub":
            return check_mub(args, code, text)
        return check_verify(args, code, text)
    return check_exact(kind, result)


def serve(inp, out) -> None:
    """Helper-process loop.  Each request is a JSON header line
    [argv, exit code, byte count] followed by that many bytes of CLI
    output; the answer is one JSON line with the list of problems."""
    while header := inp.readline():
        argv, code, size = json.loads(header)
        text = inp.read(size).decode()
        try:
            problems = check_op(("cli", tuple(argv)), (code, text))
        except Exception:
            problems = ["oracle raised:\n" + traceback.format_exc()]
        out.write(json.dumps(problems).encode() + b"\n")
        out.flush()


class OracleProcess:
    """Checks ops one at a time: CLI outputs in a helper process, the small
    return values of the exact checks in this one."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def check(self, op: tuple, result) -> list[str]:
        kind, args = op
        if kind != "cli":
            return check_exact(kind, result)
        code, text = result
        data = text.encode()
        self.proc.stdin.write(json.dumps([list(args), code, len(data)]).encode() + b"\n")
        self.proc.stdin.write(data)
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"oracle process exited with code {self.proc.wait()}")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
