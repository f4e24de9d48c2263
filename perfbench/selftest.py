"""Self-test of the benchmark: the oracle flags corrupted outputs, a seed
fixes the op list, and the tracer leaves the program as it found it.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check passes.  It runs a handful of small ops and
takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import run  # noqa: E402  (sets BLAS threads; provides load_program)
from workloads import WORKLOADS, ops_hash, run_op  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def flips_detected() -> None:
    from oracle import OracleProcess, check_exact, check_mub, check_verify

    argv = ("mub", "--p", "7", "--r", "1/3", "--verify", "--format", "json")
    code, text = run_op(("cli", argv))
    expect(check_mub(argv, code, text) == [], "captured exact mub output passes")
    doc = json.loads(text)
    entries = doc["payload"]["bases"][2]["matrix"]["entries"]
    num, den = entries[3][4]
    entries[3][4] = [(num + 1) % den, den]  # one flipped phase pair
    expect(check_mub(argv, code, canonical(doc)) != [], "one flipped phase pair is flagged")
    with OracleProcess() as oracle:
        expect(oracle.check(("cli", argv), (code, text)) == [],
               "the oracle process passes the captured output")
        expect(oracle.check(("cli", argv), (code, canonical(doc))) != [],
               "the oracle process flags the flipped phase pair")
    expect(check_mub(argv, 1, text) != [], "nonzero exit code is flagged")
    broken = copy.deepcopy(json.loads(text))
    broken["payload"]["verification"]["checks"][0]["residual"] = 1.0
    expect(check_mub(argv, code, canonical(broken)) != [],
           "a verification residual above tolerance is flagged")

    argv = ("mub", "--p", "5", "--r", "0.37", "--format", "json")
    code, text = run_op(("cli", argv))
    expect(check_mub(argv, code, text) == [], "captured decimal-R mub output passes")
    doc = json.loads(text)
    doc["payload"]["bases"][1]["matrix"]["entries"][2][3][0] += 1e-8
    expect(check_mub(argv, code, canonical(doc)) != [], "a 1e-8 error on the float path is flagged")

    argv = ("verify", "su2", "--d-max", "3", "--seed", "5", "--format", "json")
    code, text = run_op(("cli", argv))
    expect(check_verify(argv, code, text) == [], "captured verify output passes")
    doc = json.loads(text)
    doc["payload"]["checks"].pop()
    expect(check_verify(argv, code, canonical(doc)) != [], "a dropped verify check is flagged")

    expect(check_exact("pauli_trace_orthogonality", 0.0) == [], "exact 0.0 passes")
    expect(check_exact("pauli_trace_orthogonality", 1e-300) != [], "1e-300 is not exact zero")
    expect(check_exact("sine_product_check", False) != [], "False is flagged")
    expect(check_exact("vra_q_commutation_checks", (True, 1)) != [], "1 is not True")


def seeds_fix_ops() -> None:
    for name, workload in WORKLOADS.items():
        a = ops_hash(workload.blocks(3, 4))
        expect(a == ops_hash(workload.blocks(3, 4)), f"{name}: same seed, same op hash")
        expect(a != ops_hash(workload.blocks(4, 4)), f"{name}: other seed, other op hash")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from workloads import *; "
                f"print(ops_hash(WORKLOADS[{name!r}].blocks(3, 4)))")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        expect(out.stdout.strip() == a, f"{name}: same op hash in a fresh interpreter")


def tracer_restores() -> None:
    from mubkit import cli, mub, verify, weyl
    from mubkit.phases import ExactPhase, PhaseMatrix
    from tracer import Tracer

    before = (weyl.u_ab, mub.u_ab, cli.render_document, dict(verify.SUITES),
              vars(PhaseMatrix)["__matmul__"], vars(PhaseMatrix)["from_exponents"],
              vars(ExactPhase)["__init__"])
    tracer = Tracer()
    tracer.install()
    try:
        expect(mub.u_ab is not before[1], "tracer rebinds names imported with from-import")
        result = run_op(("sine_product_check", (5, (1, 2), (3, 4))))
    finally:
        tracer.uninstall()
    expect(result is True, "traced op still returns its value")
    totals = tracer.totals()
    expect(totals.get("weyl.check", {}).get("calls") == 1
           and totals.get("phases.matmul", {}).get("calls", 0) > 0,
           "spans recorded for weyl and phases")
    after = (weyl.u_ab, mub.u_ab, cli.render_document, dict(verify.SUITES),
             vars(PhaseMatrix)["__matmul__"], vars(PhaseMatrix)["from_exponents"],
             vars(ExactPhase)["__init__"])
    expect(after == before, "uninstall restores every rebound name")


def main() -> int:
    run.load_program()
    flips_detected()
    seeds_fix_ops()
    tracer_restores()
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
