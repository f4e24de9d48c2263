"""Run one workload of the mubkit benchmark and report its metrics.

Usage, from the root of a checkout (mubkit is imported from ./src, it
need not be installed):

    python3 perfbench/run.py --workload mub_cli --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the same whole blocks twice, untraced and then traced, reports the
per-layer metrics derived from the spans together with the tracing
overhead, and writes the spans to perfbench/out/trace_<workload>.npz.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

# One client, small matrices: a single BLAS thread keeps timings from
# depending on how much of the machine other processes leave free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from workloads import WARMUP, WORKLOADS, ops_hash, repeat_share, run_op  # noqa: E402

SETUP_PROBES = 11    # fresh interpreters timed for setup_s; the median is reported
GEN_BLOCKS = 32      # blocks generated, and hashed, as part of set-up
WALL_CAP_S = 120.0   # stop mid-block rather than overrun the time limit
PROBLEM_LOG_LIMIT = 5


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Import mubkit from this checkout's src/, and nothing else."""
    package = SRC / "mubkit"
    if not (package / "__init__.py").is_file():
        fail(f"no mubkit sources at {package}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mubkit
    import mubkit.cli  # noqa: F401

    if Path(mubkit.__file__).resolve().parent != package.resolve():
        fail(f"imported mubkit from {mubkit.__file__}, not from {package}")


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time import plus workload generation in a fresh interpreter."""
    t0 = time.perf_counter()
    load_program()
    blocks = WORKLOADS[workload].blocks(seed, GEN_BLOCKS)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "ops_hash": ops_hash(blocks)}))


class SetupProbes:
    """setup_s samples: import plus generation, each timed in a fresh
    interpreter.  They are taken between ops, outside the timed region,
    spread evenly over the run's op time, so that their median sees the
    same stretch of the machine's speed as the ops do."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.every_s = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.hashes: list[str] = []

    def take_due(self, busy_s: float) -> None:
        if len(self.times) < SETUP_PROBES and busy_s >= len(self.times) * self.every_s:
            self.take()

    def take(self) -> None:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        self.times.append(probe["setup_s"])
        self.hashes.append(probe["ops_hash"])


class Loop:
    """Closed loop with one client: each op starts when the previous one
    has returned and its output has been checked.  Only the op itself is
    timed; the oracle runs between ops, outside the timed region."""

    def __init__(self, oracle, tracer=None):
        self.oracle = oracle
        self.tracer = tracer
        self.latencies: list[float] = []
        self.ops: list[tuple] = []
        self.blocks_done = 0
        self.failed = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def run(self, op: tuple) -> None:
        error = None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = run_op(op)
            else:
                self.tracer.op_id = len(self.ops)
                result = self.tracer.span("op", run_op, op)
        except Exception:  # a failing op is counted, not fatal
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        self.latencies.append(elapsed)
        self.ops.append(op)
        try:
            problems = [error] if error else self.oracle.check(op, result)
        except Exception:
            problems = ["oracle raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            if self.failed <= PROBLEM_LOG_LIMIT:
                print(f"perfbench: op {op!r} failed: {problems[:3]}", file=sys.stderr)


def closed_loop(workload, seed: int, blocks: list, seconds: float,
                min_ops: int, oracle, setup: SetupProbes | None = None) -> Loop:
    """Run whole blocks until `seconds` of op time and `min_ops` ops are done."""
    loop = Loop(oracle)
    start = time.perf_counter()
    while loop.busy_s < seconds or len(loop.ops) < min_ops:
        i = loop.blocks_done
        for op in blocks[i] if i < len(blocks) else workload.block(seed, i):
            if setup is not None:
                setup.take_due(loop.busy_s)
            loop.run(op)
            if time.perf_counter() - start > WALL_CAP_S:
                print("perfbench: wall-time cap reached mid-block", file=sys.stderr)
                return loop
        loop.blocks_done += 1
    return loop


def reference_ms() -> float:
    """Median time of a fixed pure-Python kernel: a yardstick for how fast
    the machine ran during this run, so drift between runs can be told
    apart from a change in the program."""
    from fractions import Fraction

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(Fraction(i, 7) % 1 for i in range(20000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def stamp(args, workload, loop: Loop, extra: dict) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(), "loop": "closed, 1 client",
        "ops": len(loop.ops), "tail_percentile": workload.tail_pct,
        "repeated_p_r_share": repeat_share(loop.ops), "reference_ms": reference_ms(),
        **extra,
    }


def end_to_end(args, workload, blocks, expected_hash) -> tuple[dict, Loop, dict]:
    import numpy as np
    from oracle import OracleProcess  # imports numpy, so not at module level

    for op in WARMUP[args.workload]:
        run_op(op)
    setup = SetupProbes(args.workload, args.seed, args.seconds)
    with OracleProcess() as oracle:
        loop = closed_loop(workload, args.seed, blocks, args.seconds, workload.min_ops,
                           oracle, setup)
    while len(setup.times) < SETUP_PROBES:  # probes not yet due when the loop ended
        setup.take()
    setup_times, probe_hashes = setup.times, setup.hashes
    lat = loop.latencies
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / loop.busy_s, "1/s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "tail_ms": (float(np.percentile(lat, workload.tail_pct)) * 1e3, "ms"),
        "success_frac": ((len(lat) - loop.failed) / len(lat), "frac"),
        # this process only: the oracle's parsing runs in its own process
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"setup_samples": len(setup_times),
             "hash_match": all(h == expected_hash for h in probe_hashes),
             "attempted": len(lat), "failed": loop.failed, "blocks": loop.blocks_done}
    return metrics, loop, extra


def per_layer(args, workload, blocks) -> tuple[dict, Loop, dict]:
    from oracle import OracleProcess
    from tracer import Tracer

    for op in WARMUP[args.workload]:
        run_op(op)
    with OracleProcess() as oracle:
        plain = closed_loop(workload, args.seed, blocks, args.seconds / 2, 0, oracle)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Loop(oracle, tracer)
            for op in plain.ops:
                traced.run(op)
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace_{args.workload}.npz")

    n = len(traced.ops)
    totals = tracer.totals()
    counts = tracer.counters

    def calls(span):
        return (totals.get(span, {}).get("calls", 0) / n, "count/op")

    def self_s(span):
        return (totals.get(span, {}).get("self_s", 0.0) / n, "s/op")

    def total_s(span):
        return (totals.get(span, {}).get("total_s", 0.0) / n, "s/op")

    def counter(name, unit="count/op"):
        return (counts[name] / n, unit)

    metrics = {
        "phases.exact_phase.created": counter("phases.exact_phase.created"),
        "phases.from_exponents.self_s": self_s("phases.from_exponents"),
        "phases.matmul.calls": calls("phases.matmul"),
        "phases.matmul.self_s": self_s("phases.matmul"),
        "phases.matmul.dense_fallbacks": counter("phases.matmul.dense_fallbacks"),
        "phases.pow.self_s": self_s("phases.pow"),
        "phases.trace_pair.calls": calls("phases.trace_pair"),
        "phases.trace_pair.self_s": self_s("phases.trace_pair"),
        "phases.trace.self_s": self_s("phases.trace"),
        "phases.to_complex.calls": calls("phases.to_complex"),
        "phases.to_complex.self_s": self_s("phases.to_complex"),
        "qdft.build.calls": calls("qdft.build"),
        "qdft.build.self_s": self_s("qdft.build"),
        "qdft.gauss_sum.self_s": self_s("qdft.gauss_sum"),
        "qdft.transform.self_s": self_s("qdft.transform"),
        "weyl.build.self_s": self_s("weyl.build"),
        "weyl.check.self_s": self_s("weyl.check"),
        "mub.build.self_s": self_s("mub.build"),
        "mub.check.self_s": self_s("mub.check"),
        "quon.calls": calls("quon"),
        "quon.self_s": self_s("quon"),
        "wigner.calls": calls("wigner"),
        "wigner.self_s": self_s("wigner"),
        "verify.weyl_s": total_s("verify.weyl"),
        "verify.qdft_s": total_s("verify.qdft"),
        "verify.su2_s": total_s("verify.su2"),
        "verify.mub_s": total_s("verify.mub"),
        "verify.wigner_s": total_s("verify.wigner"),
        "verify.checks": counter("verify.checks"),
        "cli.handler.self_s": self_s("cli.handler"),
        "cli.render.self_s": self_s("cli.render"),
        "cli.output_bytes": counter("cli.output_bytes", "bytes/op"),
        # same ops both times, so the ratio of busy times is the cost of tracing
        "trace.overhead_frac": (traced.busy_s / plain.busy_s - 1, "frac"),
    }
    extra = {"spans": len(tracer.start), "untraced_busy_s": plain.busy_s,
             "traced_busy_s": traced.busy_s, "attempted": 2 * n,
             "failed": plain.failed + traced.failed, "blocks": plain.blocks_done}
    return metrics, traced, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_program()
    workload = WORKLOADS[args.workload]
    blocks = workload.blocks(args.seed, GEN_BLOCKS)
    if args.trace:
        metrics, loop, extra = per_layer(args, workload, blocks)
    else:
        metrics, loop, extra = end_to_end(args, workload, blocks, ops_hash(blocks))

    print("stamp " + json.dumps(stamp(args, workload, loop, extra), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13s} {name:<32s} {value:>14.6g} {unit}")
    print(f"{args.workload:<13s} {'failed_frac':<32s} "
          f"{extra['failed'] / extra['attempted']:>14.6g} frac")
    result = {
        "correct": extra["failed"] == 0 and extra.get("hash_match", True),
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
