"""Steadiness report: run the workloads repeatedly, interleaved, and print
each metric's median and quartile spread against its bound.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --seed0 501

The workloads and the run length come from BENCHMARK.json; every run is
untraced (the per-layer run is `run.py --trace 1`).  Run i of every
workload uses seed seed0 + i.  The spread is (q3 - q1) / median with the
quartiles of statistics.quantiles(n=4); a metric is steady when its
spread is below a third of its bound.  Exits 1 if any op failed or any
spread exceeds its bound.  Raw results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = next((json.loads(line[6:]) for line in lines
                            if line.startswith("stamp ")), None)
    result["wall_s"] = wall_s
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            res = run_once(w, args.seed0 + i, spec["run_seconds"])
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"wall={res['wall_s']:.1f}s", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    all_ok = True
    print(f"\n{'workload':<13s} {'metric':<30s} {'unit':<9s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for w in workloads:
        runs = results[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        all_ok &= failed == 0 and all(r["correct"] for r in runs)
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[name]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                all_ok = False
            print(f"{w:<13s} {name:<30s} {first['unit']:<9s} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.3f} {bound:>6}  {verdict}")
        print(f"{w:<13s} {'failed_frac':<30s} {'frac':<9s} {failed / attempted:>12.6g}")
        print(f"{w:<13s} {'wall per run, max':<30s} {'s':<9s} "
              f"{max(r['wall_s'] for r in runs):>12.6g}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
