"""Seeded op streams for the three benchmark workloads, and how to run an op.

Every workload is a closed loop with one client: the next op is sent
only after the previous one has returned.  The stream is cut into
blocks of fixed composition (the same sizes in every block, in a seeded
order with seeded parameters), so runs with different seeds measure the
same mix and the median and tail percentiles fall inside one size class
instead of on the edge between two.

Generation uses only the standard library: a block is a pure function
of (workload, seed, block index), so the same seed yields the same ops
in any process.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

EXACT_R = ("0", "1", "1/2", "1/3", "2/5")

# mub_cli block: (P, decimal R, --verify).  3 of 18 requests take a
# decimal R (the float path).  Sorted by cost, the six P = 13 requests
# hold the median and the five exact P = 19 requests hold p75, so both
# percentiles rest on many samples of one size.
MUB_CLI_BLOCK = (
    (5, False, False), (7, False, False), (11, False, False),
    (13, False, False), (13, False, False), (13, False, False),
    (13, False, False), (13, False, False), (13, False, True),
    (19, False, False), (19, False, False), (19, False, False),
    (19, False, False), (19, False, True),
    (41, False, True),
    (19, True, False), (31, True, False), (43, True, False),
)

# pauli_exact block: (check, size).  Sorted by cost: four cheap checks,
# eight composition products at d = 320 (they hold the median), four mid
# checks, four pauli_trace_orthogonality(11) (they hold p85) and
# sl_partition_check(13).
PAULI_EXACT_BLOCK = (
    ("pauli_trace_orthogonality", 5),
    ("sl_partition_check", 5),
    ("vra_q_commutation_checks", 37),
    ("sine_product_check", 29),
    *[("pauli_composition", 320)] * 8,
    ("vra_q_commutation_checks", 101),
    ("sine_product_check", 64),
    ("weyl_relation_check", 64),
    ("sl_partition_check", 11),
    *[("pauli_trace_orthogonality", 11)] * 4,
    ("sl_partition_check", 13),
)

VERIFY_SUITES = ("weyl", "qdft", "su2", "mub", "wigner")
VERIFY_D_MAX = 13

# verify_sweep block: every suite once and weyl twice.  At d_max = 13 the
# suites cost about su2 0.5 s < mub 1.5 < weyl 1.9 < wigner 2.2 <
# qdft 3.7, and mub, weyl and wigner overlap from run to run.  With weyl
# doubled, the median falls in the middle of the weyl class rather than
# on whichever of the three close suites happens to be third.
VERIFY_SWEEP_BLOCK = VERIFY_SUITES + ("weyl",)


def _mub_cli_block(rng: random.Random, turn: int) -> list[tuple]:
    # The cost of a request depends on R (up to 1.6x at P = 41), so exact R
    # is rotated rather than drawn: the k-th request of a given P in block
    # `turn` takes EXACT_R[(turn + k) % 5].  Every block then holds the
    # same costs, and a request of a P that occurs once cycles through all
    # five R over five blocks.
    ops, seen = [], Counter()
    for p, decimal, verify in MUB_CLI_BLOCK:
        if decimal:
            r = f"{rng.uniform(0.05, 1.95):.3f}"
        else:
            r = EXACT_R[(turn + seen[p]) % len(EXACT_R)]
            seen[p] += 1
        argv = ["mub", "--p", str(p), "--r", r]
        if verify:
            argv.append("--verify")
        ops.append(("cli", tuple(argv + ["--format", "json"])))
    return ops


def _pauli_exact_block(rng: random.Random, turn: int) -> list[tuple]:
    ops = []
    for check, d in PAULI_EXACT_BLOCK:
        if check in ("pauli_trace_orthogonality", "sl_partition_check"):
            args = (d,)
        elif check == "vra_q_commutation_checks":
            args = (d, rng.choice(EXACT_R), rng.randrange(d))
        elif check == "sine_product_check":
            args = (d, (rng.randrange(2 * d), rng.randrange(2 * d)),
                    (rng.randrange(2 * d), rng.randrange(2 * d)))
        elif check == "weyl_relation_check":
            args = (d, rng.randrange(d), rng.randrange(d))
        else:  # pauli_composition: two random elements q^a X^b Z^c
            args = (d, tuple(rng.randrange(d) for _ in range(3)),
                    tuple(rng.randrange(d) for _ in range(3)))
        ops.append((check, args))
    return ops


def _verify_sweep_block(rng: random.Random, turn: int) -> list[tuple]:
    ops = []
    for suite in VERIFY_SWEEP_BLOCK:
        argv = ("verify", suite, "--d-max", str(VERIFY_D_MAX),
                "--seed", str(rng.randrange(10 ** 6)), "--format", "json")
        ops.append(("cli", argv))
    return ops


class Workload:
    """One named op stream: blocks generated from a seed, and per-workload
    constants of the measurement (tail percentile, minimum op count)."""

    def __init__(self, name, make_block, tail_pct, ten_beyond=True):
        self.name = name
        self._make_block = make_block
        self.tail_pct = tail_pct
        # ops a run needs for ten samples beyond the tail percentile
        self.min_ops = math.ceil(10 / (1 - tail_pct / 100)) if ten_beyond else 0

    def block(self, seed: int, index: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        turn = index + random.Random(f"{self.name}:{seed}").randrange(1000)
        ops = self._make_block(rng, turn)
        rng.shuffle(ops)
        return ops

    def blocks(self, seed: int, count: int) -> list[list[tuple]]:
        return [self.block(seed, i) for i in range(count)]


WORKLOADS = {
    "mub_cli": Workload("mub_cli", _mub_cli_block, 75),
    "pauli_exact": Workload("pauli_exact", _pauli_exact_block, 85),
    # two to four sweeps give 12-24 ops, too few for ten samples beyond
    # any percentile above the median; from two sweeps on, p95 falls
    # among the qdft requests, the slowest suite
    "verify_sweep": Workload("verify_sweep", _verify_sweep_block, 95, ten_beyond=False),
}


# small ops run untimed before measuring, so that lazy imports and
# first-call set-up do not land on the first measured op (the wigner
# suite has no small size and is left out)
WARMUP = {
    "mub_cli": [("cli", ("mub", "--p", "5", "--r", "1/3", "--verify", "--format", "json")),
                ("cli", ("mub", "--p", "5", "--r", "0.5", "--format", "json"))],
    "pauli_exact": [("pauli_trace_orthogonality", (3,)), ("sl_partition_check", (3,)),
                    ("vra_q_commutation_checks", (5, "1/3", 2)),
                    ("sine_product_check", (5, (1, 2), (3, 4))),
                    ("weyl_relation_check", (5, 2, 3)),
                    ("pauli_composition", (5, (1, 2, 3), (4, 0, 1)))],
    "verify_sweep": [("cli", ("verify", suite, "--d-max", "3", "--seed", "0",
                              "--format", "json")) for suite in ("weyl", "qdft", "su2", "mub")],
}


def ops_hash(blocks: list[list[tuple]]) -> str:
    """Digest of an op list, used to show that a seed fixes the inputs."""
    return hashlib.sha256(json.dumps(blocks).encode()).hexdigest()[:16]


def repeat_share(ops: list[tuple]) -> float:
    """Share of mub requests whose (P, R) pair already occurred earlier in
    the run: the most a response cache keyed on (P, R) could skip."""
    seen, repeats, total = set(), 0, 0
    for kind, args in ops:
        if kind != "cli" or args[0] != "mub":
            continue
        key = (args[2], args[4])
        total += 1
        repeats += key in seen
        seen.add(key)
    return repeats / total if total else 0.0


def run_op(op: tuple):
    """Execute one op against the program and return its raw output.

    CLI ops return (exit code, stdout text); check ops return the value
    the public function returned.  Functions are looked up on their
    module at call time, so a tracer that rebinds them sees every call.
    """
    from mubkit import cli, mub, weyl

    kind, args = op
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
        return code, out.getvalue()
    if kind == "pauli_trace_orthogonality":
        return weyl.pauli_trace_orthogonality(*args)
    if kind == "sl_partition_check":
        return mub.sl_partition_check(*args)
    if kind == "vra_q_commutation_checks":
        d, r, a = args
        return weyl.vra_q_commutation_checks(d, Fraction(r), a)
    if kind == "sine_product_check":
        return weyl.sine_product_check(*args)
    if kind == "weyl_relation_check":
        return weyl.weyl_relation_check(*args)
    if kind == "pauli_composition":
        d, g, h = args
        lhs = weyl.pauli_element_matrix(d, g) @ weyl.pauli_element_matrix(d, h)
        return lhs == weyl.pauli_element_matrix(d, weyl.pauli_compose(d, g, h))
    raise ValueError(f"unknown op kind {kind!r}")
