"""Invariant suites over the whole library, used by the command line.

``INVARIANTS`` registers each invariant once, with its name and
tolerance: a ``_Sweep`` method that yields one value per case it tests.
A suite (the prefix of the names) runs its invariants in declaration
order up to a dimension bound, one ``CheckResult`` each.  Tolerance 0.0
marks an exact check, whose cases are bools: its residual is 0.0 when
all hold, else inf.  Any other check reports its worst residual, inf if
any case is nan.  A check passes at residual <= tolerance.  Sweeps are
deterministic given the seed.

To add an invariant, write a ``_Sweep`` method in its suite's section
that yields its cases from ``self.d_max`` and, if it samples,
``self.rng``; decorate it with ``@_invariant("suite.name", tolerance)``,
adding ``min_d_max`` if it has no case below that bound.  Take a family
as a stack from its formula, not one matrix at a time: the Weyl label
maps evaluated by ``weyl._shift_clock`` on integer arrays, ``vra_matrix``
and ``vra_band_matrix`` over an array of a, and F_ra, H_ra and D_ra from
qdft's row expression (``_fra_family``, ``_dra_family``).  An exhaustive
(d, r, a) sweep reads one (d, r) family through ``_Sweep.family``, the
sweep memo, which evaluates it once per sweep for a = 0..d-1.  A sampled
check draws all its cases first, in the order of the per-case loop it
stands for, so the generator's stream is that loop's.  Cases are decided
in array passes: monomial identities as products on one stack
(``_products_agree``), full exact ones on exponent stacks, float ones on
dense ``(A, d, d)`` stacks (``phases._dense_stack``) with one stacked
``@``.  Undecided exact sums go through ``phases._complex_sums`` in row
order, as ``trace_pair`` sums them.  An exact check yields one builtin
bool per case; a float check may yield one residual per batch, ``np.max``
of it, which keeps nan.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, sqrt
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from . import mub, phases, qdft, quon, weyl, wigner
from .phases import PhaseMatrix, exponent_dtype

__all__ = ["CheckResult", "INVARIANTS", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


class _Invariant(NamedTuple):
    name: str
    tolerance: float  # 0.0 marks an exact check
    cases: Callable[["_Sweep"], Iterator[Union[bool, float]]]
    min_d_max: int  # left out of runs with a smaller d_max


INVARIANTS: list[_Invariant] = []


def _invariant(name: str, tolerance: float = 0.0, min_d_max: int = 0):
    def register(cases):
        INVARIANTS.append(_Invariant(name, tolerance, cases, min_d_max))
        return cases
    return register


def _row_symmetries(e: np.ndarray, n: int, d: int, r, a: np.ndarray) -> np.ndarray:
    """The row symmetry of each F_ra (d >= 2) of a stack, as a bool mask:
    e holds their exponents mod n, one d x d array per entry of the
    integer array a.  With lead = (d-1)(r+a)/2, row n-1 is row n times
    q^{lead - alpha + n a} for n = 1..d-1, and row d-1 is row 0 times
    q^{lead - alpha} e^{-i pi (d-1) r}.

    With r = u/v and w = 2dv, every phase involved is q^{x/(2v)}, the
    turn x/w, so both sides are exponents over M = lcm(n, w) and rows
    compare as integer arrays.
    """
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    w = 2 * d * v
    m = lcm(n, w)
    dt = exponent_dtype(m)
    e = e.astype(dt) * (m // n)
    a = np.asarray(a, dtype=dt)[:, None, None]
    # q^{lead - alpha} for every column alpha, as x/(2v); reducing x mod w
    # before scaling keeps every term below M
    x = (d - 1) * (u + a * v) - 2 * v * np.arange(d, dtype=dt)
    rows = np.arange(1, d, dtype=dt)[:, None]
    step = (x + 2 * v * a * rows) % w * (m // w)
    corner = x[:, 0] % w * (m // w) + (-(d - 1) * u) % (2 * v) * (m // (2 * v))
    return ((e[:, :-1] - e[:, 1:] - step) % m == 0).all(axis=(1, 2)) & (
        (e[:, -1] - e[:, 0] - corner) % m == 0).all(axis=1)


def _lambda_ra(d: int, r, a):
    """Lambda_ra = diag(q^{(d-1)(r+a)/2 - alpha}) = q^{(d-1)(r+a)/2} Z^{-1}."""
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    return weyl._shift_clock(d, 0, -1, (d - 1) * (u + a * v), 2 * v)


def _fra_family(d: int, r, a) -> tuple[int, np.ndarray]:
    """The stack (N, exps) of F_ra over an integer array a, N = den * d."""
    e, den = qdft._exponents(d, r, a)
    return den * d, e % (den * d)


def _dra_family(d: int, r, a) -> tuple[int, np.ndarray]:
    """The stack (N, exps) of D_ra's diagonals over an integer array a."""
    row, den = qdft._row(d, r, a)
    return den * d, row


def _diagonalizes(v: tuple, h: tuple, lam: tuple) -> np.ndarray:
    """V[i] @ H[i] == H[i] @ Lambda[i] exactly for each i, as a bool mask,
    over the stacks (N, cols, exps) of the unscaled monomial families V
    and Lambda and (N, exps) of the full family H.  Row r of V @ H is V's
    phase plus row V_c[r] of H; column k of H @ Lambda is Lambda's phase
    plus column k of H, moved to column Lambda_c[k]."""
    (nv, vc, ve), (nh, he), (nl, lc, le) = v, h, lam
    n = lcm(nv, nl, nh)
    dt = exponent_dtype(n)
    ve, le, he = (x.astype(dt) * (n // nx) for x, nx in ((ve, nv), (le, nl), (he, nh)))
    lhs = (ve[:, :, None] + np.take_along_axis(he, vc[:, :, None], axis=1)) % n
    rhs = np.empty_like(he)
    np.put_along_axis(rhs, np.broadcast_to(lc[:, None, :], he.shape),
                      (he + le[:, None, :]) % n, axis=2)
    return (lhs == rhs).all(axis=(1, 2))


_BASIS_TOLERANCE = 1e-10


def _basis_set_checks(ms: mub.MubSet) -> list[CheckResult]:
    """Unbiasedness of every pair of bases of ms, then orthonormality of
    each basis, at one tolerance: the report of ``mubkit mub --verify``."""
    pairs = [CheckResult(f"unbiased[{b1.label}|{b2.label}]", mub.unbiasedness(b1, b2),
                         _BASIS_TOLERANCE)
             for i, b1 in enumerate(ms.bases) for b2 in ms.bases[i + 1:]]
    return pairs + [CheckResult(f"orthonormal[{b.label}]", mub.orthonormality(b),
                                _BASIS_TOLERANCE) for b in ms.bases]


def _products_agree(stack: tuple, index, turns=0, den: int = 1) -> list[bool]:
    """mats[i] @ mats[j] == (mats[k] @ mats[l]) * exp(2 pi i t / den) for
    every row (i, j, k, l) of index and its t from the integer array turns
    (0 by default), as builtin bools, decided on the stack (n, cols, exps)
    of an unscaled monomial family mats."""
    n, cols, exps = stack
    i, j, k, l = np.asarray(index).reshape(-1, 4).T
    (lc, le), (rc, re) = phases._products(n, cols, exps, i, j), phases._products(n, cols, exps, k, l)
    m = lcm(n, den)
    dt = exponent_dtype(m)
    shift = (np.asarray(turns, dtype=dt) % den * (m // den)).reshape(-1, 1)
    le, re = le.astype(dt) * (m // n), (re.astype(dt) * (m // n) + shift) % m
    return ((lc == rc).all(axis=1) & (le == re).all(axis=1)).tolist()


def _powers(stack: tuple, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The stack of mats[i]^p, p < k, at p * len(mats) + i: the p-fold composite
    of each row map of the stack (n, cols, exps), summing the exponents met."""
    n, cols, exps = stack
    count, dim = cols.shape
    at = np.empty((k, count, dim), dtype=np.intp)
    total = np.zeros((k, count, dim), dtype=exps.dtype)
    at[0] = np.arange(dim)
    rows = np.arange(count)[:, None] * dim
    for p in range(1, k):  # row r of mats[i]^p is row at[p-1][r] of mats[i]
        flat = rows + at[p - 1]
        at[p], total[p] = cols.take(flat), (total[p - 1] + exps.take(flat)) % n
    return n, at.reshape(-1, dim), total.reshape(-1, dim)


def _xz_powers(d: int, k: int) -> tuple:
    """X^p at 2p and Z^p at 2p + 1, p < k: the library's X and Z walked on their rows."""
    return _powers(phases._stack([weyl.x_matrix(d), weyl.z_matrix(d)]), k)


def _pauli_stack(d: int, labels: list[int]) -> tuple[tuple, np.ndarray]:
    """The stack of P(g), P(h) and P(gh), in three runs, then I, for the
    cases (g, h, gh) that labels lists flat, nine ints each; and the rows
    (g, h, I, gh) of P(g) P(h) == I P(gh)."""
    g = np.array(labels, dtype=np.int64).reshape(-1, 3, 3).transpose(1, 0, 2).reshape(-1, 3)
    c = np.arange(len(g) // 3)
    rows = np.stack([c, len(c) + c, np.full_like(c, 3 * len(c)), 2 * len(c) + c], axis=1)
    paulis = weyl._shift_clock(d, *weyl._pauli_labels(*g.T))
    return phases._join(paulis, phases._stack([PhaseMatrix.identity(d)])), rows


_COUPLING_TWO_J = 4


def _coupling_triples() -> list[tuple[int, int, int]]:
    """(2j1, 2j2, 2j3): doubled spins up to 4 that satisfy the triangle
    rule.  Every permutation of a triple is also one."""
    return [(tj1, tj2, tj3)
            for tj1, tj2 in itertools.product(range(_COUPLING_TWO_J + 1), repeat=2)
            for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, _COUPLING_TWO_J) + 1, 2)]


def _alpha_labels(two_js) -> Iterator[tuple[int, ...]]:
    """Every cyclic label (a1, a2, a3), a_i = 0..2j_i."""
    return itertools.product(*(range(tj + 1) for tj in two_js))


@dataclass
class _Sweep:
    """One run of one suite: its dimension bound, its seeded generator and
    the draws that more than one check uses.  The methods registered with
    ``@_invariant`` are the checks."""

    suite: str
    d_max: int
    rng: Union[random.Random, np.random.Generator, None] = None
    memo: dict = field(default_factory=dict, repr=False)

    def run(self) -> list[CheckResult]:
        return [self.check(inv) for inv in INVARIANTS
                if inv.name.startswith(self.suite + ".") and self.d_max >= inv.min_d_max]

    def check(self, inv: _Invariant) -> CheckResult:
        # every case runs, so a failing case leaves later draws unchanged
        values = list(inv.cases(self))
        if inv.tolerance == 0.0:
            return CheckResult(inv.name, 0.0 if all(values) else float("inf"), 0.0)
        # max passes over nan, which compares false with everything
        worst = float("inf") if np.isnan(values).any() else max([0.0, *values])
        return CheckResult(inv.name, worst, inv.tolerance)

    def upto(self, cap: int) -> range:
        return range(2, min(self.d_max, cap) + 1)

    def family(self, f, d: int, r):
        """f(d, r, a) for a = arange(d): one (d, r) family, evaluated once per
        sweep (the memo, keyed by (f, d, r)) and shared read-only."""
        key = (f, d, r)
        if key not in self.memo:
            value = self.memo[key] = f(d, r, np.arange(d))
            for x in value if isinstance(value, tuple) else (value,):
                np.asarray(x).flags.writeable = False  # an int gets a throwaway view
        return self.memo[key]

    # -- weyl ----------------------------------------------------------------

    @_invariant("weyl.shift_clock_commutation")
    def _shift_clock_commutation(self):
        for d in self.upto(8):
            _, cols, exps = powers = _xz_powers(d, d + 1)
            yield bool((cols[2 * d:] == np.arange(d)).all() and (exps[2 * d:] == 0).all())
            # X^m Z^n == (Z^n X^m) q^{mn} for every (m, n), m major
            m, k = np.divmod(np.arange(d * d), d)
            xz = np.stack([2 * m, 2 * k + 1, 2 * k + 1, 2 * m], axis=1)
            yield from _products_agree(powers, xz, m * k, d)

    @_invariant("weyl.vra_q_commutation")
    def _vra_q_commutation(self):
        # vra_q_commutation_checks for every a of a (d, r) family at once:
        # V_ra Z == (Z V_ra) q and V_ra V_r0 == (V_r0 V_ra) q^{-a}
        for d, r in itertools.product(self.upto(8), (0, 1, Fraction(1, 4))):
            # stack[0] is Z and stack[1 + a] is V_ra, so V_r0 is stack[1]
            z = phases._stack([weyl.z_matrix(d)])
            stack = phases._join(z, self.family(weyl.vra_matrix, d, r))
            index = [(1 + a, 0, 0, 1 + a, 1 + a, 1, 1, 1 + a) for a in range(d)]
            turns = [t for a in range(d) for t in (1, -a)]
            agree = _products_agree(stack, index, turns, d)
            yield from (first and second for first, second in zip(agree[::2], agree[1::2]))

    @_invariant("weyl.vra_power_and_band_form")
    def _vra_power_and_band_form(self):
        # (V_ra)^d == I e^{i pi (d-1)(r+a)}, and V_ra == the band form, for
        # every a of a (d, r) family at once; V's powers are composite walks
        for d, r in itertools.product(self.upto(8), (0, Fraction(1, 3))):
            # V^d @ V^0 == (V^0 @ V^0) e^{i pi (d-1)(r+a)}, V^p of a at p d + a
            vs = self.family(weyl.vra_matrix, d, r)
            turns = [weyl.vra_power_phase(d, r, a).turns for a in range(d)]
            den = lcm(*(t.denominator for t in turns))
            power = _products_agree(_powers(vs, d + 1), [(d * d + a, a, a, a) for a in range(d)],
                                    [t.numerator * (den // t.denominator) for t in turns], den)
            _, cols, exps = phases._join(vs, self.family(weyl.vra_band_matrix, d, r))
            band = (cols[:d] == cols[d:]).all(axis=1) & (exps[:d] == exps[d:]).all(axis=1)
            for case in zip(power, band.tolist()):
                yield from case

    @_invariant("weyl.pauli_trace_orthogonality")
    def _pauli_trace_orthogonality(self):
        for d in self.upto(8):
            yield weyl.pauli_trace_orthogonality(d) == 0.0

    @_invariant("weyl.pauli_composition_law")
    def _pauli_composition_law(self):
        # P(g) P(h) == I P(gh), 200 draws of g then h per d
        rng = self.rng
        for d in self.upto(8):
            labels = []
            for _ in range(200):
                g = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                h = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                labels += (*g, *h, *weyl.pauli_compose(d, g, h))
            yield from _products_agree(*_pauli_stack(d, labels))

    @cached_property
    def sine_draws(self) -> list:
        """(d, m, n), m and n drawn mod 2d, 40 per d: both sine checks run on these."""
        rng = self.rng
        return [(d, (rng.randrange(2 * d), rng.randrange(2 * d)),
                 (rng.randrange(2 * d), rng.randrange(2 * d)))
                for d in self.upto(8) for _ in range(40)]

    def sine_stacks(self) -> Iterator[tuple[int, tuple, np.ndarray]]:
        """(d, stack of T_m, T_n, T_{m+n} in three runs, m x n) per d of sine_draws."""
        for d, cases in itertools.groupby(self.sine_draws, key=lambda case: case[0]):
            m, n = np.array([(m, n) for _, m, n in cases]).transpose(1, 2, 0)
            ts = weyl._shift_clock(d, *weyl._t_labels(*np.concatenate([m, n, m + n], axis=1)))
            yield d, ts, m[0] * n[1] - m[1] * n[0]

    @_invariant("weyl.sine_product_exact")
    def _sine_product_exact(self):
        # T_m T_n == (q^{-(m x n)/2} I) T_{m+n}
        for d, ts, cross in self.sine_stacks():
            c = np.arange(len(cross))
            phase = weyl._shift_clock(d, *weyl._phase_labels(-cross, 2))
            rows = np.stack([c, len(c) + c, 3 * len(c) + c, 2 * len(c) + c], axis=1)
            yield from _products_agree(phases._join(ts, phase), rows)

    @_invariant("weyl.sine_commutator", 1e-12)
    def _sine_commutator(self):
        # [T_m, T_n] = -2i sin(pi (m x n)/d) T_{m+n}, one dense stack per d
        for d, t, cross in self.sine_stacks():
            tm, tn, ts = phases._dense_stack(*t).reshape(3, -1, d, d)
            coeff = np.array([-2j * np.sin(np.pi * x / d) for x in cross.tolist()])
            gap = tm @ tn - tn @ tm - coeff[:, None, None] * ts
            yield from np.max(np.abs(gap), axis=(1, 2)).tolist()

    @_invariant("weyl.dft_conjugates_shift_to_clock", 1e-10)
    def _dft_conjugates_shift_to_clock(self):
        for d in self.upto(8):
            f = qdft.fra_matrix(d).to_complex()
            conj = f.conj().T @ weyl.x_matrix(d).to_complex() @ f
            yield float(np.max(np.abs(conj - weyl.z_matrix(d).to_complex())))

    @_invariant("weyl.regular_representation", 1e-10)
    def _regular_representation(self):
        # the spectrum of X is the d-th roots of unity, each once: each root
        # has an eigenvalue far closer than the roots' spacing
        for d in self.upto(8):
            eigs = np.linalg.eigvals(weyl.x_matrix(d).to_complex())
            roots = np.exp(2j * np.pi * np.arange(d) / d)
            yield float(np.max(np.min(np.abs(roots[:, None] - eigs[None, :]), axis=1)))

    @_invariant("weyl.sampled_large_dimension", min_d_max=9)
    def _sampled_large_dimension(self):
        # X^m Z^n == (q^{mn} Z^n) X^m and P(g) P(h) == I P(gh), 25 draws of
        # m, n, g, h per d, the two rows of each draw in turn
        rng = self.rng
        for d in range(9, min(self.d_max, 16) + 1):
            draws, labels = [], []
            for _ in range(25):
                draws.append((rng.randrange(d), rng.randrange(d)))
                g = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                h = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                labels += (*g, *h, *weyl.pauli_compose(d, g, h))
            m, k = np.array(draws).T
            pauli, rows = _pauli_stack(d, labels)
            xz = np.stack([2 * m, 2 * k + 1, 2 * k + 1, 2 * m], axis=1)
            index = np.stack([xz, 2 * d + rows], axis=1)
            turns = np.stack([m * k, 0 * m], axis=1)
            yield from _products_agree(phases._join(_xz_powers(d, d), pauli), index, turns, d)

    # -- qdft ----------------------------------------------------------------

    @property
    def qdft_dims(self) -> range:
        return range(2, max(self.d_max, 2) + 1)

    # the exhaustive (d, r, a) sweeps take one (d, r) family at a time:
    # the stack of F_ra for a = 0..d-1 from the sweep memo, decided over a

    @_invariant("qdft.unitarity", 1e-10)
    def _unitarity(self):
        for d, r in itertools.product(self.qdft_dims, (0, Fraction(1, 2), 1, Fraction(2, 3))):
            n, e = self.family(_fra_family, d, r)
            f = phases._dense_stack(n, None, e, True)
            gap = np.swapaxes(f.conj(), 1, 2) @ f - np.eye(d)
            yield from np.max(np.abs(gap), axis=(1, 2)).tolist()

    @_invariant("qdft.gaussian_factorization")
    def _gaussian_factorization(self):
        # D_ra @ F == F_ra: row i of D_ra @ F is row i of F = F_00 plus D's phase
        for d, r in itertools.product(self.qdft_dims, (0, 1, Fraction(1, 2))):
            (nd, de), (nf, fe) = self.family(_dra_family, d, r), self.family(_fra_family, d, r)
            n0, f0 = self.family(_fra_family, d, 0)
            n = lcm(nd, n0, nf)
            dt = exponent_dtype(n)
            lhs = (de.astype(dt)[:, :, None] * (n // nd) + f0[0].astype(dt) * (n // n0)) % n
            yield from (lhs == fe.astype(dt) * (n // nf)).all(axis=(1, 2)).tolist()

    @_invariant("qdft.row_symmetry")
    def _row_symmetry(self):
        for d, r in itertools.product(self.qdft_dims, (0, 1)):
            n, e = self.family(_fra_family, d, r)
            yield from _row_symmetries(e, n, d, r, np.arange(d)).tolist()

    @_invariant("qdft.hra_diagonalizes_vra")
    def _hra_diagonalizes_vra(self):
        for d, r in itertools.product(self.upto(8), (0, Fraction(1, 3), Fraction(1, 2))):
            # H_ra is F_ra with its rows reversed
            n, e = self.family(_fra_family, d, r)
            yield from _diagonalizes(self.family(weyl.vra_matrix, d, r), (n, e[:, ::-1]),
                                     self.family(_lambda_ra, d, r)).tolist()

    @_invariant("qdft.fourth_power_identity", 1e-10)
    def _fourth_power_identity(self):
        for d in self.upto(16):
            f = qdft.fra_matrix(d).to_complex()
            yield float(np.max(np.abs(np.linalg.matrix_power(f, 4) - np.eye(d))))

    @_invariant("qdft.trace_two_route", 1e-10)
    def _trace_two_route(self):
        for d, r in itertools.product(self.qdft_dims, (0, Fraction(1, 2), 1)):
            closed = [qdft.trace_fra(d, r, a) for a in range(d)]
            # the diagonals summed as trace_pair sums them: m.trace()'s bytes
            n, e = self.family(_fra_family, d, r)
            direct = phases._complex_sums(np.diagonal(e, axis1=1, axis2=2), n)
            yield from (abs(c - 1.0 / sqrt(d) * t) for c, t in zip(closed, direct))

    @_invariant("qdft.determinant_two_route", 1e-9)
    def _determinant_two_route(self):
        for d in self.upto(10):
            for a in range(d):
                direct = complex(np.linalg.det(qdft.fra_matrix(d, 0, a).to_complex()))
                yield abs(qdft.det_fra(d, a) - direct)

    @_invariant("qdft.parseval_and_round_trip", 1e-12)
    def _parseval_and_round_trip(self):
        rng = self.rng
        for d in self.qdft_dims:
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            xp = rng.normal(size=d) + 1j * rng.normal(size=d)
            sums = [qdft.parseval_check(x, xp, d, r, a)
                    for r, a in ((0, 0), (Fraction(1, 2), d - 1), (1, d // 2))]
            for lhs, rhs in sums:
                yield abs(lhs - rhs)
            yield abs(sums[0][0] - sums[1][0])
            yield abs(sums[0][0] - sums[2][0])
            y = qdft.forward(x, d, Fraction(2, 3), d - 1)
            yield float(np.max(np.abs(qdft.inverse(y, d, Fraction(2, 3), d - 1) - x)))

    @_invariant("qdft.hadamard_family", 1e-10)
    def _hadamard_family(self):
        for d in self.qdft_dims:
            report = qdft.is_generalized_hadamard(qdft.fra_matrix(d, 0, d - 1))
            yield max(report.unitarity_residual, report.modulus_residual)

    # -- su2 / quon ----------------------------------------------------------

    @_invariant("su2.quon_relations", 1e-13)
    def _quon_relations(self):
        for k in self.upto(8):
            q = np.exp(2j * np.pi / k)
            rep = quon.quon_rep(k)
            for plus, minus, num in ((rep.x_plus, rep.x_minus, rep.n_x),
                                     (rep.y_plus, rep.y_minus, rep.n_y)):
                yield float(np.max(np.abs(minus @ plus - q * plus @ minus - np.eye(k))))
                yield float(np.max(np.abs(num @ plus - plus @ num - plus)))
                yield float(np.max(np.abs(num @ minus - minus @ num + minus)))
                # nilpotency is exact: a nonzero k-th power fails the check
                for ladder in (plus, minus):
                    yield float("inf") if np.any(np.linalg.matrix_power(ladder, k)) else 0.0

    @_invariant("su2.vra_kth_power", 1e-12)
    def _vra_kth_power(self):
        # v_ra is a weighted monomial: its k-th power is the k-fold
        # composite of the map, times the product of the weights met on
        # the way; it must be the identity map times the global phase.
        # The map does not depend on a, so one walk serves a (k, r) family
        for k, r in itertools.product(self.upto(8), (0, 1, Fraction(1, 3))):
            want = np.array([weyl.vra_power_phase(k, r, a).to_complex() for a in range(k)])
            dest, weight = quon._vra_monomial(k, r, np.arange(k))
            start = np.arange(k * k)
            at, product = start, np.ones((k, k * k), dtype=complex)
            for _ in range(k):
                product = product * weight[:, at]
                at = dest[at]
            if np.array_equal(at, start):
                yield from np.max(np.abs(product - want[:, None]), axis=1).tolist()
            else:
                yield from [float("inf")] * k

    @_invariant("su2.oracle_equivalence", 1e-12)
    def _oracle_equivalence(self):
        for k, r in itertools.product(self.upto(8), (0, 1, Fraction(1, 3))):
            got = self.family(quon._vra_block, k, r)
            want = phases._dense_stack(*self.family(weyl.vra_matrix, k, r))
            yield from np.max(np.abs(got - want), axis=(1, 2)).tolist()

    @_invariant("su2.closure_and_casimir", 1e-10)
    def _closure_and_casimir(self):
        for d, r in itertools.product(self.upto(12), (0, Fraction(1, 2))):
            j = Fraction(d - 1, 2)
            jj = float(j) * (float(j) + 1)
            j_plus, j_minus, j_z = quon._su2_triple(d, r, np.arange(d))
            casimir = (j_plus @ j_minus + j_minus @ j_plus) / 2 + j_z @ j_z
            gaps = (j_z @ j_plus - j_plus @ j_z - j_plus,
                    j_z @ j_minus - j_minus @ j_z + j_minus,
                    j_plus @ j_minus - j_minus @ j_plus - 2 * j_z,
                    casimir - jj * np.eye(d))
            # the four residuals of each a together, a by a
            worst = np.array([np.max(np.abs(g), axis=(1, 2)) for g in gaps])
            yield from worst.T.ravel().tolist()

    @_invariant("su2.eigenvalue_equation", 1e-12)
    def _eigenvalue_equation(self):
        # v @ vec == lam vec for every eigenvector vec, a column of H_ra;
        # the eigenvalues come before the complex @, after which math ran
        # up to 6x slower on one host
        for k, r in itertools.product(self.upto(8), (0, 1, Fraction(1, 3))):
            j = Fraction(k - 1, 2)
            lam = np.array([[quon.eigenvalue_vra(j, r, a, alpha) for alpha in range(k)]
                            for a in range(k)])
            v = self.family(quon._vra_block, k, r)
            # vecs[a, alpha] is column alpha of H_ra, F_ra with its rows
            # reversed, as quon.eigenbasis gives it
            n, e = self.family(_fra_family, k, r)
            h = phases._dense_stack(n, None, e[:, ::-1], True)
            vecs = np.ascontiguousarray(np.swapaxes(h, 1, 2))
            image = (v[:, None] @ vecs[..., None])[..., 0]
            yield from np.max(np.abs(image - lam[..., None] * vecs), axis=2).ravel().tolist()

    @_invariant("su2.cyclic_pseudo_invariance", 1e-12)
    def _cyclic_pseudo_invariance(self):
        for k in self.upto(8):
            j = Fraction(k - 1, 2)
            for p in range(k):
                yield quon.rotation_conjugation_residual(j, Fraction(1, 3), 1 % k, p)

    @_invariant("su2.overlap_two_route", 1e-10)
    def _overlap_two_route(self):
        # every <r alpha|s beta> at a = 0: the closed forms of each j first,
        # as in mub.gauss_two_route (cmath ran up to 6x slower right after
        # a complex @ on one host), then one Gram per (j, r, s) by
        # np.vecdot, which conjugates as np.vdot does and gives its bytes
        rs = (0, Fraction(1, 2), 1)
        for two_j in range(1, min(self.d_max, 7)):
            j = Fraction(two_j, 2)
            labels = list(itertools.product(range(two_j + 1), repeat=2))
            closed = np.array([[quon.overlap_same_a(j, r, s, 0, alpha, beta)
                                for alpha, beta in labels]
                               for r, s in itertools.product(rs, repeat=2)])
            basis = {r: np.array(quon.eigenbasis(j, r, 0)) for r in rs}
            direct = np.array([np.vecdot(basis[r][:, None], basis[s][None])
                               for r, s in itertools.product(rs, repeat=2)])
            # Python's abs of each complex: np.abs can differ from it by an ulp
            yield from map(abs, (direct.reshape(closed.shape) - closed).ravel().tolist())

    # -- mub -----------------------------------------------------------------

    @property
    def primes(self) -> list[int]:
        return [p for p in self.upto(13) if mub.is_prime(p)]

    @_invariant("mub.prime_complete_sets", _BASIS_TOLERANCE)
    def _prime_complete_sets(self):
        for p in self.primes:
            for r in (0, 1, Fraction(1, 2)):
                for c in _basis_set_checks(mub.mub_prime(p, r)):
                    yield c.residual

    @_invariant("mub.gauss_two_route", 1e-10, min_d_max=3)
    def _gauss_two_route(self):
        # every <a alpha|b beta>, a != b, of the p Fourier bases: one Gram,
        # against one Gauss sum per pair of differences (a - b, alpha - beta)
        for p in [q for q in self.primes if q > 2]:
            # the Gauss sums before the Gram: on an AVX-512 x86-64 host with
            # OpenBLAS, cmath.exp ran up to 6x slower right after a complex @
            diffs = range(1 - p, p)
            closed = np.array([[mub.gauss_inner_product(p, 0, max(u, 0), max(v, 0),
                                                        max(u, 0) - u, max(v, 0) - v)
                                if u else np.nan for v in diffs] for u in diffs])
            vecs = np.array([b.vectors for b in mub.mub_prime(p, 0).bases[:p]])
            direct = vecs.conj().transpose(0, 2, 1)[:, None] @ vecs[None]
            a, b, alpha, beta = np.ogrid[:p, :p, :p, :p]
            gap = np.abs(direct - closed[a - b + p - 1, alpha - beta + p - 1])
            yield float(np.max(gap[~np.eye(p, dtype=bool)]))

    @_invariant("mub.composite_three_mub", 1e-10)
    def _composite_three_mub(self):
        for d in (6, 10):
            if d <= max(self.d_max, 6):
                yield mub.max_pairwise_deviation(mub.mub_three(d, 0, 0))

    @_invariant("mub.composite_negative_control")
    def _composite_negative_control(self):
        # the stride-2 pair at d = 6 must NOT be unbiased
        h0 = mub.mub_three(6, 0, 0).bases[0]
        h2 = mub.mub_three(6, 0, 2).bases[0]
        yield mub.unbiasedness(h0, h2) > 1e-3

    @_invariant("mub.dim4_five_bases", 1e-12)
    def _dim4_five_bases(self):
        yield mub.max_pairwise_deviation(mub.mub_dim4())

    @_invariant("mub.dim4_entanglement_split", 1e-12)
    def _dim4_entanglement_split(self):
        ms4 = mub.mub_dim4()
        for label, want in (("W00", 0.0), ("W11", 0.0), ("W01", 0.5), ("W10", 0.5)):
            basis = next(b for b in ms4.bases if b.label == label)
            for i in range(4):
                yield abs(mub.entanglement_det(basis.column(i), 2) - want)

    @_invariant("mub.entanglement_bound", 1e-12)
    def _entanglement_bound(self):
        # 1000 states per d, each drawn as its real parts, then its imaginary ones
        for d in (2, 3):
            x = self.rng.normal(size=(1000, 2, d * d))
            v = x[:, 0] + 1j * x[:, 1]
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            yield float(np.max(np.maximum(mub.entanglement_det(v, d) - d ** (-d / 2), 0.0)))

    @_invariant("mub.sl_partition")
    def _sl_partition(self):
        for p in self.primes:
            yield mub.sl_partition_check(p).ok
            classes = mub.commuting_classes(p)
            yield all(len(c.members) == p - 1 for c in classes)
            for a in range(p):
                yield (1, a) in classes[a + 1].members

    @_invariant("mub.class_eigenbasis_association", 1e-10)
    def _class_eigenbasis_association(self):
        for p in [q for q in self.primes if q <= 7]:
            classes = mub.commuting_classes(p)
            for a in range(p):
                basis = qdft.hra_matrix(p, 0, a).to_complex()
                for member in classes[a + 1].members:
                    u = weyl.u_ab(p, member).to_complex()
                    for alpha in range(p):
                        col = basis[:, alpha]
                        lam = complex(np.vdot(col, u @ col))
                        yield float(np.max(np.abs(u @ col - lam * col)))

    # -- wigner --------------------------------------------------------------

    @_invariant("wigner.threejm_orthogonality", 1e-10)
    def _threejm_orthogonality(self):
        tj1, tj2 = 4, 6
        for tj3 in range(2, 9, 2):
            for tm3 in range(-tj3, tj3 + 1, 2):
                total = 0.0
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        total += ((tj3 + 1)
                                  * wigner.wigner_3jm(tj1, tj2, tj3, tm1, tm2, tm3) ** 2)
                yield abs(total - 1.0)

    @_invariant("wigner.fbar_symmetries", 1e-10)
    def _fbar_symmetries(self):
        # each triple's table is built on its own, so the permuted reads
        # below compare independent evaluations, not one table with itself
        tables = {t: wigner.fbar_table(*t) for t in _coupling_triples()}
        for tj1, tj2, tj3 in _coupling_triples():
            sign = (-1) ** ((tj1 + tj2 + tj3) // 2)
            for a1, a2, a3 in _alpha_labels((tj1, tj2, tj3)):
                base = tables[tj1, tj2, tj3][a1, a2, a3]
                even = tables[tj2, tj3, tj1][a2, a3, a1]
                odd = tables[tj2, tj1, tj3][a2, a1, a3]
                factor = wigner.fbar_conjugation_factor(tj1, tj2, tj3, a1, a2, a3)
                yield abs(base - even)
                yield abs(odd - sign * base)
                yield abs(np.conj(base) - factor * base)

    @_invariant("wigner.basis_change_unitarity", 1e-12)
    def _basis_change_unitarity(self):
        for two_j in range(1, 7):
            d = two_j + 1
            u = np.array([[wigner.basis_change_coeff(two_j, two_m, alpha)
                           for alpha in range(d)]
                          for two_m in range(-two_j, two_j + 1, 2)])
            yield float(np.max(np.abs(u.conj().T @ u - np.eye(d))))

    @_invariant("wigner.cg_alpha_two_route", 1e-10)
    def _cg_alpha_two_route(self):
        # the second route: magnetic coefficients from clebsch_gordan, moved
        # to the cyclic basis by the explicit <j, m | j alpha> matrices
        change = {tj: np.array([[wigner.basis_change_coeff(tj, tm, alpha)
                                 for alpha in range(tj + 1)]
                                for tm in range(-tj, tj + 1, 2)])
                  for tj in range(_COUPLING_TWO_J + 1)}
        for tj1, tj2, tj3 in _coupling_triples():
            got = wigner.cg_alpha_table(tj1, tj2, tj3)
            cg = np.zeros((tj1 + 1, tj2 + 1, tj3 + 1))
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm3 = tm1 + tm2
                    if abs(tm3) <= tj3:
                        cg[(tj1 + tm1) // 2, (tj2 + tm2) // 2, (tj3 + tm3) // 2] = (
                            wigner.clebsch_gordan(tj1, tm1, tj2, tm2, tj3, tm3))
            want = np.einsum("ijk,ia,jb,kc->abc", cg, change[tj1].conj(),
                             change[tj2].conj(), change[tj3])
            for a in _alpha_labels((tj1, tj2, tj3)):
                yield abs(got[a] - want[a])


def verify_weyl(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    return _Sweep("weyl", d_max, random.Random(seed)).run()


def verify_qdft(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    return _Sweep("qdft", d_max, np.random.default_rng(seed)).run()


def verify_su2(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    return _Sweep("su2", d_max).run()


def verify_mub(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    return _Sweep("mub", d_max, np.random.default_rng(seed)).run()


def verify_wigner(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    return _Sweep("wigner", d_max).run()


SUITES = {
    "weyl": verify_weyl,
    "qdft": verify_qdft,
    "su2": verify_su2,
    "mub": verify_mub,
    "wigner": verify_wigner,
}


def run_suite(name: str, d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or every suite for name == 'all'."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(d_max, seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from all, "
                         + ", ".join(SUITES))
    return SUITES[name](d_max, seed)
