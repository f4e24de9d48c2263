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
adding ``min_d_max`` if it has no case below that bound.  Every matrix
comes from the library's builders through the sweep memo
(``_Sweep.built``, keyed by (builder, *args)), so each distinct matrix
is built once per sweep and checks share it.  A sampled check draws all
its cases first, in the order of the per-case loop it stands for, so
the generator's stream is that loop's.  An exhaustive (d, r, a) sweep
takes one (d, r) family at a time: ``_Sweep.family`` gives its members
for a = 0..d-1, and the check decides them on stacks over a.  Cases are
decided in array passes: monomial identities as products on one
``phases._stack`` (``_products_agree``), full exact ones as exponent
stacks over the family's common modulus (``phases._stack_full``), float
ones on dense ``(A, d, d)`` stacks (``phases._stack_complex``) with one
stacked ``@``.  Undecided exact sums go through ``phases._complex_sums``
in row order, as ``trace_pair`` sums them.  An exact check yields one
builtin bool per case; a float check may yield one residual per batch,
``np.max`` of it, which keeps nan.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from . import mub, phases, qdft, quon, weyl, wigner
from .phases import PhaseMatrix, exponent_dtype, q_power

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


def _row_symmetry_holds(f: PhaseMatrix, d: int, r, a: int) -> bool:
    """The row symmetry of one F_ra: _row_symmetries of a stack of one."""
    return bool(_row_symmetries(f.exponents[None], f.modulus, d, r, [a])[0])


def _lambda_ra(d: int, r, a: int) -> PhaseMatrix:
    """Lambda_ra = diag(q^{(d-1)(r+a)/2 - alpha}) = q^{(d-1)(r+a)/2} Z^{-1}."""
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    return weyl._shift_clock(d, 0, -1, (d - 1) * (u + a * v), 2 * v)


def _diagonalizes(vs: list[PhaseMatrix], hs: list[PhaseMatrix],
                  lams: list[PhaseMatrix]) -> np.ndarray:
    """vs[i] @ hs[i] == hs[i] @ lams[i] exactly for each i, as a bool mask:
    monomial vs and lams, full hs, all stacked over one modulus.  Row r
    of V @ H is V's phase plus row V_c[r] of H; column k of H @ Lambda
    is Lambda's phase plus column k of H, moved to column Lambda_c[k]."""
    (nv, vc, ve), (nl, lc, le) = phases._stack(vs), phases._stack(lams)
    nh, he = phases._stack_full(hs)
    n = lcm(nv, nl, nh)
    dt = exponent_dtype(n)
    ve, le, he = (x.astype(dt) * (n // nx) for x, nx in ((ve, nv), (le, nl), (he, nh)))
    lhs = (ve[:, :, None] + np.take_along_axis(he, vc[:, :, None], axis=1)) % n
    rhs = np.empty_like(he)
    np.put_along_axis(rhs, np.broadcast_to(lc[:, None, :], he.shape),
                      (he + le[:, None, :]) % n, axis=2)
    amplitudes = np.array([(v.scaled or h.scaled) == (h.scaled or l.scaled)
                           for v, h, l in zip(vs, hs, lams)])
    return (lhs == rhs).all(axis=(1, 2)) & amplitudes


def _diagonalizes_vra(h: PhaseMatrix, d: int, r, a: int) -> bool:
    """V_ra @ h == h @ Lambda_ra exactly: h = H_ra is the eigenvector
    matrix of V_ra, column alpha to that eigenvalue."""
    return bool(_diagonalizes([weyl.vra_matrix(d, r, a)], [h], [_lambda_ra(d, r, a)])[0])


_BASIS_TOLERANCE = 1e-10


def _basis_set_checks(ms: mub.MubSet) -> list[CheckResult]:
    """Unbiasedness of every pair of bases of ms, then orthonormality of
    each basis, at one tolerance: the report of ``mubkit mub --verify``."""
    pairs = [CheckResult(f"unbiased[{b1.label}|{b2.label}]", mub.unbiasedness(b1, b2),
                         _BASIS_TOLERANCE)
             for i, b1 in enumerate(ms.bases) for b2 in ms.bases[i + 1:]]
    return pairs + [CheckResult(f"orthonormal[{b.label}]", mub.orthonormality(b),
                                _BASIS_TOLERANCE) for b in ms.bases]


def _products_agree(mats: list[PhaseMatrix], index: np.ndarray, turns=()) -> list[bool]:
    """mats[i] @ mats[j] == (mats[k] @ mats[l]) * exp(2 pi i t) for every
    row (i, j, k, l) of index and its turn t from turns (0 if turns is
    empty), as builtin bools, decided on one phases._stack of the unscaled
    monomial family mats."""
    n, cols, exps = phases._stack(mats)
    i, j, k, l = index.reshape(-1, 4).T
    (lc, le), (rc, re) = phases._products(n, cols, exps, i, j), phases._products(n, cols, exps, k, l)
    if turns:
        turns = [Fraction(t) for t in turns]
        m = lcm(n, *(t.denominator for t in turns))
        dt = exponent_dtype(m)
        shift = np.array([t.numerator * (m // t.denominator) % m for t in turns], dtype=dt)
        scale = m // n
        le, re = le.astype(dt) * scale, (re.astype(dt) * scale + shift[:, None]) % m
    return ((lc == rc).all(axis=1) & (le == re).all(axis=1)).tolist()


def _traces(mats: list[PhaseMatrix]) -> list[complex]:
    """m.trace() for each full matrix m of a family of one dim, with its
    bytes: the diagonals over one modulus, summed by one
    phases._complex_sums pass as trace_pair sums them (its factor 1.0,
    the identity's amplitude, changes no bit)."""
    n, exps = phases._stack_full(mats)
    sums = phases._complex_sums(np.diagonal(exps, axis1=1, axis2=2), n)
    return [m.amplitude * s for m, s in zip(mats, sums)]


def _sine_terms(m: tuple[int, int], n: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """(m + n, m x n): the label and the cross product of the sine-algebra rules."""
    return (m[0] + n[0], m[1] + n[1]), m[0] * n[1] - m[1] * n[0]


def _family(f, d: int, r) -> list:
    """[f(d, r, a) for a = 0..d-1]: one (d, r) family of an exhaustive sweep."""
    return [f(d, r, a) for a in range(d)]


def _vra_blocks(k: int, r) -> np.ndarray:
    """quon's spin-j block of v_ra, k = 2j+1, for a = 0..k-1 as one
    read-only stack, which the checks share through the sweep memo."""
    blocks = quon._vra_block(k, r, np.arange(k))
    blocks.flags.writeable = False
    return blocks


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

    def built(self, keys) -> tuple[list, np.ndarray]:
        """f(*args) for each distinct key (f, *args), in first-seen order,
        and the position of every key among them.  The sweep memo builds
        each matrix once per sweep, so checks share what they build."""
        at: dict = {}
        index = np.array([at.setdefault(key, len(at)) for key in keys], dtype=np.intp)
        memo = self.memo
        for key in at:
            if key not in memo:
                memo[key] = key[0](*key[1:])
        return [memo[key] for key in at], index

    def one(self, f, *args):
        """f(*args), built once per sweep."""
        return self.built([(f, *args)])[0][0]

    def family(self, f, d: int, r) -> list:
        """[f(d, r, a) for a = 0..d-1], built once per sweep: one memo key
        per family, so r, often a Fraction, is hashed once per lookup."""
        return self.one(_family, f, d, r)

    # -- weyl ----------------------------------------------------------------

    @_invariant("weyl.shift_clock_commutation")
    def _shift_clock_commutation(self):
        for d in self.upto(8):
            x, z = weyl.x_matrix(d), weyl.z_matrix(d)
            xp = [PhaseMatrix.identity(d)]
            zp = [PhaseMatrix.identity(d)]
            for _ in range(d):
                xp.append(xp[-1] @ x)
                zp.append(zp[-1] @ z)
            yield xp[d] == PhaseMatrix.identity(d) and zp[d] == PhaseMatrix.identity(d)
            for m in range(d):
                for n in range(d):
                    yield (xp[m] @ zp[n]) == (zp[n] @ xp[m]).scaled_by(q_power(d, m * n))

    @_invariant("weyl.vra_q_commutation")
    def _vra_q_commutation(self):
        # vra_q_commutation_checks for every a of a (d, r) family at once:
        # V_ra Z == (Z V_ra) q and V_ra V_r0 == (V_r0 V_ra) q^{-a}
        for d, r in itertools.product(self.upto(8), (0, 1, Fraction(1, 4))):
            mats = [weyl.z_matrix(d)] + self.family(weyl.vra_matrix, d, r)
            # mats[0] is Z and mats[1 + a] is V_ra, so V_r0 is mats[1]
            index = [(1 + a, 0, 0, 1 + a, 1 + a, 1, 1, 1 + a) for a in range(d)]
            turns = [t for a in range(d) for t in (Fraction(1, d), Fraction(-a, d))]
            agree = _products_agree(mats, np.array(index), turns)
            yield from (first and second for first, second in zip(agree[::2], agree[1::2]))

    @_invariant("weyl.vra_power_and_band_form")
    def _vra_power_and_band_form(self):
        # (V_ra)^d == I e^{i pi (d-1)(r+a)}, and V_ra == the band form, for
        # every a of a (d, r) family at once; the d-th power is the d-fold
        # composite of V's rows, with the sum of the exponents met
        for d, r in itertools.product(self.upto(8), (0, Fraction(1, 3))):
            vs = self.family(weyl.vra_matrix, d, r)
            n, cols, exps = phases._stack(vs + self.family(weyl.vra_band_matrix, d, r))
            turns = [weyl.vra_power_phase(d, r, a).turns for a in range(d)]
            m = lcm(n, *(t.denominator for t in turns))
            dt = exponent_dtype(m)
            start = np.broadcast_to(np.arange(d), (d, d))
            at, total = start, np.zeros((d, d), dtype=exps.dtype)
            for _ in range(d):
                total = total + np.take_along_axis(exps[:d], at, axis=1)
                at = np.take_along_axis(cols[:d], at, axis=1)
            want = np.array([t.numerator * (m // t.denominator) % m for t in turns], dtype=dt)
            power = (at == start).all(axis=1) & (
                (total.astype(dt) % n * (m // n) - want[:, None]) % m == 0).all(axis=1)
            band = (cols[:d] == cols[d:]).all(axis=1) & (exps[:d] == exps[d:]).all(axis=1)
            for case in zip(power.tolist(), band.tolist()):
                yield from case

    @_invariant("weyl.pauli_trace_orthogonality")
    def _pauli_trace_orthogonality(self):
        for d in self.upto(8):
            yield weyl.pauli_trace_orthogonality(d) == 0.0

    @_invariant("weyl.pauli_composition_law")
    def _pauli_composition_law(self):
        # P(g) P(h) == I P(gh), 200 draws of g then h per d
        rng, pauli = self.rng, weyl.pauli_element_matrix
        for d in self.upto(8):
            keys = []
            for _ in range(200):
                g = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                h = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                keys += [(pauli, d, g), (pauli, d, h),
                         (PhaseMatrix.identity, d), (pauli, d, weyl.pauli_compose(d, g, h))]
            yield from _products_agree(*self.built(keys))

    @cached_property
    def sine_draws(self) -> list:
        """(d, m, n), m and n drawn mod 2d, 40 per d: both sine checks run on these."""
        rng = self.rng
        return [(d, (rng.randrange(2 * d), rng.randrange(2 * d)),
                 (rng.randrange(2 * d), rng.randrange(2 * d)))
                for d in self.upto(8) for _ in range(40)]

    def sine_groups(self) -> Iterator[tuple[int, list]]:
        """(d, its (m, n) draws) for each d of sine_draws."""
        for d, cases in itertools.groupby(self.sine_draws, key=lambda case: case[0]):
            yield d, [(m, n) for _, m, n in cases]

    @_invariant("weyl.sine_product_exact")
    def _sine_product_exact(self):
        # T_m T_n == (q^{-(m x n)/2} I) T_{m+n}
        for d, cases in self.sine_groups():
            def phase(twice):
                return PhaseMatrix.identity(d).scaled_by(q_power(2 * d, twice))
            keys = []
            for m, n in cases:
                s, cross = _sine_terms(m, n)
                keys += [(weyl.t_matrix, d, m), (weyl.t_matrix, d, n),
                         (phase, -cross), (weyl.t_matrix, d, s)]
            yield from _products_agree(*self.built(keys))

    @_invariant("weyl.sine_commutator", 1e-12)
    def _sine_commutator(self):
        # [T_m, T_n] = -2i sin(pi (m x n)/d) T_{m+n}, one dense stack per d
        for d, cases in self.sine_groups():
            terms = [_sine_terms(m, n) for m, n in cases]
            labels = [m for m, _ in cases] + [n for _, n in cases] + [s for s, _ in terms]
            mats, index = self.built((weyl.t_matrix, d, s) for s in labels)
            tm, tn, ts = phases._stack_complex(mats)[index.reshape(3, -1)]
            coeff = np.array([-2j * np.sin(np.pi * cross / d) for _, cross in terms])
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
        # m, n, g, h per d
        rng, pauli = self.rng, weyl.pauli_element_matrix
        for d in range(9, min(self.d_max, 16) + 1):
            x_pow, z_pow = cache(weyl.x_matrix(d).__pow__), cache(weyl.z_matrix(d).__pow__)

            def z_phase(n, mn):
                return z_pow(n).scaled_by(q_power(d, mn))
            keys = []
            for _ in range(25):
                m, n = rng.randrange(d), rng.randrange(d)
                g = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                h = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                keys += [(x_pow, m), (z_pow, n), (z_phase, n, m * n), (x_pow, m),
                         (pauli, d, g), (pauli, d, h),
                         (PhaseMatrix.identity, d), (pauli, d, weyl.pauli_compose(d, g, h))]
            yield from _products_agree(*self.built(keys))

    # -- qdft ----------------------------------------------------------------

    @property
    def qdft_dims(self) -> range:
        return range(2, max(self.d_max, 2) + 1)

    # the exhaustive (d, r, a) sweeps take one (d, r) family at a time:
    # F_ra for a = 0..d-1 from the sweep memo, decided on stacks over a

    @_invariant("qdft.unitarity", 1e-10)
    def _unitarity(self):
        for d, r in itertools.product(self.qdft_dims, (0, Fraction(1, 2), 1, Fraction(2, 3))):
            f = phases._stack_complex(self.family(qdft.fra_matrix, d, r))
            gap = np.swapaxes(f.conj(), 1, 2) @ f - np.eye(d)
            yield from np.max(np.abs(gap), axis=(1, 2)).tolist()

    @_invariant("qdft.gaussian_factorization")
    def _gaussian_factorization(self):
        # D_ra @ F == F_ra: row i of D_ra @ F is row i of F plus D's phase
        for d, r in itertools.product(self.qdft_dims, (0, 1, Fraction(1, 2))):
            ds = self.family(qdft.dra_matrix, d, r)
            # F = F_00, and F_ra for a = 0..d-1
            fs = self.family(qdft.fra_matrix, d, 0)[:1] + self.family(qdft.fra_matrix, d, r)
            (nd, dc, de), (nf, fe) = phases._stack(ds), phases._stack_full(fs)
            n = lcm(nd, nf)
            dt = exponent_dtype(n)
            de, fe = de.astype(dt) * (n // nd), fe.astype(dt) * (n // nf)
            amplitudes = np.array([(dm.scaled or fs[0].scaled) == f.scaled
                                   for dm, f in zip(ds, fs[1:])])
            lhs = (de[:, :, None] + fe[0][dc]) % n
            yield from ((lhs == fe[1:]).all(axis=(1, 2)) & amplitudes).tolist()

    @_invariant("qdft.row_symmetry")
    def _row_symmetry(self):
        for d, r in itertools.product(self.qdft_dims, (0, 1)):
            n, exps = phases._stack_full(self.family(qdft.fra_matrix, d, r))
            yield from _row_symmetries(exps, n, d, r, np.arange(d)).tolist()

    @_invariant("qdft.hra_diagonalizes_vra")
    def _hra_diagonalizes_vra(self):
        for d, r in itertools.product(self.upto(8), (0, Fraction(1, 3), Fraction(1, 2))):
            yield from _diagonalizes(self.family(weyl.vra_matrix, d, r),
                                     self.family(qdft.hra_matrix, d, r),
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
            direct = _traces(self.family(qdft.fra_matrix, d, r))
            yield from (abs(c - t) for c, t in zip(closed, direct))

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
            got = self.one(_vra_blocks, k, r)
            want = phases._stack_complex(self.family(weyl.vra_matrix, k, r))
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
            v = self.one(_vra_blocks, k, r)
            # vecs[a, alpha] is column alpha of H_ra, as quon.eigenbasis gives it
            vecs = np.ascontiguousarray(
                np.swapaxes(phases._stack_complex(self.family(qdft.hra_matrix, k, r)), 1, 2))
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
