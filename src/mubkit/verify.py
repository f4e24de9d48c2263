"""Invariant suites over the whole library, used by the command line.

Each suite sweeps one module's structural identities up to a dimension
bound and reports the worst residual per invariant.  Exact phase
identities report a residual of exactly 0.0 on success (tolerance 0);
floating checks report their measured deviation against the stated
tolerance.  Sweeps are deterministic given the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import mub, qdft, quon, weyl, wigner
from .phases import PhaseMatrix, exponent_dtype, q_power

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_passed"]


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


def _exact(flag: bool) -> float:
    return 0.0 if flag else float("inf")


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


# -- weyl --------------------------------------------------------------------

def verify_weyl(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    exhaustive = range(2, min(d_max, 8) + 1)
    out = []

    ok = True
    for d in exhaustive:
        x, z = weyl.x_matrix(d), weyl.z_matrix(d)
        xp = [PhaseMatrix.identity(d)]
        zp = [PhaseMatrix.identity(d)]
        for _ in range(d):
            xp.append(xp[-1] @ x)
            zp.append(zp[-1] @ z)
        ok &= xp[d] == PhaseMatrix.identity(d) and zp[d] == PhaseMatrix.identity(d)
        for m in range(d):
            for n in range(d):
                ok &= (xp[m] @ zp[n]) == (zp[n] @ xp[m]).scaled_by(q_power(d, m * n))
    out.append(CheckResult("weyl.shift_clock_commutation", _exact(ok), 0.0))

    ok = True
    for d in exhaustive:
        for r in (0, 1, Fraction(1, 4)):
            for a in range(d):
                first, second = weyl.vra_q_commutation_checks(d, r, a)
                ok &= first and second
    out.append(CheckResult("weyl.vra_q_commutation", _exact(ok), 0.0))

    ok = True
    for d in exhaustive:
        for r in (0, Fraction(1, 3)):
            for a in range(d):
                v = weyl.vra_matrix(d, r, a)
                ok &= (v ** d) == PhaseMatrix.identity(d).scaled_by(
                    weyl.vra_power_phase(d, r, a))
                ok &= weyl.vra_matrix(d, r, a) == weyl.vra_band_matrix(d, r, a)
    out.append(CheckResult("weyl.vra_power_and_band_form", _exact(ok), 0.0))

    worst = 0.0
    for d in exhaustive:
        worst = max(worst, weyl.pauli_trace_orthogonality(d))
    out.append(CheckResult("weyl.pauli_trace_orthogonality", worst, 0.0))

    ok = True
    for d in exhaustive:
        for _ in range(200):
            g = tuple(rng.randrange(d) for _ in range(3))
            h = tuple(rng.randrange(d) for _ in range(3))
            lhs = weyl.pauli_element_matrix(d, g) @ weyl.pauli_element_matrix(d, h)
            ok &= lhs == weyl.pauli_element_matrix(d, weyl.pauli_compose(d, g, h))
    out.append(CheckResult("weyl.pauli_composition_law", _exact(ok), 0.0))

    ok = True
    worst = 0.0
    for d in exhaustive:
        for _ in range(40):
            m = (rng.randrange(2 * d), rng.randrange(2 * d))
            n = (rng.randrange(2 * d), rng.randrange(2 * d))
            ok &= weyl.sine_product_check(d, m, n)
            worst = max(worst, weyl.sine_commutator_check(d, m, n))
    out.append(CheckResult("weyl.sine_product_exact", _exact(ok), 0.0))
    out.append(CheckResult("weyl.sine_commutator", worst, 1e-12))

    worst = 0.0
    for d in exhaustive:
        f = qdft.fra_matrix(d).to_complex()
        conj = f.conj().T @ weyl.x_matrix(d).to_complex() @ f
        worst = max(worst, float(np.max(np.abs(conj - weyl.z_matrix(d).to_complex()))))
    out.append(CheckResult("weyl.dft_conjugates_shift_to_clock", worst, 1e-10))

    ok = all(weyl.regular_representation_check(d) for d in exhaustive)
    out.append(CheckResult("weyl.regular_representation", _exact(ok), 0.0))

    if d_max > 8:
        ok = True
        for d in range(9, min(d_max, 16) + 1):
            x, z = weyl.x_matrix(d), weyl.z_matrix(d)
            for _ in range(25):
                m, n = rng.randrange(d), rng.randrange(d)
                xm, zn = x ** m, z ** n
                ok &= (xm @ zn) == (zn @ xm).scaled_by(q_power(d, m * n))
                g = tuple(rng.randrange(d) for _ in range(3))
                h = tuple(rng.randrange(d) for _ in range(3))
                lhs = weyl.pauli_element_matrix(d, g) @ weyl.pauli_element_matrix(d, h)
                ok &= lhs == weyl.pauli_element_matrix(d, weyl.pauli_compose(d, g, h))
        out.append(CheckResult("weyl.sampled_large_dimension", _exact(ok), 0.0))
    return out


# -- qdft --------------------------------------------------------------------

def _row_symmetry_holds(f: PhaseMatrix, d: int, r, a: int) -> bool:
    """The row symmetry of f = F_ra (d >= 2), lead = (d-1)(r+a)/2:
    row n-1 is row n times q^{lead - alpha + n a} for n = 1..d-1, and row
    d-1 is row 0 times q^{lead - alpha} e^{-i pi (d-1) r}.

    With r = u/v and w = 2dv, every phase involved is q^{x/(2v)}, the
    turn x/w, so both sides are exponents over M = lcm(N, w) and rows
    compare as integer arrays.
    """
    r = Fraction(r)
    u, v = r.numerator, r.denominator
    w = 2 * d * v
    m = lcm(f.modulus, w)
    dt = exponent_dtype(m)
    e = f.exponents.astype(dt) * (m // f.modulus)
    # q^{lead - alpha} for every column alpha, as x/(2v); reducing x mod w
    # before scaling keeps every term below M
    x = (d - 1) * (u + a * v) - 2 * v * np.arange(d, dtype=dt)
    n = np.arange(1, d, dtype=dt)[:, None]
    step = (x + 2 * v * a * n) % w * (m // w)
    corner = x % w * (m // w) + (-(d - 1) * u) % (2 * v) * (m // (2 * v))
    return bool(np.all((e[:-1] - e[1:] - step) % m == 0)
                and np.all((e[-1] - e[0] - corner) % m == 0))


def verify_qdft(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    dims = range(2, max(d_max, 2) + 1)
    out = []

    worst = 0.0
    for d in dims:
        for r in (0, Fraction(1, 2), 1, Fraction(2, 3)):
            for a in range(d):
                f = qdft.fra_matrix(d, r, a).to_complex()
                worst = max(worst, float(np.max(np.abs(f.conj().T @ f - np.eye(d)))))
    out.append(CheckResult("qdft.unitarity", worst, 1e-10))

    ok = True
    for d in dims:
        for r in (0, 1, Fraction(1, 2)):
            for a in range(d):
                ok &= (qdft.dra_matrix(d, r, a) @ qdft.fra_matrix(d)
                       == qdft.fra_matrix(d, r, a))
    out.append(CheckResult("qdft.gaussian_factorization", _exact(ok), 0.0))

    ok = all(_row_symmetry_holds(qdft.fra_matrix(d, r, a), d, r, a)
             for d in dims for r in (0, 1) for a in range(d))
    out.append(CheckResult("qdft.row_symmetry", _exact(ok), 0.0))

    worst = 0.0
    for d in range(2, min(d_max, 16) + 1):
        f = qdft.fra_matrix(d).to_complex()
        worst = max(worst, float(np.max(np.abs(np.linalg.matrix_power(f, 4) - np.eye(d)))))
    out.append(CheckResult("qdft.fourth_power_identity", worst, 1e-10))

    worst = 0.0
    for d in dims:
        for r in (0, Fraction(1, 2), 1):
            for a in range(d):
                direct = qdft.fra_matrix(d, r, a).trace()
                worst = max(worst, abs(qdft.trace_fra(d, r, a) - direct))
    out.append(CheckResult("qdft.trace_two_route", worst, 1e-10))

    worst = 0.0
    for d in range(2, min(d_max, 10) + 1):
        for a in range(d):
            direct = complex(np.linalg.det(qdft.fra_matrix(d, 0, a).to_complex()))
            worst = max(worst, abs(qdft.det_fra(d, a) - direct))
    out.append(CheckResult("qdft.determinant_two_route", worst, 1e-9))

    worst = 0.0
    for d in dims:
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        xp = rng.normal(size=d) + 1j * rng.normal(size=d)
        sums = [qdft.parseval_check(x, xp, d, r, a)
                for r, a in ((0, 0), (Fraction(1, 2), d - 1), (1, d // 2))]
        for lhs, rhs in sums:
            worst = max(worst, abs(lhs - rhs))
        worst = max(worst, abs(sums[0][0] - sums[1][0]), abs(sums[0][0] - sums[2][0]))
        y = qdft.forward(x, d, Fraction(2, 3), d - 1)
        worst = max(worst, float(np.max(np.abs(
            qdft.inverse(y, d, Fraction(2, 3), d - 1) - x))))
    out.append(CheckResult("qdft.parseval_and_round_trip", worst, 1e-12))

    ok = True
    for d in dims:
        ok &= bool(qdft.is_generalized_hadamard(qdft.fra_matrix(d, 0, d - 1)))
    out.append(CheckResult("qdft.hadamard_family", _exact(ok), 0.0))
    return out


# -- su2 / quon ---------------------------------------------------------------

def verify_su2(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    ks = range(2, min(d_max, 8) + 1)
    out = []

    worst = 0.0
    ok = True
    for k in ks:
        q = np.exp(2j * np.pi / k)
        rep = quon.quon_rep(k)
        for plus, minus, num in ((rep.x_plus, rep.x_minus, rep.n_x),
                                 (rep.y_plus, rep.y_minus, rep.n_y)):
            worst = max(worst, float(np.max(np.abs(
                minus @ plus - q * plus @ minus - np.eye(k)))))
            worst = max(worst, float(np.max(np.abs(num @ plus - plus @ num - plus))))
            worst = max(worst, float(np.max(np.abs(num @ minus - minus @ num + minus))))
            ok &= not np.any(np.linalg.matrix_power(plus, k))
            ok &= not np.any(np.linalg.matrix_power(minus, k))
    out.append(CheckResult("su2.quon_relations", worst if ok else float("inf"), 1e-13))

    worst = 0.0
    for k in ks:
        for r in (0, 1, Fraction(1, 3)):
            for a in range(k):
                v = quon.build_vra_quonic(k, r, a)
                got = np.linalg.matrix_power(v, k)
                want = quon.vra_tensor_power_phase(k, r, a) * np.eye(k * k)
                worst = max(worst, float(np.max(np.abs(got - want))))
    out.append(CheckResult("su2.vra_kth_power", worst, 1e-12))

    worst = 0.0
    for k in ks:
        j = Fraction(k - 1, 2)
        for r in (0, 1, Fraction(1, 3)):
            for a in range(k):
                got = quon.restrict_to_j(quon.build_vra_quonic(k, r, a), j)
                want = weyl.vra_matrix(k, r, a).to_complex()
                worst = max(worst, float(np.max(np.abs(got - want))))
    out.append(CheckResult("su2.oracle_equivalence", worst, 1e-12))

    worst = 0.0
    for two_j in range(1, min(d_max, 12)):
        j = Fraction(two_j, 2)
        for r in (0, Fraction(1, 2)):
            for a in range(two_j + 1):
                t = quon.su2_generators(j, r, a)
                worst = max(worst, float(np.max(np.abs(
                    t.j_z @ t.j_plus - t.j_plus @ t.j_z - t.j_plus))))
                worst = max(worst, float(np.max(np.abs(
                    t.j_z @ t.j_minus - t.j_minus @ t.j_z + t.j_minus))))
                worst = max(worst, float(np.max(np.abs(
                    t.j_plus @ t.j_minus - t.j_minus @ t.j_plus - 2 * t.j_z))))
                casimir = (t.j_plus @ t.j_minus + t.j_minus @ t.j_plus) / 2 + t.j_z @ t.j_z
                jj = float(j) * (float(j) + 1)
                worst = max(worst, float(np.max(np.abs(casimir - jj * np.eye(two_j + 1)))))
    out.append(CheckResult("su2.closure_and_casimir", worst, 1e-10))

    worst = 0.0
    for k in ks:
        j = Fraction(k - 1, 2)
        for r in (0, 1, Fraction(1, 3)):
            for a in range(k):
                v = quon.restrict_to_j(quon.build_vra_quonic(k, r, a), j)
                for alpha, vec in enumerate(quon.eigenbasis(j, r, a)):
                    lam = quon.eigenvalue_vra(j, r, a, alpha)
                    worst = max(worst, float(np.max(np.abs(v @ vec - lam * vec))))
    out.append(CheckResult("su2.eigenvalue_equation", worst, 1e-12))

    worst = 0.0
    for k in ks:
        j = Fraction(k - 1, 2)
        for p in range(k):
            worst = max(worst, quon.rotation_conjugation_residual(j, Fraction(1, 3), 1 % k, p))
    out.append(CheckResult("su2.cyclic_pseudo_invariance", worst, 1e-12))

    worst = 0.0
    for two_j in range(1, min(d_max, 7)):
        j = Fraction(two_j, 2)
        d = two_j + 1
        for r, s in itertools.product((0, Fraction(1, 2), 1), repeat=2):
            br = quon.eigenbasis(j, r, 0)
            bs = quon.eigenbasis(j, s, 0)
            for alpha in range(d):
                for beta in range(d):
                    direct = complex(np.vdot(br[alpha], bs[beta]))
                    closed = quon.overlap_same_a(j, r, s, 0, alpha, beta)
                    worst = max(worst, abs(direct - closed))
    out.append(CheckResult("su2.overlap_two_route", worst, 1e-10))
    return out


# -- mub ----------------------------------------------------------------------

def verify_mub(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    primes = [p for p in range(2, min(d_max, 13) + 1) if mub.is_prime(p)]
    out = []

    worst = 0.0
    for p in primes:
        for r in (0, 1, Fraction(1, 2)):
            ms = mub.mub_prime(p, r)
            worst = max(worst, mub.max_pairwise_deviation(ms))
            for b in ms.bases:
                worst = max(worst, mub.orthonormality(b))
    out.append(CheckResult("mub.prime_complete_sets", worst, 1e-10))

    worst = 0.0
    for p in [q for q in primes if q > 2]:
        ms = mub.mub_prime(p, 0)
        for _ in range(500):
            a, b = rng.choice(p, size=2, replace=False)
            alpha, beta = rng.integers(0, p, size=2)
            direct = complex(np.vdot(ms.bases[a].column(alpha),
                                     ms.bases[b].column(beta)))
            closed = mub.gauss_inner_product(p, 0, int(a), int(alpha), int(b), int(beta))
            worst = max(worst, abs(direct - closed))
    out.append(CheckResult("mub.gauss_two_route", worst, 1e-10))

    worst = 0.0
    for d in (6, 10):
        if d <= max(d_max, 6):
            worst = max(worst, mub.max_pairwise_deviation(mub.mub_three(d, 0, 0)))
    out.append(CheckResult("mub.composite_three_mub", worst, 1e-10))

    # negative control: the stride-2 pair at d = 6 must NOT be unbiased
    h0 = mub.mub_three(6, 0, 0).bases[0]
    h2 = mub.mub_three(6, 0, 2).bases[0]
    stride2 = mub.unbiasedness(h0, h2)
    out.append(CheckResult("mub.composite_negative_control",
                           0.0 if stride2 > 1e-3 else float("inf"), 0.0))

    ms4 = mub.mub_dim4()
    out.append(CheckResult("mub.dim4_five_bases", mub.max_pairwise_deviation(ms4), 1e-12))

    worst = 0.0
    for label, want in (("W00", 0.0), ("W11", 0.0), ("W01", 0.5), ("W10", 0.5)):
        basis = next(b for b in ms4.bases if b.label == label)
        for i in range(4):
            worst = max(worst, abs(mub.entanglement_det(basis.column(i), 2) - want))
    out.append(CheckResult("mub.dim4_entanglement_split", worst, 1e-12))

    worst = 0.0
    for d in (2, 3):
        for _ in range(1000):
            v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            v /= np.linalg.norm(v)
            worst = max(worst, max(0.0, mub.entanglement_det(v, d) - d ** (-d / 2)))
    out.append(CheckResult("mub.entanglement_bound", worst, 1e-12))

    ok = True
    worst = 0.0
    for p in primes:
        report = mub.sl_partition_check(p)
        ok &= report.disjoint and report.union_complete and report.all_abelian
        worst = max(worst, report.gram_residual)
        classes = mub.commuting_classes(p)
        ok &= all(len(c.members) == p - 1 for c in classes)
        for a in range(p):
            ok &= (1, a) in classes[a + 1].members
    out.append(CheckResult("mub.sl_partition", worst if ok else float("inf"), 0.0))

    worst = 0.0
    for p in [q for q in primes if q <= 7]:
        classes = mub.commuting_classes(p)
        for a in range(p):
            basis = qdft.hra_matrix(p, 0, a).to_complex()
            for member in classes[a + 1].members:
                u = weyl.u_ab(p, member).to_complex()
                for alpha in range(p):
                    col = basis[:, alpha]
                    lam = complex(np.vdot(col, u @ col))
                    worst = max(worst, float(np.max(np.abs(u @ col - lam * col))))
    out.append(CheckResult("mub.class_eigenbasis_association", worst, 1e-10))
    return out


# -- wigner -------------------------------------------------------------------

def verify_wigner(d_max: int = 8, seed: int = 0) -> list[CheckResult]:
    out = []
    two_j_max = 4

    def triples():
        for tj1 in range(two_j_max + 1):
            for tj2 in range(two_j_max + 1):
                for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, two_j_max) + 1, 2):
                    yield tj1, tj2, tj3

    worst = 0.0
    tj1, tj2 = 4, 6
    for tj3 in range(2, 9, 2):
        for tm3 in range(-tj3, tj3 + 1, 2):
            total = 0.0
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    total += ((tj3 + 1)
                              * wigner.wigner_3jm(tj1, tj2, tj3, tm1, tm2, tm3) ** 2)
            worst = max(worst, abs(total - 1.0))
    out.append(CheckResult("wigner.threejm_orthogonality", worst, 1e-10))

    worst = 0.0
    for tj1, tj2, tj3 in triples():
        sign = (-1) ** ((tj1 + tj2 + tj3) // 2)
        for a1 in range(tj1 + 1):
            for a2 in range(tj2 + 1):
                for a3 in range(tj3 + 1):
                    base = wigner.fbar(tj1, tj2, tj3, a1, a2, a3)
                    even = wigner.fbar(tj2, tj3, tj1, a2, a3, a1)
                    odd = wigner.fbar(tj2, tj1, tj3, a2, a1, a3)
                    factor = wigner.fbar_conjugation_factor(tj1, tj2, tj3, a1, a2, a3)
                    worst = max(worst, abs(base - even), abs(odd - sign * base),
                                abs(np.conj(base) - factor * base))
    out.append(CheckResult("wigner.fbar_symmetries", worst, 1e-10))

    worst = 0.0
    for two_j in range(1, 7):
        d = two_j + 1
        u = np.array([[wigner.basis_change_coeff(two_j, two_m, alpha)
                       for alpha in range(d)]
                      for two_m in range(-two_j, two_j + 1, 2)])
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(d)))))
    out.append(CheckResult("wigner.basis_change_unitarity", worst, 1e-12))

    worst = 0.0
    for tj1, tj2, tj3 in triples():
        for a1 in range(tj1 + 1):
            for a2 in range(tj2 + 1):
                for a3 in range(tj3 + 1):
                    got = wigner.cg_alpha(tj1, tj2, a1, a2, tj3, a3)
                    want = 0j
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tm3 = tm1 + tm2
                            if abs(tm3) > tj3:
                                continue
                            cg = wigner.clebsch_gordan(tj1, tm1, tj2, tm2, tj3, tm3)
                            want += (cg
                                     * np.conj(wigner.basis_change_coeff(tj1, tm1, a1))
                                     * np.conj(wigner.basis_change_coeff(tj2, tm2, a2))
                                     * wigner.basis_change_coeff(tj3, tm3, a3))
                    worst = max(worst, abs(got - want))
    out.append(CheckResult("wigner.cg_alpha_two_route", worst, 1e-10))
    return out


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
