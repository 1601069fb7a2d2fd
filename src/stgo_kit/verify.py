"""Named verification suites with machine-readable reports.

Each suite pits a closed-form path against an independent oracle and emits
one case row per comparison.  A case passes when the relative error is
within tolerance (absolute error for reference values below the floor).
The report schema is stable: suite, cases[{id, lhs, rhs, abs_err, rel_err,
tol, pass}], summary{total, passed, max_rel_err}, runtime_ms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import addition as add
from . import bfun
from . import oracles
from .harmonics import regular_solid, regular_solid_poly, ylm_table
from .radial import RadialProfile
from .special import _theta_coefficients
from .stgo import gamma_radial_profile, hobson_harmonic
from .wigner import coupled_range, gaunt, wigner3j, wigner3j_string

_FLOOR = 1e-300


@dataclass
class Case:
    id: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tol": self.tol,
            "pass": self.passed,
        }


def make_case(cid: str, lhs, rhs, tol: float) -> Case:
    abs_err = float(abs(lhs - rhs))
    scale = float(abs(rhs))
    if scale < _FLOOR:
        rel_err = abs_err
    else:
        rel_err = abs_err / scale
    return Case(cid, _as_float(lhs), _as_float(rhs), abs_err, rel_err, float(tol), bool(rel_err <= tol))


def _as_float(x) -> float:
    c = complex(x)
    return c.real if c.imag == 0.0 else abs(c)


@dataclass
class VerifyReport:
    suite: str
    cases: list
    runtime_ms: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        cases = sorted(self.cases, key=lambda c: c.id)
        return {
            "suite": self.suite,
            "cases": [c.to_dict() for c in cases],
            "summary": {
                "total": len(cases),
                "passed": sum(1 for c in cases if c.passed),
                "max_rel_err": max((c.rel_err for c in cases), default=0.0),
            },
            "runtime_ms": self.runtime_ms,
        }


# ---------------------------------------------------------------------------
# suite: gamma-forms

_GAMMA_PROFILES = {
    "gauss1": RadialProfile.gaussian(1.0),
    "pow-1": RadialProfile.power(-1.0),
    "pow2.5": RadialProfile.power(2.5),
    "rbh2": RadialProfile.reduced_bessel_half(2, 1.0),
}


def suite_gamma_forms(seed: int = 0, tol: float = 1e-10, l_cap: int = 5) -> list:
    """Every admissible derivative form of the radial coefficient agrees."""
    cases = []
    radii = (0.5, 1.0, 2.3)
    for l1 in range(l_cap + 1):
        for l2 in range(l_cap + 1):
            for l in range(abs(l1 - l2), l1 + l2 + 1, 2):
                forms = [1, 2, 3, 6]
                if l2 >= l:
                    forms.append(4)
                if l >= l2:
                    forms.append(5)
                for name, prof in _GAMMA_PROFILES.items():
                    profs = {fm: gamma_radial_profile(fm, l1, l2, l, prof) for fm in forms}
                    for r in radii:
                        vals = {fm: complex(profs[fm].value(r)) for fm in forms}
                        ref = vals[1]
                        worst_fm = max(forms[1:], key=lambda fm: abs(vals[fm] - ref))
                        cases.append(
                            make_case(
                                f"gamma-forms/l1={l1},l2={l2},l={l}/{name}/r={r}/form{worst_fm}-vs-1",
                                vals[worst_fm],
                                ref,
                                tol,
                            )
                        )
    return cases


# ---------------------------------------------------------------------------
# suite: hobson

def suite_hobson(seed: int = 0, tol: float = 1e-6, l_cap: int = 4) -> list:
    """Closed-form operator application vs the Cartesian difference oracle."""
    rng = np.random.default_rng(seed)
    cases = []
    # Parameter bands keep the comparison well conditioned: the oracle's
    # absolute error scales with the bare profile, the target with the
    # rank-l radial factor, so small radii lose l powers of r of margin.
    profiles = {
        "gauss": (RadialProfile.gaussian(0.6), lambda v: math.exp(-0.6 * float(v @ v)), 0.75, 1.15, 0.05),
        "yukawa": (
            RadialProfile.yukawa(1.0),
            lambda v: math.exp(-math.sqrt(float(v @ v))) / math.sqrt(float(v @ v)),
            0.7,
            2.0,
            0.025,
        ),
    }
    for l in range(l_cap + 1):
        ms = sorted({0, min(1, l), l})
        for m in ms:
            poly = regular_solid_poly(l, m)
            for name, (prof, fn, r_lo, r_hi, step) in profiles.items():
                closed = hobson_harmonic((l, m), prof)
                radial = closed.terms[0].radial
                for k in range(10):
                    # reject points close to the angular nodal set, where the
                    # target is suppressed and a relative comparison only
                    # measures the oracle's absolute roundoff
                    for _ in range(200):
                        d = rng.normal(size=3)
                        d /= np.linalg.norm(d)
                        pt = d * rng.uniform(r_lo, r_hi)
                        want = closed.evaluate(pt)
                        if abs(want) >= 0.2 * abs(radial.value(float(np.linalg.norm(pt)))):
                            break
                    got = oracles.fd_apply_operator(poly, fn, pt, oracles.FDScheme(4, step))
                    cases.append(
                        make_case(f"hobson/l={l},m={m}/{name}/pt{k}", got.value, want, tol)
                    )
    return cases


# ---------------------------------------------------------------------------
# suite: gaunt

def suite_gaunt(
    seed: int = 0, tol_recur: float = 1e-12, tol_quad: float = 1e-10, l_cap: int = 25, quad_l_cap: int = 6
) -> list:
    """Recurrence strings vs exact Racah, and both vs sphere quadrature."""
    rng = np.random.default_rng(seed)
    cases = []
    # strings vs Racah
    for _ in range(250):
        l2 = int(rng.integers(0, l_cap + 1))
        l3 = int(rng.integers(0, l_cap + 1))
        m2 = int(rng.integers(-l2, l2 + 1))
        m3 = int(rng.integers(-l3, l3 + 1))
        worst = (0.0, 0.0, 0.0, None)
        for l1, v in wigner3j_string(l2, l3, m2, m3):
            ref = wigner3j(l1, l2, l3, -(m2 + m3), m2, m3)
            err = abs(v - ref) / abs(ref) if ref != 0 else abs(v)
            if err >= worst[0]:
                worst = (err, v, ref, l1)
        cases.append(
            make_case(
                f"gaunt/string/l2={l2},l3={l3},m2={m2},m3={m3}@l1={worst[3]}", worst[1], worst[2], tol_recur
            )
        )
    # quadrature oracle
    grid = oracles.default_sphere_grid(590)
    tab = ylm_table(quad_l_cap, grid.nodes)
    w = grid.weights
    off = quad_l_cap
    for l1 in range(quad_l_cap + 1):
        for l2 in range(quad_l_cap + 1):
            for _ in range(2):
                m1 = int(rng.integers(-l1, l1 + 1))
                m2 = int(rng.integers(-l2, l2 + 1))
                for l3 in coupled_range(l1, m1, l2, m2):
                    if l3 > quad_l_cap:
                        continue
                    m3 = m1 + m2
                    quad = complex(np.sum(np.conj(tab[l3, m3 + off]) * tab[l1, m1 + off] * tab[l2, m2 + off] * w))
                    an = gaunt(l1, m1, l2, m2, l3, m3)
                    abs_err = float(abs(quad - an))
                    cases.append(
                        Case(
                            f"gaunt/quad/<{l3} {m3}|{l1} {m1}|{l2} {m2}>",
                            _as_float(quad),
                            an,
                            abs_err,
                            abs_err,
                            tol_quad,
                            bool(abs_err <= tol_quad),
                        )
                    )
    return cases


# ---------------------------------------------------------------------------
# suite: bfun-fourier (closed-form transform, functional equations, Pade ratio)

def suite_bfun_fourier(seed: int = 0, tol_hankel: float = 1e-8, tol_func: float = 1e-12, tol_pade: float = 1e-12) -> list:
    from .special import khat_half

    cases = []
    for n in (0, 1, 2):
        for l in range(4):
            for alpha in (0.7, 1.0, 2.0):
                idx = bfun.BIndex(n, l, min(l, 1), alpha)
                inv = 1.0 / (2.0 ** (n + l) * math.factorial(n + l))

                def f_l(r, n=n, l=l, alpha=alpha, inv=inv):
                    return inv * khat_half(2 * n - 1, alpha * r) * (alpha * r) ** l

                for p in (0.2, 1.0, 4.0):
                    got = oracles.hankel_radial_ft(f_l, l, p, r_max=55.0 / alpha, n=16)
                    want = bfun.b_fourier_radial(idx, p)
                    cases.append(
                        make_case(f"bfun-fourier/hankel/n={n},l={l},a={alpha},p={p}", got.value, want, tol_hankel)
                    )
    # momentum-space functional equations
    rng = np.random.default_rng(seed)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    for n in range(-2, 5):
        for l in range(4):
            idx = bfun.BIndex(n, l, -min(l, 1), 1.3)
            for pmag in (0.3, 1.0, 5.0):
                res = bfun.b_fourier_functional_check(idx, d * pmag)
                rmax = float(res.max())
                cases.append(
                    Case(
                        f"bfun-fourier/funceq/n={n},l={l},p={pmag}",
                        rmax,
                        0.0,
                        rmax,
                        rmax,
                        tol_func,
                        bool(rmax <= tol_func),
                    )
                )
    # diagonal rational approximation of exp: theta_n(z/2)/theta_n(-z/2) matches
    # e^z through order 2n (exact series division in rationals)
    for n in range(6):
        coeffs = _theta_coefficients(n)
        num = [c * Fraction(1, 2**k) for k, c in enumerate(coeffs)]
        den = [c * Fraction((-1) ** k, 2**k) for k, c in enumerate(coeffs)]
        series = _rational_series_division(num, den, 2 * n + 1)
        worst = 0.0
        for k, c in enumerate(series):
            target = Fraction(1, math.factorial(k))
            err = abs(float((c - target) / target))
            worst = max(worst, err)
        cases.append(Case(f"bfun-fourier/pade/n={n}", worst, 0.0, worst, worst, tol_pade, bool(worst <= tol_pade)))
    return cases


def _rational_series_division(num: list, den: list, n_terms: int) -> list:
    """Taylor coefficients of num(z)/den(z) around 0, exact rationals."""
    out = []
    rem = list(num) + [Fraction(0)] * n_terms
    d0 = den[0]
    for k in range(n_terms):
        c = rem[k] / d0
        out.append(c)
        for j in range(1, len(den)):
            if k + j < len(rem):
                rem[k + j] -= c * den[j]
    return out


# ---------------------------------------------------------------------------
# suite: convolution

def suite_convolution(seed: int = 0, tol: float = 1e-7, n_cap: int = 2, l_cap: int = 2) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    grid = oracles.default_sphere_grid(302)
    for n1 in range(n_cap + 1):
        for n2 in range(n_cap + 1):
            for l1 in range(l_cap + 1):
                for l2 in range(l_cap + 1):
                    m1 = int(rng.integers(-l1, l1 + 1))
                    m2 = int(rng.integers(-l2, l2 + 1))
                    a = bfun.BIndex(n1, l1, m1, 1.0)
                    b = bfun.BIndex(n2, l2, m2, 1.0)
                    closed = bfun.convolve(a, b)
                    d = rng.normal(size=3)
                    d /= np.linalg.norm(d)
                    for rr in (0.5, 1.0, 2.0):
                        at = d * rr
                        want = closed.evaluate(at)
                        got = oracles.momentum_convolution(a, b, at, grid=grid)
                        cases.append(
                            make_case(
                                f"convolution/n1={n1},l1={l1},m1={m1};n2={n2},l2={l2},m2={m2}@r={rr}",
                                got,
                                want,
                                tol,
                            )
                        )
    return cases


# ---------------------------------------------------------------------------
# suite: addition

def suite_addition(
    seed: int = 0,
    tol_generic: float = 1e-8,
    tol_terminating: float = 1e-13,
    tol_laplace: float = 1e-11,
    tol_shift: float = 1e-11,
) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    d1 = rng.normal(size=3)
    d1 /= np.linalg.norm(d1)
    d2 = rng.normal(size=3)
    d2 /= np.linalg.norm(d2)
    r_lt = d1 * 0.52
    r_gt = d2 * 1.3  # ratio 0.4
    pair = add.SplitPair.from_vectors(r_lt, r_gt)
    total = r_lt + r_gt
    tr = add.TruncationSpec(30, 1e-11)
    for nu in (-3.0, -1.0, 1.5):
        for l in range(3):
            for m in range(-l, l + 1):
                res = add.power_solid_addition(nu, (l, m), pair, tr)
                want = np.linalg.norm(total) ** nu * regular_solid((l, m), total)
                cases.append(make_case(f"addition/power/nu={nu},l={l},m={m}", res.value, want, tol_generic))
    for nu in (0.0, 2.0, 4.0):
        for l in range(3):
            m = min(l, 1)
            res = add.power_solid_addition(nu, (l, m), pair, add.TruncationSpec(30, 1e-13))
            want = np.linalg.norm(total) ** nu * regular_solid((l, m), total)
            cases.append(make_case(f"addition/terminating/nu={nu},l={l},m={m}", res.value, want, tol_terminating))
    # nu = -1, l = 0 reproduces the inverse-distance expansion; the Legendre
    # series sum_k (-q)^k P_k(cos gamma) / |r_>| with q = |r_<|/|r_>| = 0.4 is
    # an independent reference that uses no harmonics or Gaunt coefficients
    lap = add.laplace_expansion(r_lt, r_gt, 1, add.TruncationSpec(40, 1e-13))
    pw = add.power_scalar_addition(-1.0, pair, add.TruncationSpec(40, 1e-13))
    n_lt, n_gt = np.linalg.norm(r_lt), np.linalg.norm(r_gt)
    cos_g = float(r_lt @ r_gt) / (n_lt * n_gt)
    legendre = np.polynomial.legendre.legval(cos_g, (-n_lt / n_gt) ** np.arange(60)) / n_gt
    cases.append(make_case("addition/laplace-consistency", pw.value, legendre, tol_laplace))
    want = 1.0 / np.linalg.norm(total)
    cases.append(make_case("addition/laplace-direct", lap.value, want, tol_laplace))
    # finite solid-harmonic shift; draws near the nodal set of the target are
    # rejected, since the summands stay O(scale) there and a relative
    # comparison would only measure their cancellation roundoff
    for k in range(50):
        for _ in range(100):
            l = int(rng.integers(0, 7))
            m = int(rng.integers(-l, l + 1))
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            want = regular_solid((l, m), a + b)
            scale = (np.linalg.norm(a) + np.linalg.norm(b)) ** l * math.sqrt((2 * l + 1) / (4 * math.pi))
            if abs(want) >= 1e-2 * scale:
                break
        got = add.solid_harmonic_shift((l, m), a, b)
        cases.append(make_case(f"addition/shift/{k:02d}-l={l},m={m}", got, want, tol_shift))
    return cases


# ---------------------------------------------------------------------------
# runner

SUITES = {
    "gamma-forms": suite_gamma_forms,
    "hobson": suite_hobson,
    "gaunt": suite_gaunt,
    "bfun-fourier": suite_bfun_fourier,
    "convolution": suite_convolution,
    "addition": suite_addition,
}


def _suite_kwargs(name: str, lmax: int | None) -> dict:
    if lmax is None:
        return {}
    if name == "gamma-forms":
        return {"l_cap": lmax}
    if name == "hobson":
        return {"l_cap": min(lmax, 4)}  # degree > 6 is not float-viable for the oracle
    if name == "gaunt":
        return {"l_cap": lmax, "quad_l_cap": min(lmax, 13)}
    return {}


def run_suite(
    name: str, seed: int = 0, threads: int = 1, tol: float | None = None, lmax: int | None = None
) -> VerifyReport:
    """Run one named suite (or 'all'); tol overrides every case tolerance when given.

    ``threads`` is accepted and ignored: the suites are pure Python, and a
    thread pool measured no faster than one thread.
    """
    t0 = time.perf_counter()
    if name == "all":
        cases = []
        for nm, fn in SUITES.items():
            cases.extend(fn(seed, **_suite_kwargs(nm, lmax)))
    elif name in SUITES:
        cases = SUITES[name](seed, **_suite_kwargs(name, lmax))
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if tol is not None:
        cases = [make_case(c.id, c.lhs, c.rhs, tol) for c in cases]
    return VerifyReport(name, cases, (time.perf_counter() - t0) * 1e3)
