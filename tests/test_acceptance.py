"""Acceptance gate: every closed form against its independent oracle.

One test per criterion, each printing a pass/fail line with its measured
runtime (run pytest with -s to see them).  Tolerances are pinned here and
match the suite defaults in stgo_kit.verify; runtime budgets are asserted
with the wall-clock measurement of the suite run.  Criteria that read the
same suite share one run of it through a module-scoped fixture.
"""

import json
import subprocess
import sys
import time

import pytest

from stgo_kit.verify import VerifyReport, run_suite

SEED = 0


def _run(name: str, budget_s: float, **kwargs) -> VerifyReport:
    t0 = time.perf_counter()
    report = run_suite(name, seed=SEED, **kwargs)
    dt = time.perf_counter() - t0
    summary = report.to_dict()["summary"]
    status = "PASS" if report.passed else "FAIL"
    print(
        f"[{status}] {name}: {summary['passed']}/{summary['total']} cases, "
        f"max_rel={summary['max_rel_err']:.3e}, runtime={dt:.1f}s (budget {budget_s:.0f}s)"
    )
    assert dt < budget_s, f"{name} exceeded its runtime budget: {dt:.1f}s"
    return report


def _assert_cases(report: VerifyReport, prefix: str | None = None):
    failing = [
        c for c in report.cases if not c.passed and (prefix is None or c.id.startswith(prefix))
    ]
    assert not failing, "failing cases: " + ", ".join(
        f"{c.id} (rel={c.rel_err:.2e}, tol={c.tol:g})" for c in failing[:10]
    )


@pytest.fixture(scope="module")
def addition_report() -> VerifyReport:
    return _run("addition", budget_s=60.0)


@pytest.fixture(scope="module")
def bfun_fourier_report() -> VerifyReport:
    return _run("bfun-fourier", budget_s=20.0)


def test_criterion_1_gamma_form_equivalence():
    # all derivative forms of the radial coefficient agree to rel 1e-10 over
    # every selection-rule-valid triple with l1, l2 <= 5, four profiles,
    # three radii
    report = _run("gamma-forms", budget_s=10.0)
    assert len(report.cases) >= 1000
    _assert_cases(report)


def test_criterion_2_hobson_closure():
    # closed-form operator application matches the Cartesian difference
    # oracle to 1e-6 of max(|target|, 0.2 |its radial factor|) for l <= 4
    # on gaussian and screened-Coulomb profiles, ten points each
    report = _run("hobson", budget_s=30.0)
    assert len(report.cases) == 240
    _assert_cases(report)


def test_criterion_3_gaunt_triple_agreement():
    # recurrence strings = exact rational single symbols (rel 1e-12, l <= 25)
    # = sphere quadrature (abs 1e-10, l <= 6)
    report = _run("gaunt", budget_s=20.0)
    _assert_cases(report, "gaunt/string")
    _assert_cases(report, "gaunt/quad")


def test_criterion_4_bfun_fourier_transform(bfun_fourier_report):
    # closed-form momentum representation matches the radial quadrature
    # transform to rel 1e-8 for n <= 2, l <= 3, three alphas, three momenta
    _assert_cases(bfun_fourier_report, "bfun-fourier/hankel")


def test_criterion_5_convolution_theorem():
    # analytic convolution combination matches momentum quadrature to
    # rel 1e-7 for n_i, l_i <= 2 at three displacement radii
    report = _run("convolution", budget_s=60.0)
    assert len(report.cases) == 243
    _assert_cases(report)


def test_criterion_6_power_addition_theorem(addition_report):
    # nu in {-3,-1,1.5}: truncated expansion reproduces direct evaluation to
    # rel 1e-8 at ratio 0.4 with outer shells <= 30; nu in {0,2,4}
    # terminates and matches to 1e-13 of max(|want|, 0.1 scale), scale =
    # (|r_<| + |r_>|)^(nu+l) sqrt((2l+1)/(4 pi)), i.e. rel 1e-13 wherever
    # |want| >= 0.1 scale and 1e-14 scale below; nu=-1, l=0 reproduces the
    # inverse-distance expansion to rel 1e-11
    _assert_cases(addition_report, "addition/power")
    _assert_cases(addition_report, "addition/terminating")
    _assert_cases(addition_report, "addition/laplace")


def test_criterion_7_solid_harmonic_shift(addition_report):
    # the finite shift identity holds to 1e-11 of max(|want|, 1e-2 scale),
    # scale = (|a| + |b|)^l sqrt((2l+1)/(4 pi)), for l <= 6 over 50 random
    # vector pairs (exercised inside the addition suite)
    shift_cases = [c for c in addition_report.cases if c.id.startswith("addition/shift")]
    assert len(shift_cases) == 50
    _assert_cases(addition_report, "addition/shift")


def test_criterion_8_momentum_functional_equations(bfun_fourier_report):
    # the three momentum-space identities hold with residuals < 1e-12 over
    # n in [-2, 4], l <= 3, three momentum magnitudes
    funceq = [c for c in bfun_fourier_report.cases if c.id.startswith("bfun-fourier/funceq")]
    worst = max(c.rel_err for c in funceq)
    status = "PASS" if all(c.passed for c in funceq) else "FAIL"
    print(f"[{status}] funceq: {len(funceq)} cases, max residual {worst:.3e}")
    assert funceq and all(c.passed for c in funceq)


def test_criterion_9_bessel_polynomial_exp_approximant(bfun_fourier_report):
    # Taylor coefficients of theta_n(z/2)/theta_n(-z/2) match e^z through
    # order 2n for n <= 5 (exact rational series division)
    pade = [c for c in bfun_fourier_report.cases if c.id.startswith("bfun-fourier/pade")]
    status = "PASS" if all(c.passed for c in pade) else "FAIL"
    print(f"[{status}] pade: {len(pade)} cases")
    assert len(pade) == 6 and all(c.passed for c in pade)


def test_criterion_10_cli_verify_all(tmp_path):
    # `verify all` exits 0 and emits a schema-valid JSON report covering the
    # named suites
    out_path = tmp_path / "report.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stgo_kit.cli", "verify", "all", "--json", str(out_path), "--seed", str(SEED)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    dt = time.perf_counter() - t0
    print(f"[{'PASS' if proc.returncode == 0 else 'FAIL'}] cli verify all: exit={proc.returncode}, runtime={dt:.1f}s")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    payload = json.loads(out_path.read_text())
    assert sorted(payload) == ["cases", "runtime_ms", "suite", "summary"]
    assert payload["suite"] == "all"
    assert payload["summary"]["passed"] == payload["summary"]["total"] > 2000
    for case in payload["cases"]:
        assert sorted(case) == ["abs_err", "id", "lhs", "pass", "rel_err", "rhs", "tol"]
    prefixes = {c["id"].split("/")[0] for c in payload["cases"]}
    assert prefixes == {"gamma-forms", "hobson", "gaunt", "bfun-fourier", "convolution", "addition"}
