"""Scalar special functions against independent oracles.

Expected values marked as frozen were computed once with the brute-force
oracle implemented alongside the test (direct term summation, quadrature of
the K_nu integral representation) and hard-coded.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgo_kit.errors import DomainError
from stgo_kit.special import (
    HypergeometricParams,
    bessel_polynomial_theta,
    double_factorial,
    hyp1f1_terminating,
    hyp2f1,
    khat,
    khat_half,
    pochhammer,
    spherical_bessel_j,
)


# ---------------------------------------------------------------------------
# oracles

def oracle_1f1_sum(n, b, z):
    """Direct (n+1)-term sum with the running-product ratio convention."""
    total, term = 1.0, 1.0
    for k in range(n):
        term *= (-n + k) / (b + k) * z / (k + 1)
        total += term
    return total


def oracle_2f1_series(a, b, c, x, terms=10000):
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        total += term
    return total


def oracle_bessel_k_quad(nu, z, n=40000, t_max=30.0):
    """Trapezoid quadrature of the cosh integral representation of K_nu."""
    h = t_max / n
    s = 0.5 * math.exp(-z)
    for i in range(1, n + 1):
        t = i * h
        e = -z * math.cosh(t)
        if e < -745:
            break
        s += math.exp(e) * math.cosh(nu * t)
    return s * h


def oracle_spherical_j_series(l, x, terms=60):
    total = 0.0
    for k in range(terms):
        num = (-x * x / 2.0) ** k
        den = math.factorial(k) * double_factorial(2 * l + 2 * k + 1)
        total += num / den
    return x**l * total


# ---------------------------------------------------------------------------
# double factorial / pochhammer

def test_double_factorial_values():
    assert double_factorial(7) == 105
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(6) == 48


def test_double_factorial_domain():
    with pytest.raises(DomainError):
        double_factorial(-2)


@given(st.integers(min_value=0, max_value=15))
def test_double_factorial_product_identity(n):
    assert double_factorial(2 * n) * double_factorial(2 * n - 1) == math.factorial(2 * n)


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(3.7, 0) == 1
    assert pochhammer(-3, 5) == 0


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=20),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_pochhammer_splitting_identity(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


# ---------------------------------------------------------------------------
# hypergeometric

def test_1f1_terminating_examples():
    assert hyp1f1_terminating(0, 0, 2.0) == 1.0
    # n=1, b=-2, z=2: term k=1 is (-1)/(-2) * 2 = 1
    assert hyp1f1_terminating(1, -2, 2.0) == pytest.approx(2.0, rel=1e-15)
    got = hyp1f1_terminating(2, -4, 2.0)
    assert got == pytest.approx(oracle_1f1_sum(2, -4, 2.0), rel=1e-15)


def test_1f1_ill_defined_lower():
    with pytest.raises(DomainError):
        hyp1f1_terminating(3, -2, 1.0)


def test_hypergeometric_params_validation():
    with pytest.raises(DomainError):
        HypergeometricParams(upper=(0.5,), lower=(-1.0,), argument=0.3)
    HypergeometricParams(upper=(-2.0,), lower=(-4.0,), argument=0.3)  # rescued


def test_2f1_trivial_and_paper_cases():
    assert hyp2f1(1.3, 0.0, 2.7, 0.4) == 1.0
    for lam in range(6):
        assert hyp2f1(lam + 0.5, 0.0, lam + 1.5, 0.77) == 1.0


def test_2f1_log_closed_form():
    # 2F1(1,1;2;x) = -log(1-x)/x; frozen from the 10000-term oracle at x=0.5
    x = 0.5
    oracle = oracle_2f1_series(1.0, 1.0, 2.0, x)
    assert oracle == pytest.approx(-math.log(1 - x) / x, rel=1e-14)
    assert hyp2f1(1.0, 1.0, 2.0, x) == pytest.approx(oracle, rel=1e-14)


@given(st.integers(min_value=0, max_value=8), st.floats(min_value=-0.9, max_value=0.9))
@settings(max_examples=60)
def test_2f1_terminating_is_polynomial_sum(k, x):
    a, c = 1.7, 2.3
    got = hyp2f1(a, -k, c, x)
    want = sum(
        float(pochhammer(Fraction(17, 10), j) * pochhammer(-k, j) / pochhammer(Fraction(23, 10), j))
        * x**j
        / math.factorial(j)
        for j in range(k + 1)
    )
    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_2f1_near_unit_argument_uses_connection():
    # Gauss summation: 2F1(a, b; c; 1) ~ ratio of gammas; at x = 0.97 the
    # direct series would need thousands of terms
    a, b, c = 0.3, 0.4, 2.6
    got = hyp2f1(a, b, c, 0.97)
    want = oracle_2f1_series(a, b, c, 0.97, terms=2_000_000)
    assert got == pytest.approx(want, rel=1e-12)


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.7, -2.0, 0.3)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.7, 1.5, 1.0)


# ---------------------------------------------------------------------------
# reduced Bessel functions

def test_khat_half_integer_closed_forms():
    for z in (0.3, 1.0, 4.2):
        assert khat(0.5, z) == pytest.approx(math.exp(-z), rel=1e-15)
        assert khat(1.5, z) == pytest.approx((1 + z) * math.exp(-z), rel=1e-15)
        # Yukawa form: z * khat_{-1/2}(z) = e^{-z}
        assert z * khat(-0.5, z) == pytest.approx(math.exp(-z), rel=1e-15)


def test_khat_32_against_quadrature_oracle():
    z = 1.0
    want = math.sqrt(2 / math.pi) * z**1.5 * oracle_bessel_k_quad(1.5, z)
    assert khat(1.5, z) == pytest.approx(want, rel=1e-12)
    assert khat(1.5, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)


def test_khat_general_order_against_quadrature():
    for nu in (0.3, 1.7, -0.8, 2.25):
        for z in (0.4, 1.0, 3.0):
            want = math.sqrt(2 / math.pi) * z**nu * oracle_bessel_k_quad(abs(nu), z)
            assert khat(nu, z) == pytest.approx(want, rel=1e-11)


def test_khat_domain():
    with pytest.raises(DomainError):
        khat(0.5, 0.0)


@pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
def test_khat_three_term_recurrence(z):
    # khat_{nu+1}(z) = 2 nu khat_nu(z) + z^2 khat_{nu-1}(z), half-integral nu
    for two_nu in range(1, 20, 2):  # nu = 1/2 ... 19/2 -> nu+1 <= 21/2
        nu = two_nu / 2.0
        lhs = khat_half(two_nu + 2, z)
        rhs = 2 * nu * khat_half(two_nu, z) + z * z * khat_half(two_nu - 2, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_theta_polynomial():
    assert bessel_polynomial_theta(0, 5.0) == 1.0
    assert bessel_polynomial_theta(1, 3.0) == pytest.approx(4.0, rel=1e-15)
    for n in range(6):
        z = 0.8
        assert bessel_polynomial_theta(n, z) == pytest.approx(
            math.exp(z) * khat_half(2 * n + 1, z), rel=1e-13
        )
        # value at zero: 2^n (1/2)_n, the z -> 0+ limit of e^z khat
        assert bessel_polynomial_theta(n, 0.0) == pytest.approx(
            2.0**n * float(pochhammer(Fraction(1, 2), n)), rel=1e-15
        )


def test_pade_ratio_of_theta_matches_exp():
    # diagonal rational approximation: theta_n(z/2)/theta_n(-z/2) agrees with
    # e^z through order 2n; exact rational series division
    from stgo_kit.special import _theta_coefficients

    for n in range(6):
        coeffs = _theta_coefficients(n)
        num = [c * Fraction(1, 2**k) for k, c in enumerate(coeffs)]
        den = [c * Fraction((-1) ** k, 2**k) for k, c in enumerate(coeffs)]
        rem = list(num) + [Fraction(0)] * (2 * n + 1)
        out = []
        for k in range(2 * n + 1):
            c = rem[k] / den[0]
            out.append(c)
            for j in range(1, len(den)):
                if k + j < len(rem):
                    rem[k + j] -= c * den[j]
        for k, c in enumerate(out):
            assert c == Fraction(1, math.factorial(k))


# ---------------------------------------------------------------------------
# spherical Bessel

def test_spherical_j_basics():
    assert spherical_bessel_j(0, 1e-12) == pytest.approx(1.0, abs=1e-12)
    assert spherical_bessel_j(1, 0.0) == 0.0
    assert spherical_bessel_j(0, 2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)


def test_spherical_j_vs_series_oracle():
    for l in range(0, 8):
        for x in (0.3, 2.0, 5.5):
            want = oracle_spherical_j_series(l, x)
            assert spherical_bessel_j(l, x) == pytest.approx(want, rel=1e-11, abs=1e-16)


def test_spherical_j5_frozen_from_series():
    # frozen: 60-term ascending series at l=5, x=2.0
    assert oracle_spherical_j_series(5, 2.0) == pytest.approx(0.002635169770244117, rel=1e-13, abs=0)
    assert spherical_bessel_j(5, 2.0) == pytest.approx(0.002635169770244117, rel=1e-11, abs=0)


def test_spherical_j_at_zeros_of_j0_vs_mpmath():
    # at x = k*pi, j0 vanishes and Miller's recurrence must be normalised by j1
    mpmath = pytest.importorskip("mpmath")
    for l in (5, 8, 12, 20, 40):
        for k in range(1, l):
            x = k * math.pi
            if x >= l:
                break
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                want = float(mpmath.sqrt(mpmath.pi / (2 * xm)) * mpmath.besselj(l + mpmath.mpf(1) / 2, xm))
            assert spherical_bessel_j(l, x) == pytest.approx(want, rel=1e-13, abs=0)


@given(
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=0.5, max_value=6.0),
)
@settings(max_examples=60)
def test_1f1_terminating_matches_direct_sum(n, z, b_shift):
    b = -2 * n - b_shift  # safely below the forbidden band (-n, 0]
    assert hyp1f1_terminating(n, b, z) == pytest.approx(oracle_1f1_sum(n, b, z), rel=1e-12, abs=1e-12)
