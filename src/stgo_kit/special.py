"""Scalar special functions and exact combinatorial prefactors.

Everything here is a pure function.  Exact quantities (double factorials,
Pochhammer symbols of rational arguments, Bessel-polynomial coefficients)
are computed in integer / Fraction arithmetic and converted to float once,
at the outermost multiplication; this keeps Gaunt-weighted sums stable up
to l ~ 20 and beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConvergenceError, DomainError

# Exact rationals are plain fractions.Fraction throughout the package.
Rational = Fraction

_SERIES_TOL = 1e-15
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameter block of a (terminating or convergent) hypergeometric series."""

    upper: tuple
    lower: tuple
    argument: float

    def __post_init__(self):
        n_terminate = _termination_index(self.upper)
        for b in self.lower:
            if _is_nonpos_int(b):
                k_pole = 1 - int(round(float(b)))  # series index where (b)_k first hits 0
                if n_terminate is None or n_terminate >= k_pole:
                    raise DomainError(
                        f"lower parameter {b} is a non-positive integer not rescued by termination"
                    )


def _is_nonpos_int(x, tol: float = 1e-12) -> bool:
    if isinstance(x, (int, Fraction)):
        return x <= 0 and (isinstance(x, int) or x.denominator == 1)
    return x <= tol and abs(x - round(x)) < tol


def _termination_index(uppers):
    """Smallest n >= 0 with some upper parameter equal to -n, else None."""
    best = None
    for a in uppers:
        if _is_nonpos_int(a):
            n = -int(round(float(a)))
            best = n if best is None else min(best, n)
    return best


def double_factorial(n: int) -> int:
    """n!! with the convention 0!! = 1!! = (-1)!! = 1."""
    if n < -1:
        raise DomainError(f"double factorial undefined for n = {n} < -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exact for int/Fraction a."""
    if n < 0:
        raise DomainError("pochhammer order must be >= 0")
    result = a**0  # 1 in the arithmetic of a
    for k in range(n):
        result = result * (a + k)
    return result


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


def hyp1f1_terminating(n: int, b, z: float) -> float:
    """Terminating 1F1(-n; b; z), the ratio (-n)_k / (b)_k built term by term.

    With b = -2n both parameters are non-positive integers; the running-product
    convention evaluates the k = 0..n terms before any 0/0 can form, which is
    the convention under which the half-integer reduced Bessel closed form is
    an identity.
    """
    if n < 0:
        raise DomainError("upper parameter must be -n with n >= 0")
    if _is_nonpos_int(b) and -float(b) < n - 1e-12:
        raise DomainError(f"series ill-defined: lower parameter {b} vanishes before termination")
    total = 1.0
    term = 1.0
    bf = float(b)
    for k in range(n):
        term *= (-n + k) / (bf + k) * z / (k + 1)
        total += term
    return total


def hyp2f1(a, b, c, x: float, tol: float = _SERIES_TOL) -> float:
    """Gauss hypergeometric series 2F1(a, b; c; x).

    Terminating cases (a or b a non-positive integer) are summed exactly as
    polynomials for any x.  Otherwise |x| < 1 is required; for x close to 1
    the 1-x connection formula is used when c-a-b is not an integer, since
    the direct series slows down as (1-x)^-1.
    """
    a, b, c, x = float(a), float(b), float(c), float(x)
    n_term = _termination_index((a, b))
    if _is_nonpos_int(c) and (n_term is None or n_term > -int(round(c))):
        raise DomainError(f"lower parameter c = {c} hits a pole before termination")
    if n_term is not None:
        total = 1.0
        term = 1.0
        for k in range(n_term):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
            total += term
        return total
    if abs(x) >= 1.0:
        raise DomainError(f"non-terminating 2F1 requires |x| < 1, got {x}")
    if x > 0.75:
        cab = c - a - b
        pole_free = abs(cab - round(cab)) > 1e-8 and not any(
            _is_nonpos_int(t) for t in (a, b, c - a, c - b)
        )
        if pole_free:
            # Connection formula at 1-x; both series see argument 1-x < 0.25.
            g = math.gamma
            t1 = g(c) * g(cab) / (g(c - a) * g(c - b)) * _gauss_series(a, b, a + b - c + 1, 1 - x, tol)
            t2 = (
                (1 - x) ** cab
                * g(c)
                * g(-cab)
                / (g(a) * g(b))
                * _gauss_series(c - a, c - b, cab + 1, 1 - x, tol)
            )
            return t1 + t2
    return _gauss_series(a, b, c, x, tol)


def _gauss_series(a: float, b: float, c: float, x: float, tol: float) -> float:
    total = 1.0
    term = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        total += term
        if abs(term) <= tol * abs(total) and k > 2:
            return total
    raise ConvergenceError(f"2F1({a},{b};{c};{x}) did not converge in {_MAX_TERMS} terms")


@lru_cache(maxsize=None)
def _theta_coefficients(n: int) -> tuple:
    """Exact coefficients of the Bessel polynomial: theta_n(z) = sum_k c_k z^k."""
    return tuple(
        Fraction(math.factorial(2 * n - k), math.factorial(n - k) * math.factorial(k) * 2 ** (n - k))
        for k in range(n + 1)
    )


def bessel_polynomial_theta(n: int, z: float) -> float:
    """Bessel polynomial theta_n(z) = e^z * khat_{n+1/2}(z), degree n."""
    if n < 0:
        raise DomainError("theta_n defined for n >= 0")
    coeffs = _theta_coefficients(n)
    total = 0.0
    for c in reversed(coeffs):
        total = total * z + float(c)
    return total


def khat_half(two_nu: int, z: float) -> float:
    """Reduced Bessel function khat_nu(z) for half-integral nu = two_nu / 2.

    Negative orders come from khat_{-nu}(z) = z^{-2 nu} khat_nu(z)
    (K_{-nu} = K_nu); positive half-integral orders use the exponential
    times Bessel-polynomial closed form.
    """
    if two_nu % 2 == 0:
        raise DomainError("khat_half expects an odd two_nu (half-integral order)")
    if z <= 0:
        raise DomainError("khat requires z > 0")
    if two_nu < 0:
        return z**two_nu * khat_half(-two_nu, z)
    n = (two_nu - 1) // 2
    return math.exp(-z) * bessel_polynomial_theta(n, z)


def khat(nu, z: float) -> float:
    """Reduced Bessel function khat_nu(z) = (2/pi)^(1/2) z^nu K_nu(z), z > 0.

    Half-integral nu is the closed-form hot path.  Other real orders are
    evaluated through the integral K_nu(z) = int_0^inf e^{-z cosh t} cosh(nu t) dt
    with a doubling trapezoid rule; the integrand is even in t and decays
    doubly exponentially, so the rule converges geometrically.
    """
    if z <= 0:
        raise DomainError("khat requires z > 0")
    two_nu = 2 * float(nu)
    if abs(two_nu - round(two_nu)) < 1e-14 and int(round(two_nu)) % 2 != 0:
        return khat_half(int(round(two_nu)), z)
    return math.sqrt(2.0 / math.pi) * z ** float(nu) * _bessel_k_integral(float(nu), z)


def _bessel_k_integral(nu: float, z: float) -> float:
    nu = abs(nu)
    # e^{-z cosh t} below ~1e-320 contributes nothing representable.
    t_max = math.acosh(max(740.0 / z, 2.0))
    h = 0.5
    prev = None
    for _ in range(14):
        n = int(t_max / h) + 1
        s = 0.5 * math.exp(-z)  # t = 0 endpoint, cosh(0) = 1
        for i in range(1, n + 1):
            t = i * h
            e = -z * math.cosh(t)
            if e < -745.0:
                break
            s += math.exp(e) * math.cosh(nu * t)
        val = s * h
        if prev is not None and abs(val - prev) <= 1e-15 * abs(val):
            return val
        prev = val
        h *= 0.5
    return prev


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x); downward recurrence below the turning point."""
    if l < 0:
        raise DomainError("j_l defined for l >= 0")
    ax = abs(x)
    if ax < 1e-7:
        # leading term of the ascending series
        val = ax**l / double_factorial(2 * l + 1) * (1.0 - ax * ax / (2.0 * (2 * l + 3)))
        return val if (x >= 0 or l % 2 == 0) else -val
    if l == 0:
        return math.sin(x) / x
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if l == 1:
        return j1
    if ax > l:
        jm, j = j0, j1
        for n in range(1, l):
            jm, j = j, (2 * n + 1) / x * j - jm
        return j
    # Miller's algorithm: downward recurrence from a padded start, normalized by
    # the larger of j0 and j1 (at a zero of one the other is near its extremum).
    start = l + int(2 * math.sqrt(ax) * ax / (ax + 1)) + 20
    jp, j = 0.0, 1e-30
    target = 0.0
    for n in range(start, 0, -1):
        jm = (2 * n + 1) / x * j - jp
        jp, j = j, jm
        if n - 1 == l:
            target = j
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            target *= 1e-250
    if abs(j0) >= abs(j1):
        return target * (j0 / j)
    return target * (j1 / jp)
