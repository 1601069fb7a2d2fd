"""B functions: exponentially decaying spherical tensors with a rational
Fourier transform.

B_{n,l}^m(alpha, r) is a reduced Bessel function of half-integral order
times a regular solid harmonic, normalized by 2^(n+l) (n+l)!.  The pointwise
definition needs n + l >= 0; indices with n + l < 0 are representable (the
ladder and binomial identities keep holding) but evaluate only in a
distributional sense, so pointwise evaluation raises.  The momentum-space
form is a rational function of p^2 times a solid harmonic of -i p, which is
what makes convolution and derivative identities one-liners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DistributionalError, DomainError, SingularityError, UnsupportedError
from .harmonics import _lm, as_vec3, regular_solid, regular_solid_poly
from .special import khat_half, pochhammer
from .wigner import coupled_range, gaunt_string

_SQRT4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class BIndex:
    """Index block (n, l, m, alpha) of B_{n,l}^m(alpha, .)."""

    n: int
    l: int
    m: int
    alpha: float

    def __post_init__(self):
        if self.l < 0 or abs(self.m) > self.l:
            raise DomainError(f"invalid (l, m) = ({self.l}, {self.m})")
        if self.alpha <= 0:
            raise DomainError("alpha must be > 0")

    @property
    def classical(self) -> bool:
        """Pointwise evaluation defined iff n + l >= 0."""
        return self.n + self.l >= 0

    @property
    def basis_quality(self) -> bool:
        """n >= 1 marks indices suitable as basis functions."""
        return self.n >= 1


@dataclass
class BExpansion:
    """Finite linear combination of equal-alpha B functions."""

    terms: list  # [(coeff, BIndex)]

    @property
    def has_distributional(self) -> bool:
        return any(not idx.classical for _, idx in self.terms)

    def scaled(self, c) -> "BExpansion":
        return BExpansion([(coeff * c, idx) for coeff, idx in self.terms])

    def collected(self) -> "BExpansion":
        acc: dict = {}
        for coeff, idx in self.terms:
            acc[idx] = acc.get(idx, 0.0) + coeff
        return BExpansion([(c, i) for i, c in sorted(acc.items(), key=lambda kv: (kv[0].n, kv[0].l, kv[0].m)) if c != 0])

    def evaluate(self, r) -> complex:
        if self.has_distributional:
            raise DistributionalError(
                "expansion contains indices with n + l < 0; no pointwise value exists"
            )
        return sum((c * b_value(idx, r) for c, idx in self.terms), 0j)

    def fourier(self, p) -> complex:
        return sum((c * b_fourier(idx, p) for c, idx in self.terms), 0j)


def _inv_norm(n_plus_l: int) -> float:
    """[2^(n+l) (n+l)!]^(-1), log-space beyond 170 to avoid overflow."""
    if n_plus_l <= 170:
        return 1.0 / (2.0**n_plus_l * math.factorial(n_plus_l))
    return math.exp(-(n_plus_l * math.log(2.0) + math.lgamma(n_plus_l + 1)))


def b_value(idx: BIndex, r) -> complex:
    """Pointwise B_{n,l}^m(alpha, r); classical indices only."""
    if not idx.classical:
        raise DistributionalError(
            f"B with n + l = {idx.n + idx.l} < 0 has no classical pointwise value"
        )
    v = as_vec3(r)
    rr = math.sqrt(float(v @ v))
    n, l, alpha = idx.n, idx.l, idx.alpha
    if rr == 0.0:
        if l == 0:
            if n >= 1:
                # khat_{n-1/2}(0+) = 2^(n-1) (1/2)_{n-1}
                k0 = 2.0 ** (n - 1) * float(pochhammer(0.5, n - 1))
                return complex(_inv_norm(n) * k0 / _SQRT4PI)
            raise SingularityError("B_{0,0} diverges at the origin")
        # solid harmonic ~ r^l, khat ~ r^min(0, 2n-1): net exponent decides the limit
        exponent = l + min(0, 2 * n - 1)
        if exponent > 0:
            return 0j
        raise SingularityError(
            "no direction-independent limit at the origin for this index"
        )
    return _inv_norm(n + l) * khat_half(2 * n - 1, alpha * rr) * regular_solid((l, idx.m), alpha * v)


def b_fourier(idx: BIndex, p) -> complex:
    """Momentum form: (2/pi)^(1/2) alpha^(2n+l-1) / (alpha^2+p^2)^(n+l+1) * solid(-i p).

    A rational function of p^2; defined for every integer n, including the
    distribution-valued indices.
    """
    v = as_vec3(p)
    n, l, alpha = idx.n, idx.l, idx.alpha
    p2 = float(v @ v)
    poly = regular_solid_poly(l, idx.m)
    solid = poly.evaluate((-1j * v[0], -1j * v[1], -1j * v[2]))
    return math.sqrt(2.0 / math.pi) * alpha ** (2 * n + l - 1) / (alpha**2 + p2) ** (n + l + 1) * solid


def b_fourier_radial(idx: BIndex, p: float) -> complex:
    """Radial factor of the momentum form against Y_l^m: includes (-i)^l p^l."""
    n, l, alpha = idx.n, idx.l, idx.alpha
    return (
        math.sqrt(2.0 / math.pi)
        * alpha ** (2 * n + l - 1)
        * (-1j) ** l
        * p**l
        / (alpha**2 + p * p) ** (n + l + 1)
    )


def helmholtz_ladder(idx: BIndex) -> BExpansion:
    """[1 - alpha^-2 Laplacian] B_{n,l}^m = B_{n-1,l}^m; holds for all integer n."""
    return BExpansion([(1.0, BIndex(idx.n - 1, idx.l, idx.m, idx.alpha))])


def laplacian_power(idx: BIndex, nu: int) -> BExpansion:
    """alpha^(-2 nu) Laplacian^nu B_{n,l}^m as a binomial ladder combination."""
    if nu < 0:
        raise DomainError("nu must be >= 0")
    return BExpansion(
        [((-1.0) ** t * math.comb(nu, t), BIndex(idx.n - t, idx.l, idx.m, idx.alpha)) for t in range(nu + 1)]
    )


def stgo_on_scalar_b(op_idx, n_plus_l: int, alpha: float):
    """Operator (l, m) on the scalar B of order n_plus_l: one B function back.

    Returns (coefficient, BIndex) with
    operator_{l}^{m} B_{n_plus_l,0}^0 = coefficient * B_{n_plus_l - l, l}^m.
    """
    op = _lm(op_idx)
    coeff = (-alpha) ** op.l / _SQRT4PI
    return coeff, BIndex(n_plus_l - op.l, op.l, op.m, alpha)


def stgo_on_b(op_idx, target: BIndex) -> BExpansion:
    """Operator (l1, m1) on B_{n2,l2}^m2: Gaunt-coupled binomial ladder combination."""
    op = _lm(op_idx)
    l1, m1 = op.l, op.m
    n2, l2, m2, alpha = target.n, target.l, target.m, target.alpha
    out = []
    gstr = dict(gaunt_string(l1, m1, l2, m2))
    for l in coupled_range(l1, m1, l2, m2):
        g = gstr.get(l, 0.0)
        if g == 0.0:
            continue
        dl = (l1 + l2 - l) // 2
        for t in range(dl + 1):
            coeff = (-alpha) ** l1 * g * (-1.0) ** t * math.comb(dl, t)
            out.append((coeff, BIndex(n2 + l2 - l - t, l, m1 + m2, alpha)))
    return BExpansion(out).collected()


def convolve(a: BIndex, b: BIndex) -> BExpansion:
    """Convolution integral of two equal-alpha B functions, in closed form."""
    if a.alpha != b.alpha:
        raise UnsupportedError(
            "convolution is implemented for equal scaling parameters only"
        )
    alpha = a.alpha
    out = []
    gstr = dict(gaunt_string(a.l, a.m, b.l, b.m))
    for l in coupled_range(a.l, a.m, b.l, b.m):
        g = gstr.get(l, 0.0)
        if g == 0.0:
            continue
        dl = (a.l + b.l - l) // 2
        for t in range(dl + 1):
            coeff = 4.0 * math.pi / alpha**3 * g * (-1.0) ** t * math.comb(dl, t)
            out.append((coeff, BIndex(a.n + b.n + a.l + b.l - l - t + 1, l, a.m + b.m, alpha)))
    return BExpansion(out).collected()


def b_fourier_functional_check(idx: BIndex, p) -> tuple[float, float, float]:
    """Relative residuals (ladder, generator, constant) of the momentum identities at p.

    ladder:    B~_n = [alpha^2/(alpha^2+p^2)] B~_{n-1}
    generator: B~_{n,l} = [(4 pi)^(1/2)/alpha^l] solid(-i p) B~_{n+l,0}
    constant:  B~_{-1,0} = alpha^-3 (2 pi^2)^(-1/2)
    """
    v = as_vec3(p)
    alpha = idx.alpha
    p2 = float(v @ v)
    here = b_fourier(idx, v)
    scale = max(abs(here), 1e-300)

    lower = b_fourier(BIndex(idx.n - 1, idx.l, idx.m, alpha), v)
    res_a = abs(here - alpha**2 / (alpha**2 + p2) * lower) / scale

    scalar = b_fourier(BIndex(idx.n + idx.l, 0, 0, alpha), v)
    solid = regular_solid_poly(idx.l, idx.m).evaluate((-1j * v[0], -1j * v[1], -1j * v[2]))
    rhs = _SQRT4PI / alpha**idx.l * solid * scalar
    res_b = abs(here - rhs) / scale

    base = b_fourier(BIndex(-1, 0, 0, alpha), v)
    want = alpha ** (-3.0) / math.sqrt(2.0 * math.pi**2)
    res_c = abs(base - want) / abs(want)
    return res_a, res_b, res_c
