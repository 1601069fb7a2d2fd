"""Applications of the solid-harmonic derivative operator.

The operator of rank (l, m) is the regular solid harmonic with partial
derivatives substituted for the coordinates.  Its action never requires
Cartesian differentiation here: scalar targets go through the one-term
closed form (hobson_harmonic), rank-l2 tensor targets through the
Gaunt-coupled expansion with radial coefficient functions gamma_radial
(six equivalent derivative forms, form 1 being the production path), and
operator products through the linearization into single operators times
Laplacian powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .harmonics import LMIndex, _lm, as_vec3, regular_solid, HarmonicPolynomial
from .radial import RadialProfile
from .special import pochhammer
from .wigner import coupled_range, delta_quantities, gaunt_string

_COEFF_PRUNE = 1e-14


@dataclass(frozen=True)
class TensorTerm:
    """One summand coeff * radial(r) * Y_l^m(theta, phi)."""

    coeff: complex
    radial: RadialProfile
    angular: LMIndex

    def evaluate(self, r) -> complex:
        v = as_vec3(r)
        rr = math.sqrt(float(v @ v))
        l = self.angular.l
        if rr == 0.0:
            raise DomainError("tensor term evaluation at the origin is profile-dependent; evaluate radial separately")
        y = regular_solid(self.angular, v) * rr ** (-l)
        return self.coeff * self.radial.value(rr) * y


@dataclass
class TensorExpansion:
    """Finite sum of tensor terms; the result type of operator applications."""

    terms: list = field(default_factory=list)

    def evaluate(self, r) -> complex:
        return sum((t.evaluate(r) for t in self.terms), 0j)

    def scaled(self, c) -> "TensorExpansion":
        return TensorExpansion([TensorTerm(t.coeff * c, t.radial, t.angular) for t in self.terms])

    def __add__(self, other: "TensorExpansion") -> "TensorExpansion":
        return TensorExpansion(list(self.terms) + list(other.terms))

    def pruned(self) -> "TensorExpansion":
        """Drop terms whose weight is float dust relative to the largest term.

        Weight is |coeff| times the atom mass of the radial part, so exact
        selection-rule zeros that merged away inside the radial profile are
        removed as well.
        """
        weights = []
        for t in self.terms:
            mass = sum(abs(c) for c, _, _ in t.radial.terms)
            weights.append(abs(t.coeff) * mass)
        if not weights:
            return self
        cap = max(weights)
        if cap == 0.0:
            return TensorExpansion([])
        keep = [t for t, w in zip(self.terms, weights) if w > _COEFF_PRUNE * cap]
        return TensorExpansion(keep)

    def collect(self) -> "TensorExpansion":
        """Merge terms with identical angular index by adding radial parts (unit coeff)."""
        by_lm: dict = {}
        for t in self.terms:
            prof = t.radial.scaled(t.coeff)
            key = (t.angular.l, t.angular.m)
            by_lm[key] = by_lm[key] + prof if key in by_lm else prof
        return TensorExpansion(
            [TensorTerm(1.0 + 0j, prof, LMIndex(l, m)) for (l, m), prof in sorted(by_lm.items())]
        )


def hobson_general(p: HarmonicPolynomial, big_f: RadialProfile):
    """Apply the homogeneous-polynomial derivative operator p(d/dx,d/dy,d/dz) to F(r^2).

    Returns a callable of a 3-vector.  F is differentiated with respect to
    r^2 (i.e. (1/2r) d/dr); the polynomial is hit with formal Laplacian
    powers.  When p is harmonic only the undifferentiated polynomial
    survives.
    """
    n = p.degree
    pieces = []
    poly = p
    f_derivs = [big_f]
    for _ in range(n):
        f_derivs.append(f_derivs[-1].inv_r_ddr(1).scaled(0.5))  # d/d(r^2) = (1/2r) d/dr
    for nu in range(n + 1):
        if nu > 0:
            poly = poly.laplacian()
            if poly.is_zero():
                break
        coeff = 2.0 ** (n - 2 * nu) / math.factorial(nu)
        pieces.append((coeff, f_derivs[n - nu], poly))

    def apply(r) -> complex:
        v = as_vec3(r)
        rr = math.sqrt(float(v @ v))
        total = 0j
        for coeff, prof, q in pieces:
            total += coeff * prof.value(rr) * q.evaluate(v)
        return total

    return apply


def hobson_harmonic(idx, phi: RadialProfile) -> TensorExpansion:
    """Closed one-term form for the operator on a scalar profile.

    The result is [(1/r d/dr)^l phi] times the regular solid harmonic, i.e.
    the radial part carried by Y_l^m is r^l (1/r d/dr)^l phi.
    """
    idx = _lm(idx)
    radial = phi.inv_r_ddr(idx.l).times_power(idx.l)
    return TensorExpansion([TensorTerm(1.0 + 0j, radial, idx)])


def _poch_half(num: int, n: int) -> Fraction:
    """Exact Pochhammer of a half-integer argument num/2."""
    return pochhammer(Fraction(num, 2), n)


def gamma_radial_profile(form: int, l1: int, l2: int, l: int, f: RadialProfile) -> RadialProfile:
    """Radial coefficient gamma_{l1 l2}^l as a profile, by the selected derivative form."""
    d = delta_quantities(l1, l2, l)
    dl, dl1, dl2, sig = d.delta_l, d.delta_l1, d.delta_l2, d.sigma_l
    if form == 1:
        base = f.divided_by_power(l2)
        out = RadialProfile.zero()
        for q in range(dl + 1):
            c = pochhammer(-dl, q) * _poch_half(-2 * sig - 1, q) * Fraction(2**q, math.factorial(q))
            piece = base.inv_r_ddr(l1 - q).times_power(l1 + l2 - 2 * q).scaled(float(c))
            out = out + piece
        return out
    if form == 2:
        return f.divided_by_power(l2).inv_r_ddr(dl2).times_power(l1 + l2 + l + 1).inv_r_ddr(dl).times_power(-l - 1)
    if form == 3:
        return f.times_power(l2 + 1).inv_r_ddr(dl).times_power(l1 - l2 - l - 1).inv_r_ddr(dl2).times_power(l)
    if form == 4:
        if l2 < l:
            raise DomainError("form 4 requires l2 >= l")
        return (
            f.times_power(l2 + 1)
            .inv_r_ddr(l2 - l)
            .times_power(-2 * l - 1)
            .inv_r_ddr(dl2)
            .times_power(l1 - l2 + 3 * l + 1)
            .inv_r_ddr(dl2)
            .times_power(-l - 1)
        )
    if form == 5:
        if l < l2:
            raise DomainError("form 5 requires l >= l2")
        return (
            f.divided_by_power(l2)
            .inv_r_ddr(l - l2)
            .times_power(2 * l + 1)
            .inv_r_ddr(dl)
            .times_power(l1 + l2 - 3 * l - 1)
            .inv_r_ddr(dl)
            .times_power(l)
        )
    if form == 6:
        out = RadialProfile.zero()
        base = f.times_power(l2 + 1)
        for s in range(dl2 + 1):
            c = pochhammer(-dl2, s) * _poch_half(2 * dl1 + 1, s) * Fraction(2**s, math.factorial(s))
            piece = base.inv_r_ddr(l1 - s).times_power(l1 - l2 - 2 * s - 1).scaled(float(c))
            out = out + piece
        return out
    raise DomainError(f"gamma form must be 1..6, got {form}")


def gamma_radial(form: int, l1: int, l2: int, l: int, f: RadialProfile, r: float):
    """Value of gamma_{l1 l2}^l(r)."""
    if r <= 0:
        raise DomainError("gamma_radial needs r > 0")
    return gamma_radial_profile(form, l1, l2, l, f).value(r)


def apply_to_tensor(op_idx, target: TensorTerm, form: int = 1) -> TensorExpansion:
    """Operator of rank (l1, m1) applied to coeff * f(r) Y_{l2}^{m2}.

    Expands into Gaunt coefficients times gamma radial profiles times
    surface harmonics over the coupled l range.
    """
    op = _lm(op_idx)
    l1, m1 = op.l, op.m
    l2, m2 = target.angular.l, target.angular.m
    out = []
    gstr = dict(gaunt_string(l1, m1, l2, m2))
    for l in coupled_range(l1, m1, l2, m2):
        g = gstr.get(l, 0.0)
        if g == 0.0:
            continue
        prof = gamma_radial_profile(form, l1, l2, l, target.radial)
        out.append(TensorTerm(target.coeff * g, prof, LMIndex(l, m1 + m2)))
    return TensorExpansion(out).pruned()


def apply_expansion(op_idx, target: TensorExpansion, form: int = 1) -> TensorExpansion:
    """Apply the operator to every term of an expansion."""
    out = TensorExpansion([])
    for t in target.terms:
        out = out + apply_to_tensor(op_idx, t, form)
    return out.pruned()


def stgo_product_linearize(idx1, idx2) -> list:
    """Product of two operators as sum of gaunt * laplacian^power * single operator.

    Returns [(l, gaunt_coefficient, laplacian_power)] with power the half-sum
    (l1 + l2 - l)/2.
    """
    i1, i2 = _lm(idx1), _lm(idx2)
    gstr = dict(gaunt_string(i1.l, i1.m, i2.l, i2.m))
    out = []
    for l in coupled_range(i1.l, i1.m, i2.l, i2.m):
        g = gstr.get(l, 0.0)
        if g == 0.0:
            continue
        out.append((l, g, (i1.l + i2.l - l) // 2))
    return out


def laplacian_on_solid(radial: RadialProfile, l: int, times: int = 1) -> RadialProfile:
    """Radial image of the Laplacian acting on psi(r) * (regular solid harmonic of rank l).

    One application maps psi to psi'' + (2l+2)/r psi'.  `radial` is the
    coefficient of the *solid* harmonic (degree-l polynomial), not of Y_l^m.
    """
    prof = radial
    for _ in range(times):
        d1 = prof.ddr()
        prof = d1.ddr() + d1.times_power(-1).scaled(2 * l + 2)
    return prof


def apply_via_generator(op_idx, gen_idx, phi: RadialProfile) -> TensorExpansion:
    """Operator (l1, m1) applied to the tensor generated as operator (l2, m2) on phi.

    Uses the operator-product linearization: each coupled l contributes
    gaunt * laplacian^((l1+l2-l)/2) [ ((1/r d/dr)^l phi) * solid_l^{m1+m2} ].
    """
    op, gen = _lm(op_idx), _lm(gen_idx)
    out = []
    for l, g, power in stgo_product_linearize(op, gen):
        psi = phi.inv_r_ddr(l)  # coefficient of the solid harmonic of rank l
        psi = laplacian_on_solid(psi, l, power)
        radial = psi.times_power(l)  # back to the Y_l^m convention
        out.append(TensorTerm(complex(g), radial, LMIndex(l, op.m + gen.m)))
    return TensorExpansion(out).pruned()


def leibniz(idx, f_terms: TensorExpansion, g_terms: TensorExpansion, form: int = 1) -> TensorExpansion:
    """Product rule for the operator on a pointwise product f * g.

    Splits the rank-l operator over the two factors with half-integer
    Pochhammer weights and Gaunt coefficients, applies each partial operator
    by apply_to_tensor, and linearizes the resulting harmonic products.
    """
    idx = _lm(idx)
    l, m = idx.l, idx.m
    out = TensorExpansion([])
    for lam in range(l + 1):
        pref = 2.0 * math.pi * float(
            _poch_half(1, l + 1) / (_poch_half(1, lam + 1) * _poch_half(1, l - lam + 1))
        )
        for mu in range(-lam, lam + 1):
            if abs(m + mu) > l - lam:
                continue
            gstr = dict(gaunt_string(lam, -mu, l - lam, m + mu))
            g1 = gstr.get(l, 0.0)
            if g1 == 0.0:
                continue
            part_f = apply_expansion((lam, -mu), f_terms, form)
            part_g = apply_expansion((l - lam, m + mu), g_terms, form)
            for ta in part_f.terms:
                for tb in part_g.terms:
                    la, ma = ta.angular.l, ta.angular.m
                    lb, mb = tb.angular.l, tb.angular.m
                    prod = ta.radial.product(tb.radial)
                    lin = dict(gaunt_string(la, ma, lb, mb))
                    for ll in coupled_range(la, ma, lb, mb):
                        gl = lin.get(ll, 0.0)
                        if gl == 0.0:
                            continue
                        coeff = pref * g1 * ta.coeff * tb.coeff * gl
                        out.terms.append(TensorTerm(coeff, prod, LMIndex(ll, ma + mb)))
    return out.pruned()


def as_scalar_expansion(profile: RadialProfile) -> TensorExpansion:
    """The plain rotation-invariant function phi(r), i.e. sqrt(4 pi) * phi * Y_0^0."""
    return TensorExpansion([TensorTerm(complex(math.sqrt(4.0 * math.pi)), profile, LMIndex(0, 0))])
