"""Pointwise two-range addition theorems and the tensor translation operator.

All expansions here separate a function of r + r' into products of solid
harmonics of the smaller and the larger vector.  The solid-harmonic shift is
a finite (exact) sum; the power-law expansions are infinite with
geometric-in-(r_</r_>) outer convergence and are truncated under explicit
error control.  Termination for even non-negative powers falls out of the
vanishing Pochhammer prefactors, so those cases are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DomainError, ParameterSingularityError
from .harmonics import _lm, as_vec3, regular_solid, ylm_table
from .special import hyp2f1, pochhammer
from .wigner import gaunt, gaunt_string

_SQRT4PI = math.sqrt(4.0 * math.pi)
_FLOOR = 1e-300


@dataclass(frozen=True)
class SplitPair:
    """Ordered pair with |r_lt| < |r_gt| strictly."""

    r_lt: np.ndarray
    r_gt: np.ndarray

    @classmethod
    def from_vectors(cls, r, rp) -> "SplitPair":
        a, b = as_vec3(r), as_vec3(rp)
        na, nb = float(a @ a), float(b @ b)
        if na == nb:
            raise BoundaryError("|r| = |r'| lies on the convergence boundary")
        return cls(a, b) if na < nb else cls(b, a)

    def __post_init__(self):
        a, b = as_vec3(self.r_lt), as_vec3(self.r_gt)
        if float(a @ a) >= float(b @ b):
            raise BoundaryError("SplitPair requires |r_lt| < |r_gt| strictly")

    @property
    def ratio(self) -> float:
        return math.sqrt(float(self.r_lt @ self.r_lt) / float(self.r_gt @ self.r_gt))


@dataclass(frozen=True)
class TruncationSpec:
    """Outer-shell cap, relative tolerance, and a hard term budget."""

    l_max_outer: int = 30
    tol: float = 1e-10
    max_terms: int = 2_000_000

    def __post_init__(self):
        if self.tol <= 0:
            raise DomainError("tol must be > 0")
        if self.l_max_outer < 0:
            raise DomainError("l_max_outer must be >= 0")


@dataclass(frozen=True)
class AdditionResult:
    value: complex
    outer_l_used: int
    est_error: float
    converged: bool


class _ShellAccumulator:
    """Convergence bookkeeping: the last two shells' magnitudes bound the tail."""

    def __init__(self, tol: float):
        self.tol = tol
        self.value = 0j
        self.prev = math.inf
        self.last = math.inf
        self.outer_used = 0
        self.converged = False

    def add(self, l_shell: int, contribution: complex):
        self.value += contribution
        mag = abs(contribution)
        if mag != 0.0:
            self.outer_used = l_shell
        self.prev, self.last = self.last, mag
        scale = max(abs(self.value), _FLOOR)
        if self.prev + self.last <= self.tol * scale:
            self.converged = True

    @property
    def est_error(self) -> float:
        if math.isinf(self.prev):
            return math.inf
        return self.prev + self.last

    def result(self) -> AdditionResult:
        return AdditionResult(self.value, self.outer_used, self.est_error, self.converged)


def solid_harmonic_shift(idx, r, rp) -> complex:
    """Regular solid harmonic of r + r' as a finite Gaunt-coupled double sum.

    Exact (no truncation): the shift of a degree-l harmonic polynomial is a
    polynomial identity.
    """
    idx = _lm(idx)
    l, m = idx.l, idx.m
    a, b = as_vec3(r), as_vec3(rp)
    total = 0j
    for lam in range(l + 1):
        pref = 2.0 * math.pi * float(
            pochhammer(0.5, l + 1) / (pochhammer(0.5, lam + 1) * pochhammer(0.5, l - lam + 1))
        )
        for mu in range(-lam, lam + 1):
            if abs(m + mu) > l - lam:
                continue
            g = gaunt(lam, -mu, l - lam, m + mu, l, m)
            if g == 0.0:
                continue
            total += pref * g * regular_solid((lam, -mu), a) * regular_solid((l - lam, m + mu), b)
    return total


def laplace_expansion(r, rp, sign: int = 1, trunc: TruncationSpec = TruncationSpec()) -> AdditionResult:
    """Two-range expansion of 1 / |r + sign*r'|: the power expansion at nu = -1."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return power_scalar_addition(-1.0, SplitPair.from_vectors(r, sign * as_vec3(rp)), trunc)


def power_scalar_addition(nu: float, pair: SplitPair, trunc: TruncationSpec = TruncationSpec()) -> AdditionResult:
    """Two-range expansion of |r_< + r_>|^nu (real power of the distance).

    The l = 0 case of power_solid_addition, whose solid harmonic is the
    constant 1/sqrt(4 pi).  For nu = 2n >= 0 every shell beyond n vanishes
    and the expansion is a terminating polynomial identity.
    """
    res = power_solid_addition(nu, (0, 0), pair, trunc)
    return AdditionResult(_SQRT4PI * res.value, res.outer_l_used, _SQRT4PI * res.est_error, res.converged)


def _radial_factor(nu: float, l: int, l1: int, l2: int, nlt: float, ngt: float, x2: float) -> float:
    """The (l1, l2) term of power_solid_addition without its harmonics and Gaunt coefficient.

    The second factor of the Pochhammer cluster, ((nu + 2*dl1 + 3)/2)_dl2, is
    the one consistent with the operator-identity derivation and with direct
    evaluation; the 2F1 in x2 = (r_</r_>)^2 terminates or converges.
    """
    dl = (l1 + l2 - l) // 2
    dl1 = (l - l1 + l2) // 2
    dl2 = (l + l1 - l2) // 2
    poch_main = pochhammer(-l - nu / 2.0, l2) / pochhammer(1.5, l1)
    cluster = pochhammer((nu - 2 * dl + 2) / 2.0, dl2) * pochhammer((nu + 2 * dl1 + 3) / 2.0, dl2)
    if poch_main == 0.0 or cluster == 0.0:
        return 0.0
    f21 = hyp2f1((2 * dl - nu) / 2.0, (-2 * dl1 - nu - 1) / 2.0, (2 * l1 + 3) / 2.0, x2)
    return (-1.0) ** l2 * poch_main * cluster * f21 * nlt**l1 * ngt ** (nu + 2 * dl1 + 1) * ngt ** (-l2 - 1)


def power_solid_addition(
    nu: float,
    idx,
    pair: SplitPair,
    trunc: TruncationSpec = TruncationSpec(),
    shells: list | None = None,
) -> AdditionResult:
    """Two-range expansion of |r|^nu times the regular solid harmonic of r = r_< + r_>.

    Outer shells run over the index l1 attached to r_<; the inner index l2
    couples it with (l, m) through a Gaunt coefficient and carries the
    radial factor of _radial_factor and a surface harmonic of r_>.  The
    scalar and inverse-distance expansions are its l = 0 cases.  When given,
    ``shells`` receives (l1, running value, |shell|, est_error) per shell.
    """
    idx = _lm(idx)
    l, m = idx.l, idx.m
    n = round(nu)
    if abs(nu - n) < 1e-12 and n % 2 == 0 and -2 * l <= n <= -2:
        raise ParameterSingularityError(f"power nu = {nu} makes the prefactor 1/(1+nu/2)_{l} singular")
    rlt, rgt = pair.r_lt, pair.r_gt
    nlt, ngt = math.sqrt(float(rlt @ rlt)), math.sqrt(float(rgt @ rgt))
    x2 = float(rlt @ rlt) / float(rgt @ rgt)
    lmax = trunc.l_max_outer
    l2_cap = lmax + l
    # at r_< = 0 the factor |r_<|^l1 removes every l1 > 0 shell, so any direction serves
    u_lt = rlt / nlt if nlt > 0 else np.array([0.0, 0.0, 1.0])
    tab_lt = ylm_table(lmax, u_lt[None, :])[:, :, 0].conj().tolist()
    tab_gt = ylm_table(l2_cap, rgt[None, :] / ngt)[:, :, 0].tolist()
    front = 4.0 * math.pi / pochhammer(1.0 + nu / 2.0, l)
    acc = _ShellAccumulator(trunc.tol)
    n_terms = 0
    for l1 in range(lmax + 1):
        rad = {l2: _radial_factor(nu, l, l1, l2, nlt, ngt, x2) for l2 in range(abs(l1 - l), l1 + l + 1, 2)}
        shell = 0j
        if any(rad.values()):
            for m1 in range(-l1, l1 + 1):
                y_lt = tab_lt[l1][m1 + lmax]
                if y_lt == 0.0:
                    continue
                for l2, g in gaunt_string(l1, m1, l, m):
                    if g == 0.0 or rad[l2] == 0.0:
                        continue
                    shell += y_lt * g * rad[l2] * tab_gt[l2][m + m1 + l2_cap]
                    n_terms += 1
        acc.add(l1, front * shell)
        if shells is not None:
            shells.append((l1, acc.value, abs(front * shell), acc.est_error))
        if acc.converged or n_terms > trunc.max_terms:
            break
    return acc.result()


def translation_tensor_terms(l_max: int, k_max: int) -> np.ndarray:
    """Coefficient table of the tensor-form translation operator.

    Entry [l, k] multiplies conj(solid_l^m(r_<)) solid_l^m(nabla_>)
    (r_<^2)^k Laplacian_>^k in the expansion of the shift operator
    exp(r_< . nabla_>); the scalar exponential identity
    exp(a.b) = sum over (l, m, k) of these entries times the solid-harmonic
    pair and (a^2 b^2)^k is the cross-check.
    """
    if l_max < 0 or k_max < 0:
        raise DomainError("l_max and k_max must be >= 0")
    out = np.empty((l_max + 1, k_max + 1))
    from fractions import Fraction

    for l in range(l_max + 1):
        for k in range(k_max + 1):
            denom = Fraction(2 ** (l + 2 * k) * math.factorial(k)) * pochhammer(Fraction(1, 2), l + k + 1)
            out[l, k] = float(2 * Fraction(1) / denom) * math.pi
    return out


def exp_dot_product(a, b, l_max: int = 30, k_max: int = 30) -> complex:
    """exp(a . b) summed from the tensor translation table (validation helper)."""
    av, bv = as_vec3(a), as_vec3(b)
    table = translation_tensor_terms(l_max, k_max)
    a2, b2 = float(av @ av), float(bv @ bv)
    total = 0j
    for l in range(l_max + 1):
        pair_sum = 0j
        for m in range(-l, l + 1):
            pair_sum += np.conj(regular_solid((l, m), av)) * regular_solid((l, m), bv)
        ksum = 0.0
        for k in range(k_max + 1):
            ksum += table[l, k] * (a2 * b2) ** k
        total += pair_sum * ksum
    return total
