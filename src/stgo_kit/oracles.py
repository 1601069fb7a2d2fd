"""Independent brute-force verifiers.

Nothing here reuses the closed forms it is meant to check: the operator is
applied by Cartesian finite differences from its monomial expansion, sphere
integrals go through quadrature grids, momentum-space radial transforms
through panel Gauss-Legendre quadrature, and the convolution oracle couples
angular factors by grid quadrature rather than by coupling coefficients.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DomainError
from .findiff import fd_stencil
from .harmonics import HarmonicPolynomial, as_vec3, regular_solid
from .special import spherical_bessel_j

_EPS = 2.0**-52


# ---------------------------------------------------------------------------
# finite-difference application of a polynomial-in-derivatives operator

@dataclass(frozen=True)
class FDScheme:
    """Central-difference scheme: accuracy order (2 or 4) and step."""

    order: int = 4
    step: float = 0.01

    def __post_init__(self):
        if self.order not in (2, 4):
            raise DomainError("order must be 2 or 4")
        if self.step <= 0:
            raise DomainError("step must be > 0")


@dataclass(frozen=True)
class FDResult:
    value: complex
    coarse: complex
    reliable: bool

    def __complex__(self):
        return complex(self.value)


def _fd_value(p: HarmonicPolynomial, f, at: np.ndarray, h: float, order: int) -> complex:
    cache: dict = {}

    def feval(ix: int, iy: int, iz: int):
        key = (ix, iy, iz)
        if key not in cache:
            cache[key] = f(at + h * np.array([ix, iy, iz], dtype=float))
        return cache[key]

    re_parts: list = []
    im_parts: list = []
    for a, b, c, coeff in p.monomials():
        sx, sy, sz = fd_stencil(a, order), fd_stencil(b, order), fd_stencil(c, order)
        scale = 1.0 / h ** (a + b + c)
        for ox, cx in sx:
            for oy, cy in sy:
                for oz, cz in sz:
                    w = float(cx * cy * cz) * scale
                    val = coeff * w * feval(ox, oy, oz)
                    val = complex(val)
                    re_parts.append(val.real)
                    im_parts.append(val.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def fd_apply_operator(p: HarmonicPolynomial, f, at, scheme: FDScheme = FDScheme()) -> FDResult:
    """Apply the operator p(d/dx, d/dy, d/dz) to f at a point, by differences.

    Mixed partials are tensor products of 1-D central stencils; contributions
    are accumulated by compensated summation (the 6th-order stencils lose
    about six digits otherwise).  The returned value is the Richardson
    combination of the h and h/2 evaluations (one order-h^2 gain over the raw
    scheme); `coarse` exposes the raw h value, and the result is flagged
    unreliable when the two raw evaluations disagree by more than 10%,
    which signals roundoff dominance or step underflow.
    """
    at = as_vec3(at)
    if p.degree > 6:
        raise DomainError("total derivative order above 6 is not float-viable")
    coarse = _fd_value(p, f, at, scheme.step, scheme.order)
    fine = _fd_value(p, f, at, scheme.step / 2.0, scheme.order)
    denom = max(abs(fine), 1e-300)
    reliable = abs(fine - coarse) <= 0.1 * denom
    w = 2.0**scheme.order
    value = (w * fine - coarse) / (w - 1.0)
    return FDResult(value, coarse, reliable)


# ---------------------------------------------------------------------------
# quadrature on the unit sphere

_DATA_ENV = "STGO_KIT_DATA"
_LEBEDEV_SIZES = (110, 302, 590)


def _data_dir() -> Path:
    override = os.environ.get(_DATA_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


@dataclass(frozen=True)
class QuadratureGrid:
    """Unit-sphere quadrature: node directions and weights summing to 4 pi."""

    kind: str
    nodes: np.ndarray    # (n, 3) unit vectors
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        if abs(float(self.weights.sum()) - 4.0 * math.pi) > 1e-12:
            raise DomainError("grid weights must sum to 4 pi")

    @classmethod
    def lebedev(cls, points: int = 590) -> "QuadratureGrid":
        """Load one of the shipped octahedral grids (110, 302, or 590 points)."""
        if points not in _LEBEDEV_SIZES:
            raise DomainError(f"available Lebedev sizes: {_LEBEDEV_SIZES}")
        path = _data_dir() / f"lebedev_{points}.txt"
        if not path.exists():
            raise DomainError(f"Lebedev data file not found: {path} (set ${_DATA_ENV})")
        raw = np.loadtxt(path)
        nodes = raw[:, :3]
        weights = raw[:, 3]
        return cls("lebedev", nodes, weights)

    @classmethod
    def gauss_product(cls, n_theta: int = 64, n_phi: int = 128) -> "QuadratureGrid":
        """Gauss-Legendre x trapezoid product grid; data-free fallback.

        Exact for spherical harmonics with l <= min(2 n_theta - 1, n_phi - 1).
        """
        x, w = _gl_nodes(n_theta)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        ct = np.repeat(x, n_phi)
        st = np.sqrt(1.0 - ct * ct)
        ph = np.tile(phi, n_theta)
        nodes = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
        weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
        return cls("gauss_product", nodes, weights)

    @property
    def degree(self) -> int:
        """Bandlimit up to which the grid integrates harmonics exactly."""
        if self.kind == "lebedev":
            return {110: 17, 302: 29, 590: 41}[len(self.weights)]
        n_theta = len(np.unique(np.round(self.nodes[:, 2], 12)))
        n_phi = len(self.weights) // max(n_theta, 1)
        return min(2 * n_theta - 1, n_phi - 1)


def default_sphere_grid(points: int = 590) -> QuadratureGrid:
    """Shipped Lebedev grid when the data files are present, product grid otherwise."""
    try:
        return QuadratureGrid.lebedev(points)
    except DomainError:
        return QuadratureGrid.gauss_product()


def sphere_integrate(f, grid: QuadratureGrid) -> complex:
    """Integral over the unit sphere: sum of weights times f(direction)."""
    re: list = []
    im: list = []
    for node, w in zip(grid.nodes, grid.weights):
        val = complex(f(node)) * w
        re.append(val.real)
        im.append(val.imag)
    return complex(math.fsum(re), math.fsum(im))


# ---------------------------------------------------------------------------
# radial momentum transforms

@dataclass(frozen=True)
class HankelResult:
    value: complex
    tail_estimate: float
    tail_ok: bool

    def __complex__(self):
        return complex(self.value)


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], as read-only arrays shared by every caller."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_panels(a: float, b: float, panel_width: float, nodes_per_panel: int):
    n_panels = max(1, int(math.ceil((b - a) / panel_width)))
    edges = np.linspace(a, b, n_panels + 1)
    x, w = _gl_nodes(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def _call_radial(f, pts: np.ndarray) -> np.ndarray:
    if pts.size > 1:
        try:
            vals = np.asarray(f(pts))
            if vals.shape == pts.shape:
                return vals
        except Exception:
            pass
    return np.array([f(float(r)) for r in pts])


def spherical_jl_array(l: int, x: np.ndarray) -> np.ndarray:
    """Vectorized spherical Bessel j_l; upward recurrence above the turning point."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x > max(l, 1) + 0.5
    xb = x[big]
    if xb.size:
        if l == 0:
            out[big] = np.sin(xb) / xb
        else:
            jm = np.sin(xb) / xb
            j = np.sin(xb) / (xb * xb) - np.cos(xb) / xb
            for n in range(1, l):
                jm, j = j, (2 * n + 1) / xb * j - jm
            out[big] = j
    small = ~big
    if small.any():
        out[small] = [spherical_bessel_j(l, float(v)) for v in x[small]]
    return out


def hankel_radial_ft(f_l, l: int, p: float, r_max: float = 60.0, n: int = 16) -> HankelResult:
    """Momentum-space radial part of a rank-l tensor with radial function f_l.

    Computes (-i)^l (2/pi)^(1/2) \\int_0^rmax r^2 j_l(p r) f_l(r) dr by panel
    Gauss-Legendre quadrature with panel width capped at pi/(2p) so each
    kernel oscillation is resolved; a crude tail bound is reported so decaying
    integrands can be checked against the cutoff.
    """
    if p < 0 or r_max <= 0:
        raise DomainError("need p >= 0 and r_max > 0")
    width = r_max / 8.0 if p == 0 else min(math.pi / (2.0 * p), r_max / 8.0)
    pts, wts = _gl_panels(1e-12, r_max, width, n)
    fv = _call_radial(f_l, pts)
    kernel = spherical_jl_array(l, p * pts) if p > 0 else (np.ones_like(pts) if l == 0 else np.zeros_like(pts))
    integrand = np.asarray(pts * pts * kernel * fv * wts, dtype=complex)
    val = complex(math.fsum(integrand.real.tolist()), math.fsum(integrand.imag.tolist()))
    # tail bound: |j_l| <= 1/(p r) for p r >= 1, else <= 1
    f_end = abs(complex(np.atleast_1d(_call_radial(f_l, np.array([r_max])))[0]))
    env = 1.0 / (p * r_max) if p * r_max > 1 else 1.0
    tail = f_end * r_max**2 * env * r_max  # scale-crude: |f(rmax)| rmax^3 envelope
    ref = max(abs(val), 1e-300)
    return HankelResult((-1j) ** l * math.sqrt(2.0 / math.pi) * val, tail, tail < 1e-10 * ref)


def hankel_radial_inverse(
    fbar_l, l: int, r: float, p_max: float = 60.0, n: int = 16, tail_segments: int = 18
) -> HankelResult:
    """Inverse transform back to the radial function; i^l where the forward has (-i)^l.

    Momentum-side integrands can decay as slowly as p^-2 (screened-Coulomb
    transforms), leaving a conditionally convergent oscillatory tail; the
    partial integrals over kernel half-periods alternate, so repeated
    averaging of their running sums (Euler summation) removes the truncation
    wiggle.
    """
    res = hankel_radial_ft(fbar_l, l, r, p_max, n)
    base = (-1.0) ** l * res.value
    if r <= 0 or tail_segments <= 0:
        return HankelResult(base, res.tail_estimate, res.tail_ok)
    period = math.pi / r
    phase = (1j) ** l * math.sqrt(2.0 / math.pi)
    partials = []
    total = base
    for k in range(tail_segments):
        a, b = p_max + k * period, p_max + (k + 1) * period
        pts, wts = _gl_panels(a, b, period / 4.0, n)
        fv = _call_radial(fbar_l, pts)
        seg = phase * complex(np.sum(pts * pts * spherical_jl_array(l, pts * r) * fv * wts))
        total += seg
        partials.append(total)
    while len(partials) > 1:
        partials = [0.5 * (partials[i] + partials[i + 1]) for i in range(len(partials) - 1)]
    value = partials[0]
    return HankelResult(value, abs(value - base), True)


# ---------------------------------------------------------------------------
# momentum-space convolution oracle

def momentum_convolution(a, b, at, n_radial: int = 14, grid: QuadratureGrid | None = None) -> complex:
    """Convolution of two B functions by brute-force momentum quadrature.

    The two momentum-space factors are rational radial parts times surface
    harmonics; the plane wave is expanded in spherical waves, the angular
    integral of the three harmonics is done on the quadrature grid (not via
    coupling coefficients), and the surviving shells leave 1-D radial
    integrals with j_l kernels.
    """
    from .bfun import b_fourier_radial  # local import: bfun depends on wigner only

    if grid is None:
        grid = default_sphere_grid()
    v = as_vec3(at)
    rr = math.sqrt(float(v @ v))
    la, ma, lb, mb = a.l, a.m, b.l, b.m
    mm = ma + mb
    alpha_scale = max(a.alpha, b.alpha)

    # decay exponent of p^2 * fbar_a * fbar_b * envelope(1/(p r)) at large p
    k_decay = 2 * (a.n + a.l + b.n + b.l + 2) - la - lb - 2
    total = 0j
    # shells L allowed by the triple angular integral
    ytab = {}
    for L in range(abs(la - lb), la + lb + 1):
        M = mm
        if abs(M) > L:
            continue
        # angular factor by grid quadrature: integral conj(Y_L^M) Y_la^ma Y_lb^mb
        gval = _triple_product_quadrature(grid, L, M, la, ma, lb, mb, ytab)
        if abs(gval) < 1e-13:
            continue
        if rr == 0.0:
            y_dir = 1.0 / math.sqrt(4.0 * math.pi) if L == 0 else 0.0
        else:
            y_dir = regular_solid((L, M), v) / rr**L
        if y_dir == 0.0:
            continue
        radial = _oscillatory_radial_integral(
            lambda p: b_fourier_radial(a, p) * b_fourier_radial(b, p), L, rr, alpha_scale, k_decay, n_radial
        )
        total += gval * 4.0 * math.pi * (1j) ** L * y_dir * radial
    return total


def _triple_product_quadrature(grid, L, M, la, ma, lb, mb, cache) -> complex:
    from .harmonics import ylm_table

    lmax = max(L, la, lb)
    key = lmax
    if key not in cache:
        cache[key] = ylm_table(lmax, grid.nodes)
    tab = cache[key]
    vals = np.conj(tab[L, M + lmax]) * tab[la, ma + lmax] * tab[lb, mb + lmax]
    return complex(np.sum(vals * grid.weights))


def _oscillatory_radial_integral(fbar2, L, r, alpha, k_decay, n_per_panel) -> complex:
    """integral_0^P p^2 j_L(p r) fbar2(p) dp with adaptive cutoff.

    The cutoff doubles until the omitted tail is negligible: for an
    oscillating kernel the first omitted half-lobe bounds the alternating
    tail, otherwise the plain power-decay integral does.
    """
    p_cut = 16.0 * alpha + 8.0 * (L + 1) / max(r, 0.25)
    # resolve both the kernel oscillation (pi/2 per panel) and the rational
    # factor's scale alpha
    width = min(math.pi / (2.0 * max(r, 1e-9)), 0.5 * alpha, p_cut / 12.0)
    val = 0j
    a0 = 1e-12
    for _ in range(40):
        pts, wts = _gl_panels(a0, p_cut, width, n_per_panel)
        fv = np.asarray(fbar2(pts))
        kern = spherical_jl_array(L, pts * r) if r > 0 else (np.ones_like(pts) if L == 0 else np.zeros_like(pts))
        val += complex(np.sum(pts * pts * kern * fv * wts))
        f_end = abs(complex(fbar2(np.array([p_cut]))[0]))
        if r > 0 and p_cut * r > 2.0:
            bound = math.pi * p_cut * f_end / (r * r)  # first omitted half-lobe
        else:
            bound = p_cut**2 * f_end * p_cut / max(k_decay - 1, 1)
        if bound <= 1e-11 * max(abs(val), 1e-300):
            break
        a0, p_cut = p_cut, 2.0 * p_cut
    return val
