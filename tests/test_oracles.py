"""The verifiers themselves: stencils, grids, transforms, convolution quadrature."""

import math

import numpy as np
import pytest

from stgo_kit.errors import DomainError
from stgo_kit.findiff import fd_derivative, fd_stencil
from stgo_kit.harmonics import regular_solid_poly, ylm, ylm_table
from stgo_kit.oracles import (
    FDScheme,
    _gl_nodes,
    QuadratureGrid,
    default_sphere_grid,
    fd_apply_operator,
    hankel_radial_ft,
    hankel_radial_inverse,
    momentum_convolution,
    sphere_integrate,
    spherical_jl_array,
)
from stgo_kit.special import spherical_bessel_j

SQ4PI = math.sqrt(4 * math.pi)


def test_fd_stencils_differentiate_polynomials():
    # the d-th stencil annihilates lower powers and reproduces d! on x^d
    for d in range(0, 7):
        for order in (2, 4):
            coeffs = fd_stencil(d, order)
            got = sum(float(c) * (0.5 + o * 0.1) ** d for o, c in coeffs)
            # apply to x^d at any point with h = 0.1: equals d!
            val = sum(float(c) * ((o * 0.1) ** d if d else 1.0) for o, c in coeffs) / 0.1**d
            assert val == pytest.approx(math.factorial(d), rel=1e-9)


def test_fd_derivative_matches_analytic():
    got = fd_derivative(math.sin, 0.7, 3, 1e-2, 4)
    assert got == pytest.approx(-math.cos(0.7), rel=1e-8)


def test_fd_apply_operator_scalar_and_analytic():
    p00 = regular_solid_poly(0, 0)
    f = lambda v: math.exp(-float(v @ v))
    at = np.array([0.2, 0.1, 0.5])
    res = fd_apply_operator(p00, f, at)
    assert res.value == pytest.approx(f(at) / SQ4PI, rel=1e-12)

    p10 = regular_solid_poly(1, 0)
    res = fd_apply_operator(p10, f, np.array([0.0, 0.0, 1.0]), FDScheme(4, 0.02))
    want = math.sqrt(3 / (4 * math.pi)) * (-2.0) * math.exp(-1.0)
    assert res.value == pytest.approx(want, rel=1e-8)
    assert res.reliable


def test_fd_unreliable_flag_on_roundoff_dominance():
    p = regular_solid_poly(4, 0)
    f = lambda v: math.exp(-float(v @ v))
    res = fd_apply_operator(p, f, np.array([0.3, 0.1, 0.4]), FDScheme(2, 1e-6))
    assert not res.reliable


def test_fd_degree_cap():
    with pytest.raises(DomainError):
        fd_apply_operator(regular_solid_poly(7, 0), lambda v: 1.0, np.zeros(3))


def test_fd_richardson_consistency():
    # the h and h/2 raw values agree at the documented order on smooth input
    p = regular_solid_poly(2, 1)
    f = lambda v: math.exp(-float(v @ v))
    at = np.array([0.4, -0.2, 0.6])
    r1 = fd_apply_operator(p, f, at, FDScheme(4, 0.08))
    r2 = fd_apply_operator(p, f, at, FDScheme(4, 0.04))
    # raw coarse error shrinks ~2^4 between the two calls
    e1 = abs(r1.coarse - r2.value)
    e2 = abs(r2.coarse - r2.value)
    assert e2 < e1 / 8


def test_grids_weights_and_exactness():
    leb = QuadratureGrid.lebedev(590)
    gp = QuadratureGrid.gauss_product(64, 128)
    for grid in (leb, gp):
        assert abs(float(grid.weights.sum()) - 4 * math.pi) < 1e-12
        assert sphere_integrate(lambda d: 1.0, grid) == pytest.approx(4 * math.pi, rel=1e-13)
        val = sphere_integrate(
            lambda d: abs(ylm((3, 2), math.acos(d[2]), math.atan2(d[1], d[0]))) ** 2, grid
        )
        assert val == pytest.approx(1.0, abs=1e-12)
    assert leb.degree == 41
    with pytest.raises(DomainError):
        QuadratureGrid.lebedev(111)


def test_lebedev_sizes_and_env_override(tmp_path, monkeypatch):
    for n in (110, 302, 590):
        assert len(QuadratureGrid.lebedev(n).weights) == n
    monkeypatch.setenv("STGO_KIT_DATA", str(tmp_path))
    with pytest.raises(DomainError):
        QuadratureGrid.lebedev(110)
    assert default_sphere_grid(110).kind == "gauss_product"


def test_grid_integrates_harmonic_products_exactly():
    grid = QuadratureGrid.lebedev(590)
    lmax = 9
    tab = ylm_table(lmax, grid.nodes)
    # pairs with combined degree <= grid order integrate to exact orthonormality
    for (l1, m1, l2, m2) in [(9, 4, 9, 4), (7, -3, 9, 1), (5, 0, 5, 0)]:
        val = np.sum(np.conj(tab[l1, m1 + lmax]) * tab[l2, m2 + lmax] * grid.weights)
        want = 1.0 if (l1, m1) == (l2, m2) else 0.0
        assert abs(val - want) < 1e-12


def test_triple_product_quadrature_equals_gaunt():
    from stgo_kit.wigner import gaunt

    grid = QuadratureGrid.lebedev(590)
    lmax = 6
    tab = ylm_table(lmax, grid.nodes)
    for (l1, m1, l2, m2, l3) in [(1, 0, 1, 0, 2), (4, 2, 3, -1, 5), (6, -4, 6, 4, 6)]:
        m3 = m1 + m2
        val = complex(
            np.sum(np.conj(tab[l3, m3 + lmax]) * tab[l1, m1 + lmax] * tab[l2, m2 + lmax] * grid.weights)
        )
        assert abs(val - gaunt(l1, m1, l2, m2, l3, m3)) < 1e-12


def test_spherical_jl_array_consistency(rng):
    x = np.concatenate([rng.uniform(1e-6, 3, 40), rng.uniform(3, 300, 40)])
    for l in range(0, 6):
        got = spherical_jl_array(l, x)
        want = np.array([spherical_bessel_j(l, float(v)) for v in x])
        assert np.allclose(got, want, rtol=1e-11, atol=1e-15)


def test_hankel_yukawa_closed_form():
    # radial Yukawa e^{-r}/r transforms to (2/pi)^(1/2)/(1+p^2)
    f = lambda r: np.exp(-r) / r
    for p in (0.2, 1.0, 4.0):
        res = hankel_radial_ft(f, 0, p, r_max=45.0, n=16)
        want = math.sqrt(2 / math.pi) / (1 + p * p)
        assert res.value == pytest.approx(want, rel=1e-10)
        assert res.tail_ok


def test_hankel_gaussian_rank1_analytic():
    # f = r e^{-r^2}: analytic transform (-i) (2/pi)^(1/2) * sqrt(pi)/8 * p e^{-p^2/4} * ...
    # computed by the standard Gaussian integral: int_0^inf r^3 j_1(pr) e^{-r^2} dr
    #   = (p sqrt(pi) / 8) e^{-p^2/4} * ... ; use the quadrature-free closed form
    f = lambda r: r * np.exp(-(r**2))
    p = 1.3
    res = hankel_radial_ft(f, 1, p, r_max=14.0, n=16)
    closed = (-1j) * math.sqrt(2 / math.pi) * (math.sqrt(math.pi) * p / 8.0) * math.exp(-p * p / 4.0)
    assert res.value == pytest.approx(closed, rel=1e-10)


def test_hankel_zero_momentum_higher_rank():
    f = lambda r: np.exp(-r)
    res = hankel_radial_ft(f, 2, 0.0, r_max=40.0)
    assert res.value == 0.0


def test_gauss_legendre_node_cache_is_read_only():
    x, w = _gl_nodes(12)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert _gl_nodes(12)[1].sum() == pytest.approx(2.0, rel=1e-14)


def test_hankel_round_trip():
    # forward then inverse recovers the radial function; the momentum-side
    # integrand of the screened-Coulomb profile decays only like p^-2, so the
    # inverse leans on the oscillatory-tail averaging
    for (prof, l) in [(lambda r: np.exp(-r) / r, 0), (lambda r: r * np.exp(-(r**2)), 1)]:

        def fbar(p, prof=prof, l=l):
            p = float(np.asarray(p).reshape(()))
            return hankel_radial_ft(prof, l, p, r_max=40.0, n=12).value

        for r in (0.5, 1.0, 2.0):
            back = hankel_radial_inverse(fbar, l, r, p_max=30.0, n=10, tail_segments=10)
            assert back.value == pytest.approx(prof(r), rel=1e-6)


def test_momentum_convolution_against_closed_form():
    from stgo_kit.bfun import BIndex, convolve

    a = BIndex(0, 0, 0, 1.0)
    at = np.array([0.0, 0.0, 1.0])
    got = momentum_convolution(a, a, at)
    want = convolve(a, a).evaluate(at)
    assert got == pytest.approx(want, rel=1e-8)


def test_momentum_convolution_at_origin_is_real():
    from stgo_kit.bfun import BIndex

    a = BIndex(1, 1, 1, 1.0)
    b = BIndex(1, 1, -1, 1.0)
    got = momentum_convolution(a, b, np.zeros(3))
    assert abs(got.imag) < 1e-12 * max(abs(got.real), 1e-30)


def test_fd_scheme_validation():
    with pytest.raises(DomainError):
        FDScheme(3, 0.01)
    with pytest.raises(DomainError):
        FDScheme(2, -0.1)
