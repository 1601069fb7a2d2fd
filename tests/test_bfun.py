"""B functions: values, transforms, ladder identities, convolution."""

import math

import numpy as np
import pytest

from stgo_kit.bfun import (
    BExpansion,
    BIndex,
    b_fourier,
    b_fourier_functional_check,
    b_value,
    convolve,
    helmholtz_ladder,
    laplacian_power,
    stgo_on_b,
    stgo_on_scalar_b,
)
from stgo_kit.errors import DistributionalError, DomainError, SingularityError, UnsupportedError
from stgo_kit.harmonics import irregular_solid
from stgo_kit.radial import RadialProfile
from stgo_kit.special import double_factorial
from stgo_kit.stgo import hobson_harmonic

SQ4PI = math.sqrt(4 * math.pi)


def radial_laplacian_fd(fn, r, h=1e-3):
    """(f'' + 2/r f') of a radial function by central differences."""
    d2 = (fn(r + h) - 2 * fn(r) + fn(r - h)) / h**2
    d1 = (fn(r + h) - fn(r - h)) / (2 * h)
    return d2 + 2.0 / r * d1


def test_index_validation_and_flags():
    idx = BIndex(2, 1, -1, 1.5)
    assert idx.classical and idx.basis_quality
    assert not BIndex(0, 0, 0, 1.0).basis_quality
    assert not BIndex(-2, 1, 0, 1.0).classical
    with pytest.raises(DomainError):
        BIndex(0, 1, 2, 1.0)
    with pytest.raises(DomainError):
        BIndex(0, 0, 0, -1.0)


def test_value_yukawa_identity(rng):
    # the scalar n=0 member times sqrt(4 pi) alpha is the screened potential
    for alpha in (0.7, 1.0, 2.2):
        v = rng.normal(size=3)
        r = float(np.linalg.norm(v))
        got = SQ4PI * alpha * b_value(BIndex(0, 0, 0, alpha), v)
        assert got == pytest.approx(math.exp(-alpha * r) / r, rel=1e-13)


def test_value_direct_formula():
    v = np.array([0.0, 0.0, 1.0])
    got = b_value(BIndex(1, 0, 0, 1.0), v)
    assert got == pytest.approx(math.exp(-1.0) / (2 * SQ4PI), rel=1e-14)


def test_value_origin_cases():
    origin = np.zeros(3)
    # l = 0, n >= 1 has the finite limit khat_{n-1/2}(0+) / (2^n n! sqrt(4pi))
    got = b_value(BIndex(2, 0, 0, 1.0), origin)
    want = 2.0 * 0.5 / (4 * 2 * SQ4PI)  # khat_{3/2}(0+) = 2^1 (1/2)_1 = 1
    assert got == pytest.approx(1.0 / (8 * SQ4PI), rel=1e-14)
    assert b_value(BIndex(1, 2, 0, 1.0), origin) == 0.0
    with pytest.raises(SingularityError):
        b_value(BIndex(0, 0, 0, 1.0), origin)
    with pytest.raises(SingularityError):
        b_value(BIndex(0, 1, 0, 1.0), origin)  # direction-dependent limit
    with pytest.raises(DistributionalError):
        b_value(BIndex(-3, 1, 0, 1.0), origin)


def test_value_scaling_covariance(rng):
    idx = BIndex(1, 2, 1, 1.3)
    v = rng.normal(size=3)
    eta = 1.7
    scaled = BIndex(1, 2, 1, 1.3 / eta)
    # khat and solid harmonic depend on alpha*r only; the normalization does not
    assert b_value(idx, v) == pytest.approx(b_value(scaled, eta * v), rel=1e-13)


def test_fourier_closed_forms(rng):
    alpha = 1.1
    p = rng.normal(size=3)
    p2 = float(p @ p)
    got = b_fourier(BIndex(0, 0, 0, alpha), p)
    want = 1.0 / math.sqrt(2 * math.pi**2) / (alpha * (alpha**2 + p2))
    assert got == pytest.approx(want, rel=1e-13)
    # constant transform of the delta-like member
    got = b_fourier(BIndex(-1, 0, 0, alpha), p)
    assert got == pytest.approx(alpha ** (-3.0) / math.sqrt(2 * math.pi**2), rel=1e-14)
    # l > 0 vanishes at p = 0
    assert b_fourier(BIndex(1, 2, 1, alpha), np.zeros(3)) == 0.0


def test_fourier_functional_equations(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    for n in range(-2, 5):
        for l in range(4):
            for pm in (0.3, 1.0, 5.0):
                res = b_fourier_functional_check(BIndex(n, l, min(l, 1), 1.3), d * pm)
                assert max(res) < 1e-12


def test_ladder_and_binomial():
    idx = BIndex(2, 1, 1, 1.0)
    lad = helmholtz_ladder(idx)
    assert lad.terms == [(1.0, BIndex(1, 1, 1, 1.0))]
    # applied twice to B_{1,0}: lands on the distribution-valued member
    twice = helmholtz_ladder(helmholtz_ladder(BIndex(1, 0, 0, 1.0)).terms[0][1])
    assert twice.terms[0][1] == BIndex(-1, 0, 0, 1.0)
    assert not twice.terms[0][1].classical

    lp = laplacian_power(idx, 0)
    assert lp.terms == [(1.0, idx)]
    lp = laplacian_power(idx, 1)
    assert [(c, i.n) for c, i in lp.terms] == [(1.0, 2), (-1.0, 1)]
    lp = laplacian_power(BIndex(3, 0, 0, 1.0), 2)
    assert [(c, i.n) for c, i in lp.terms] == [(1.0, 3), (-2.0, 2), (1.0, 1)]


def test_ladder_composition_matches_binomial():
    idx = BIndex(4, 2, -1, 0.9)
    for nu in range(4):
        # nu-fold composition of (identity - ladder) expanded by hand
        acc = {idx: 1.0}
        for _ in range(nu):
            nxt: dict = {}
            for i, c in acc.items():
                nxt[i] = nxt.get(i, 0.0) + c
                low = BIndex(i.n - 1, i.l, i.m, i.alpha)
                nxt[low] = nxt.get(low, 0.0) - c
            acc = nxt
        want = sorted((i.n, c) for i, c in acc.items() if c != 0)
        got = sorted((i.n, c) for c, i in laplacian_power(idx, nu).terms)
        assert got == want


def test_ladder_numeric_radial_fd():
    alpha, r = 1.0, 1.5
    fn = lambda rr: b_value(BIndex(2, 0, 0, alpha), np.array([0.0, 0.0, rr])).real
    got = fn(r) - radial_laplacian_fd(fn, r) / alpha**2
    want = b_value(BIndex(1, 0, 0, alpha), np.array([0.0, 0.0, r])).real
    assert got == pytest.approx(want, rel=1e-6)


def test_laplacian_power_numeric():
    alpha, r = 1.0, 1.0
    fn = lambda rr: b_value(BIndex(3, 0, 0, alpha), np.array([0.0, 0.0, rr])).real
    lap1 = lambda rr: radial_laplacian_fd(fn, rr, 2e-3)
    lap2 = radial_laplacian_fd(lap1, r, 2e-3)
    want = sum(c * b_value(i, np.array([0.0, 0.0, r])).real for c, i in laplacian_power(BIndex(3, 0, 0, alpha), 2).terms)
    assert lap2 / alpha**4 == pytest.approx(want, rel=1e-4)


def test_stgo_on_scalar_b_bookkeeping():
    coeff, idx = stgo_on_scalar_b((0, 0), 3, 1.0)
    assert idx == BIndex(3, 0, 0, 1.0)
    assert coeff == pytest.approx(1 / SQ4PI)
    coeff, idx = stgo_on_scalar_b((2, 1), 3, 2.0)
    assert idx == BIndex(1, 2, 1, 2.0)
    assert coeff == pytest.approx((-2.0) ** 2 / SQ4PI)


def test_stgo_on_scalar_b_cross_module(rng):
    # operator (1,0) on the scalar member of order 2 via the closed radial
    # route, against the direct target value
    alpha = 1.0
    phi = RadialProfile.reduced_bessel_half(1, alpha).scaled(1.0 / (4 * 2 * SQ4PI))  # B_{2,0} scalar part
    te = hobson_harmonic((1, 0), phi)
    v = rng.normal(size=3)
    got = te.evaluate(v)
    want = -alpha / SQ4PI * b_value(BIndex(1, 1, 0, alpha), v)
    assert got == pytest.approx(want, rel=1e-9)


def test_stgo_on_b_structure_and_consistency(rng):
    alpha = 1.0
    out = stgo_on_b((0, 0), BIndex(2, 1, 0, alpha))
    assert len(out.terms) == 1
    assert out.terms[0][0] == pytest.approx(1 / SQ4PI)

    out = stgo_on_b((1, 0), BIndex(2, 0, 0, alpha))
    assert [(i.n, i.l, i.m) for _, i in out.terms] == [(1, 1, 0)]
    assert out.terms[0][0] == pytest.approx(-alpha / SQ4PI)

    # m1 + m2 = 1 rules the l = 0 shell out
    out = stgo_on_b((1, 1), BIndex(2, 1, 0, alpha))
    assert sorted({i.l for _, i in out.terms}) == [2]
    out = stgo_on_b((1, 1), BIndex(2, 1, -1, alpha))
    assert sorted({i.l for _, i in out.terms}) == [0, 2]


def test_stgo_on_b_vs_fd_oracle(rng):
    from stgo_kit.harmonics import regular_solid_poly
    from stgo_kit.oracles import FDScheme, fd_apply_operator

    alpha = 1.0
    target = BIndex(2, 1, 0, alpha)
    op = (1, 1)
    out = stgo_on_b(op, target)
    fn = lambda v: b_value(target, v)
    poly = regular_solid_poly(*op)
    for _ in range(5):
        v = rng.normal(size=3)
        v *= (1.0 + 0.5 * rng.random()) / np.linalg.norm(v)
        got = fd_apply_operator(poly, fn, v, FDScheme(4, 0.02))
        want = out.evaluate(v)
        assert want == pytest.approx(got.value, rel=1e-6)


def test_stgo_on_b_route_equivalence(rng):
    # closed combination vs the generic tensor machinery on the same target
    from stgo_kit.harmonics import LMIndex
    from stgo_kit.stgo import TensorTerm, apply_to_tensor

    alpha = 1.0
    for (l1, m1, n2, l2, m2) in [(1, 0, 2, 0, 0), (2, 1, 1, 1, -1), (3, -2, 2, 2, 1), (2, 0, 0, 3, 2)]:
        target = BIndex(n2, l2, m2, alpha)
        closed = stgo_on_b((l1, m1), target)
        inv = 1.0 / (2.0 ** (n2 + l2) * math.factorial(n2 + l2))
        radial = RadialProfile.reduced_bessel_half(n2 - 1, alpha).times_power(l2).scaled(inv * alpha**l2)
        generic = apply_to_tensor((l1, m1), TensorTerm(1.0 + 0j, radial, LMIndex(l2, m2)))
        for rr in (0.5, 1.0, 2.0):
            v = rng.normal(size=3)
            v *= rr / np.linalg.norm(v)
            assert closed.evaluate(v) == pytest.approx(generic.evaluate(v), rel=1e-8)


def test_convolution_closed_form_structure():
    alpha = 1.0
    out = convolve(BIndex(0, 0, 0, alpha), BIndex(0, 0, 0, alpha))
    assert len(out.terms) == 1
    c, idx = out.terms[0]
    assert idx == BIndex(1, 0, 0, alpha)
    assert c == pytest.approx(4 * math.pi / alpha**3 / SQ4PI, rel=1e-14)
    out = convolve(BIndex(1, 1, 1, alpha), BIndex(1, 1, -1, alpha))
    assert sorted({i.l for _, i in out.terms}) == [0, 2]
    with pytest.raises(UnsupportedError):
        convolve(BIndex(0, 0, 0, 1.0), BIndex(0, 0, 0, 2.0))


def test_convolution_vs_momentum_oracle(rng):
    from stgo_kit.oracles import momentum_convolution

    a = BIndex(0, 0, 0, 1.0)
    at = np.array([0.2, -0.5, 0.85])
    got = momentum_convolution(a, a, at)
    want = convolve(a, a).evaluate(at)
    assert got == pytest.approx(want, rel=1e-8)

    a, b = BIndex(1, 1, 1, 1.0), BIndex(1, 1, -1, 1.0)
    got = momentum_convolution(a, b, at)
    assert got == pytest.approx(convolve(a, b).evaluate(at), rel=1e-7)


def test_yukawa_limit_of_screened_multipole():
    # alpha^{l+1} B_{-l,l}^m approaches (2l-1)!! times the irregular solid
    # harmonic as the screening vanishes, with O(alpha) deviation
    l, m = 2, 1
    v = np.array([0.6, -0.3, 0.8])
    want = double_factorial(2 * l - 1) * irregular_solid((l, m), v)
    devs = []
    for alpha in (1e-2, 1e-3):
        got = alpha ** (l + 1) * b_value(BIndex(-l, l, m, alpha), v)
        devs.append(abs(got - want) / abs(want))
    assert devs[0] < 0.05
    # at least first-order convergence in the screening; the Richardson pair
    # actually shows a quadratic slope (the linear term of e^-z theta_l(z)
    # cancels identically), which is stronger than required
    assert devs[1] <= devs[0] / 8.0
    assert devs[1] == pytest.approx(devs[0] / 100.0, rel=0.3)


def test_expansion_evaluate_guards():
    exp = BExpansion([(1.0, BIndex(-2, 1, 0, 1.0))])
    assert exp.has_distributional
    with pytest.raises(DistributionalError):
        exp.evaluate(np.array([0.0, 0.0, 1.0]))
    # the momentum form stays valid for the same expansion
    val = exp.fourier(np.array([0.0, 0.0, 1.0]))
    assert np.isfinite(val.real) and np.isfinite(val.imag)
