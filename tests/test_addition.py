"""Two-range addition theorems and the translation-operator table."""

import math

import numpy as np
import pytest

from stgo_kit.addition import (
    SplitPair,
    TruncationSpec,
    exp_dot_product,
    laplace_expansion,
    power_scalar_addition,
    power_solid_addition,
    solid_harmonic_shift,
    translation_tensor_terms,
)
from stgo_kit.errors import BoundaryError, DomainError, ParameterSingularityError
from stgo_kit.harmonics import regular_solid
from stgo_kit.radial import RadialProfile

SQ4PI = math.sqrt(4 * math.pi)


def make_pair(rng, ratio: float) -> SplitPair:
    d1 = rng.normal(size=3)
    d1 /= np.linalg.norm(d1)
    d2 = rng.normal(size=3)
    d2 /= np.linalg.norm(d2)
    return SplitPair.from_vectors(d1 * ratio, d2)


def test_split_pair():
    p = SplitPair.from_vectors([0, 0, 2.0], [0.5, 0, 0])
    assert np.allclose(p.r_lt, [0.5, 0, 0])
    assert p.ratio == pytest.approx(0.25)
    with pytest.raises(BoundaryError):
        SplitPair.from_vectors([0, 0, 1.0], [1.0, 0, 0])
    with pytest.raises(BoundaryError):
        SplitPair(np.array([0, 0, 2.0]), np.array([1.0, 0, 0]))


def test_truncation_spec_validation():
    with pytest.raises(DomainError):
        TruncationSpec(tol=-1.0)
    with pytest.raises(DomainError):
        TruncationSpec(l_max_outer=-1)


def test_solid_shift_exact(rng):
    assert solid_harmonic_shift((0, 0), rng.normal(size=3), rng.normal(size=3)) == pytest.approx(
        1 / SQ4PI, rel=1e-14
    )
    # zero shift vector: reduces to the plain solid harmonic
    v = rng.normal(size=3)
    for (l, m) in [(2, 1), (4, -3)]:
        got = solid_harmonic_shift((l, m), v, np.zeros(3))
        assert got == pytest.approx(regular_solid((l, m), v), rel=1e-13)
    for _ in range(50):
        # targets deep in the nodal set only expose summand-cancellation
        # roundoff under a relative comparison; redraw there
        for _ in range(100):
            l = int(rng.integers(0, 7))
            m = int(rng.integers(-l, l + 1))
            a, b = rng.normal(size=3), rng.normal(size=3)
            want = regular_solid((l, m), a + b)
            scale = (np.linalg.norm(a) + np.linalg.norm(b)) ** l * math.sqrt((2 * l + 1) / (4 * math.pi))
            if abs(want) >= 1e-2 * scale:
                break
        got = solid_harmonic_shift((l, m), a, b)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_laplace_expansion_collinear():
    res = laplace_expansion([0, 0, 0.5], [0, 0, 1.0], 1, TruncationSpec(40, 1e-10))
    assert res.converged
    assert res.value == pytest.approx(1.0 / 1.5, rel=1e-10)
    # shells are exactly (-1/2)^lambda here; the two-shell stop rule needs
    # 3 * 0.5^lambda <= 1e-10 * (2/3), i.e. lambda ~ 36
    assert res.outer_l_used <= 37


def test_laplace_expansion_both_signs(rng):
    for _ in range(5):
        pairish = make_pair(rng, 0.3)
        r, rp = pairish.r_lt, pairish.r_gt
        for sign in (1, -1):
            res = laplace_expansion(r, rp, sign, TruncationSpec(30, 1e-12))
            want = 1.0 / np.linalg.norm(r + sign * rp)
            assert res.converged
            assert res.value == pytest.approx(want, rel=1e-10)


def test_laplace_boundary_error():
    with pytest.raises(BoundaryError):
        laplace_expansion([0, 0, 1.0], [1.0, 0, 0], 1)


def test_power_scalar_cases(rng):
    pair = make_pair(rng, 0.3)
    total = pair.r_lt + pair.r_gt
    for nu in (-1.0, -3.0, 1.5):
        res = power_scalar_addition(nu, pair, TruncationSpec(40, 1e-12))
        want = np.linalg.norm(total) ** nu
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-8)
    # negative odd power against the direct distance oracle
    res = power_scalar_addition(-3.0, pair, TruncationSpec(40, 1e-12))
    assert res.value == pytest.approx(np.linalg.norm(total) ** -3.0, rel=1e-8)


def test_power_scalar_terminating(rng):
    pair = make_pair(rng, 0.45)
    total = pair.r_lt + pair.r_gt
    for n in (0, 1, 2):
        res = power_scalar_addition(2.0 * n, pair, TruncationSpec(40, 1e-13))
        assert res.converged
        assert res.outer_l_used <= n
        assert res.est_error == 0.0
        assert res.value == pytest.approx(np.linalg.norm(total) ** (2 * n), rel=1e-13)


def test_power_scalar_laplace_consistency(rng):
    pair = make_pair(rng, 0.4)
    res = power_scalar_addition(-1.0, pair, TruncationSpec(44, 1e-13))
    lap = laplace_expansion(pair.r_lt, pair.r_gt, 1, TruncationSpec(44, 1e-13))
    assert res.value == pytest.approx(lap.value, rel=1e-11)
    # the Legendre series of the inverse distance uses no harmonics or Gaunt coefficients
    nlt, ngt = np.linalg.norm(pair.r_lt), np.linalg.norm(pair.r_gt)
    cos_g = float(pair.r_lt @ pair.r_gt) / (nlt * ngt)
    legendre = np.polynomial.legendre.legval(cos_g, (-nlt / ngt) ** np.arange(60)) / ngt
    assert res.value == pytest.approx(legendre, rel=1e-11)


def test_power_solid_matches_direct(rng):
    pair = make_pair(rng, 0.4)
    total = pair.r_lt + pair.r_gt
    tr = TruncationSpec(30, 1e-11)
    for nu in (-3.0, -1.0, 1.5):
        for l in range(3):
            for m in range(-l, l + 1):
                res = power_solid_addition(nu, (l, m), pair, tr)
                want = np.linalg.norm(total) ** nu * regular_solid((l, m), total)
                assert res.value == pytest.approx(want, rel=1e-8)


def test_power_solid_scalar_consistency(rng):
    pair = make_pair(rng, 0.35)
    for nu in (-1.0, 1.5):
        a = power_solid_addition(nu, (0, 0), pair, TruncationSpec(36, 1e-13))
        b = power_scalar_addition(nu, pair, TruncationSpec(36, 1e-13))
        assert a.value == pytest.approx(b.value / SQ4PI, rel=1e-12)


def test_power_solid_parameter_singularity(rng):
    pair = make_pair(rng, 0.3)
    with pytest.raises(ParameterSingularityError):
        power_solid_addition(-2.0, (1, 0), pair)
    with pytest.raises(ParameterSingularityError):
        power_solid_addition(-4.0, (2, 1), pair)
    # regular for l = 0 (empty prefactor product)
    res = power_scalar_addition(-2.0, pair, TruncationSpec(36, 1e-10))
    total = pair.r_lt + pair.r_gt
    assert res.value == pytest.approx(np.linalg.norm(total) ** -2.0, rel=1e-8)


def test_power_solid_alt_prefactor_fails_cross_check(rng, monkeypatch):
    # the variant transcription of the radial cluster, with second factor
    # ((nu - 2*dl + 3)/2)_q in place of ((nu + 2*dl1 + 3)/2)_q, disagrees with
    # direct evaluation for l >= 1; keep its residual on record
    import stgo_kit.addition as addition
    from stgo_kit.special import hyp2f1, pochhammer

    def alt_radial(nu, l, l1, l2, nlt, ngt, x2):
        dl, dl1, dl2 = (l1 + l2 - l) // 2, (l - l1 + l2) // 2, (l + l1 - l2) // 2
        poch_main = pochhammer(-l - nu / 2.0, l2) / pochhammer(1.5, l1)
        cluster = pochhammer((nu - 2 * dl + 2) / 2.0, dl2) * pochhammer((nu - 2 * dl + 3) / 2.0, dl2)
        if poch_main == 0.0 or cluster == 0.0:
            return 0.0
        f21 = hyp2f1((2 * dl - nu) / 2.0, (-2 * dl1 - nu - 1) / 2.0, (2 * l1 + 3) / 2.0, x2)
        return (-1.0) ** l2 * poch_main * cluster * f21 * nlt**l1 * ngt ** (nu + 2 * dl1 + 1) * ngt ** (-l2 - 1)

    pair = make_pair(rng, 0.3)
    total = pair.r_lt + pair.r_gt
    want = np.linalg.norm(total) ** -1.0 * regular_solid((2, 1), total)
    res_default = power_solid_addition(-1.0, (2, 1), pair, TruncationSpec(30, 1e-12))
    assert res_default.value == pytest.approx(want, rel=1e-9)
    monkeypatch.setattr(addition, "_radial_factor", alt_radial)
    res_alt = power_solid_addition(-1.0, (2, 1), pair, TruncationSpec(30, 1e-12))
    alt_residual = abs(res_alt.value - want) / abs(want)
    assert alt_residual > 1e-3


def test_power_solid_geometric_shell_decay(rng):
    pair = make_pair(rng, 0.5)
    shells: list = []
    power_solid_addition(-1.0, (1, 0), pair, TruncationSpec(34, 1e-14), shells=shells)
    est = {l1: e for (l1, _, _, e) in shells if math.isfinite(e)}
    # once asymptotic, five extra shells gain at least ratio^4 on average;
    # individual pairs wobble with the angular structure, so allow slack per
    # pair and demand the bulk satisfy the strict bound
    strict = 0
    pairs = 0
    for l1 in range(8, 26):
        if l1 in est and (l1 + 5) in est and est[l1] > 0:
            pairs += 1
            ratio = est[l1 + 5] / est[l1]
            assert ratio < 0.5**4.0 * 4.0
            if ratio < 0.5**4.0:
                strict += 1
    assert pairs > 10 and strict >= 0.75 * pairs
    res = power_solid_addition(-1.0, (1, 0), pair, TruncationSpec(44, 1e-12))
    assert res.converged


def test_not_converged_flag(rng):
    pair = make_pair(rng, 0.95)
    res = power_scalar_addition(-1.0, pair, TruncationSpec(12, 1e-10))
    assert not res.converged
    assert res.est_error > 1e-10 * abs(res.value)


def test_term_budget_stops_solid_expansion(rng):
    pair = make_pair(rng, 0.9)
    res = power_solid_addition(-1.0, (2, 1), pair, TruncationSpec(60, 1e-14, max_terms=50))
    assert not res.converged


def test_boundary_and_origin_edges():
    pair = SplitPair(np.zeros(3), np.array([0, 0, 1.0]))
    res = power_scalar_addition(-1.0, pair, TruncationSpec(10, 1e-12))
    assert res.value == pytest.approx(1.0, rel=1e-12)
    # r_< = 0 leaves only the l1 = 0 shell of the solid expansion
    r = np.array([0.3, -0.5, 0.8])
    for nu in (-1.0, 1.5):
        for (l, m) in [(1, 0), (2, 1), (3, -2)]:
            res = power_solid_addition(nu, (l, m), SplitPair(np.zeros(3), r), TruncationSpec(10, 1e-12))
            assert res.converged
            assert res.value == pytest.approx(np.linalg.norm(r) ** nu * regular_solid((l, m), r), rel=1e-13)


def test_translation_table_values():
    t = translation_tensor_terms(1, 1)
    assert t[0, 0] == pytest.approx(4 * math.pi, rel=1e-14)
    assert t[1, 1] == pytest.approx(2 * math.pi / (2**3 * 1 * (0.5 * 1.5 * 2.5)), rel=1e-14)


def test_exp_dot_product(rng):
    for _ in range(4):
        a = rng.normal(size=3) * 0.8
        b = rng.normal(size=3) * 0.9
        got = exp_dot_product(a, b, 30, 30)
        assert got == pytest.approx(math.exp(float(a @ b)), rel=1e-10)
    # a orthogonal to b: only the scalar shell survives
    got = exp_dot_product([1.0, 0, 0], [0, 2.0, 0], 20, 20)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_solid_addition_via_operator_derivation(rng):
    # dual-route check at rank 1: differentiate the scalar expansion termwise
    # with the tensor derivative machinery (custom sampled radial profiles,
    # finite differences underneath) and compare with the rank-1 expansion
    from stgo_kit.harmonics import LMIndex
    from stgo_kit.special import hyp2f1, pochhammer
    from stgo_kit.stgo import TensorTerm, apply_to_tensor

    pair = make_pair(rng, 0.3)
    rlt = pair.r_lt
    nlt = float(np.linalg.norm(rlt))
    rgt = pair.r_gt
    ngt = float(np.linalg.norm(rgt))
    nu, m = 1.5, 1
    chi = nu + 2.0  # the rank-1 tensor is (1/chi) * operator applied to r^chi

    total_route = 0j
    for lam in range(0, 26):
        poch = float(pochhammer(-chi / 2.0, lam) / pochhammer(1.5, lam))

        def c_rad(r, lam=lam, poch=poch):
            x2 = (nlt / r) ** 2
            f21 = hyp2f1((2 * lam - chi) / 2.0, (-chi - 1) / 2.0, (2 * lam + 3) / 2.0, x2)
            return 4.0 * math.pi * (-1.0) ** lam * poch * f21 * r ** (chi + 1.0) * r ** (-lam - 1.0)

        for mu in range(-lam, lam + 1):
            ylt = regular_solid((lam, mu), rlt)
            if ylt == 0:
                continue
            prof = RadialProfile.custom(c_rad, max_derivative=3)
            term = TensorTerm(np.conj(ylt), prof, LMIndex(lam, mu))
            out = apply_to_tensor((1, m), term)
            total_route += out.evaluate(rgt)
    total_route /= chi

    res = power_solid_addition(nu, (1, m), pair, TruncationSpec(30, 1e-12))
    assert total_route == pytest.approx(res.value, rel=1e-8)
