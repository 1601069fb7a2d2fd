"""Coupling coefficients: exact single symbols, recurrence strings, quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgo_kit.errors import DomainError
from stgo_kit.harmonics import ylm_table
from stgo_kit.oracles import QuadratureGrid
from stgo_kit import verify
from stgo_kit.wigner import (
    GauntQuery,
    _gaunt_cache,
    coupled_range,
    delta_quantities,
    gaunt,
    gaunt_string,
    wigner3j,
    wigner3j_string,
)

SQ4PI = math.sqrt(4 * math.pi)


def test_wigner3j_values():
    assert wigner3j(0, 0, 0, 0, 0, 0) == 1.0
    assert wigner3j(1, 1, 0, 1, -1, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-15)
    assert wigner3j(5, 1, 3, 0, 0, 0) == 0.0  # triangle violation
    assert wigner3j(2, 2, 2, 1, 1, -1) == 0.0  # m sum violation


def test_wigner3j_zero_row_parity():
    for l1, l2, l3 in [(1, 1, 1), (3, 2, 2), (5, 4, 2)]:
        if (l1 + l2 + l3) % 2 == 1:
            assert wigner3j(l1, l2, l3, 0, 0, 0) == 0.0


def test_string_trivial_and_parity():
    assert wigner3j_string(0, 0, 0, 0) == [(0, 1.0)]
    st55 = wigner3j_string(5, 5, 0, 0)
    assert len(st55) == 11
    for l1, v in st55:
        if l1 % 2 == 1:
            assert v == 0.0
        else:
            assert v != 0.0


def test_string_matches_racah_to_high_l():
    cases = [(20, 20, 3, -7), (25, 18, -11, 6), (24, 25, 13, 9), (38, 38, -36, 37)]
    for (l2, l3, m2, m3) in cases:
        for l1, v in wigner3j_string(l2, l3, m2, m3):
            ref = wigner3j(l1, l2, l3, -(m2 + m3), m2, m3)
            if ref == 0.0:
                assert abs(v) < 1e-14
            else:
                assert v == pytest.approx(ref, rel=1e-12)


def test_string_orthogonality_sum_rule(rng):
    for _ in range(40):
        l2 = int(rng.integers(0, 26))
        l3 = int(rng.integers(0, 26))
        m2 = int(rng.integers(-l2, l2 + 1))
        m3 = int(rng.integers(-l3, l3 + 1))
        vals = wigner3j_string(l2, l3, m2, m3)
        s = sum((2 * l1 + 1) * v * v for l1, v in vals)
        assert s == pytest.approx(1.0, rel=1e-12)


def test_gaunt_values():
    assert gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(1 / SQ4PI, rel=1e-15)
    for l, m in [(1, 0), (3, 2), (6, -4)]:
        assert gaunt(0, 0, l, m, l, m) == pytest.approx(1 / SQ4PI, rel=1e-14)
    assert gaunt(1, 1, 1, 1, 2, 1) == 0.0  # m3 mismatch returns zero
    assert gaunt(1, 0, 1, 0, 3, 0) == 0.0  # triangle
    assert gaunt(2, 0, 2, 0, 3, 0) == 0.0  # parity
    assert gaunt(1, 1, 1, 0, 0, 1) == 0.0  # |m| > l treated as zero


def test_gaunt_210_110_110_against_quadrature():
    grid = QuadratureGrid.lebedev(302)
    tab = ylm_table(2, grid.nodes)
    val = complex(np.sum(np.conj(tab[2, 0 + 2]) * tab[1, 0 + 2] * tab[1, 0 + 2] * grid.weights))
    assert gaunt(1, 0, 1, 0, 2, 0) == pytest.approx(val.real, abs=1e-12)


def test_gaunt_string_examples(rng):
    assert gaunt_string(0, 0, 0, 0) == ((0, pytest.approx(1 / SQ4PI, rel=1e-14)),)
    st11 = dict(gaunt_string(1, 1, 1, -1))
    assert set(st11) == {0, 2}
    st65 = dict(gaunt_string(6, 2, 5, -1))
    assert set(st65) == {1, 3, 5, 7, 9, 11}
    for _ in range(40):
        l1 = int(rng.integers(0, 26))
        l2 = int(rng.integers(0, 26))
        m1 = int(rng.integers(-l1, l1 + 1))
        m2 = int(rng.integers(-l2, l2 + 1))
        for l, v in gaunt_string(l1, m1, l2, m2):
            ref = gaunt(l1, m1, l2, m2, l, m1 + m2)
            if ref == 0.0:
                assert abs(v) < 1e-14
            else:
                assert v == pytest.approx(ref, rel=1e-12)


def test_linearization_identity(rng):
    # product of two surface harmonics re-expanded over the coupled range
    from stgo_kit.harmonics import ylm

    for _ in range(20):
        l1 = int(rng.integers(0, 9))
        l2 = int(rng.integers(0, 9))
        m1 = int(rng.integers(-l1, l1 + 1))
        m2 = int(rng.integers(-l2, l2 + 1))
        th = float(rng.uniform(0.1, 3.0))
        ph = float(rng.uniform(0, 2 * math.pi))
        direct = ylm((l1, m1), th, ph) * ylm((l2, m2), th, ph)
        total = 0j
        for l, g in gaunt_string(l1, m1, l2, m2):
            total += g * ylm((l, m1 + m2), th, ph)
        assert abs(total - direct) < 1e-11


def test_coupled_range():
    r = coupled_range(1, 0, 1, 0)
    assert (r.l_min, r.l_max, r.step) == (0, 2, 2)
    assert list(r) == [0, 2]
    r = coupled_range(3, 3, 2, 2)
    assert (r.l_min, r.l_max) == (5, 5)
    r = coupled_range(2, 0, 2, 0)
    assert list(r) == [0, 2, 4]


@given(st.integers(0, 12), st.integers(0, 12), st.data())
@settings(max_examples=80)
def test_coupled_range_properties(l1, l2, data):
    m1 = data.draw(st.integers(-l1, l1))
    m2 = data.draw(st.integers(-l2, l2))
    r = coupled_range(l1, m1, l2, m2)
    assert r.l_max == l1 + l2
    assert r.l_min >= max(abs(l1 - l2), abs(m1 + m2))
    assert (r.l_max - r.l_min) % 2 == 0
    for l in r:
        d = delta_quantities(l1, l2, l)
        assert d.delta_l >= 0 and d.delta_l1 >= 0 and d.delta_l2 >= 0
        assert d.delta_l + d.delta_l1 + d.delta_l2 == d.sigma_l


def test_delta_quantities_values():
    d = delta_quantities(1, 1, 2)
    assert (d.delta_l, d.delta_l1, d.delta_l2, d.sigma_l) == (0, 1, 1, 2)
    d = delta_quantities(3, 3, 0)
    assert (d.delta_l, d.delta_l1, d.delta_l2, d.sigma_l) == (3, 0, 0, 3)
    d = delta_quantities(2, 1, 3)
    assert (d.delta_l, d.delta_l1, d.delta_l2, d.sigma_l) == (0, 1, 2, 3)
    with pytest.raises(DomainError):
        delta_quantities(2, 1, 2)


def test_gaunt_query_type():
    q = GauntQuery(1, 1, 1, -1, 2, 0)
    assert q.selection_rules_ok()
    with pytest.raises(DomainError):
        GauntQuery(1, 2, 1, -1, 2, 0)


def test_gaunt_string_cache_consistency():
    a = gaunt_string(4, 1, 3, -2)
    b = gaunt_string(4, 1, 3, -2)
    assert a == b
    # the cached string cannot be written through a returned reference
    with pytest.raises(TypeError):
        a[0] = (99, 99.0)
    assert gaunt_string(4, 1, 3, -2) == b


def _racah_reference(l1, l2, l3, m1, m2, m3):
    """(sign, squared value) of a 3j symbol: the Racah sum term by term in Fractions."""
    if m1 + m2 + m3 != 0 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return 0, Fraction(0)
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0, Fraction(0)
    f = math.factorial
    t_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    t_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = sum(
        Fraction(
            (-1) ** t,
            f(t) * f(l3 - l2 + t + m1) * f(l3 - l1 + t - m2) * f(l1 + l2 - l3 - t) * f(l1 - t - m1) * f(l2 - t + m2),
        )
        for t in range(t_min, t_max + 1)
    )
    if s == 0:
        return 0, Fraction(0)
    r = Fraction(f(l1 + l2 - l3) * f(l1 - l2 + l3) * f(-l1 + l2 + l3), f(l1 + l2 + l3 + 1))
    r *= f(l1 + m1) * f(l1 - m1) * f(l2 + m2) * f(l2 - m2) * f(l3 + m3) * f(l3 - m3)
    sign = (1 if s > 0 else -1) * (-1 if (l1 - l2 - m3) % 2 else 1)
    return sign, s * s * r


def _reference_3j(l1, l2, l3, m1, m2, m3):
    sign, sq = _racah_reference(l1, l2, l3, m1, m2, m3)
    return sign * math.sqrt(float(sq)) if sign else 0.0


def _reference_gaunt(l1, m1, l2, m2, l3, m3):
    if m3 != m1 + m2:
        return 0.0
    s0, sq0 = _racah_reference(l1, l2, l3, 0, 0, 0)
    sm, sqm = _racah_reference(l1, l2, l3, m1, m2, -m3)
    if s0 == 0 or sm == 0:
        return 0.0
    mag = math.sqrt(float(sq0 * sqm * Fraction((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1), 4)))
    return s0 * sm * (-1) ** m3 * mag / math.sqrt(math.pi)


def _exactness_sample():
    """2 000 seeded symbols with l <= 40 (a fifth of them with m = 0), then every m = 0 triple with l <= 20."""
    rng = np.random.default_rng(2005)
    out = []
    for k in range(2000):
        l1, l2 = (int(v) for v in rng.integers(0, 41, size=2))
        l3 = int(rng.integers(abs(l1 - l2), min(l1 + l2, 40) + 1)) if k % 10 else int(rng.integers(0, 41))
        m1, m2 = (0, 0) if k % 5 == 0 else (int(rng.integers(-l1, l1 + 1)), int(rng.integers(-l2, l2 + 1)))
        out.append((l1, l2, l3, m1, m2, -(m1 + m2)))
    out += [(l1, l2, l3, 0, 0, 0) for l1 in range(21) for l2 in range(21) for l3 in range(21)]
    return out


def test_wigner3j_and_gaunt_bit_identical_to_fraction_racah():
    n_nonzero = 0
    for l1, l2, l3, m1, m2, m3 in _exactness_sample():
        want = _reference_3j(l1, l2, l3, m1, m2, m3)
        assert wigner3j(l1, l2, l3, m1, m2, m3).hex() == want.hex(), (l1, l2, l3, m1, m2, m3)
        want = _reference_gaunt(l1, m1, l2, m2, l3, -m3)
        assert float(gaunt(l1, m1, l2, m2, l3, -m3)).hex() == float(want).hex(), (l1, m1, l2, m2, l3, -m3)
        n_nonzero += want != 0.0
    assert n_nonzero > 3000


def test_gaunt_string_with_l0_factor_is_y00_without_cache():
    y00 = 1.0 / math.sqrt(4.0 * math.pi)
    size, misses = len(_gaunt_cache), _gaunt_cache.misses
    for l in range(121):
        for m in range(-l, l + 1):
            for args in ((l, m, 0, 0), (0, 0, l, m)):
                ((l_out, v),) = gaunt_string(*args)
                assert l_out == l
                assert abs(v - y00) <= 1e-15 * y00
    assert (len(_gaunt_cache), _gaunt_cache.misses) == (size, misses)
    with pytest.raises(DomainError):
        gaunt_string(3, 4, 0, 0)


def test_gaunt_string_matches_per_entry_gaunt():
    rng = np.random.default_rng(77)
    for l1 in range(1, 26):
        for l2 in range(1, 26):
            m1 = int(rng.integers(-l1, l1 + 1))
            m2 = int(rng.integers(-l2, l2 + 1))
            for l, v in gaunt_string(l1, m1, l2, m2):
                w = gaunt(l1, m1, l2, m2, l, m1 + m2)
                assert abs(v - w) <= 1e-14 * abs(w), (l1, m1, l2, m2, l)


def test_gaunt_cache_holds_the_verify_addition_working_set():
    _gaunt_cache.clear()
    verify.suite_addition(21)
    assert _gaunt_cache.misses == len(_gaunt_cache) > 0 and _gaunt_cache.evictions == 0
    hits, misses = _gaunt_cache.hits, _gaunt_cache.misses
    verify.suite_addition(22)
    assert _gaunt_cache.misses == misses and _gaunt_cache.evictions == 0
    assert _gaunt_cache.hits > hits
    _gaunt_cache.clear()
    assert (_gaunt_cache.hits, _gaunt_cache.misses, _gaunt_cache.evictions, len(_gaunt_cache)) == (0, 0, 0, 0)
