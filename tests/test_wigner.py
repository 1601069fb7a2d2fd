"""Coupling coefficients: exact single symbols, recurrence strings, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgo_kit.errors import DomainError
from stgo_kit.harmonics import ylm_table
from stgo_kit.oracles import QuadratureGrid
from stgo_kit.wigner import (
    GauntQuery,
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
