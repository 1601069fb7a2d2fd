"""The verify error rule: reference floors, tolerance overrides, nodal seeds."""

import math

import pytest

from stgo_kit import verify


def _hex_row(case):
    return {k: (v.hex() if isinstance(v, float) else v) for k, v in case.to_dict().items()}


@pytest.mark.parametrize(
    "lhs, rhs, floor",
    [
        (1.0 + 1e-12, 1.0, 1.0),
        (0.3 + 2e-15, 0.3, 0.1),
        (-2.5e-7, -2.5e-7 * (1 + 3e-14), 1e-7),
        (complex(0.6, 0.8 + 1e-13), complex(0.6, 0.8), 0.5),
        (7.0, -7.0, 7.0),
    ],
)
def test_make_case_floor_below_reference_is_bit_identical(lhs, rhs, floor):
    # where |rhs| >= floor the row is the plain relative row, bit for bit
    assert abs(rhs) >= floor
    for tol in (1e-13, 1e-8, 1.0):
        assert _hex_row(verify.make_case("c", lhs, rhs, tol, floor)) == _hex_row(verify.make_case("c", lhs, rhs, tol))


def test_make_case_floor_above_reference_measures_in_floor_units():
    case = verify.make_case("c", 1e-3 + 4e-16, 1e-3, 1e-13, floor=1.0)
    assert case.abs_err == pytest.approx(4e-16, rel=1e-3)
    assert case.rel_err == case.abs_err
    assert case.passed
    # a zero reference with no declared floor fails on any error
    assert not verify.make_case("c", 1e-30, 0.0, 1e-13).passed
    assert verify.make_case("c", 0.0, 0.0, 1e-13).passed


def test_tol_override_keeps_each_rows_errors(monkeypatch):
    # the override re-decides pass only; the errors stay those measured on
    # the full values, not on their stored float projections (|z| for a
    # complex value), and a floored row stays absolute
    rows = [
        verify.make_case("phase", 1j, 1.0, 1e-13),
        verify.make_case("quad", 0.1 + 1e-11, 0.1, 1e-10, floor=1.0),
    ]
    monkeypatch.setitem(verify.SUITES, "fake", lambda seed: list(rows))
    loose = verify.run_suite("fake", tol=1.0)
    for a, b in zip(rows, loose.cases):
        assert (b.id, b.lhs, b.rhs, b.abs_err, b.rel_err) == (a.id, a.lhs, a.rhs, a.abs_err, a.rel_err)
        assert b.tol == 1.0 and b.passed == (b.rel_err <= 1.0)
    assert loose.cases[0].abs_err == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert not loose.cases[0].passed


@pytest.mark.parametrize("seed", [258, 197387982, 287335975])
def test_terminating_addition_passes_at_nodal_seeds(seed):
    # r_< + r_> lies near the nodal set of R_2^1 at these seeds: the
    # terminating sum cancels to ~1e-3 of its shells, and whether a plain
    # 1e-13 relative check passes there hangs on the shells' float64 roundoff
    cases = [c for c in verify.suite_addition(seed) if c.id.startswith("addition/terminating")]
    assert len(cases) == 9
    assert not [(c.id, c.rel_err) for c in cases if not c.passed]
