"""The benchmark's workloads: a seeded request stream, the timed call, and its check.

Every workload drives stgo_kit only through its public functions and looks
them up on their modules at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from stgo_kit import addition as add
from stgo_kit import harmonics, oracles, verify
from stgo_kit.errors import StgoError

WORKLOADS = ("addition-mixed", "addition-batch", "verify-all")

# radius ratio -> (relative tol, l_max_outer).  At 0.9 a 1e-10 tolerance is
# out of reach, so that class asks for 1e-6 within the 120 shells that
# `stgo bench addition` allows.
SPEC = {0.4: (1e-10, 60), 0.7: (1e-10, 60), 0.9: (1e-6, 120)}

_MIXED_NUS = (-3.0, -1.0, -0.5, 0.5, 1.5)
_MIXED_RATIOS = (0.4, 0.7, 0.9)
# addition-batch: the reference shape nu = -1, (l, m) = (2, 1), with one
# geometry at ratio 0.4 per two at 0.7, so the median falls inside the 0.7
# class instead of in the gap between the two classes.
_BATCH_ROUND = [(-1.0, 0.4, 2), (-1.0, 0.7, 2), (-1.0, 0.7, 2)]
# Requests per round.  A run ends on a round boundary, so every run holds
# whole rounds.
ROUND = {"addition-mixed": len(_MIXED_NUS) * len(_MIXED_RATIOS), "addition-batch": len(_BATCH_ROUND), "verify-all": 1}
# A run of verify-all goes on until a deadline: its passes are alike and no
# case fails.  A run of an addition workload is instead a fixed number of
# rounds, one per this many seconds asked for, so the requests a seed gives,
# and so the operations that fail, do not depend on the speed of the code or
# the machine.  The rounds of addition-mixed also differ in l and angle (see
# mixed_round), so a deadline would let that speed pick the mix.  Its rounds
# come in the order 0, 2, 1, 3, so two rounds give every (nu, ratio) one l of
# each parity and four hold every (nu, ratio, l).  A round of addition-batch
# took about 0.5 s when the benchmark was first run.
ROUND_S = {"addition-mixed": 20.0, "addition-batch": 0.6}
_MIXED_ORDER = (0, 2, 1, 3)

# An expansion is wrong, not merely failed, when its true error exceeds this
# many times its own error bound.  Over 1 080 expansions of the library as
# first benchmarked the largest multiple was 34, at ratio 0.9, where some
# results report converged with too small an est_error; a broken term gives
# errors of order one against an est_error near tol.
WRONG_FACTOR = 1000.0

# Draws whose direct value is this far below its |r|^(nu+l) scale sit on the
# angular nodal set, where a relative comparison only measures cancellation
# roundoff; they are redrawn, as the verify addition suite does.
_NODAL_FLOOR = 1e-2


@dataclass(frozen=True)
class Expansion:
    """One power_solid_addition request and the direct value |r|^nu R_l^m(r), r = r_lt + r_gt."""

    nu: float
    l: int
    m: int
    r_lt: np.ndarray
    r_gt: np.ndarray
    tol: float
    l_max_outer: int
    want: complex


def direct_value(nu: float, l: int, m: int, r) -> complex:
    """|r|^nu times the regular solid harmonic R_l^m(r)."""
    return complex(float(np.linalg.norm(r)) ** nu * harmonics.regular_solid((l, m), r))


def _unit(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def _draw(rng, nu: float, l: int, m: int, ratio: float, cos_gamma: float) -> Expansion:
    """A request whose r_lt (length ratio) and unit r_gt enclose the angle acos(cos_gamma).

    The pair has a random orientation, so each vector alone is uniform on its
    sphere; for cos_gamma uniform in [-1, 1] so is the pair.
    """
    tol, l_max_outer = SPEC[ratio]
    sin_gamma = math.sqrt(1.0 - cos_gamma * cos_gamma)
    while True:
        r_gt, w = _unit(rng), _unit(rng)
        w -= (w @ r_gt) * r_gt
        r_lt = ratio * (cos_gamma * r_gt + sin_gamma * w / np.linalg.norm(w))
        r = r_lt + r_gt
        want = direct_value(nu, l, m, r)
        scale = float(np.linalg.norm(r)) ** (nu + l) * math.sqrt((2 * l + 1) / (4 * math.pi))
        if abs(want) >= _NODAL_FLOOR * scale:
            return Expansion(nu, l, m, r_lt, r_gt, tol, l_max_outer, want)


def requests(workload: str, seed: int):
    """Endless request stream of a workload; the same seed gives the same stream."""
    rng = np.random.default_rng(seed)
    if workload == "verify-all":
        while True:
            yield int(rng.integers(2**31))  # the seed of the next verify pass
    mixed = workload == "addition-mixed"
    n = ROUND[workload]
    k = 0
    while True:
        shapes = mixed_round(k) if mixed else _BATCH_ROUND
        for i in rng.permutation(n):
            if mixed:
                nu, ratio, l, stratum = shapes[i]
                m = int(rng.integers(-l, l + 1))
                cos_gamma = -1.0 + 2.0 * (stratum + rng.random()) / n
            else:
                nu, ratio, l = shapes[i]
                m, cos_gamma = 1, rng.uniform(-1.0, 1.0)
            yield _draw(rng, nu, l, m, ratio, cos_gamma)
        k += 1


def fixed_length(workload: str, seconds: float):
    """Requests in a run of `seconds`, for a workload that runs a fixed count; else None."""
    if workload not in ROUND_S:
        return None
    return ROUND[workload] * max(1, round(seconds / ROUND_S[workload]))


def mixed_round(k: int) -> list:
    """(nu, ratio, l, angle stratum) of round k of addition-mixed: every (nu, ratio) once.

    With r = (0, 2, 1, 3)[k mod 4], the i-th nu and the j-th ratio get
    l = (i + j + r) mod 4, so four rounds hold all 60 (nu, ratio, l) once, and
    the cosine of the angle between r_< and r_> falls in stratum
    (3i + j + 4r) mod 15 of 15 equal slices of [-1, 1].  The cost of an
    expansion depends steeply on nu, ratio, l and the shells its angle needs;
    drawing them at random made a run's cost depend on the seed more than on
    the code.  The seed orders a round and draws m, the orientation and the
    angle within its stratum.
    """
    r = _MIXED_ORDER[k % 4]
    return [
        (nu, ratio, (i + j + r) % 4, (3 * i + j + 4 * r) % 15)
        for i, nu in enumerate(_MIXED_NUS)
        for j, ratio in enumerate(_MIXED_RATIOS)
    ]


def prepare(workload: str):
    """Work done once before the first timed call: the sphere grids the verify suites load."""
    if workload == "verify-all":
        for points in (302, 590):
            oracles.default_sphere_grid(points)


def call(workload: str, req):
    """The timed operation: one expansion to its tolerance, or one `verify all` pass."""
    if workload == "verify-all":
        return verify.run_suite("all", seed=req, threads=1)
    pair = add.SplitPair.from_vectors(req.r_lt, req.r_gt)
    return add.power_solid_addition(req.nu, (req.l, req.m), pair, add.TruncationSpec(req.l_max_outer, req.tol))


def check(workload: str, req, out) -> tuple[int, int, bool]:
    """(attempted, failed, wrong) for one operation; out is the call's result or the StgoError it raised.

    An expansion fails if it raised, is not finite, reports converged=False, or
    differs from the direct value by more than its relative tol.  A verify pass
    attempts one check per case and fails the cases whose `pass` is false.

    Failures are counted, since the library as first benchmarked already has
    some (see README.md).  `wrong` marks an output that library never gives,
    and makes the run's result `correct: false`: a verify pass with a failed
    case, or an expansion that is not finite or whose true error exceeds
    WRONG_FACTOR times the larger of its own est_error and its tol.
    """
    if isinstance(out, StgoError):
        return 1, 1, False
    if workload == "verify-all":
        failed = sum(not c.passed for c in out.cases)
        return len(out.cases), failed, failed > 0
    value = complex(out.value)
    if not cmath.isfinite(value):
        return 1, 1, True
    err = abs(value - req.want)
    ok = out.converged and err <= req.tol * abs(req.want)
    wrong = err > WRONG_FACTOR * max(out.est_error, req.tol * abs(req.want))
    return 1, int(not ok), bool(wrong)  # est_error may be a numpy float
