"""Tests of the benchmark itself: input streams, span arithmetic, output checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import sys
from itertools import islice

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from stgo_kit import addition as add  # noqa: E402
from stgo_kit import verify, wigner  # noqa: E402
from stgo_kit.errors import ConvergenceError  # noqa: E402


def _key(req):
    if isinstance(req, int):
        return req
    return (req.nu, req.l, req.m, tuple(req.r_lt), tuple(req.r_gt), req.tol, req.l_max_outer, req.want)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_stream(workload):
    first = [_key(r) for r in islice(workloads.requests(workload, 7), 40)]
    again = [_key(r) for r in islice(workloads.requests(workload, 7), 40)]
    other = [_key(r) for r in islice(workloads.requests(workload, 8), 40)]
    assert first == again
    assert first != other


def test_mixed_rounds_hold_every_class_once():
    stream = workloads.requests("addition-mixed", 3)
    seen = []
    for k in range(4):
        reqs = list(islice(stream, 15))
        round_ = [(r.nu, round(float(np.linalg.norm(r.r_lt)), 12), r.l) for r in reqs]
        strata = [int((1.0 + r.r_lt @ r.r_gt / np.linalg.norm(r.r_lt)) * 7.5) for r in reqs]
        assert sorted(zip(round_, strata)) == sorted((shape[:3], shape[3]) for shape in workloads.mixed_round(k))
        assert sorted((nu, ratio) for nu, ratio, _ in round_) == sorted(
            (nu, ratio) for nu in (-3.0, -1.0, -0.5, 0.5, 1.5) for ratio in (0.4, 0.7, 0.9)
        )
        seen += round_
        if k == 1:  # two rounds give every (nu, ratio) one l of each parity
            by_class = {}
            for nu, ratio, l in seen:
                by_class.setdefault((nu, ratio), []).append(l)
            assert all(abs(a - b) == 2 for a, b in by_class.values())
    assert len(set(seen)) == 60  # every (nu, ratio, l) once in four rounds


def test_self_time_of_nested_calls():
    ticks = iter([0, 10, 30, 40, 50, 65, 90, 100])
    tracer = spans.Tracer({}, clock=lambda: next(ticks))
    a = tracer.wrap("a", lambda: None)

    def b_body():
        a()

    b = tracer.wrap("b", b_body)

    def outer_body():
        a()
        b()

    tracer.wrap("outer", outer_body)()
    arr = tracer.arrays()
    assert list(arr["parent"]) == [-1, 0, 0, 2]
    assert list(spans.self_ns(arr["parent"], arr["start"], arr["end"])) == [30, 20, 35, 15]
    by_name = spans.per_name(tracer)
    assert by_name["outer"] == (1, pytest.approx(30e-9), pytest.approx(100e-9))
    assert by_name["a"] == (2, pytest.approx(35e-9), pytest.approx(35e-9))
    assert by_name["b"] == (1, pytest.approx(35e-9), pytest.approx(50e-9))


def test_hits_are_outer_spans_without_the_inner_call():
    tracer = spans.Tracer({})
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda miss: inner() if miss else None)
    for miss in (True, False, False):
        outer(miss)
    assert spans.cache_hits(tracer, "outer", "inner") == (2, 3)


def test_install_wraps_the_name_each_caller_looks_up():
    original = wigner.gaunt_string
    tracer = spans.Tracer(run.TARGETS)
    tracer.install()
    try:
        assert add.gaunt_string is not original and wigner.gaunt_string is add.gaunt_string
        pair = add.SplitPair.from_vectors([0.1, 0.2, 0.0], [0.0, 0.3, 1.0])
        add.power_solid_addition(-1.0, (1, 0), pair, add.TruncationSpec(4, 1e-3))
    finally:
        tracer.uninstall()
    assert add.gaunt_string is original and wigner.gaunt_string is original
    arr = tracer.arrays()
    outer = tracer.names.index("addition.power_solid_addition")
    gaunt_parents = arr["parent"][arr["name"] == tracer.names.index("wigner.gaunt_string")]
    assert len(gaunt_parents) > 0 and all(arr["name"][gaunt_parents] == outer)


def _fake_expansion(off):
    """power_solid_addition that returns the direct value off by `off` times the request's tol.

    Its est_error is ten times tol, as a numpy float, as the library's can be.
    """

    def fake(nu, idx, pair, trunc):
        want = workloads.direct_value(nu, idx[0], idx[1], pair.r_lt + pair.r_gt)
        est = np.float64(10 * trunc.tol * abs(want))
        return add.AdditionResult(want * (1.0 + off * trunc.tol), 10, est, True)

    return fake


@pytest.mark.parametrize("workload", ["addition-mixed", "addition-batch"])
def test_wrong_value_is_counted_as_failed(workload, monkeypatch):
    n = workloads.ROUND[workload]  # a run is at least one round
    for off, failed, wrong in ((0.0, 0, 0), (30.0, n, 0), (1e6, n, n)):
        monkeypatch.setattr(add, "power_solid_addition", _fake_expansion(off))
        res = run.measure(workload, workloads.requests(workload, 5), 0)
        assert (res["attempted"], res["failed"], res["wrong"]) == (n, failed, wrong)
        assert all(type(res[k]) is int for k in ("attempted", "failed", "wrong"))  # for json.dumps


def test_non_finite_value_is_wrong(monkeypatch):
    fake = lambda nu, idx, pair, trunc: add.AdditionResult(complex("nan"), 10, 0.0, True)  # noqa: E731
    monkeypatch.setattr(add, "power_solid_addition", fake)
    res = run.measure("addition-batch", workloads.requests("addition-batch", 5), 0)
    assert (res["failed"], res["wrong"]) == (3, 3)


@pytest.mark.parametrize("off, correct", [(30.0, True), (1e6, False)])
def test_injected_wrong_value_makes_result_incorrect(off, correct, monkeypatch, capsys):
    monkeypatch.setattr(add, "power_solid_addition", _fake_expansion(off))
    assert run.main(["--workload", "addition-batch", "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (correct, 3, 3)


def test_raised_errors_are_failed_operations(monkeypatch):
    def raises(exc):
        def fake(*args, **kwargs):
            raise exc

        return fake

    monkeypatch.setattr(add, "power_solid_addition", raises(ConvergenceError("no")))
    assert run.measure("addition-batch", workloads.requests("addition-batch", 5), 0)["failed"] == 3
    monkeypatch.setattr(add, "power_solid_addition", raises(RuntimeError("bug")))
    broken = run.measure("addition-batch", workloads.requests("addition-batch", 5), 0)
    assert (broken["failed"], broken["wrong"]) == (3, 3)


def test_verify_pass_counts_failed_cases(monkeypatch):
    cases = [verify.make_case("ok", 1.0, 1.0, 1e-12), verify.make_case("off", 1.0, 2.0, 1e-12)]
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: verify.VerifyReport("all", cases, 0.0))
    res = run.measure("verify-all", workloads.requests("verify-all", 5), 0)
    assert (res["attempted"], res["failed"], res["wrong"]) == (2, 1, 1)


def test_addition_runs_a_fixed_number_of_rounds():
    assert workloads.fixed_length("addition-mixed", 40) == 30
    assert workloads.fixed_length("addition-mixed", 20) == 15
    assert workloads.fixed_length("addition-mixed", 1) == 15
    assert workloads.fixed_length("addition-batch", 40) == 3 * 67
    assert workloads.fixed_length("addition-batch", 0) == 3
    assert workloads.fixed_length("verify-all", 40) is None


def test_replay_runs_the_first_requests_in_a_fresh_interpreter():
    replay = run.in_fresh_process("addition-batch", 5, "--replay", "4")
    assert replay["attempted"] == len(replay["latencies_s"]) == 4


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([0.1] * 19) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer({**run.TARGETS, **run.SUITE_TARGETS}, keep_returns=("addition.power_solid_addition",))
    traced = run.measure("addition-batch", workloads.requests("addition-batch", 5), 0, tracer)
    replay = run.measure("addition-batch", iter(traced["requests"]), math.inf)
    assert [r.want for r in replay["requests"]] == [r.want for r in traced["requests"]]
    layer = run.per_layer("addition-batch", traced, replay, tracer)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert [v["unit"] for v in layer.values()] == [m["unit"] for m in spec["per_layer"]]
    e2e = run.end_to_end(replay, 0.1)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [v["unit"] for v in e2e.values()] == [m["unit"] for m in spec["end_to_end"]]
