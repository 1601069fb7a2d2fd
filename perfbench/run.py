#!/usr/bin/env python3
"""stgo-kit benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload addition-batch --seed 1 --seconds 40 --trace 0

Workloads are addition-mixed, addition-batch and verify-all (see
perfbench/README.md for why each is there).  The library is imported from
./src of the checkout, never from an installed copy; without ./src the run
exits non-zero before printing a result.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run: half the time under the span tracer, then the same
requests again untraced in a fresh interpreter, so the tracing overhead is
measured on identical requests from equally cold caches.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the line before it
is a report with the environment stamp, error_rate and op_tail_ms.  `correct`
is false when any output is wrong beyond the baseline's known failures (see
workloads.check).
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, so imports are included

import argparse
import hashlib
import inspect
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # setup_s is the median of this many set-ups, one in this process

# span name -> (module, function); the layer is the part before the first dot.
TARGETS = {
    "special.hyp2f1": ("stgo_kit.special", "hyp2f1"),
    "special.pochhammer": ("stgo_kit.special", "pochhammer"),
    "special.spherical_bessel_j": ("stgo_kit.special", "spherical_bessel_j"),
    "special.khat_half": ("stgo_kit.special", "khat_half"),
    "harmonics.ylm_table": ("stgo_kit.harmonics", "ylm_table"),
    "harmonics.regular_solid": ("stgo_kit.harmonics", "regular_solid"),
    "wigner.gaunt_string": ("stgo_kit.wigner", "gaunt_string"),
    "wigner.wigner3j_string": ("stgo_kit.wigner", "wigner3j_string"),
    "wigner.wigner3j": ("stgo_kit.wigner", "wigner3j"),
    "wigner.gaunt": ("stgo_kit.wigner", "gaunt"),
    "stgo.gamma_radial_profile": ("stgo_kit.stgo", "gamma_radial_profile"),
    "stgo.hobson_harmonic": ("stgo_kit.stgo", "hobson_harmonic"),
    "bfun.convolve": ("stgo_kit.bfun", "convolve"),
    "bfun.b_fourier_radial": ("stgo_kit.bfun", "b_fourier_radial"),
    "addition.power_solid_addition": ("stgo_kit.addition", "power_solid_addition"),
    "addition.solid_harmonic_shift": ("stgo_kit.addition", "solid_harmonic_shift"),
    "addition.laplace_expansion": ("stgo_kit.addition", "laplace_expansion"),
    "oracles.hankel_radial_ft": ("stgo_kit.oracles", "hankel_radial_ft"),
    "oracles.momentum_convolution": ("stgo_kit.oracles", "momentum_convolution"),
    "oracles.fd_apply_operator": ("stgo_kit.oracles", "fd_apply_operator"),
    "oracles.spherical_jl_array": ("stgo_kit.oracles", "spherical_jl_array"),
    "oracles.default_sphere_grid": ("stgo_kit.oracles", "default_sphere_grid"),
}
SUITES = ("gamma-forms", "hobson", "gaunt", "bfun-fourier", "convolution", "addition")
SUITE_TARGETS = {f"verify.suite.{name}": ("stgo_kit.verify", f"suite_{name.replace('-', '_')}") for name in SUITES}
LAYERS = ("special", "harmonics", "wigner", "stgo", "bfun", "addition", "oracles", "verify")


def measure(workload: str, stream, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: each operation starts after the previous one is checked.

    The loop stops at the first round boundary after `seconds`, or when the
    stream ends.  With a tracer, every call runs with the tracer installed;
    it is taken out between calls, while the next request is drawn.  `wrong`
    counts operations whose output no correct library returns (see
    workloads.check), including calls that raised something other than a
    StgoError.
    """
    import workloads
    from stgo_kit.errors import StgoError

    call = workloads.call if tracer is None else tracer.wrap("op", workloads.call)
    done, latencies, attempted, failed, wrong = [], [], 0, 0, 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    for req in stream:
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            out = call(workload, req)
        except StgoError as exc:
            out = exc
        except Exception:  # the library may raise only StgoError; count and go on
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
        a, f, w = (1, 1, True) if out is None else workloads.check(workload, req, out)
        attempted += a
        failed += f
        wrong += w
        latencies.append(dt)
        done.append(req)
        if time.perf_counter() >= deadline and len(latencies) % workloads.ROUND[workload] == 0:
            break
    return {
        "requests": done,
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "wall_s": time.perf_counter() - t_start,
    }


def measure_for(workload: str, stream, seconds: float, tracer=None) -> dict:
    """A run of `seconds`: to a deadline on verify-all, a fixed request count on the addition workloads."""
    import workloads

    n = workloads.fixed_length(workload, seconds)
    if n is None:
        return measure(workload, stream, seconds, tracer)
    return measure(workload, itertools.islice(stream, n), math.inf, tracer)


def tail(latencies: list):
    """(percentile, value): the highest rank with at least ten samples beyond it; None below the median."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def end_to_end(run: dict, setup_s: float) -> dict:
    lat = run["latencies_s"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(lat) / run["wall_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(workload: str, run: dict, replay: dict, tracer) -> dict:
    """Per-layer metrics of a traced run; replay is the same requests run untraced in a fresh interpreter."""
    import spans
    import workloads
    from stgo_kit import addition as add

    n_traced = len(run["latencies_s"])
    by_name = spans.per_name(tracer)
    out = {}
    for name in TARGETS:
        calls, self_s, _ = by_name.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = {"value": calls / n_traced, "unit": "calls/op"}
        out[f"{name}.self_s"] = {"value": self_s / n_traced, "unit": "s/op"}
    hits, gaunt_calls = spans.cache_hits(tracer, "wigner.gaunt_string", "wigner.wigner3j_string")
    out["wigner.gaunt_string.hit_ratio"] = {"value": hits / gaunt_calls if gaunt_calls else 0.0, "unit": "fraction"}

    # Expansion quality over every power_solid_addition call in traced operations.
    sig = inspect.signature(add.power_solid_addition)
    shells, converged, honest = [], [], []
    for args, kwargs, res in tracer.returns["addition.power_solid_addition"]:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        idx, pair = b.arguments["idx"], b.arguments["pair"]
        l, m = (idx.l, idx.m) if hasattr(idx, "l") else idx
        want = workloads.direct_value(b.arguments["nu"], l, m, pair.r_lt + pair.r_gt)
        shells.append(res.outer_l_used + 1)
        converged.append(res.converged)
        honest.append(res.est_error >= abs(complex(res.value) - want))
    out["addition.shells_per_op"] = {"value": statistics.fmean(shells) if shells else 0.0, "unit": "shells/op"}
    out["addition.converged_ratio"] = {"value": statistics.fmean(converged) if converged else 0.0, "unit": "fraction"}
    out["addition.est_error_honest_ratio"] = {"value": statistics.fmean(honest) if honest else 0.0, "unit": "fraction"}

    for name in SUITES:
        _, _, incl = by_name.get(f"verify.suite.{name}", (0, 0.0, 0.0))
        out[f"verify.suite.{name}_s"] = {"value": incl / n_traced, "unit": "s/op"}
    cases = run["attempted"] / n_traced if workload == "verify-all" else 0.0
    out["verify.cases"] = {"value": cases, "unit": "cases/op"}

    op_s = by_name["op"][2]
    for layer in LAYERS:
        layer_self = sum(v[1] for k, v in by_name.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_share"] = {"value": layer_self / op_s, "unit": "fraction"}

    on = statistics.median(run["latencies_s"]) * 1e3
    off = statistics.median(replay["latencies_s"]) * 1e3
    out["trace.traced_p50_ms"] = {"value": on, "unit": "ms"}
    out["trace.untraced_p50_ms"] = {"value": off, "unit": "ms"}
    out["trace.overhead_ms"] = {"value": on - off, "unit": "ms"}
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the checkout's own .git, or None when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the library's source files, which identifies the code when there is no commit."""
    h = hashlib.sha256()
    pkg = SRC / "stgo_kit"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(workload: str) -> float:
    """Import the library and do the workload's one-time work; seconds since this process started."""
    import workloads

    workloads.prepare(workload)
    return time.perf_counter() - _T0


def in_fresh_process(workload: str, seed: int, *args: str) -> dict:
    """Run this script with extra args in a fresh interpreter; its last line of stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("addition-mixed", "addition-batch", "verify-all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", type=int, help=argparse.SUPPRESS)  # run the first N requests untraced
    args = ap.parse_args(argv)

    if not (SRC / "stgo_kit" / "__init__.py").is_file():
        print(f"error: {SRC / 'stgo_kit'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stgo_kit

    if Path(stgo_kit.__file__).resolve().parent != SRC / "stgo_kit":
        print(f"error: imported stgo_kit from {stgo_kit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup_s = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    stream = workloads.requests(args.workload, args.seed)
    if args.replay is not None:
        replay = measure(args.workload, itertools.islice(stream, args.replay), math.inf)
        del replay["requests"]
        print(json.dumps(replay))
        return 0
    if args.trace:
        import spans

        # Half the time traced, then the same requests again untraced in a
        # fresh interpreter, whose caches start as cold as this one's did: the
        # difference of the two medians is the tracing overhead.
        tracer = spans.Tracer({**TARGETS, **SUITE_TARGETS}, keep_returns=("addition.power_solid_addition",))
        run = measure_for(args.workload, stream, args.seconds / 2, tracer)
        replay = in_fresh_process(args.workload, args.seed, "--replay", str(len(run["latencies_s"])))
        checked = (run, replay)
    else:
        run = measure_for(args.workload, stream, args.seconds)
        checked = (run,)
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    wrong = sum(r["wrong"] for r in checked)

    report = {"env": environment(args.workload, args.seed), "trace": args.trace, "ops": len(run["latencies_s"])}
    report["attempted"], report["failed"], report["error_rate"] = attempted, failed, failed / attempted
    report["wrong"] = wrong
    if not args.trace:
        samples = [setup_s]
        samples += [in_fresh_process(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(run, statistics.median(samples))
        report["setup_samples_s"] = samples
        report["metrics"] = dict(metrics)
        report["metrics"]["error_rate"] = {"value": report["error_rate"], "unit": "fraction"}
        t = tail(run["latencies_s"])
        if t is not None:
            report["metrics"]["op_tail_ms"] = {
                "value": t[1] * 1e3,
                "unit": "ms",
                "percentile": t[0],
                "samples": len(run["latencies_s"]),
            }
    else:
        metrics = per_layer(args.workload, run, replay, tracer)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
        report["spans"] = len(tracer.start)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
