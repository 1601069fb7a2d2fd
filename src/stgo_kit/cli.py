"""Command-line interface: evaluation, tabulation, identity verification, and timing.

Exit codes: 0 success, 1 mathematical/verification failure, 2 usage error.
All numeric output is printed with 17 significant digits so reports can be
used as round-trip-safe regression fixtures.  Complex numbers appear as
{"re": ..., "im": ...}; vector flags use the comma form x,y,z.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import addition as addmod
from . import bench as benchmod
from . import bfun
from . import verify as verifymod
from .errors import StgoError
from .harmonics import irregular_solid, regular_solid, regular_solid_poly, ylm
from .radial import RadialProfile
from .special import khat
from .stgo import TensorTerm, apply_to_tensor
from .harmonics import LMIndex


def _fmt(x: float) -> float:
    return float(f"{x:.17g}")


def _cplx(z) -> dict:
    z = complex(z)
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected x,y,z")
    return np.array([float(p) for p in parts])


def _lm_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected l,m")
    return int(parts[0]), int(parts[1])


def _parse_profile(spec: str) -> RadialProfile:
    """Profile specs: gaussian:<alpha>, power:<sigma>, rbessel:<n>,<alpha>, yukawa:<alpha>."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "gaussian":
            return RadialProfile.gaussian(float(rest))
        if kind == "power":
            return RadialProfile.power(float(rest))
        if kind == "rbessel":
            n_text, alpha_text = rest.split(",")
            return RadialProfile.reduced_bessel_half(int(n_text), float(alpha_text))
        if kind == "yukawa":
            return RadialProfile.yukawa(float(rest))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad profile spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown profile kind {kind!r}")


def _emit(payload, json_path):
    text = json.dumps(payload, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_eval(args) -> int:
    out: dict
    if args.what == "ylm":
        val = ylm((args.l, args.m), args.theta, args.phi)
        out = _cplx(val)
    elif args.what == "regular":
        val = regular_solid((args.l, args.m), _vec(args.r))
        out = _cplx(val)
    elif args.what == "zlm":
        val = irregular_solid((args.l, args.m), _vec(args.r))
        out = _cplx(val)
    elif args.what == "bfun":
        idx = bfun.BIndex(args.n, args.l, args.m, args.alpha)
        out = _cplx(bfun.b_value(idx, _vec(args.r)))
    elif args.what == "khat":
        out = {"value": _fmt(khat(args.nu, args.z))}
    else:
        raise StgoError(f"unknown eval target {args.what}")
    if args.dump_poly:
        poly = regular_solid_poly(args.l, args.m)
        out["poly"] = [
            {"a": a, "b": b, "c": c, "re": _fmt(coeff.real), "im": _fmt(coeff.imag)}
            for (a, b, c, coeff) in sorted(poly.monomials())
        ]
    _emit(out, args.json)
    return 0


def _cmd_gaunt(args) -> int:
    from .wigner import gaunt_string

    writer = csv.writer(sys.stdout)
    writer.writerow(["l1", "m1", "l2", "m2", "l", "value"])
    rows = []
    for l, v in gaunt_string(args.l1, args.m1, args.l2, args.m2):
        rows.append([args.l1, args.m1, args.l2, args.m2, l, f"{v:.17g}"])
        writer.writerow(rows[-1])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([{"l": int(r[4]), "value": float(r[5])} for r in rows], fh, indent=2)
    return 0


def _cmd_apply(args) -> int:
    prof = _parse_profile(args.target)
    l2, m2 = args.target_l, args.target_m
    term = TensorTerm(1.0 + 0j, prof, LMIndex(l2, m2))
    result = apply_to_tensor(args.op, term)
    at = _vec(args.at)
    rr = float(np.linalg.norm(at))
    terms = []
    for t in result.terms:
        terms.append(
            {
                "l": t.angular.l,
                "m": t.angular.m,
                "radial_value": _fmt(float(np.real(t.radial.value(rr)))) if rr > 0 else None,
                "coeff": _cplx(t.coeff),
            }
        )
    _emit({"terms": terms, "total": _cplx(result.evaluate(at))}, args.json)
    return 0


def _cmd_bfun(args) -> int:
    idx = bfun.BIndex(args.n, args.l, args.m, args.alpha)
    if args.action == "value":
        if args.r is None:
            raise argparse.ArgumentTypeError("bfun value needs --r x,y,z")
        _emit(_cplx(bfun.b_value(idx, _vec(args.r))), args.json)
    elif args.action == "fourier":
        if args.p is None:
            raise argparse.ArgumentTypeError("bfun fourier needs --p x,y,z")
        _emit(_cplx(bfun.b_fourier(idx, _vec(args.p))), args.json)
    elif args.action == "convolve":
        if args.n2 is None or args.l2 is None or args.m2 is None:
            raise argparse.ArgumentTypeError("bfun convolve needs --n2, --l2, --m2")
        other = bfun.BIndex(args.n2, args.l2, args.m2, args.alpha2 if args.alpha2 is not None else args.alpha)
        expansion = bfun.convolve(idx, other)
        payload = {
            "terms": [
                {"coeff": _fmt(c), "n": i.n, "l": i.l, "m": i.m, "alpha": _fmt(i.alpha)}
                for c, i in expansion.terms
            ]
        }
        if args.r is not None:
            payload["value_at_r"] = _cplx(expansion.evaluate(_vec(args.r)))
        _emit(payload, args.json)
    return 0


def _cmd_addition(args) -> int:
    pair = addmod.SplitPair.from_vectors(_vec(args.r), _vec(args.rp))
    trunc = addmod.TruncationSpec(args.lmax, args.tol if args.tol is not None else 1e-8)
    shells: list = []
    res = addmod.power_solid_addition(args.nu, (args.l, args.m), pair, trunc, shells=shells)
    payload = {
        "value": _cplx(res.value),
        "outer_l_used": res.outer_l_used,
        "est_error": _fmt(res.est_error) if math.isfinite(res.est_error) else None,
        "converged": res.converged,
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["shell_l1", "partial_value_re", "partial_value_im", "shell_contrib", "est_error"])
            for (l1, partial, contrib, est) in shells:
                w.writerow(
                    [l1, f"{partial.real:.17g}", f"{partial.imag:.17g}", f"{contrib:.17g}",
                     f"{est:.17g}" if math.isfinite(est) else "inf"]
                )
    _emit(payload, args.json)
    return 0 if res.converged else 1


def _cmd_verify(args) -> int:
    report = verifymod.run_suite(
        args.suite, seed=args.seed, threads=args.threads, tol=args.tol, lmax=args.lmax
    )
    payload = report.to_dict()
    _emit(payload, args.json)
    return 0 if report.passed else 1


def _cmd_bench(args) -> int:
    if args.target == "gaunt":
        res = benchmod.bench_gaunt_strings(args.lmax, seed=args.seed)
    else:
        res = benchmod.bench_addition(args.nu, args.l, args.ratio, args.tol or 1e-10, seed=args.seed)
    row = res.to_row()
    writer = csv.writer(sys.stdout)
    writer.writerow(list(row.keys()))
    writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row.values()])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(row, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stgo", description=__doc__)
    # global flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS defaults so they never clobber values
    # already parsed by the main parser
    ap.add_argument("--json", help="also write the JSON payload to this path")
    ap.add_argument("--tol", type=float, default=None, help="tolerance override")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized cases")
    ap.add_argument("--threads", type=int, default=1, help="accepted and ignored; suites run in one thread")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", default=argparse.SUPPRESS)
    shared.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("eval", help="evaluate a harmonic, B function, or reduced Bessel value")
    p.add_argument("what", choices=["ylm", "regular", "zlm", "bfun", "khat"])
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--r", default="0,0,1")
    p.add_argument("--dump-poly", action="store_true", help="include the monomial table")
    p.set_defaults(func=_cmd_eval)

    p = add_parser("gaunt", help="whole coupling-coefficient string as CSV")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.set_defaults(func=_cmd_gaunt)

    p = add_parser("apply", help="apply the derivative operator to a radial tensor")
    p.add_argument("--op", type=_lm_pair, required=True, metavar="l,m")
    p.add_argument("--target", type=str, required=True, help="profile spec, e.g. gaussian:1.0")
    p.add_argument("--target-l", type=int, default=0)
    p.add_argument("--target-m", type=int, default=0)
    p.add_argument("--at", required=True, metavar="x,y,z")
    p.set_defaults(func=_cmd_apply)

    p = add_parser("bfun", help="B function value / transform / convolution")
    p.add_argument("action", choices=["value", "fourier", "convolve"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n2", type=int)
    p.add_argument("--l2", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--r")
    p.add_argument("--p")
    p.set_defaults(func=_cmd_bfun)

    p = add_parser("addition", help="two-range power expansion with shell table")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--r", required=True)
    p.add_argument("--rp", required=True)
    p.add_argument("--lmax", type=int, default=30)
    p.add_argument("--csv", help="write the per-shell contribution table here")
    p.set_defaults(func=_cmd_addition)

    p = add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=sorted(verifymod.SUITES) + ["all"])
    p.add_argument("--lmax", type=int, default=None, help="angular momentum cap override")
    p.set_defaults(func=_cmd_verify)

    p = add_parser("bench", help="timing harness (report-only)")
    p.add_argument("target", choices=["gaunt", "addition"])
    p.add_argument("--lmax", type=int, default=10)
    p.add_argument("--nu", type=float, default=-1.0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.5)
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except StgoError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    except argparse.ArgumentTypeError as exc:
        print(f"stgo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
