"""Command-line front end: every subcommand prints one JSON report on stdout.

Exit status: 0 for PASS or EXPERIMENTAL, 1 for FAIL, 2 for usage errors
(including malformed multi-index strings, which are reported with the
offending token, values out of floating-point range, and files that cannot
be read or written).  Alpha lists are
given either inline as comma-separated complex literals ("0.3", "0.3+0.4i",
"-1/4i") or as a path to a JSON file holding an array of [re, im] pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import montecarlo, opuc
from .alphamoments import alpha_x_moment, count_tuples, nice_identity_check, verify_cn_identity
from .combinatorics import MultiIndex, MultiplicityVector
from .gaussian import gaussian_x_moment, gaussian_x_moment_raw, variance_pmf
from .graphs import c_via_graphs
from .report import EXPERIMENTAL, FAIL, PASS, Report, complex_pair, poly_map, rat_str


# -- argument parsing helpers ----------------------------------------------


def _multi_index(text: str) -> MultiIndex:
    try:
        return MultiIndex.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _multiplicity(text: str) -> MultiplicityVector:
    try:
        return MultiplicityVector.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"need a finite tolerance >= 0, got {text!r}")
    return tol


def _threads(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return n


def _rational_list(text: str) -> list[Fraction]:
    toks = [tok for tok in text.split(",") if tok.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty rational list")
    return [_rational(tok) for tok in toks]


def _split_complex(text: str) -> tuple[str, str]:
    """Split a literal like "0.3+0.4i" into real and imaginary part strings."""
    body = text.strip().replace(" ", "")
    if not body:
        raise ValueError("empty complex literal")
    if body[-1] in "ij":
        body = body[:-1]
        cut = None
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                cut = k
                break
        if cut is None:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:cut], body[cut:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return re_part or "0", im_part
    return body, "0"


def _alpha_exact(text: str) -> list[tuple[Fraction, Fraction]]:
    try:
        if os.path.exists(text):
            with open(text) as fh:
                data = json.load(fh)
            return [(Fraction(str(re)), Fraction(str(im))) for re, im in data]
        pairs = []
        for tok in text.split(","):
            re_s, im_s = _split_complex(tok)
            pairs.append((Fraction(re_s), Fraction(im_s)))
        return pairs
    except (ValueError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}") from None


def _alpha_floats(text: str) -> np.ndarray:
    pairs = _alpha_exact(text)
    try:
        vals = [complex(float(re), float(im)) for re, im in pairs]
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}") from None
    if not vals:
        raise argparse.ArgumentTypeError("empty alpha list")
    return np.array(vals, dtype=np.complex128)


# -- subcommand handlers ---------------------------------------------------


def _cmd_gaussian_moment(args) -> Report:
    engine = "decomposition-sum" if args.raw else "partition"
    fn = gaussian_x_moment_raw if args.raw else gaussian_x_moment
    moment = fn(args.p, args.q)
    return Report(
        command="gaussian-moment",
        params={"p": args.p.to_string(), "q": args.q.to_string(), "engine": engine},
        results={"moment": poly_map(moment.to_map())},
        status=PASS,
    )


def _cmd_alpha_moment(args) -> Report:
    res = alpha_x_moment(args.p, args.q, args.beta, args.max_index)
    return Report(
        command="alpha-moment",
        params={
            "p": args.p.to_string(),
            "q": args.q.to_string(),
            "beta": rat_str(args.beta),
            "max_index": args.max_index,
        },
        results={"value": rat_str(res.value)},
        status=PASS,
        diagnostics={
            "last_shell": rat_str(res.last_shell),
            "tail": rat_str(res.tail_estimate),
        },
    )


def _cmd_identity(args) -> Report:
    rep = verify_cn_identity(args.p, args.q, args.beta, args.max_index)
    checks = [
        {
            "beta": rat_str(c.beta),
            "gaussian": rat_str(c.gaussian_value),
            "alpha": rat_str(c.alpha_value),
            "difference": rat_str(c.difference),
            "tail": rat_str(c.tail_estimate),
            "passed": c.passed,
        }
        for c in rep.checks
    ]
    if len(rep.checks) == 1:
        tail = rat_str(rep.checks[0].tail_estimate)
    else:
        tail = {rat_str(c.beta): rat_str(c.tail_estimate) for c in rep.checks}
    return Report(
        command="identity",
        params={
            "p": args.p.to_string(),
            "q": args.q.to_string(),
            "beta": [rat_str(b) for b in args.beta],
            "max_index": args.max_index,
        },
        results={"checks": checks},
        status=PASS if rep.passed else FAIL,
        diagnostics={"tail": tail},
    )


def _cmd_nice_identity(args) -> Report:
    c = nice_identity_check(args.n, args.beta, args.max_index)
    return Report(
        command="nice-identity",
        params={"n": args.n, "beta": rat_str(args.beta), "max_index": args.max_index},
        results={"lhs": rat_str(c.alpha_value), "rhs": rat_str(c.gaussian_value)},
        status=PASS if c.passed else FAIL,
        diagnostics={"difference": rat_str(-c.difference), "tail": rat_str(c.tail_estimate)},
    )


def _cmd_variance(args) -> Report:
    pmf = variance_pmf(args.n)
    return Report(
        command="variance",
        params={"n": args.n},
        results={"polynomial": poly_map(pmf.to_map())},
        status=PASS,
    )


def _cmd_count(args) -> Report:
    tuples = count_tuples(args.p, args.q, args.m)
    graphs = c_via_graphs(args.p, args.q, args.m)
    return Report(
        command="count",
        params={"p": args.p.to_string(), "q": args.q.to_string(), "m": args.m.to_string()},
        results={"tuples": tuples, "graphs": graphs},
        status=PASS if tuples == graphs else FAIL,
        diagnostics={"max_index": args.m.max_support},
    )


def _cmd_jacobian(args) -> Report:
    if args.exact:
        pairs = _alpha_exact(args.alpha)
        det, prod = opuc.jacobian_determinant_exact(pairs)
        return Report(
            command="jacobian",
            params={"alpha": args.alpha, "mode": "exact"},
            results={"determinant": rat_str(det), "product": rat_str(prod)},
            status=PASS if det == prod else FAIL,
        )
    a = _alpha_floats(args.alpha)
    det, prod = opuc.jacobian_determinant(a)
    rel = abs(det - prod) / max(abs(prod), 1e-300)
    return Report(
        command="jacobian",
        params={"alpha": args.alpha, "mode": "finite-difference", "tol": args.tol},
        results={"determinant": det, "product": prod},
        status=PASS if rel <= args.tol else FAIL,
        diagnostics={"relative_gap": rel},
    )


def _cmd_szego_check(args) -> Report:
    a = _alpha_floats(args.alpha)
    gap = opuc.szego_identity_gap(a, args.order)
    return Report(
        command="szego-check",
        params={"alpha": args.alpha, "order": args.order, "tol": args.tol},
        results={"gap": gap},
        status=PASS if gap <= args.tol else FAIL,
    )


def _cmd_roundtrip(args) -> Report:
    a = _alpha_floats(args.alpha)
    rho = opuc.measure_density(a, args.grid)
    c = opuc.trig_moments(rho, a.size)
    rec = opuc.verblunsky_from_moments(c)
    err = float(np.abs(rec - a).max())
    return Report(
        command="roundtrip",
        params={"alpha": args.alpha, "grid": args.grid, "tol": args.tol},
        results={"max_error": err},
        status=PASS if err <= args.tol else FAIL,
    )


def _cmd_mc(args) -> Report:
    ref = montecarlo.mc_reference(args.side, args.p, args.q, args.beta, args.n_trunc)
    stats = montecarlo.mc_x_moment(
        args.side,
        args.p,
        args.q,
        float(args.beta),
        args.n_trunc,
        args.samples,
        args.seed,
        workers=args.threads,
        dump_csv=args.dump_csv,
    )
    err = abs(stats.mean - ref)
    passed = err <= 4.0 * stats.stderr + 1e-12
    params = {
        "side": args.side,
        "p": args.p.to_string(),
        "q": args.q.to_string(),
        "beta": rat_str(args.beta),
        "n_trunc": args.n_trunc,
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.dump_csv:
        params["dump_csv"] = args.dump_csv
    return Report(
        command="mc",
        params=params,
        results={
            "mean": complex_pair(stats.mean),
            "stderr": stats.stderr,
            "count": stats.count,
            "reference": ref,
        },
        status=PASS if passed else FAIL,
        diagnostics={"abs_error": err, "rng": montecarlo.RNG_ALGORITHM},
    )


def _cmd_pushforward(args) -> Report:
    beta = float(args.beta)
    stats = montecarlo.pushforward_experiment(
        beta,
        args.modes,
        args.radius,
        args.samples,
        args.max_alpha,
        args.seed,
        workers=args.threads,
    )
    rows = [
        {
            "n": i + 1,
            "mean": s.mean,
            "stderr": s.stderr,
            "target": 1.0 / ((i + 1) * beta + 1.0),
        }
        for i, s in enumerate(stats)
    ]
    return Report(
        command="pushforward",
        params={
            "beta": rat_str(args.beta),
            "modes": args.modes,
            "radius": args.radius,
            "samples": args.samples,
            "max_alpha": args.max_alpha,
            "seed": args.seed,
        },
        results={"moments": rows},
        status=EXPERIMENTAL,
        diagnostics={
            "grid": montecarlo.pushforward_grid(args.modes),
            "rng": montecarlo.RNG_ALGORITHM,
        },
    )


# -- parser wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verblunsky",
        description="Exact and Monte Carlo moment computations for random "
        "Verblunsky coefficient sequences.",
    )
    parser.add_argument(
        "--threads",
        type=_threads,
        default=1,
        help="worker substream count for sampling commands; recorded in every report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gaussian-moment", help="exact moment polynomial in 1/beta")
    s.add_argument("--p", type=_multi_index, required=True)
    s.add_argument("--q", type=_multi_index, required=True)
    s.add_argument("--raw", action="store_true", help="use the decomposition-sum engine")
    s.set_defaults(func=_cmd_gaussian_moment)

    s = sub.add_parser("alpha-moment", help="exact truncated alpha-side moment sum")
    s.add_argument("--p", type=_multi_index, required=True)
    s.add_argument("--q", type=_multi_index, required=True)
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--max-index", type=int, required=True)
    s.set_defaults(func=_cmd_alpha_moment)

    s = sub.add_parser("identity", help="compare both moment engines at rational beta")
    s.add_argument("--p", type=_multi_index, required=True)
    s.add_argument("--q", type=_multi_index, required=True)
    s.add_argument("--beta", type=_rational_list, required=True, metavar="RAT[,RAT...]")
    s.add_argument("--max-index", type=int, required=True)
    s.set_defaults(func=_cmd_identity)

    s = sub.add_parser("nice-identity", help="diagonal partial sum against its closed form")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--max-index", type=int, required=True)
    s.set_defaults(func=_cmd_nice_identity)

    s = sub.add_parser("variance", help="exact distribution of the variance exponent")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_variance)

    s = sub.add_parser("count", help="tuple-family count against the graph-coloring count")
    s.add_argument("--p", type=_multi_index, required=True)
    s.add_argument("--q", type=_multi_index, required=True)
    s.add_argument("--m", type=_multiplicity, required=True)
    s.set_defaults(func=_cmd_count)

    s = sub.add_parser("jacobian", help="volume identity for the coefficient map")
    s.add_argument("--alpha", required=True, metavar="FILE|LIST")
    s.add_argument("--exact", action="store_true", help="exact arithmetic (rational alpha)")
    s.add_argument("--tol", type=_tolerance, default=1e-6)
    s.set_defaults(func=_cmd_jacobian)

    s = sub.add_parser("szego-check", help="log-series mass against the coefficient product")
    s.add_argument("--alpha", required=True, metavar="FILE|LIST")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--tol", type=_tolerance, default=1e-8)
    s.set_defaults(func=_cmd_szego_check)

    s = sub.add_parser("roundtrip", help="alpha -> density -> moments -> alpha recovery")
    s.add_argument("--alpha", required=True, metavar="FILE|LIST")
    s.add_argument("--grid", type=int, required=True)
    s.add_argument("--tol", type=_tolerance, default=1e-9)
    s.set_defaults(func=_cmd_roundtrip)

    s = sub.add_parser("mc", help="Monte Carlo x-moment against the exact engines")
    s.add_argument("--side", choices=("gaussian", "alpha"), required=True)
    s.add_argument("--p", type=_multi_index, required=True)
    s.add_argument("--q", type=_multi_index, required=True)
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--n-trunc", type=int, default=200)
    s.add_argument("--dump-csv", metavar="PATH", help="write raw samples as CSV")
    s.set_defaults(func=_cmd_mc)

    s = sub.add_parser("pushforward", help="field-to-coefficient pushforward experiment")
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--modes", type=int, required=True)
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--max-alpha", type=int, default=4)
    s.set_defaults(func=_cmd_pushforward)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report = args.func(args)
    except (ValueError, OverflowError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.params["threads"] = args.threads
    sys.stdout.write(report.to_json())
    return report.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
