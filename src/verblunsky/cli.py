"""Command-line front end: every subcommand prints one JSON report on stdout.

Exit status: 0 for PASS or EXPERIMENTAL, 1 for FAIL, 2 for usage errors
(including malformed multi-index strings, which are reported with the
offending token, values out of floating-point range, inputs too large for
memory, and files that cannot be read or written).  Alpha lists are
given either inline as comma-separated complex literals ("0.3", "0.3+0.4i",
"-1/4i") or as a path to a JSON file holding an array of [re, im] pairs.
Each handler returns (results, status, diagnostics); ``run`` builds the
report and echoes every parsed option under ``params`` through ``_echo``.
"""

from __future__ import annotations

import argparse
import functools
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


def _from_string(cls):
    """argparse type for ``cls.from_string`` (MultiIndex, MultiplicityVector)."""

    def parse(text: str):
        try:
            return cls.from_string(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


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


def _int_at_least(lo: int):
    """argparse type for an integer >= lo."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(f"need an integer >= {lo}, got {text!r}")
        return n

    return parse


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
            pairs = [(Fraction(str(re)), Fraction(str(im))) for re, im in data]
        else:
            pairs = []
            for tok in text.split(","):
                re_s, im_s = _split_complex(tok)
                pairs.append((Fraction(re_s), Fraction(im_s)))
    except (ValueError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}") from None
    if not pairs:
        raise argparse.ArgumentTypeError("empty alpha list")
    return pairs


def _alpha_floats(text: str) -> np.ndarray:
    pairs = _alpha_exact(text)
    try:
        vals = [complex(float(re), float(im)) for re, im in pairs]
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}") from None
    return np.array(vals, dtype=np.complex128)


# -- subcommand handlers ---------------------------------------------------


def _cmd_gaussian_moment(args):
    fn = gaussian_x_moment_raw if args.engine == "decomposition-sum" else gaussian_x_moment
    moment = fn(args.p, args.q)
    return {"moment": poly_map(moment.to_map())}, PASS, {}


def _cmd_alpha_moment(args):
    res = alpha_x_moment(args.p, args.q, args.beta, args.max_index)
    diagnostics = {"last_shell": rat_str(res.last_shell), "tail": rat_str(res.tail_estimate)}
    return {"value": rat_str(res.value)}, PASS, diagnostics


def _cmd_identity(args):
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
    return {"checks": checks}, PASS if rep.passed else FAIL, {"tail": tail}


def _cmd_nice_identity(args):
    c = nice_identity_check(args.n, args.beta, args.max_index)
    return (
        {"lhs": rat_str(c.alpha_value), "rhs": rat_str(c.gaussian_value)},
        PASS if c.passed else FAIL,
        {"difference": rat_str(-c.difference), "tail": rat_str(c.tail_estimate)},
    )


def _cmd_variance(args):
    pmf = variance_pmf(args.n)
    return {"polynomial": poly_map(pmf.to_map())}, PASS, {}


def _cmd_count(args):
    graphs = c_via_graphs(args.p, args.q, args.m)  # first: its |m| <= 12 guard
    tuples = count_tuples(args.p, args.q, args.m)
    status = PASS if tuples == graphs else FAIL
    return {"tuples": tuples, "graphs": graphs}, status, {"max_index": args.m.max_support}


def _cmd_jacobian(args):
    if args.mode == "exact":
        args.tol = None  # compared by equality, so no tolerance is reported
        pairs = _alpha_exact(args.alpha)
        det, prod = opuc.jacobian_determinant_exact(pairs)
        status = PASS if det == prod else FAIL
        return {"determinant": rat_str(det), "product": rat_str(prod)}, status, {}
    a = _alpha_floats(args.alpha)
    det, prod = opuc.jacobian_determinant(a)
    rel = abs(det - prod) / max(abs(prod), 1e-300)
    status = PASS if rel <= args.tol else FAIL
    return {"determinant": det, "product": prod}, status, {"relative_gap": rel}


def _cmd_szego_check(args):
    a = _alpha_floats(args.alpha)
    gap = opuc.szego_identity_gap(a, args.order)
    return {"gap": gap}, PASS if gap <= args.tol else FAIL, {}


def _cmd_roundtrip(args):
    a = _alpha_floats(args.alpha)
    rho = opuc.measure_density(a, args.grid)
    c = opuc.trig_moments(rho, a.size)
    rec = opuc.verblunsky_from_moments(c)
    err = float(np.abs(rec - a).max())
    return {"max_error": err}, PASS if err <= args.tol else FAIL, {}


def _cmd_mc(args):
    ref = montecarlo.mc_reference(args.side, args.p, args.q, args.beta, args.n_trunc)
    stats = montecarlo.mc_x_moment(
        args.side, args.p, args.q, float(args.beta), args.n_trunc, args.samples, args.seed,
        workers=args.threads, dump_csv=args.dump_csv
    )
    err = abs(stats.mean - ref)
    passed = err <= 4.0 * stats.stderr + 1e-12
    return (
        {
            "mean": complex_pair(stats.mean),
            "stderr": stats.stderr,
            "count": stats.count,
            "reference": ref,
        },
        PASS if passed else FAIL,
        {"abs_error": err, "rng": montecarlo.RNG_ALGORITHM},
    )


def _cmd_pushforward(args):
    beta = float(args.beta)
    stats = montecarlo.pushforward_experiment(
        beta, args.modes, args.radius, args.samples, args.max_alpha, args.seed,
        workers=args.threads
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
    return (
        {"moments": rows},
        EXPERIMENTAL,
        {"grid": montecarlo.pushforward_grid(args.modes), "rng": montecarlo.RNG_ALGORITHM},
    )


# -- parser wiring ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="verblunsky",
        description="Exact and Monte Carlo moment computations for random "
        "Verblunsky coefficient sequences.",
    )
    parser.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=1,
        help="worker substream count for sampling commands; recorded in every report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gaussian-moment", help="exact moment polynomial in 1/beta")
    s.add_argument("--p", type=_from_string(MultiIndex), required=True)
    s.add_argument("--q", type=_from_string(MultiIndex), required=True)
    s.add_argument("--raw", dest="engine", action="store_const", const="decomposition-sum",
                   default="partition", help="use the decomposition-sum engine")
    s.set_defaults(func=_cmd_gaussian_moment)

    s = sub.add_parser("alpha-moment", help="exact truncated alpha-side moment sum")
    s.add_argument("--p", type=_from_string(MultiIndex), required=True)
    s.add_argument("--q", type=_from_string(MultiIndex), required=True)
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--max-index", type=int, required=True)
    s.set_defaults(func=_cmd_alpha_moment)

    s = sub.add_parser("identity", help="compare both moment engines at rational beta")
    s.add_argument("--p", type=_from_string(MultiIndex), required=True)
    s.add_argument("--q", type=_from_string(MultiIndex), required=True)
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
    s.add_argument("--p", type=_from_string(MultiIndex), required=True)
    s.add_argument("--q", type=_from_string(MultiIndex), required=True)
    s.add_argument("--m", type=_from_string(MultiplicityVector), required=True)
    s.set_defaults(func=_cmd_count)

    s = sub.add_parser("jacobian", help="volume identity for the coefficient map")
    s.add_argument("--alpha", required=True, metavar="FILE|LIST")
    s.add_argument("--exact", dest="mode", action="store_const", const="exact",
                   default="finite-difference", help="exact arithmetic (rational alpha)")
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
    s.add_argument("--p", type=_from_string(MultiIndex), required=True)
    s.add_argument("--q", type=_from_string(MultiIndex), required=True)
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--samples", type=_int_at_least(2), required=True)
    s.add_argument("--seed", type=_int_at_least(0), required=True)
    s.add_argument("--n-trunc", type=int, default=200)
    s.add_argument("--dump-csv", metavar="PATH", help="write raw samples as CSV")
    s.set_defaults(func=_cmd_mc)

    s = sub.add_parser("pushforward", help="field-to-coefficient pushforward experiment")
    s.add_argument("--beta", type=_rational, required=True)
    s.add_argument("--modes", type=int, required=True)
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--samples", type=_int_at_least(2), required=True)
    s.add_argument("--seed", type=_int_at_least(0), required=True)
    s.add_argument("--max-alpha", type=int, default=4)
    s.set_defaults(func=_cmd_pushforward)

    return parser


def _echo(value):
    """How a parsed option appears under a report's ``params``."""
    if isinstance(value, (MultiIndex, MultiplicityVector)):
        return value.to_string()
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, list):
        return [_echo(v) for v in value]
    return value


def run(argv) -> int:
    """Run one command and print its report; returns the exit status.

    One parser serves the whole process: :func:`build_parser` builds it on
    the first call, and each ``parse_args`` returns a fresh namespace, so no
    state carries over between calls.  Handlers and argparse ``type=``
    functions are bound when the parser is first built, so a test that wants
    a different handler must patch what the handler calls, not the handler.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops an explicit "--" value ("--tol=--") and stores [] unconverted.
        for name, value in vars(args).items():
            if isinstance(value, list) and not value:
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        results, status, diagnostics = args.func(args)
    except (ValueError, OverflowError, MemoryError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    params = {k: _echo(v) for k, v in vars(args).items()
              if v is not None and k not in ("command", "func")}
    report = Report(args.command, params, results, status, diagnostics)
    sys.stdout.write(report.to_json())
    return report.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
