"""Command-line front end: every subcommand prints one JSON report on stdout.

``COMMANDS`` states the grammar.  An option takes "--opt value" or "--opt=value", may be
shortened to a unique prefix ("--max" for "--max-index"), and the last repeat wins; a value
may start with one "-" ("--beta -1/2") but not with "--".  ``--threads`` goes before the
command, and ``-h`` prints a usage on stdout.  Exit status: 0 for PASS, EXPERIMENTAL or help,
1 for FAIL, 2 for usage errors.  A malformed command line prints argparse's two lines on
stderr, "usage: verblunsky <command> ..." and "verblunsky <command>: error: ..."; an input
that fails later (alpha values out of floating-point range, inputs too large for memory,
files that cannot be read or written) prints one "error: ..." line.  Alpha lists are given
either inline as comma-separated complex literals ("0.3", "0.3+0.4i", "-1/4i") or as a path
to a JSON file holding an array of [re, im] pairs.  Each handler returns (results, status,
diagnostics); ``run`` builds the report and echoes every parsed option under ``params``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import montecarlo, opuc
from .alphamoments import alpha_x_moment, count_tuples, nice_identity_check, verify_cn_identity
from .combinatorics import MultiIndex, MultiplicityVector
from .gaussian import gaussian_x_moment, gaussian_x_moment_raw, variance_pmf
from .graphs import c_via_graphs
from .report import EXPERIMENTAL, FAIL, PASS, Report, complex_pair, poly_map, rat_str


# -- argument parsing helpers ----------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text!r}") from None
    try:
        str(value)  # reports echo it; Python's int-to-str limit is 4300 digits by default
    except ValueError:
        raise ValueError(f"rational {text!r} has too many digits") from None
    return value


def _float_rational(text: str) -> Fraction:
    """The sampling commands' --beta: a rational whose float neither overflows nor is 0.0."""
    value = _rational(text)
    try:
        if value == 0 or float(value) != 0:
            return value
    except OverflowError:
        pass
    raise ValueError(f"{text!r} is outside the float range: |beta| from 5e-324 to 1.8e308")


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise ValueError(f"need a finite tolerance >= 0, got {text!r}")
    return tol


def _int_at_least(lo: int):
    """Converter for an integer >= lo."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise ValueError(f"need an integer >= {lo}, got {text!r}")
        return n

    return parse


def _side(text: str) -> str:
    if text not in ("gaussian", "alpha"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'gaussian', 'alpha')")
    return text


def _rational_list(text: str) -> list[Fraction]:
    toks = [tok for tok in text.split(",") if tok.strip()]
    if not toks:
        raise ValueError("empty rational list")
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
        raise ValueError(f"bad alpha list {text!r}: {exc}") from None
    if not pairs:
        raise ValueError("empty alpha list")
    return pairs


def _alpha_floats(text: str) -> np.ndarray:
    pairs = _alpha_exact(text)
    try:
        vals = [complex(float(re), float(im)) for re, im in pairs]
    except OverflowError as exc:
        raise ValueError(f"bad alpha list {text!r}: {exc}") from None
    return np.array(vals, dtype=np.complex128)


# -- subcommand handlers ---------------------------------------------------


def _cmd_gaussian_moment(args):
    fn = gaussian_x_moment_raw if args.engine == "decomposition-sum" else gaussian_x_moment
    moment = fn(args.p, args.q)
    return {"moment": poly_map(moment.to_map())}, PASS, {}


def _cmd_alpha_moment(args):
    res = alpha_x_moment(args.p, args.q, args.beta, args.max_index)
    status = PASS if res.tail is not None else FAIL  # None: the limit was not proved
    return {"value": rat_str(res.value)}, status, {"tail": rat_str(res.tail)}


def _cmd_identity(args):
    rep = verify_cn_identity(args.p, args.q, args.beta, args.max_index)
    checks = [
        {
            "beta": rat_str(c.beta),
            "gaussian": rat_str(c.gaussian_value),
            "alpha": rat_str(c.alpha_value),
            "difference": rat_str(c.difference),
            "tail": rat_str(c.tail),
            "passed": c.passed,
        }
        for c in rep.checks
    ]
    return {"checks": checks}, PASS if rep.passed else FAIL, {}


def _cmd_nice_identity(args):
    c = nice_identity_check(args.n, args.beta, args.max_index)
    return (
        {"lhs": rat_str(c.alpha_value), "rhs": rat_str(c.gaussian_value)},
        PASS if c.passed else FAIL,
        {"difference": rat_str(-c.difference), "tail": rat_str(c.tail)},
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


# -- the command table and its parser -------------------------------------

# The CLI grammar: per command, its handler, one-line help and options.  An option is
# (converter, default), echoed under its name without dashes, required if the default is
# _REQUIRED; a converter raises ValueError with its message.  A flag is (dest, off, on).
_REQUIRED = object()
_PQ = {"--p": (MultiIndex.from_string, _REQUIRED), "--q": (MultiIndex.from_string, _REQUIRED)}
COMMANDS = {
    "gaussian-moment": (_cmd_gaussian_moment, "exact moment polynomial in 1/beta", {
        **_PQ, "--raw": ("engine", "partition", "decomposition-sum")}),
    "alpha-moment": (_cmd_alpha_moment, "exact truncated alpha-side moment sum", {
        **_PQ, "--beta": (_rational, _REQUIRED), "--max-index": (int, _REQUIRED)}),
    "identity": (_cmd_identity, "compare both moment engines at rational beta", {
        **_PQ, "--beta": (_rational_list, _REQUIRED), "--max-index": (int, _REQUIRED)}),
    "nice-identity": (_cmd_nice_identity, "diagonal partial sum against its closed form", {
        "--n": (int, _REQUIRED), "--beta": (_rational, _REQUIRED),
        "--max-index": (int, _REQUIRED)}),
    "variance": (_cmd_variance, "exact distribution of the variance exponent", {
        "--n": (int, _REQUIRED)}),
    "count": (_cmd_count, "tuple-family count against the graph-coloring count", {
        **_PQ, "--m": (MultiplicityVector.from_string, _REQUIRED)}),
    "jacobian": (_cmd_jacobian, "volume identity for the coefficient map", {
        "--alpha": (str, _REQUIRED), "--exact": ("mode", "finite-difference", "exact"),
        "--tol": (_tolerance, 1e-6)}),
    "szego-check": (_cmd_szego_check, "log-series mass against the coefficient product", {
        "--alpha": (str, _REQUIRED), "--order": (int, _REQUIRED), "--tol": (_tolerance, 1e-8)}),
    "roundtrip": (_cmd_roundtrip, "alpha -> density -> moments -> alpha recovery", {
        "--alpha": (str, _REQUIRED), "--grid": (int, _REQUIRED), "--tol": (_tolerance, 1e-9)}),
    "mc": (_cmd_mc, "Monte Carlo x-moment against the exact engines", {
        "--side": (_side, _REQUIRED), **_PQ, "--beta": (_float_rational, _REQUIRED),
        "--samples": (_int_at_least(2), _REQUIRED), "--seed": (_int_at_least(0), _REQUIRED),
        "--n-trunc": (int, 200), "--dump-csv": (str, None)}),
    "pushforward": (_cmd_pushforward, "field-to-coefficient pushforward experiment", {
        "--beta": (_float_rational, _REQUIRED), "--modes": (int, _REQUIRED),
        "--radius": (float, _REQUIRED), "--samples": (_int_at_least(2), _REQUIRED),
        "--seed": (_int_at_least(0), _REQUIRED), "--max-alpha": (int, 4)}),
}
GLOBAL_OPTIONS = {"--threads": (_int_at_least(1), 1)}  # given before the command


def _dest(opt: str, spec: tuple) -> str:
    return spec[0] if len(spec) == 3 else opt[2:].replace("-", "_")


def _exit(command, error=None):
    """Print command's help and exit 0, or its usage and the error, as argparse does, and exit 2."""
    prog = f"verblunsky {command}" if command else "verblunsky"
    options = COMMANDS[command][2] if command else GLOBAL_OPTIONS
    words = [f"usage: {prog} [-h]"]
    for opt, spec in options.items():
        word = opt if len(spec) == 3 else f"{opt} {_dest(opt, spec).upper()}"
        words.append(word if spec[1] is _REQUIRED else f"[{word}]")
    usage = " ".join(words if command else [*words, "{" + ",".join(COMMANDS) + "}", "..."])
    if error is not None:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        sys.exit(2)
    lines = [COMMANDS[command][1]] if command else [
        f"  {name:<16} {text}" for name, (_, text, _) in COMMANDS.items()]
    sys.stdout.write("\n".join([usage, "", *lines, ""]))
    sys.exit(0)


def _parse(argv):
    """The command and its options' values from argv, in one pass over the table.

    Help and usage errors raise SystemExit, with code 0 and 2, after printing.
    """
    command, options, values, tokens = None, GLOBAL_OPTIONS, {}, iter(argv)
    for tok in tokens:
        if tok != "-h" and (not tok.startswith("--") or tok == "--"):
            if command:
                _exit(command, f"unrecognized arguments: {tok}")
            if tok not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                _exit(None, f"argument command: invalid choice: {tok!r} (choose from {choices})")
            command, options = tok, COMMANDS[tok][2]
            continue
        name, eq, text = tok.partition("=")
        found = [name] if name in options else [
            o for o in ("--help", *options) if o.startswith(name)]
        if tok == "-h" or found == ["--help"]:
            _exit(command)
        if len(found) != 1:
            _exit(command, f"ambiguous option: {tok} could match {', '.join(found)}" if found
                  else f"unrecognized arguments: {tok}")
        opt, spec = found[0], options[found[0]]
        if len(spec) == 3:
            if eq:
                _exit(command, f"argument {opt}: ignored explicit argument {text!r}")
            values[spec[0]] = spec[2]
            continue
        if not eq:
            text = next(tokens, "--")
        if text == "--" or not eq and (text.startswith("--") or text == "-h"):
            _exit(command, f"argument {opt}: expected one argument")
        try:
            values[_dest(opt, spec)] = spec[0](text)
        except ValueError as exc:
            why = f"invalid {spec[0].__name__} value: {text!r}" if spec[0] in (int, float) else exc
            _exit(command, f"argument {opt}: {why}")
    if command is None:
        _exit(None, "the following arguments are required: command")
    table = {**GLOBAL_OPTIONS, **options}
    for opt, spec in table.items():
        values.setdefault(_dest(opt, spec), spec[1])
    missing = [opt for opt, spec in table.items() if values[_dest(opt, spec)] is _REQUIRED]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    return command, SimpleNamespace(**values)


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

    Handlers are bound in :data:`COMMANDS` at import, so a test that wants a
    different handler must patch what the handler calls, not the handler.
    """
    try:
        command, args = _parse(argv)
    except SystemExit as exc:
        return exc.code
    try:
        results, status, diagnostics = COMMANDS[command][0](args)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    params = {k: _echo(v) for k, v in vars(args).items() if v is not None}
    report = Report(command, params, results, status, diagnostics)
    sys.stdout.write(report.to_json())
    return report.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
