"""Output checks for every operation, run in the client after a pass ends.

An operation fails when it raised, exited non-zero, reported FAIL, differs
from the same operation's output in the first pass of the invocation (exact
values and MC report bytes are deterministic for a fixed (seed, workers)),
or fails a cheap independent oracle.  EXPERIMENTAL counts as success.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction


def _oracle(op: dict, rep: dict) -> str | None:
    """Kind-specific checks on one parsed report; a reason, or None."""
    kind, res, check = op["kind"], rep["results"], op["check"]
    if kind == "alpha-moment" and check.get("x1"):
        argv = op["argv"]
        b = Fraction(argv[argv.index("--beta") + 1])
        N = int(argv[argv.index("--max-index") + 1])
        if Fraction(res["value"]) != 1 / b - (1 / b) / (N * b + 1):
            return "x_1 partial sum differs from 1/b - (1/b)/(Nb+1)"
    if kind == "identity":
        for c in res["checks"]:
            diff = Fraction(c["difference"])
            if diff != Fraction(c["gaussian"]) - Fraction(c["alpha"]):
                return f"difference is not gaussian - alpha at beta {c['beta']}"
            if diff <= 0:
                # A partial sum of positive terms lies strictly below its limit.
                return f"non-positive difference at beta {c['beta']}"
    if kind == "nice-identity" and Fraction(res["rhs"]) <= Fraction(res["lhs"]):
        return "partial sum not below its closed form"
    if kind == "variance":
        coeffs = [Fraction(v) for v in res["polynomial"].values()]
        if sum(coeffs) != 1 or min(coeffs) <= 0:
            return "variance pmf coefficients are not a distribution"
    if kind == "count" and res["tuples"] != res["graphs"]:
        return "tuple count differs from graph count"
    if kind == "jacobian-exact" and res["determinant"] != res["product"]:
        return "exact determinant differs from the product"
    if kind in ("mc-gaussian", "mc-alpha"):
        argv = op["argv"]
        if res["count"] != int(argv[argv.index("--samples") + 1]):
            return "sample count differs from --samples"
        if check.get("dump"):
            return _check_dump(check["dump"], res)
    if kind == "pushforward":
        argv = op["argv"]
        rows = res["moments"]
        if len(rows) != int(argv[argv.index("--max-alpha") + 1]):
            return "wrong number of pushforward moments"
        if not all(math.isfinite(r["mean"]) and 0 <= r["mean"] <= 1 for r in rows):
            return "pushforward moment outside [0, 1]"
    return None


def _check_dump(path: str, res: dict) -> str | None:
    """The CSV holds one row per sample and its mean is the reported mean."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    if len(rows) != res["count"]:
        return f"dump has {len(rows)} rows, expected {res['count']}"
    re = math.fsum(float(r[1]) for r in rows) / len(rows)
    im = math.fsum(float(r[2]) for r in rows) / len(rows)
    want = complex(*res["mean"])
    if abs(complex(re, im) - want) > 1e-9 * max(1.0, abs(want)):
        return "dump mean differs from the reported mean"
    return None


def check_op(op: dict, out: dict, reference: dict | None) -> str | None:
    """Why one operation failed, or None when it passed."""
    if out["exc"]:
        return f"raised {out['exc']}"
    if reference is not None and out["out"] != reference["out"]:
        return "output differs from the first pass"
    if op["lane"] == "graphs":
        summary = json.loads(out["out"])
        if summary["mismatches"]:
            return f"{summary['mismatches']} tuple/graph count mismatches"
        return None
    if out["rc"] != 0:
        return f"exit {out['rc']}: {out['err'].strip()[-300:]}"
    try:
        rep = json.loads(out["out"])
    except json.JSONDecodeError:
        return "report is not JSON"
    if rep.get("status") not in ("PASS", "EXPERIMENTAL"):
        return f"status {rep.get('status')}"
    try:
        return _oracle(op, rep)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return f"report malformed: {type(exc).__name__}: {exc}"


def check_pass(ops: list[dict], outs: list[dict], reference: list[dict] | None) -> dict:
    """Failure reasons by operation index for one pass.

    Besides the per-operation checks, the two gaussian-moment engines must
    agree on every (p, q) pair the pass ran through both.
    """
    failures = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        reason = check_op(op, out, reference[i] if reference else None)
        if reason:
            failures[i] = reason
    engines: dict = {}
    for i, op in enumerate(ops):
        key = op["check"].get("engines")
        if key is None or i in failures:
            continue
        moment = json.loads(outs[i]["out"])["results"]["moment"]
        first = engines.setdefault(key, moment)
        if moment != first:
            failures[i] = "gaussian-moment engines disagree"
    return failures


def self_test(ops: list[dict], outs: list[dict]) -> str | None:
    """Corrupt one output of a clean pass and require exactly one more failure.

    Shows that a wrong result reaches ``failed``: one digit of the first
    passing operation's output is changed and the pass is checked again,
    against the unmodified pass as its reference.
    """
    base = check_pass(ops, outs, outs)
    i = next((k for k in range(len(ops)) if k not in base), None)
    text = outs[i]["out"] if i is not None else ""
    pos = next((k for k in range(len(text) - 1, -1, -1) if text[k].isdigit()), None)
    if pos is None:
        return "no passing output with a digit to corrupt"
    bad = dict(outs[i], out=text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:])
    corrupted = check_pass(ops, outs[:i] + [bad] + outs[i + 1:], outs)
    if len(corrupted) != len(base) + 1 or i not in corrupted:
        return "a corrupted output was not counted as failed"
    return None
