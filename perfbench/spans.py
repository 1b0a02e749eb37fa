"""Span tracing of the package from outside, and the per-layer metrics.

The package binds names with ``from ... import``, so each public function is
wrapped under every name its callers look up (``cli.alpha_x_moment``,
``alphamoments.alpha_x_moment`` and ``montecarlo.alpha_x_moment`` are three
bindings of one function).  A span row is
``[name_id, start, end, parent_row, op_index, counters]``; rows stay in memory
in the worker and go to the client when the pass ends.  Nothing here changes
what the package computes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _levels(args, kwargs, result):
    return (kwargs.get("max_index", args[3] if len(args) > 3 else 0) + 1,)


def _kernel(args, kwargs, result):
    rows = args[0].shape[0]
    ok = int(result[1].sum()) if isinstance(result, tuple) else rows
    return (rows, args[0].nbytes, ok)


def _m_graphs(args, kwargs, result):
    return (len(result),)


def _nonzero(args, kwargs, result):
    return (1 if result else 0,)


def _mc(args, kwargs, result):
    side, p, q, _beta, n_trunc, samples = args[:6]
    K = max([0, *p.support(), *q.support()])
    gaussian = side == "gaussian"
    # Draws are 16 bytes per sample and mode on either side: one complex
    # normal pair, or one modulus and one phase uniform.
    return (samples, samples * n_trunc * 16, K * samples if gaussian else 0,
            n_trunc * samples if gaussian else 0)


def _pushforward(args, kwargs, result):
    samples, modes = args[3], args[1]
    return (samples, samples * modes * 16, 0, 0)


def _batch(args, kwargs, result):
    count, N = args[2], args[1]
    return (count, count * N * 16, 0, 0)


# (layer, binding module, attribute, counter).  "Report.to_json" patches the
# class attribute.  Layers that get no metric of their own
# (alphamoments.identity, graphs.sum) keep their self time out of their
# callers' self time.
BINDINGS = [
    ("cli", "cli", "run", None),
    ("report", "cli", "rat_str", None),
    ("report", "cli", "poly_map", None),
    ("report", "cli", "complex_pair", None),
    ("report", "report", "Report.to_json", None),
    ("gaussian", "cli", "gaussian_x_moment", None),
    ("gaussian", "cli", "gaussian_x_moment_raw", None),
    ("gaussian", "cli", "variance_pmf", None),
    ("gaussian", "alphamoments", "gaussian_x_moment", None),
    ("gaussian", "alphamoments", "variance_pmf", None),
    ("gaussian", "montecarlo", "gaussian_x_moment", None),
    ("alphamoments.identity", "cli", "verify_cn_identity", None),
    ("alphamoments.sweep", "cli", "alpha_x_moment", _levels),
    ("alphamoments.sweep", "alphamoments", "alpha_x_moment", _levels),
    ("alphamoments.sweep", "montecarlo", "alpha_x_moment", _levels),
    ("alphamoments.nice", "cli", "nice_identity_check", None),
    ("alphamoments.tuples", "cli", "count_tuples", None),
    ("alphamoments.tuples", "alphamoments", "tuple_counts_all_m", None),
    ("combinatorics.gap_sequences", "alphamoments", "gap_sequences", None),
    ("combinatorics.gap_sequences", "alphamoments", "gap_sequences_over", None),
    ("combinatorics.gap_sequences", "opuc", "gap_sequences", None),
    ("graphs.sum", "cli", "c_via_graphs", None),
    ("graphs.sum", "graphs", "c_via_graphs", None),
    ("graphs.sum", "graphs", "c_via_graphs_fast", None),
    ("graphs.enumerate", "graphs", "enumerate_m_graphs", _m_graphs),
    ("graphs.colorings", "graphs", "count_colorings", _nonzero),
    *[("opuc", "opuc", name, None) for name in (
        "jacobian_determinant", "jacobian_determinant_exact", "szego_identity_gap",
        "measure_density", "trig_moments", "verblunsky_from_moments",
        "reversed_polynomial", "log_series")],
    ("kernels.szego", "montecarlo", "szego_low_coefficients", _kernel),
    ("kernels.exp_neg", "montecarlo", "exp_neg_series", _kernel),
    ("kernels.levinson", "montecarlo", "levinson_batch", _kernel),
    ("montecarlo", "montecarlo", "mc_x_moment", _mc),
    ("montecarlo", "montecarlo", "pushforward_experiment", _pushforward),
    ("montecarlo", "montecarlo", "sample_alpha_batch", _batch),
    ("montecarlo", "montecarlo", "sample_f_batch", _batch),
]


class Recorder:
    """In-memory span rows for one pass; single-threaded, like the package."""

    def __init__(self):
        self.names: list[str] = []
        self.rows: list = []
        self.stack = [-1]
        self.op = -1

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rows[idx] = [nid, t0, t1, parent, self.op, None]
            if count is not None:
                rows[idx][5] = count(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Replace every binding in BINDINGS with a traced wrapper."""
        for layer, mod, attr, count in BINDINGS:
            owner = modules[mod]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap(f"{layer}:{mod}.{attr}", fn, count))


# -- client side: self times and layer metrics ------------------------------

PER_LAYER_UNITS = {
    "cli.calls": "count", "cli.self_s": "s", "report.self_s": "s",
    "gaussian.calls": "count", "gaussian.self_s": "s",
    "alphamoments.sweep.calls": "count", "alphamoments.sweep.self_s": "s",
    "alphamoments.sweep.levels": "count", "alphamoments.sweep.ns_per_level": "ns",
    "alphamoments.nice.self_s": "s",
    "alphamoments.tuples.calls": "count", "alphamoments.tuples.self_s": "s",
    "combinatorics.gap_sequences.calls": "count",
    "combinatorics.gap_sequences.self_s": "s",
    "graphs.enumerate.calls": "count", "graphs.enumerate.self_s": "s",
    "graphs.m_graphs": "count",
    "graphs.colorings.calls": "count", "graphs.colorings.self_s": "s",
    "graphs.colorings.nonzero_ratio": "ratio",
    "opuc.calls": "count", "opuc.self_s": "s",
    **{f"kernels.{k}.{m}": u for k in ("szego", "exp_neg", "levinson")
       for m, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"),
                    ("rows_per_s", "1/s"), ("bytes_in", "B"))},
    "kernels.levinson.ok_ratio": "ratio",
    "montecarlo.self_s": "s", "montecarlo.samples": "count",
    "montecarlo.samples_per_s": "1/s", "montecarlo.bytes_drawn": "B",
    "montecarlo.f_modes_used_ratio": "ratio",
    "trace.overhead_frac": "ratio", "trace.coverage": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(names: list[str], rows: list, run_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the trace-sanity violations.

    A layer's self time is its spans' time minus the time of their direct
    child spans.  ``calls`` counts entries into a layer from outside it, so
    opuc's internal calls to its own wrapped helpers are not counted twice.
    """
    layer_of = [name.split(":")[0] for name in names]
    child = [0.0] * len(rows)
    problems: list[str] = []
    for idx, (nid, t0, t1, parent, _op, _c) in enumerate(rows):
        if t1 < t0:
            problems.append(f"span {idx} ({names[nid]}) ends before it starts")
        if parent >= 0:
            p = rows[parent]
            if t0 < p[1] or t1 > p[2]:
                problems.append(f"span {idx} ({names[nid]}) lies outside its parent")
            child[parent] += t1 - t0
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counters: dict = defaultdict(lambda: [0, 0, 0, 0])
    entry_time: dict = defaultdict(float)
    op_time = 0.0
    for idx, (nid, t0, t1, parent, _op, cnt) in enumerate(rows):
        layer = layer_of[nid]
        own = (t1 - t0) - child[idx]
        if own < -1e-9:
            problems.append(f"span {idx} ({names[nid]}) has negative self time")
        self_s[layer] += own
        if layer == "op":
            op_time += t1 - t0
        if parent < 0 or layer_of[rows[parent][0]] != layer:
            calls[layer] += 1
            entry_time[layer] += t1 - t0
        if cnt:
            acc = counters[layer]
            for i, v in enumerate(cnt):
                acc[i] += v

    m: dict = {}
    for layer in ("cli", "gaussian", "alphamoments.tuples", "opuc",
                  "combinatorics.gap_sequences", "graphs.enumerate", "graphs.colorings"):
        m[f"{layer}.calls"] = calls[layer]
    for layer in ("cli", "report", "gaussian", "alphamoments.sweep", "alphamoments.nice",
                  "alphamoments.tuples", "combinatorics.gap_sequences", "graphs.enumerate",
                  "graphs.colorings", "opuc", "montecarlo"):
        m[f"{layer}.self_s"] = self_s[layer]
    m["alphamoments.sweep.calls"] = calls["alphamoments.sweep"]
    levels = counters["alphamoments.sweep"][0]
    m["alphamoments.sweep.levels"] = levels
    m["alphamoments.sweep.ns_per_level"] = _ratio(self_s["alphamoments.sweep"] * 1e9, levels)
    m["graphs.m_graphs"] = counters["graphs.enumerate"][0]
    m["graphs.colorings.nonzero_ratio"] = _ratio(counters["graphs.colorings"][0],
                                                 calls["graphs.colorings"])
    for k in ("szego", "exp_neg", "levinson"):
        layer = f"kernels.{k}"
        rows_in, bytes_in, ok = counters[layer][:3]
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.rows"] = rows_in
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.rows_per_s"] = _ratio(rows_in, self_s[layer])
        m[f"{layer}.bytes_in"] = bytes_in
        if k == "levinson":
            m[f"{layer}.ok_ratio"] = _ratio(ok, rows_in)
    samples, drawn, modes_read, modes_drawn = counters["montecarlo"]
    m["montecarlo.samples"] = samples
    m["montecarlo.samples_per_s"] = _ratio(samples, entry_time["montecarlo"])
    m["montecarlo.bytes_drawn"] = drawn
    m["montecarlo.f_modes_used_ratio"] = _ratio(modes_read, modes_drawn)
    m["trace.coverage"] = _ratio(op_time, run_s)
    return m, problems
