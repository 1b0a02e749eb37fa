"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py ROOT probe
       python3 worker.py ROOT run|trace OPS_JSON

Imports the package from ROOT/src, refuses to go on if it resolved anywhere
else, and prints one ``ready`` line: the client times set-up up to that line.
A probe stops there.  A pass then runs the operations in order, each after the
previous one has returned (a closed loop with one client), and prints one JSON
object with the latencies, outputs, peak memory, host-speed probes and, for
``trace``, the spans.  Output checks are left to the client, outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

# Between operations, never inside one, the pass times a fixed pure-Python
# loop at least every PROBE_EVERY_S seconds.  The client divides by these
# probes to take out the host's speed, which drifts over minutes (run.py).
PROBE_EVERY_S = 0.2
PROBE_LOOPS = 20_000


def _probe(clock) -> float:
    """Seconds for PROBE_LOOPS turns of a fixed loop, median of three tries."""
    times = []
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        times.append(clock() - t0)
    return sorted(times)[1]


def _graph_op(op, alphamoments, graphs, MultiIndex, MultiplicityVector):
    """Criterion 07 for one pair: tuple counts against both graph counts."""
    p, q = MultiIndex.from_string(op["p"]), MultiIndex.from_string(op["q"])
    realized = alphamoments.tuple_counts_all_m(p, q, op["max_index"])
    fast, full = [], []
    for size in range(1, 2 * p.deg + 1):
        for combo in combinations_with_replacement(range(op["max_index"] + 1), size):
            m = MultiplicityVector(Counter(combo))
            fast.append((m, graphs.c_via_graphs_fast(p, q, m)))
            if realized.get(m):
                full.append((m, graphs.c_via_graphs(p, q, m)))
    return realized, fast, full


def _graph_summary(realized, fast, full) -> str:
    """Compare the counts (outside the timed region) and digest them."""
    import hashlib

    seen = {m for m, _ in fast}
    mismatches = sum(got != realized.get(m, 0) for m, got in fast)
    mismatches += sum(got != realized[m] for m, got in full)
    mismatches += sum(m not in seen for m in realized)
    digest = hashlib.sha256(
        json.dumps(sorted((m.to_string(), c) for m, c in realized.items())).encode()
    ).hexdigest()
    return json.dumps({"checked": len(fast) + len(full), "realized": len(realized),
                       "mismatches": mismatches, "digest": digest}, sort_keys=True)


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve()
    mode = argv[1]
    sys.path.insert(0, str(root / "src"))
    import verblunsky
    from verblunsky import alphamoments, cli, graphs, kernels, montecarlo, opuc, report
    from verblunsky.combinatorics import MultiIndex, MultiplicityVector

    package = Path(verblunsky.__file__).resolve()
    if package != root / "src" / "verblunsky" / "__init__.py":
        print(f"verblunsky resolved to {package}, not under {root / 'src'}", file=sys.stderr)
        return 3
    print(json.dumps({"ready": str(package)}), flush=True)
    if mode == "probe":
        return 0

    with open(argv[2]) as fh:
        ops = json.load(fh)
    recorder = None
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        recorder = spans.Recorder()
        recorder.install({"cli": cli, "report": report, "alphamoments": alphamoments,
                          "graphs": graphs, "opuc": opuc, "montecarlo": montecarlo})

    def run_op(op):
        if op["lane"] == "graphs":
            return _graph_op(op, alphamoments, graphs, MultiIndex, MultiplicityVector)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(op["argv"])
        return rc, out, err

    if recorder is not None:
        run_op = recorder.wrap("op:op", run_op)
    clock = time.perf_counter
    probes = [_probe(clock) for _ in range(5)]
    probe_s = 0.0
    results = []
    start = last_probe = clock()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t0 = clock()
        try:
            value = run_op(op)
            exc = None
        except Exception as error:  # an operation that raises is a failed operation
            value, exc = None, f"{type(error).__name__}: {error}"
        t1 = clock()
        results.append((t1 - t0, value, exc))
        if t1 - last_probe >= PROBE_EVERY_S:
            probes.append(_probe(clock))
            last_probe = clock()
            probe_s += last_probe - t1
    run_s = clock() - start - probe_s
    # Peak memory of the pass, read before the outputs are serialised.
    maxrss_kb = max(resource.getrusage(who).ru_maxrss for who in
                    (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    outputs = []
    for latency, value, exc in results:
        rec = {"t": latency, "exc": exc, "rc": None, "out": "", "err": ""}
        if value is not None and exc is None:
            if isinstance(value[1], io.StringIO):
                rec["rc"], rec["out"], rec["err"] = value[0], value[1].getvalue(), value[2].getvalue()[-2000:]
            else:
                rec["rc"], rec["out"] = 0, _graph_summary(*value)
        outputs.append(rec)

    import importlib.util
    import platform

    import numpy

    payload = {
        "run_s": run_s,
        "probes": probes,
        "maxrss_kb": maxrss_kb,
        "ops": outputs,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": kernels.backend_name(),
            "rational_backend": f"{alphamoments._mpq.__module__}.{alphamoments._mpq.__name__}",
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
            "package_path": str(package),
        },
    }
    if recorder is not None:
        payload["span_names"] = recorder.names
        payload["spans"] = recorder.rows
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
