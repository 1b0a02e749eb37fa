"""Benchmark of the verblunsky package: end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: identity-sweep, mc-sampling, graph-count, small-checks (see
``workloads.py`` and ``NOTES.md``).  The seed makes the operation list.  One
run is a few set-up probes and a fixed number of passes; each pass runs the
whole operation list in a fresh interpreter (``worker.py``), so set-up time,
peak memory and the package's ``lru_cache``s are per pass, as for a CLI user.

On the workloads that spend their time in interpreted Python, times are
given in reference seconds: the wall time of a pass scaled by the host's
speed during that pass, measured by a fixed probe loop that the pass runs
between its operations (``REF_PROBE_S``, ``workloads.HOST_SCALED``; the wall
times are in the details).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the environment and the
details (tail percentile, sample counts, the failed operations).  The
package is imported from this checkout's ``src/``; if it is missing or
resolves elsewhere the run exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
# Every pool the package or numpy could start is capped; the package itself
# runs single-threaded (--threads only splits the random streams).
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
WORKER_TIMEOUT_S = 150.0
# The host's speed drifts by up to 1.5x over minutes: the same pass of the same
# seed took 2.6 s to 4.7 s within five minutes.  Where the workload is
# HOST_SCALED, a pass's times are therefore scaled by
# REF_PROBE_S / (median probe time of that pass), where REF_PROBE_S is the
# probe's median time on the machine that introduced the benchmark (2 vCPUs
# of a shared Xeon host, Python 3.11).  Over 57 small-checks passes, pass time
# and the time of a one-try version of the probe correlated at 0.91, and the
# quartile spread of seven-pass medians fell from 0.25 in wall time to 0.05
# in reference time.
REF_PROBE_S = 0.0020

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    return env


def _spawn(mode: str, ops_path: str | None, tmp: Path) -> tuple[float, dict | None]:
    """Start a worker, time it up to its ready line, and collect its payload."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), mode]
    if ops_path:
        cmd.append(ops_path)
    with open(tmp / "worker.err", "w+") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=err, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                body, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
        err.seek(0)
        if proc.returncode != 0 or not ready.startswith('{"ready"'):
            raise BenchError(f"worker exited {proc.returncode}: {err.read().strip()[-2000:]}")
    return setup_s, (json.loads(body) if mode != "probe" else None)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "verblunsky" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'verblunsky'}")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench"))
    try:
        return _measure(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
    ops = workloads.generate(workload, seed, str(tmp))
    ops_path = tmp / "ops.json"
    ops_path.write_text(json.dumps(ops))
    start = time.perf_counter()
    setups = [_spawn("probe", None, tmp)[0] for _ in range(SETUP_PROBES)]
    n_passes = max(workloads.MIN_PASSES[workload], int(seconds / workloads.NOMINAL_PASS_S[workload]))

    passes, failures, reference, self_test = [], [], None, None
    for k in range(n_passes):
        traced = trace and k % 2 == 1
        setup_s, payload = _spawn("trace" if traced else "run", str(ops_path), tmp)
        setups.append(setup_s)
        outs = payload["ops"]
        if len(outs) != len(ops):
            raise BenchError("worker returned the wrong number of operations")
        for i, reason in sorted(checks.check_pass(ops, outs, reference).items()):
            failures.append({"pass": k, "op": i, "kind": ops[i]["kind"],
                             "argv": ops[i].get("argv") or [ops[i].get("p"), ops[i].get("q")],
                             "reason": reason})
        if reference is None:
            reference = outs
            self_test = checks.self_test(ops, outs)
        passes.append((traced, payload))
        # Stop early on a slow host or a slower program, so that a run stays
        # under 1.5 times its seconds plus one pass; a traced run still gets
        # one untraced and one traced pass.
        if k + 1 >= workloads.MIN_PASSES[workload] and time.perf_counter() - start > 1.5 * seconds:
            break

    attempted = len(ops) * len(passes)
    env = dict(passes[0][1]["environment"], nproc=len(os.sched_getaffinity(0)), git_sha=_git_sha(),
               thread_cap={var: THREAD_CAP for var in THREAD_VARS})

    for _, p in passes:
        p["host"] = REF_PROBE_S / statistics.median(p["probes"])
        p["speed"] = p["host"] if workloads.HOST_SCALED[workload] else 1.0
    plain = [p for traced, p in passes if not traced]
    details = {"workload": workload, "seed": seed, "passes": len(passes),
               "operations_per_pass": len(ops), "setup_samples": len(setups),
               "self_test": self_test or "ok", "failures": failures[:50],
               "failures_total": len(failures), "environment": env}
    by_kind: dict = {}
    for p in plain:
        for op, o in zip(ops, p["ops"]):
            by_kind.setdefault(op["kind"], []).append(o["t"] * p["speed"])
    details["median_latency_by_kind"] = {k: statistics.median(v) for k, v in by_kind.items()}
    problems = []
    if trace:
        per_pass, rows = [], []
        for traced, p in passes:
            if traced:
                m, bad = spans.layer_metrics(p["span_names"], p["spans"], p["run_s"])
                per_pass.append(m)
                problems += bad
                rows.append(p["spans"])
        # Spans stay in memory until the run ends, then go to one file.
        with open(ROOT / ".perfbench" / f"spans-{workload}.json", "w") as fh:
            json.dump({"names": passes[1][1]["span_names"], "passes": rows}, fh)
        untraced_run = statistics.median(p["run_s"] * p["speed"] for p in plain)
        traced_run = statistics.median(p["run_s"] * p["speed"] for traced, p in passes if traced)
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = (traced_run - untraced_run) / untraced_run
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
        details["trace_problems"] = problems[:20]
        details["traced_passes"] = len(per_pass)
    else:
        latencies = [o["t"] * p["speed"] for p in plain for o in p["ops"]]
        wall = [o["t"] for p in plain for o in p["ops"]]
        tail, pct = _tail(latencies)
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(p["run_s"] * p["speed"] for p in plain),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail,
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024,
            "ok_frac": 1 - len(failures) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        details.update(tail_percentile=pct, latency_samples=len(latencies),
                       failed_frac=len(failures) / attempted,
                       wall={"run_s": statistics.median(p["run_s"] for p in plain),
                             "op_p50_s": statistics.median(wall), "op_tail_s": _tail(wall)[0]})
    details["host_speed"] = {"ref_probe_s": REF_PROBE_S,
                             "scaled": workloads.HOST_SCALED[workload],
                             "median": statistics.median(p["host"] for _, p in passes),
                             "per_pass": [p["host"] for _, p in passes]}
    correct = not failures and self_test is None and not problems
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
