"""Seeded operation lists for the four benchmark workloads.

Every workload is a fixed template of operation *shapes*; the seed fills in
the inputs (pairs drawn from a cost class, beta values, MC seeds, random
coefficient sequences) and the order.  Keeping the shape counts fixed keeps
the work per seed nearly constant, so the spread between seeds measures the
program and not the draw.  The package never sees the seed, only the
generated command lines and library arguments.

This module imports nothing from the package: it runs in the client process.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("identity-sweep", "mc-sampling", "graph-count", "small-checks")

BETAS = ("1/3", "1/2", "2/3", "1", "3/2", "2", "3")

# Sweep depth per equal-degree (p, q) pair, set once so that one beta's
# transfer sweep costs about 0.27 s on the machine and commit that introduced
# the benchmark (2 cores, numpy kernels, fractions.Fraction).  The depths are
# constants, never adapted at run time, so a faster sweep shows up as a
# shorter run.  Narrow pairs (<= 3 slots, as in acceptance criterion 06) run to
# about a thousand levels or more; wide pairs (4-5 slots) to hundreds.  Pairs
# that would need fewer than 130 levels to stay near the target (every
# six-slot pair, and 1:1,3:1|1:2,2:1 at 90) are left out.
NARROW_DEPTH = {
    "1:1|1:1": 9050,
    "2:1|2:1": 5680,
    "3:1|3:1": 3510,
    "4:1|4:1": 2450,
    "1:2|2:1": 2300,
    "2:1|1:2": 2570,
    "1:1,2:1|3:1": 1500,
    "3:1|1:1,2:1": 1310,
    "1:1,3:1|4:1": 940,
    "4:1|1:1,3:1": 920,
}
WIDE_DEPTH = {
    "1:3|3:1": 670,
    "3:1|1:3": 650,
    "1:2,2:1|4:1": 370,
    "4:1|1:2,2:1": 350,
    "1:1,2:1|1:1,2:1": 460,
    "1:1,3:1|1:1,3:1": 250,
    "1:1,3:1|2:2": 180,
    "2:2|1:1,3:1": 230,
    "1:3|1:1,2:1": 210,
    "1:1,2:1|1:3": 200,
    "1:4|4:1": 170,
    "4:1|1:4": 170,
    "2:2|2:2": 130,
}
# nice-identity depth per n, same target (the recursion is O(n^2 N)).
NICE_DEPTH = {2: 12700, 3: 5200, 4: 3500}

# Criterion-12 pushforward rungs: (modes, radius).
PUSHFORWARD_RUNGS = ((64, 0.98), (128, 0.99), (256, 0.995))
# Monte Carlo monomials, <= 3 slots.  Alpha-side cost grows with the largest
# index K read (Szego recursion to order K), so alpha operations draw from
# the K = 2 class only; Gaussian-side cost is set by the 200 drawn modes.
MC_GAUSSIAN_PAIRS = ("1:1|1:1", "2:1|2:1", "3:1|3:1", "4:1|4:1", "1:2|2:1",
                     "2:1|1:2", "1:1,2:1|3:1", "3:1|1:1,2:1", "1:1,3:1|4:1",
                     "2:2|4:1")
MC_ALPHA_PAIRS = ("2:1|2:1", "1:2|2:1", "2:1|1:2")
MC_SAMPLES = 100_000

# Graph-count pairs by degree.  Every pass runs all 16 degree-4 pairs with no
# 4:1 side (warm-cache check 0.22-0.31 s each; the nine with one cost
# 0.10-0.14 s), so the median operation sits inside one cost class and the
# work per pass hardly depends on the seed.  The first degree-4 operation of
# a pass also pays the m-graph enumeration for every m (about 10 s).
GRAPH_PAIRS = {
    2: ("1:2|1:2", "1:2|2:1", "2:1|1:2", "2:1|2:1"),
    3: ("1:3|1:3", "1:3|1:1,2:1", "1:3|3:1", "1:1,2:1|1:3", "1:1,2:1|1:1,2:1",
        "1:1,2:1|3:1", "3:1|1:3", "3:1|1:1,2:1", "3:1|3:1"),
    4: tuple(f"{p}|{q}" for p in ("1:4", "1:2,2:1", "1:1,3:1", "2:2")
             for q in ("1:4", "1:2,2:1", "1:1,3:1", "2:2")),
}
GRAPH_MAX_INDEX = 6

# Seconds per pass, set-up and output checks included, at the introducing
# commit, and the fewest passes a run makes.  A run makes
# max(MIN_PASSES, int(seconds / NOMINAL_PASS_S)) passes, so every run of a
# workload pools the same number of operations and the tail percentile stays
# put; a slower program makes a longer run, not fewer passes (up to the cap in
# run.py).  mc-sampling needs three passes (21 latencies) before its tail
# percentile leaves the pushforward operations; its pass takes about 10 s,
# but is counted as 7.5 s so that --seconds 30 gives it a fourth pass (28
# latencies).  With --seconds 30 the passes are 9, 4, 2 and 7, and runs last
# about 34, 40, 33 and 32 s.
NOMINAL_PASS_S = {
    "identity-sweep": 3.2,
    "mc-sampling": 7.5,
    "graph-count": 16.0,
    "small-checks": 3.8,
}
# Whether a workload's times are given in reference seconds (run.py).  The
# host's drift slows interpreted Python code, which is where identity-sweep,
# small-checks and graph-count spend their time, and the speed probe tracks
# it.  mc-sampling spends its time in numpy kernels, which the drift barely
# touches: scaling its times by the probe widened the spread of its ten-seed
# medians (run_s 0.073 -> 0.097, op_p50_s 0.102 -> 0.143), so they stay in
# wall seconds.
HOST_SCALED = {"identity-sweep": True, "mc-sampling": False, "graph-count": True,
               "small-checks": True}
MIN_PASSES = {"identity-sweep": 2, "mc-sampling": 3, "graph-count": 2, "small-checks": 2}


def _split(pair: str) -> tuple[str, str]:
    p, q = pair.split("|")
    return p, q


def _cli(kind: str, argv: list[str], **check) -> dict:
    return {"lane": "cli", "kind": kind, "argv": argv, "check": check}


def _identity_op(pair: str, depth: int, betas: list[str]) -> dict:
    """One identity check.  The depth shrinks with the number of betas, so that
    every identity operation costs about as much as one beta at full depth and
    the workload's latencies form one cluster (its median and tail then sit
    inside the cluster, not on the edge between two)."""
    p, q = _split(pair)
    depth = round(depth / len(betas) ** 0.9)
    return _cli("identity", ["identity", "--p", p, "--q", q, "--beta", ",".join(betas),
                             "--max-index", str(depth)])


def _alpha_op(pair: str, depth: int, beta: str) -> dict:
    p, q = _split(pair)
    check = {"x1": True} if pair == "1:1|1:1" else {}
    return _cli("alpha-moment", ["alpha-moment", "--p", p, "--q", q, "--beta", beta,
                                 "--max-index", str(depth)], **check)


def _nice_op(n: int, beta: str, depth: int) -> dict:
    return _cli("nice-identity", ["nice-identity", "--n", str(n), "--beta", beta,
                                  "--max-index", str(depth)])


# identity operations of every pass: (pair, number of betas).  Which pairs
# carry how many betas is fixed, because the per-pair depths match costs to
# within about 15 % only, and a seeded choice moved run_s by more than the
# host's noise; the seed picks the betas, the alpha-moment and nice-identity
# inputs and the order.  Three narrow pairs (two from criterion 06) and three
# wide ones of 4 and 5 slots.
IDENTITY_OPS = (
    ("1:2|2:1", 3), ("1:1,2:1|3:1", 2), ("3:1|3:1", 1),
    ("1:1,2:1|1:1,2:1", 3), ("1:3|1:1,2:1", 2), ("1:4|4:1", 1),
)


def identity_sweep(rng: random.Random, tmpdir: str) -> list[dict]:
    """The six IDENTITY_OPS with seeded betas, three alpha-moment operations
    (a seeded narrow pair, a seeded wide pair, and x_1 with its closed-form
    oracle) and two nice-identity operations."""
    depths = {**NARROW_DEPTH, **WIDE_DEPTH}
    ops = [_identity_op(pair, depths[pair], rng.sample(BETAS, k)) for pair, k in IDENTITY_OPS]
    for pool in (NARROW_DEPTH, WIDE_DEPTH):
        pair = rng.choice(sorted(pool))
        ops.append(_alpha_op(pair, pool[pair], rng.choice(BETAS)))
    ops.append(_alpha_op("1:1|1:1", NARROW_DEPTH["1:1|1:1"], rng.choice(BETAS)))
    for n in rng.sample(sorted(NICE_DEPTH), 2):
        ops.append(_nice_op(n, rng.choice(BETAS), NICE_DEPTH[n]))
    rng.shuffle(ops)
    return ops


def _mc_op(side: str, pair: str, rng: random.Random, dump: str | None = None) -> dict:
    p, q = _split(pair)
    argv = ["--threads", str(rng.choice((1, 2))), "mc", "--side", side, "--p", p,
            "--q", q, "--beta", rng.choice(("1/2", "2/3", "1", "3/2", "2")),
            "--samples", str(MC_SAMPLES), "--seed", str(rng.randrange(2**31)),
            "--n-trunc", "200"]
    if dump:
        argv += ["--dump-csv", dump]
    return _cli(f"mc-{side}", argv, dump=dump)


def mc_sampling(rng: random.Random, tmpdir: str) -> list[dict]:
    """The three criterion-12 pushforward rungs, three Gaussian-side mc
    operations (one of them writing --dump-csv) and one alpha-side mc
    operation."""
    ops = []
    for modes, radius in PUSHFORWARD_RUNGS:
        ops.append(_cli("pushforward", [
            "pushforward", "--beta", "1", "--modes", str(modes), "--radius", str(radius),
            "--samples", "2000", "--seed", str(rng.randrange(2**31)),
            "--max-alpha", str(rng.choice((1, 2, 3, 4)))]))
    gauss = rng.sample(MC_GAUSSIAN_PAIRS, 3)
    ops.append(_mc_op("gaussian", gauss[0], rng, dump=f"{tmpdir}/mc-samples.csv"))
    ops += [_mc_op("gaussian", pair, rng) for pair in gauss[1:]]
    ops.append(_mc_op("alpha", rng.choice(MC_ALPHA_PAIRS), rng))
    rng.shuffle(ops)
    return ops


def _graph_op(pair: str) -> dict:
    p, q = _split(pair)
    return {"lane": "graphs", "kind": "graph-count", "p": p, "q": q,
            "max_index": GRAPH_MAX_INDEX, "check": {}}


def graph_count(rng: random.Random, tmpdir: str) -> list[dict]:
    """Criterion-07 checks, each over every m of size <= 2 deg on indices
    0..6: all 16 degree-4 pairs in a fixed order, with two degree-2 and three
    degree-3 seeded pairs inserted at seeded places.  The degree-4 order is
    fixed because each pair's cost depends on which coloring counts earlier
    pairs left in the cache."""
    ops = [_graph_op(pair) for pair in GRAPH_PAIRS[4]]
    for deg, k in ((2, 2), (3, 3)):
        for pair in rng.sample(GRAPH_PAIRS[deg], k):
            ops.insert(rng.randint(0, len(ops)), _graph_op(pair))
    return ops


# -- small-checks ------------------------------------------------------------

# Operations per kind and pass.  szego-check runs at order 300 and costs
# about 30 ms, so it gets half the count of the millisecond kinds.
SMALL_KINDS = {
    "gaussian-moment": 80, "variance": 80, "count": 80, "jacobian": 80,
    "jacobian-exact": 80, "szego-check": 40, "roundtrip": 80, "alpha-moment": 80,
    "nice-identity": 80,
}


def _multi_index(rng: random.Random, deg: int) -> str:
    """A random multi-index of the given degree, as n:count tokens."""
    parts: dict[int, int] = {}
    left = deg
    while left:
        n = rng.randint(1, left)
        parts[n] = parts.get(n, 0) + 1
        left -= n
    return ",".join(f"{n}:{c}" for n, c in sorted(parts.items()))


def _alpha_floats(rng: random.Random, n: int, radius: float) -> str:
    """n complex literals in the disk of the given radius.  Passed as
    ``--alpha=LIST``: argparse would read a leading minus as an option."""
    out = []
    for _ in range(n):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        while abs(z) >= 1:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z *= radius
        out.append(f"{z.real:.4f}{z.imag:+.4f}i")
    return ",".join(out)


def _alpha_exact(rng: random.Random, n: int) -> str:
    out = []
    for _ in range(n):
        den = rng.randint(2, 9)
        while True:
            re, im = rng.randint(-den + 1, den - 1), rng.randint(-den + 1, den - 1)
            if re * re + im * im < den * den:
                break
        out.append(f"{Fraction(re, den)}{'+' if im >= 0 else '-'}{Fraction(abs(im), den)}i")
    return ",".join(out)


def _small_op(kind: str, rng: random.Random) -> list[dict]:
    """Operations of one kind.  The jacobian, szego-check and roundtrip inputs
    cover the ranges of acceptance criteria 08-10 (length <= 4, 4 and 6;
    |alpha| <= 0.7, 0.5 and 0.6).  There the criteria's order 200 and grid
    4096 miss the default tolerances for about one input in a thousand, so a
    correct report would say FAIL; order 300 and grid 16384 leave a margin of
    over 1000x on 1500 and 3000 sampled inputs."""
    if kind == "gaussian-moment":
        deg = rng.randint(1, 3)
        p, q = _multi_index(rng, deg), _multi_index(rng, deg)
        # Both engines on the same pair: the benchmark checks they agree.
        return [_cli(kind, ["gaussian-moment", "--p", p, "--q", q], engines=f"{p}|{q}"),
                _cli(kind, ["gaussian-moment", "--p", p, "--q", q, "--raw"],
                     engines=f"{p}|{q}")]
    if kind == "variance":
        return [_cli(kind, ["variance", "--n", str(rng.randint(1, 8))])]
    if kind == "count":
        deg = rng.randint(1, 2)
        m = sorted(rng.choices(range(5), k=2 * deg))
        mtxt = ",".join(f"{i}:{m.count(i)}" for i in sorted(set(m)))
        return [_cli(kind, ["count", "--p", _multi_index(rng, deg), "--q",
                            _multi_index(rng, deg), "--m", mtxt])]
    if kind == "jacobian":
        return [_cli(kind, ["jacobian", "--alpha=" + _alpha_floats(rng, rng.randint(1, 4), 0.7)])]
    if kind == "jacobian-exact":
        return [_cli(kind, ["jacobian", "--exact", "--alpha=" + _alpha_exact(rng, rng.randint(1, 3))])]
    if kind == "szego-check":
        return [_cli(kind, ["szego-check", "--alpha=" + _alpha_floats(rng, rng.randint(1, 4), 0.5),
                            "--order", "300"])]
    if kind == "roundtrip":
        return [_cli(kind, ["roundtrip", "--alpha=" + _alpha_floats(rng, rng.randint(1, 6), 0.6),
                            "--grid", "16384"])]
    if kind == "alpha-moment":
        deg = rng.randint(1, 2)
        pair = "1:1|1:1" if rng.random() < 0.3 else f"{_multi_index(rng, deg)}|{_multi_index(rng, deg)}"
        return [_alpha_op(pair, rng.randint(20, 80), rng.choice(BETAS))]
    if kind == "nice-identity":
        return [_nice_op(rng.randint(1, 3), rng.choice(BETAS), rng.randint(20, 80))]
    raise ValueError(kind)


def small_checks(rng: random.Random, tmpdir: str) -> list[dict]:
    """SMALL_KINDS[kind] operations of each kind (gaussian-moment counts twice:
    once per engine), on seeded random inputs, in seeded order."""
    ops = []
    for kind, count in SMALL_KINDS.items():
        for _ in range(count):
            ops += _small_op(kind, rng)
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "identity-sweep": identity_sweep,
    "mc-sampling": mc_sampling,
    "graph-count": graph_count,
    "small-checks": small_checks,
}


def generate(workload: str, seed: int, tmpdir: str) -> list[dict]:
    """The operation list of one workload; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), tmpdir)
