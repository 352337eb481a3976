"""Deterministic workload generation, timed replay, and CSV reporting.

Workloads are ordered op lists over a fixed integer domain; regenerating
with the same generator, size and seed yields an identical list.  The PRNG
is numpy's PCG64 seeded directly with the workload seed (default 42); each
generator documents the order in which it consumes the stream, so results
are reproducible on a given numpy version.  Distribution notation U(a, b)
is realized as uniform integers on the inclusive range [a, b].

The runner replays an op list of line inserts and queries on a fresh
structure per repetition, timing insert and query phases separately.  A
timed region holds engine calls only: generation, construction and the
fold of every query answer into a 64-bit checksum run outside the clock.
Equal checksums across algorithms on the same workload are the built-in
correctness guard of the harness.

Benchmarks are single-threaded by design; the harness never parallelizes
timed regions.
"""

import csv
import os
from dataclasses import dataclass
from functools import reduce
from statistics import mean, pstdev
from time import perf_counter
from typing import Optional

import numpy as np

from .baseline import LineContainer
from .core import Domain, LiChaoTree, _checked_line
from .zkw import ZkwTree

COORD_BOUND = 10**9

ALGOS = ("lict", "zkw", "cht")

# largest universe zkw may allocate: 2^26 cell pointers, 512 MB
ZKW_MAX_UNIVERSE = 1 << 24

CSV_FIELDS = ("n", "distribution", "algo", "insert_ms", "query_ms",
              "total_ms", "cv", "checksum")

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# fold value for an absent answer; cannot collide with any workload value
# produced by the bundled generators
_ABSENT = 0x9E3779B97F4A7C15


class WorkloadMismatchError(ValueError):
    """The chosen algorithm cannot execute this workload."""


class ChecksumMismatchError(RuntimeError):
    """Query-answer checksums diverged where they must be identical."""


@dataclass
class Workload:
    """Generated op sequence of ("A", k, b) inserts and ("Q", x) queries
    over `domain`; `label` names the distribution."""

    domain: Domain
    ops: list
    label: str


@dataclass
class BenchResult:
    algo: str
    n: int
    distribution: str
    insert_ms: float
    query_ms: float
    total_ms: float
    cv: float
    checksum: int


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def fold_answer(h: int, v) -> int:
    """Fold one query answer (int or None) into a running 64-bit checksum."""
    if v is None:
        v = _ABSENT
    return ((h ^ (v & _MASK64)) * _FNV_PRIME) & _MASK64


def workload_domain(n: int, distribution: str, nc: bool) -> Domain:
    """The domain the generators give a workload of n ops, so a caller can
    size an engine before generating anything.

    Free-range workloads span [-COORD_BOUND, COORD_BOUND]; static-universe
    (`nc`) ones are sized by n: [-n//2, n//2] for random, [0, n] for hull.
    """
    if distribution not in ("random", "hull"):
        raise ValueError(f"unknown distribution {distribution!r}")
    if not nc:
        return Domain(-COORD_BOUND, COORD_BOUND)
    if distribution == "random":
        return Domain(-(n // 2), n // 2)
    return Domain(0, n)


def gen_random_workload(n: int, seed: int, domain: Domain = None) -> Workload:
    """Uniform random lines and queries: n//2 inserts, then the queries.

    Slopes, intercepts and query points are uniform integers in
    [domain.lo, domain.hi]; the domain defaults to the free-range
    [-COORD_BOUND, COORD_BOUND].  Stream order: slopes, intercepts, query
    points.  Rejects a domain on which some such line would overflow 64-bit
    evaluation; k*x + b is extreme at a corner of the (k, b, x) box.
    """
    if n < 2:
        raise ValueError("workload needs at least 2 ops")
    if domain is None:
        domain = workload_domain(n, "random", nc=False)
    lo, hi = domain.lo, domain.hi
    for k in (lo, hi):
        for b in (lo, hi):
            _checked_line((k, b), lo, hi)
    n_ins = n // 2
    n_q = n - n_ins
    rng = _rng(seed)
    ks = rng.integers(lo, hi + 1, size=n_ins).tolist()
    bs = rng.integers(lo, hi + 1, size=n_ins).tolist()
    xs = rng.integers(lo, hi + 1, size=n_q).tolist()
    ops = [("A", k, b) for k, b in zip(ks, bs)]
    ops += [("Q", x) for x in xs]
    return Workload(domain, ops, "random")


def gen_hull_workload(n: int, seed: int = 42) -> Workload:
    """Adversarial family where every inserted line ends up on the hull.

    Inserts the n//2 lines y = -(i+1)*x + (i+1)^2 (their dual points lie
    on a convex parabola, so none is ever dominated), strictly alternating
    with queries at uniform points in the domain; leftover queries run at
    the end.  Rejects sizes whose steepest member would overflow 64-bit
    evaluation anywhere in the domain.
    """
    if n < 2:
        raise ValueError("workload needs at least 2 ops")
    domain = workload_domain(n, "hull", nc=False)
    n_ins = n // 2
    n_q = n - n_ins
    _checked_line((-n_ins, n_ins * n_ins), domain.lo, domain.hi)
    xs = _rng(seed).integers(domain.lo, domain.hi + 1, size=n_q).tolist()
    ops = []
    for i in range(n_ins):
        ops.append(("A", -(i + 1), (i + 1) * (i + 1)))
        if i < n_q:
            ops.append(("Q", xs[i]))
    for x in xs[n_ins:]:
        ops.append(("Q", x))
    return Workload(domain, ops, "hull")


def gen_nc_workload(n: int, distribution: str, seed: int) -> Workload:
    """Static-universe workload with the coordinate range sized by n.

    random: `gen_random_workload` on the domain [-n//2, n//2].
    hull: domain [0, n]; the parabola family for i in [0, n//2), insertion
    order shuffled, queries uniform in [0, n] (stream order: shuffle,
    queries).  Mix is always n//2 insertions followed by the queries.
    """
    if n < 2:
        raise ValueError("workload needs at least 2 ops")
    domain = workload_domain(n, distribution, nc=True)
    if distribution == "random":
        return gen_random_workload(n, seed, domain)
    n_ins = n // 2
    n_q = n - n_ins
    rng = _rng(seed)
    _checked_line((-n_ins, n_ins * n_ins), domain.lo, domain.hi)
    order = rng.permutation(n_ins).tolist()
    xs = rng.integers(0, n + 1, size=n_q).tolist()
    ops = [("A", -(i + 1), (i + 1) * (i + 1)) for i in order]
    ops += [("Q", x) for x in xs]
    return Workload(domain, ops, distribution)


def _build_runs(ops):
    """Group consecutive same-class ops into (kind, payload) runs."""
    runs = []
    cur = None
    payload = None
    for op in ops:
        tag = op[0]
        if tag != cur:
            payload = []
            runs.append((tag, payload))
            cur = tag
        if tag == "Q":
            payload.append(op[1])
        elif tag == "A":
            payload.append((op[1], op[2]))
        else:
            raise ValueError(f"unknown op tag {tag!r}")
    return runs


def make_engine(algo: str, domain: Domain):
    """Fresh empty structure of kind `algo` (one of ALGOS) over `domain`."""
    if algo == "lict":
        return LiChaoTree(domain)
    if algo == "zkw":
        return ZkwTree(domain.lo, domain.size)
    return LineContainer()


def engine_mismatch(algo: str, universe: int,
                    segments: bool) -> Optional[str]:
    """Why engine `algo` (one of ALGOS or "persistent") cannot run a stream
    over `universe` points with or without `segments`, or None when it can.

    Only lict takes segments.  zkw allocates its whole universe up front,
    so it runs on at most ZKW_MAX_UNIVERSE points.
    """
    if segments and algo != "lict":
        return f"{algo} does not support segments; only lict does"
    if algo == "zkw" and universe > ZKW_MAX_UNIVERSE:
        return (f"zkw allocates its whole universe up front; {universe} "
                f"points exceed its cap of {ZKW_MAX_UNIVERSE} (--nc sizes "
                f"the universe by the op count)")
    return None


def run_benchmark(workload: Workload, algo: str, reps: int) -> BenchResult:
    """Replay the workload `reps` times on fresh structures and time it.

    Insert and query wall time accumulate separately per repetition;
    reported times are means over repetitions, cv is the coefficient of
    variation of the per-repetition totals.  Each query run is timed as
    one `list(map(engine.query, xs))`, and its answers are folded into the
    checksum after the clock stops.  All repetitions must produce the same
    checksum (they are deterministic replays), otherwise the run aborts.
    An op other than a line insert or a query raises ValueError.
    """
    if algo not in ALGOS:
        raise WorkloadMismatchError(f"unknown algo {algo!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    why = engine_mismatch(algo, workload.domain.size, False)
    if why:
        raise WorkloadMismatchError(why)

    runs = _build_runs(workload.ops)
    insert_times = []
    query_times = []
    checksums = []
    for _ in range(reps):
        engine = make_engine(algo, workload.domain)
        ins_t = 0.0
        q_t = 0.0
        h = _FNV_OFFSET
        for kind, payload in runs:
            if kind == "Q":
                t0 = perf_counter()
                got = list(map(engine.query, payload))
                q_t += perf_counter() - t0
                h = reduce(fold_answer, got, h)
            else:
                f = engine.insert_line
                t0 = perf_counter()
                for kb in payload:
                    f(kb)
                ins_t += perf_counter() - t0
        insert_times.append(ins_t)
        query_times.append(q_t)
        checksums.append(h)

    if len(set(checksums)) != 1:
        raise ChecksumMismatchError(
            f"{algo} produced diverging checksums across repetitions: "
            f"{checksums}")
    totals = [i + q for i, q in zip(insert_times, query_times)]
    total_mean = mean(totals)
    cv = pstdev(totals) / total_mean if total_mean > 0 else 0.0
    return BenchResult(
        algo=algo,
        n=len(workload.ops),
        distribution=workload.label,
        insert_ms=mean(insert_times) * 1e3,
        query_ms=mean(query_times) * 1e3,
        total_ms=total_mean * 1e3,
        cv=cv,
        checksum=checksums[0],
    )


def ensure_consistent(results) -> None:
    """Abort if results of the same workload disagree on the checksum."""
    seen = {r.checksum for r in results}
    if len(seen) > 1:
        detail = ", ".join(f"{r.algo}={r.checksum:#018x}" for r in results)
        raise ChecksumMismatchError(f"checksum divergence: {detail}")


def c8_gate() -> dict:
    """The paper's C8 gate: lict, zkw and cht on the 10^6-op all-on-hull
    static universe, 5 reps each; `pass` when zkw is no slower than lict.
    Raises ChecksumMismatchError if their checksums differ."""
    wl = gen_nc_workload(10**6, "hull", 42)
    runs = {algo: run_benchmark(wl, algo, 5)
            for algo in ("lict", "zkw", "cht")}
    ensure_consistent(list(runs.values()))
    ratio = runs["zkw"].total_ms / runs["lict"].total_ms
    return {"n": 10**6, "reps": 5,
            **{f"{algo}_ms": r.total_ms for algo, r in runs.items()},
            "checksum": f"{runs['lict'].checksum:#018x}",
            "zkw_ms_over_lict_ms": ratio, "margin": 1 - ratio,
            "pass": ratio <= 1}


def c9_gate() -> dict:
    """The paper's C9 gate: lict's us per op on random workloads of 10^4
    and 10^6 ops over one 2^30 universe; `pass` when their ratio stays
    below 2.5.  The short leg's 100 reps take about as long as one of the
    long leg, so its mean measures per-op cost rather than warm-up."""
    domain = Domain(-(2**29), 2**29 - 1)
    small = run_benchmark(gen_random_workload(10**4, 42, domain=domain),
                          "lict", 100)
    big = run_benchmark(gen_random_workload(10**6, 42, domain=domain),
                        "lict", 5)
    per_small = 1e3 * small.total_ms / small.n
    per_big = 1e3 * big.total_ms / big.n
    ratio = per_big / per_small
    return {"us_per_op_1e4": per_small, "us_per_op_1e6": per_big,
            "ratio": ratio, "cap": 2.5, "pass": ratio < 2.5}


def append_csv(results, path) -> None:
    """Append one row per result, writing the fixed header first if the
    file is new or empty."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if fresh:
            w.writerow(CSV_FIELDS)
        for r in results:
            w.writerow([r.n, r.distribution, r.algo, repr(r.insert_ms),
                        repr(r.query_ms), repr(r.total_ms), repr(r.cv),
                        r.checksum])
