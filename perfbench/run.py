#!/usr/bin/env python3
"""Benchmark of the lichao envelope structures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload static-hull --seed 1 --seconds 30 --trace 0

Every workload is one op-stream family, run at two scales:

* bench scale: the stream is replayed on a fresh `LiChaoTree` (lict),
  `ZkwTree` (zkw), `LineContainer` (cht) and `PersistentForest`
  (persistent, inserting on the latest version), one after another, in
  rounds until `--seconds` have passed.  Every query answer of every replay
  is compared, outside the timed region, with a reference built once per
  run: the first engine's answers, checked against `NaiveSet` on a seeded
  sample of queries.
* verify scale: each round also runs `run_verify` (library defaults) on
  full-line streams with every engine and on segment streams with the core
  tree; a report with `ok=False` counts its stream's ops as failed.

Timing.  A replay is timed in chunks of about `CHUNK_OPS` ops (one clock
read per chunk, none per op) and each `run_verify` call on its own.  An
engine's time is the sum over chunks of the chunk's median time across
rounds, which shrugs off bursts of other load better than the median of
whole rounds.  A shared host also drifts in speed over minutes, so every
round also times `reference_seconds`, a fixed loop that uses no lichao
code, and the reported times are scaled to the host speed at which that
loop takes `REFERENCE_S`.  The unscaled figures are printed among the
derived figures.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and prints the per-layer metrics of `tracing.Tracer`.
Earlier stdout lines carry an environment block and derived figures that
are reported but not gated; the last line is the result object.  The exit
code is 0 only if no op failed.  WORKLOADS.md says why each workload
exists and which metrics it should move.
"""

import os

# single-threaded by design; keep numpy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import sys
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from statistics import median
from time import perf_counter
from types import (BuiltinFunctionType, FunctionType, MethodType, ModuleType,
                   NoneType)

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "lichao" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no lichao sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import sortedcontainers  # noqa: E402

import lichao  # noqa: E402
from lichao import (Domain, LiChaoTree, LineContainer, NaiveSet,  # noqa: E402
                    PersistentForest, ZkwTree, bench, verify)

if Path(lichao.__file__).resolve().parent != SRC / "lichao":
    raise SystemExit(f"perfbench: imported lichao from {lichao.__file__}, "
                     f"not from {SRC}")

from tracing import Tracer  # noqa: E402

WORKLOADS = ("static-hull", "free-mixed", "verify-fuzz")

ENGINES = {
    "lict": lambda d: LiChaoTree(d),
    "zkw": lambda d: ZkwTree(d.lo, d.size),
    "cht": lambda d: LineContainer(),
    "persistent": lambda d: PersistentForest(d),
}
# engines whose insert takes and returns a version
VERSIONED = {"persistent"}
# package module (the layer name in per-layer metrics) of each engine
LAYER = {"lict": "core", "zkw": "zkw", "cht": "baseline",
         "persistent": "persistent"}

MIN_ROUNDS = 3
CHUNK_OPS = 1024
ORACLE_SAMPLE = 64
# Nominal time of `reference_seconds()`, close to what it took on the
# 2-vCPU host this benchmark was tuned on (Python 3.11).  A fixed constant:
# only a run's ratio to it matters, and it must not change between runs
# that are compared.
REFERENCE_S = 0.0035

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "lict.ops_per_s": ("ops/s", "higher"),
    "zkw.ops_per_s": ("ops/s", "higher"),
    "cht.ops_per_s": ("ops/s", "higher"),
    "persistent.ops_per_s": ("ops/s", "higher"),
    "verify.ops_per_s": ("ops/s", "higher"),
    "mem_mb": ("MB", "lower"),
}


def _timing(span, *extra):
    out = {f"{span}.calls": ("count", "higher"),
           f"{span}.busy_s": ("s", "lower"),
           f"{span}.ns_p50": ("ns", "lower"),
           f"{span}.ns_p99": ("ns", "lower")}
    for field, unit in extra:
        out[f"{span}.{field}"] = (unit, "lower")
    return out


_VISITS_MEAN = ("visits_mean", "count")
_VISITS_MAX = ("visits_max", "count")

PER_LAYER = {
    "core.init.busy_s": ("s", "lower"),
    **_timing("core.insert_line", _VISITS_MEAN, _VISITS_MAX),
    **_timing("core.query", _VISITS_MEAN),
    **_timing("core.insert_segment", _VISITS_MEAN, _VISITS_MAX),
    "core.audit.busy_s": ("s", "lower"),
    "core.nodes": ("count", "lower"),
    "core.max_depth": ("count", "lower"),
    "core.retained_mb": ("MB", "lower"),
    "zkw.init.busy_s": ("s", "lower"),
    **_timing("zkw.insert_line", _VISITS_MEAN),
    **_timing("zkw.query", _VISITS_MEAN),
    "zkw.audit.busy_s": ("s", "lower"),
    "zkw.cells": ("count", "lower"),
    "zkw.cells_used_ratio": ("ratio", "higher"),
    "zkw.retained_mb": ("MB", "lower"),
    "baseline.init.busy_s": ("s", "lower"),
    **_timing("baseline.insert_line"),
    **_timing("baseline.query"),
    "baseline.hull_size": ("count", "lower"),
    "baseline.kept_ratio": ("ratio", "higher"),
    "baseline.retained_mb": ("MB", "lower"),
    "persistent.init.busy_s": ("s", "lower"),
    **_timing("persistent.insert", ("appended_mean", "count")),
    **_timing("persistent.query"),
    "persistent.arena_nodes": ("count", "lower"),
    "persistent.retained_mb": ("MB", "lower"),
    "oracle.add.calls": ("count", "higher"),
    "oracle.add.busy_s": ("s", "lower"),
    **_timing("oracle.query"),
    "verify.run_verify.calls": ("count", "higher"),
    "verify.run_verify.busy_s": ("s", "lower"),
    "verify.run_verify.self_s": ("s", "lower"),
    "verify.gen_verify_ops.busy_s": ("s", "lower"),
    "bench.gen.busy_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# per-layer metric suffix -> field of tracing.Tracer.metrics()
_TRACE_FIELDS = {"calls": "calls", "busy_s": "busy_s", "self_s": "self_s",
                 "ns_p50": "ns_p50", "ns_p99": "ns_p99",
                 "visits_mean": "count_mean", "visits_max": "count_max",
                 "appended_mean": "count_mean"}


@dataclass
class Streams:
    """Op streams of one workload and seed.

    `ops` is the bench-scale stream over `domain`; `checks` lists the
    verify-scale `(ops, c, full_lines)` streams given to `run_verify`, whose
    universe is `[0, c-1]`.
    """

    domain: Domain
    ops: list
    checks: list


def derived_seed(seed, k):
    """Independent, reproducible seed for the k-th extra stream of a run."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def make_streams(workload, seed, scale=1.0):
    """Generate every op stream of a workload; sizes shrink with `scale`.

    Full-line verify streams of free-mixed and verify-fuzz are slices of
    the bench stream: its ops are drawn independently, so every slice is
    itself a stream of the same distribution.
    """

    def size(n):
        return max(64, int(n * scale))

    checks = []
    if workload == "static-hull":
        wl = bench.gen_nc_workload(size(2**15), "hull", seed)
        n = size(2**11)
        for i in range(4):
            lines = bench.gen_nc_workload(n, "hull", derived_seed(seed, 1 + i))
            segs = verify.gen_verify_ops(size(2**10), n + 1,
                                         derived_seed(seed, 5 + i),
                                         segments=True)
            checks += [(lines.ops, n + 1, True), (segs, n + 1, False)]
        return Streams(wl.domain, wl.ops, checks)
    if workload == "free-mixed":
        c, m, parts = size(2**20), size(2**10), 2
        ops = verify.gen_verify_ops(size(2**15), c, seed)
    elif workload == "verify-fuzz":
        c, m, parts = 4096, size(2500), 4
        ops = verify.gen_verify_ops(parts * m, c, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i in range(parts):
        segs = verify.gen_verify_ops(m // 2, c, derived_seed(seed, 1 + i),
                                     segments=True)
        checks += [(ops[i * m:(i + 1) * m], c, True), (segs, c, False)]
    return Streams(Domain(0, c - 1), ops, checks)


def to_runs(ops):
    """Maximal runs of same-kind ops: (is_query, [x ...] or [(k, b) ...])."""
    runs = []
    cur = None
    for op in ops:
        is_query = op[0] == "Q"
        if is_query is not cur:
            payload = []
            runs.append((is_query, payload))
            cur = is_query
        payload.append(op[1] if is_query else (op[1], op[2]))
    return runs


def to_chunks(runs, split_queries):
    """Group runs into timing chunks of about CHUNK_OPS ops.

    Insert runs may be cut across chunks.  Query runs are cut only when
    `split_queries` is set, i.e. for an engine without `query_many`, whose
    scalar calls are the same either way.
    """
    chunks = []
    cur = []
    size = 0
    for is_query, payload in runs:
        if is_query and not split_queries:
            pieces = [payload]
        else:
            pieces = [payload[i:i + CHUNK_OPS]
                      for i in range(0, len(payload), CHUNK_OPS)]
        for piece in pieces:
            cur.append((is_query, piece))
            size += len(piece)
            if size >= CHUNK_OPS:
                chunks.append(cur)
                cur = []
                size = 0
    if cur:
        chunks.append(cur)
    return chunks


_consume = deque(maxlen=0).extend


def replay(engine, chunks, versioned):
    """Feed the chunks to an engine.

    Returns its answers, one entry per query run piece, and the wall time
    of each chunk.  A query run goes to `query_many` in one call when the
    engine has that method.
    """
    out = []
    times = []
    qm = getattr(engine, "query_many", None)
    q = engine.query
    if versioned:
        ins = engine.insert
        v = 0
        for chunk in chunks:
            t0 = perf_counter()
            for is_query, payload in chunk:
                if not is_query:
                    for line in payload:
                        v = ins(v, line)
                elif qm is not None:
                    out.append(qm(v, payload))
                else:
                    out.append(list(map(q, repeat(v, len(payload)), payload)))
            times.append(perf_counter() - t0)
    else:
        ins = engine.insert_line
        for chunk in chunks:
            t0 = perf_counter()
            for is_query, payload in chunk:
                if not is_query:
                    _consume(map(ins, payload))
                elif qm is not None:
                    out.append(qm(payload))
                else:
                    out.append(list(map(q, payload)))
            times.append(perf_counter() - t0)
    return out, times


def flatten(answers):
    """Answers in query order, None where no line covers the point."""
    out = []
    for piece in answers:
        if isinstance(piece, list):
            out.extend(piece)
        else:
            values, present = piece
            out.extend(int(v) if p else None
                       for v, p in zip(list(values), list(present)))
    return out


_SKIP = (type, ModuleType, FunctionType, BuiltinFunctionType, MethodType)
_LEAF = (int, float, complex, str, bytes, bool, NoneType, np.ndarray)


def deep_size(root):
    """Bytes reachable from `root`, each object once; stops at modules,
    classes and functions."""
    seen = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SKIP):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, _LEAF):
            if isinstance(obj, np.ndarray) and obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            d = getattr(obj, "__dict__", None)
            if d is not None:
                stack.append(d)
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return total


def structure_counters(name, engine, n_inserts):
    """Size counters of an engine after a replay (traced pass only)."""
    if name == "lict":
        return {"core.nodes": engine.node_count,
                "core.max_depth": engine.stats().max_depth_observed}
    if name == "zkw":
        cells = engine.num_cells
        # ZkwTree exposes no count of filled cells; read its slope array
        used = sum(k is not None for k in getattr(engine, "_k", ()))
        return {"zkw.cells": cells, "zkw.cells_used_ratio": used / cells}
    if name == "cht":
        hull = engine.hull_size()
        return {"baseline.hull_size": hull,
                "baseline.kept_ratio": hull / max(1, n_inserts)}
    if name == "persistent":
        return {"persistent.arena_nodes": engine.arena_size}
    return {}


class Ledger:
    """Counts ops attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def error(self, what, n_ops):
        """An exception lost `n_ops` ops; report it and count them."""
        traceback.print_exc(file=sys.stderr)
        print(f"perfbench: {what} raised; {n_ops} ops failed",
              file=sys.stderr)
        self.failed += n_ops

    def compare(self, what, got, ref):
        if got == ref:
            return
        bad = sum(a != b for a, b in zip(got, ref)) + abs(len(got) - len(ref))
        print(f"perfbench: {what}: {bad} wrong answers", file=sys.stderr)
        self.failed += bad


_REF_K = list(range(-512, 512))
_REF_B = [k * k for k in _REF_K]


def reference_seconds():
    """Wall time of a fixed pure-Python loop that uses no lichao code.

    It runs between the replays of every round, so its median tracks how
    fast the shared host ran during the run, whatever the code under test.
    """
    K, B = _REF_K, _REF_B
    acc = 0
    t0 = perf_counter()
    for x in range(2000):
        lo, hi = 0, 1023
        while lo < hi:
            m = (lo + hi) >> 1
            if K[m] * x + B[m] < acc:
                hi = m
            else:
                lo = m + 1
        acc = (acc + lo * x) & 0xFFFF
    return perf_counter() - t0


def typical_total(samples):
    """Sum over positions of the median time seen at that position."""
    return sum(map(median, zip(*samples)))


class Bench:
    """One run of one workload: set-up, reference, timed rounds."""

    def __init__(self, workload, seed, scale=1.0):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.ledger = Ledger()
        self.streams = None
        self.ref = None

    def setup(self):
        """Generate the streams and construct every engine; returns the
        wall time this took."""
        self.streams = self.chunks = None
        gc.collect()
        t0 = perf_counter()
        self.streams = make_streams(self.workload, self.seed, self.scale)
        runs = to_runs(self.streams.ops)
        self.chunks = {split: to_chunks(runs, split)
                       for split in (False, True)}
        engines = [make(self.streams.domain) for make in ENGINES.values()]
        elapsed = perf_counter() - t0
        del engines
        self.n_ops = len(self.streams.ops)
        self.n_inserts = sum(op[0] == "A" for op in self.streams.ops)
        self.n_checked = sum(len(c[0]) for c in self.streams.checks)
        return elapsed

    def oracle_mismatches(self, ref):
        """Wrong answers in `ref` at a seeded sample of query positions."""
        n_q = len(ref)
        if n_q == 0:
            return 0
        rng = np.random.Generator(np.random.PCG64(derived_seed(self.seed, 99)))
        picks = set(rng.choice(n_q, size=min(ORACLE_SAMPLE, n_q),
                               replace=False).tolist())
        naive = NaiveSet()
        qi = bad = 0
        for op in self.streams.ops:
            if op[0] == "A":
                naive.add_line((op[1], op[2]))
                continue
            if qi in picks and naive.query(op[1]) != ref[qi]:
                bad += 1
            qi += 1
        return bad

    def replay_fresh(self, name, what):
        """Replay the bench stream on a freshly built engine.

        Releases the previous engine and collects garbage before building
        it, outside the chunk clocks.  Returns (engine, answers, chunk
        times), or None after counting the failure when the replay raised.
        """
        gc.collect()
        engine = ENGINES[name](self.streams.domain)
        chunks = self.chunks[not hasattr(engine, "query_many")]
        self.ledger.attempted += self.n_ops
        try:
            answers, times = replay(engine, chunks, name in VERSIONED)
        except Exception:
            self.ledger.error(f"{name} {what}", self.n_ops)
            return None
        return engine, flatten(answers), times

    def warm_up(self):
        """Untimed replay on every engine: builds the reference answers,
        checks them against the oracle, and returns the MB each engine
        retains after the replay."""
        self.ref = None
        mem = {}
        for name in ENGINES:
            done = self.replay_fresh(name, "warm-up replay")
            if done is None:
                continue
            engine, got, _ = done
            if self.ref is None:
                self.ref = got
                bad = self.oracle_mismatches(got)
                if bad:
                    print(f"perfbench: {name} disagrees with the oracle on "
                          f"{bad} sampled queries", file=sys.stderr)
                    self.ledger.failed += bad
            else:
                self.ledger.compare(f"{name} warm-up replay", got, self.ref)
            mem[name] = deep_size(engine) / 2**20
            del engine, done
        if self.ref is None:
            self.ref = []  # every replay raised: every later answer fails
        return mem

    def round(self, counters=None, tracer=None):
        """One replay per engine plus the verify-scale checks.

        Returns wall times: the chunk times of each engine's replay,
        under "verify" the time of each `run_verify` call, and under
        "reference" those of `reference_seconds` between them.  With
        `counters`, records each engine's size counters after its replay;
        with `tracer`, adds what the replays recorded to `self.phase`.
        """
        times = {}
        snap = tracer.snapshot() if tracer is not None else None
        ref_loop = times["reference"] = []
        for name in ENGINES:
            ref_loop.append(reference_seconds())
            done = self.replay_fresh(name, "replay")
            if done is None:
                continue
            engine, got, times[name] = done
            self.ledger.compare(f"{name} replay", got, self.ref)
            if counters is not None:
                counters.update(structure_counters(name, engine,
                                                   self.n_inserts))
            del engine, done
        if tracer is not None:
            for key, (n, ns) in tracer.delta(snap).items():
                self.phase[key][0] += n
                self.phase[key][1] += ns
        ref_loop.append(reference_seconds())
        calls = []
        for ops, c, full_lines in self.streams.checks:
            gc.collect()
            self.ledger.attempted += len(ops)
            t0 = perf_counter()
            try:
                report = verify.run_verify(
                    ops, c, include_zkw=full_lines, include_cht=full_lines,
                    include_persistent=full_lines)
            except Exception:
                self.ledger.error("run_verify", len(ops))
                continue
            calls.append(perf_counter() - t0)
            if not report.ok:
                print(f"perfbench: run_verify failed: {report.failure}",
                      file=sys.stderr)
                self.ledger.failed += len(ops)
        if len(calls) == len(self.streams.checks):
            times["verify"] = calls
        return times

    def work(self, name):
        return self.n_checked if name == "verify" else self.n_ops

    def measure(self, seconds):
        """Untraced pass: end-to-end metrics and derived figures.

        Times are scaled by the host's slowdown during the run: the median
        time of `reference_seconds` over `REFERENCE_S`.
        """
        setups = [self.setup()]
        mem = self.warm_up()
        samples = defaultdict(list)
        deadline = perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() < deadline:
            # one set-up per round spreads the set-up samples over the run
            setups.append(self.setup())
            for name, t in self.round().items():
                samples[name].append(t)
            rounds += 1
        setup_raw = median(setups)
        slowdown = median(chain.from_iterable(samples.pop("reference")))
        slowdown /= REFERENCE_S
        metrics = {"setup_s": setup_raw / slowdown}
        raw = {"setup_s": setup_raw}
        spread = {}
        typical = {}
        for name in (*ENGINES, "verify"):
            key = f"{name}.ops_per_s"
            ts = samples.get(name)
            if not ts:
                metrics[key] = 0.0
                continue
            typical[name] = typical_total(ts)
            raw[key] = self.work(name) / typical[name]
            metrics[key] = raw[key] * slowdown
            spread[name] = _iqr_share([sum(t) for t in ts])
        metrics["mem_mb"] = sum(mem.values())
        derived = {
            "rounds": rounds,
            "host_slowdown": slowdown,
            "unscaled": raw,
            "round_time_iqr_over_median": spread,
            "mem_mb": mem,
            "us_per_op_unscaled": {name: 1e6 * t / self.work(name)
                                   for name, t in typical.items()},
        }
        if "zkw" in typical and "lict" in typical:
            # the paper's C8 claim (zkw no slower than lict) on static-hull
            derived["zkw_over_lict"] = typical["zkw"] / typical["lict"]
        return metrics, derived

    def trace(self, seconds):
        """Traced pass: per-layer metrics and tracing overhead.

        Untraced and traced rounds alternate until `seconds` have passed;
        the traced half also repeats the set-up, so generation and
        construction show in the spans.
        """
        self.setup()
        counters = {f"{LAYER[name]}.retained_mb": mb
                    for name, mb in self.warm_up().items()}
        tracer = Tracer()
        self.phase = defaultdict(lambda: [0, 0])
        plain = traced = 0.0
        rounds = 0
        deadline = perf_counter() + seconds
        while rounds < 1 or perf_counter() < deadline:
            plain += _round_seconds(self.round())
            tracer.install()
            try:
                self.setup()
                traced += _round_seconds(self.round(counters, tracer))
            finally:
                tracer.uninstall()
            rounds += 1
        spans = tracer.metrics(rounds)
        metrics = {}
        for name in PER_LAYER:
            span, _, field = name.rpartition(".")
            if name in counters:
                metrics[name] = counters[name]
            elif field in _TRACE_FIELDS:
                metrics[name] = spans.get(span, {}).get(
                    _TRACE_FIELDS[field], 0.0)
        metrics["trace.overhead"] = traced / plain if plain > 0 else 0.0
        derived = {
            "rounds": rounds,
            # cost per call during the bench-scale replays only, tracing
            # overhead included; the verify checks are left out
            "us_per_call_in_replay": {
                key: ns / n / 1e3
                for key, (n, ns) in sorted(self.phase.items()) if n},
            "batch_query": {key: value for key, value in spans.items()
                            if key.endswith(".query_many")},
        }
        return metrics, derived


def _round_seconds(times):
    return sum(sum(t) for name, t in times.items() if name != "reference")


def _iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float((q3 - q1) / q2) if q2 else 0.0


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, scale):
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "sortedcontainers": sortedcontainers.__version__,
        "lichao": lichao.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "loadavg_start": load,
    }


def run(workload, seed, seconds, trace, scale=1.0):
    """Measure one workload; returns (result, derived, sizes)."""
    b = Bench(workload, seed, scale)
    if trace:
        values, derived = b.trace(seconds)
        units = PER_LAYER
    else:
        values, derived = b.measure(seconds)
        units = END_TO_END
    led = b.ledger
    derived["error_rate"] = led.failed / led.attempted
    sizes = {
        "bench_ops": b.n_ops,
        "bench_inserts": b.n_inserts,
        "bench_universe": b.streams.domain.size,
        "verify_streams": [{"ops": len(ops), "c": c, "full_lines": full}
                           for ops, c, full in b.streams.checks],
    }
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]}
                    for name in units},
    }
    return result, derived, sizes


def main(argv=None, scale=1.0):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    env = environment(args, scale)
    result, derived, sizes = run(args.workload, args.seed, args.seconds,
                                 args.trace, scale)
    env["sizes"] = sizes
    print(json.dumps({"env": env}))
    print(json.dumps({"derived": derived}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
