#!/usr/bin/env python3
"""One point of the perf trajectory: writes BENCH_<n>.json at the root.

    python scripts/bench_json.py 1

The only argument is the index n of the output file.  The script runs
`perfbench/run.py` of the same checkout, unchanged and as a subprocess, on
each of its three workloads at seed `SEED`:

- for `SECONDS` untraced, keeping its `env`, `derived` and result lines;
- once more briefly with `--trace 1`, keeping only the structure counts
  (`TRACED_COUNTS`): nodes, cells, hull size, and visits per call.  A change
  of tree shape shows there as counts, not only as time.

It then adds the paper's two scalar gates, computed as the acceptance
tests compute them with `lichao.bench.run_benchmark`:

- `c8_gate`: the 10^6 all-on-hull totals of lict, zkw and cht, their
  checksum, and `zkw_ms / lict_ms`, which must stay at or below 1.  It is
  not perfbench's `derived.zkw_over_lict`, which compares the two engines'
  replays on the smaller static-hull stream;
- `c9`: lict's per-op cost at 10^4 and at 10^6 ops on one 2^30 universe
  and their ratio, capped at 2.5.

A run takes about 4 minutes on 2 CPUs.  Compare two files only when they
were written back to back on one machine; the file is the trajectory, and
a speed claim still needs alternating before/after pairs.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lichao import Domain  # noqa: E402
from lichao.bench import (ensure_consistent, gen_nc_workload,  # noqa: E402
                          gen_random_workload, run_benchmark)

WORKLOADS = ("static-hull", "free-mixed", "verify-fuzz")
SEED = 1
SECONDS = 30
TRACE_SECONDS = 3
TRACED_COUNTS = ("core.nodes", "core.max_depth", "zkw.cells",
                 "zkw.cells_used_ratio", "baseline.hull_size",
                 "persistent.arena_nodes", "persistent.insert.appended_mean")
TRACED_SUFFIXES = (".visits_mean", ".visits_max")


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    """The three JSON lines of one `perfbench/run.py` run, by their key."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = [json.loads(s) for s in proc.stdout.splitlines()
             if s.startswith("{")]
    if proc.returncode or len(lines) != 3:
        raise SystemExit(f"perfbench {workload} --trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    env, derived, result = lines
    return {"env": env["env"], "derived": derived["derived"],
            "result": result}


def traced_counts(run: dict) -> dict:
    return {name: m["value"]
            for name, m in sorted(run["result"]["metrics"].items())
            if name in TRACED_COUNTS or name.endswith(TRACED_SUFFIXES)}


def c8_gate() -> dict:
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


def c9() -> dict:
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


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        raise SystemExit("usage: bench_json.py <n>  (writes BENCH_<n>.json)")
    start = time.time()
    workloads = {}
    for name in WORKLOADS:
        run = perfbench(name, SECONDS, 0)
        run["traced_counts"] = traced_counts(
            perfbench(name, TRACE_SECONDS, 1))
        workloads[name] = run
    out = {"seed": SEED, "seconds": SECONDS,
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                    time.gmtime(start)),
           "workloads": workloads, "c8_gate": c8_gate(), "c9": c9(),
           "wall_s": time.time() - start}
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
