#!/usr/bin/env python3
"""Desk-scale benchmark grid over all algorithms and distributions.

Times every algorithm that `lichao.bench.engine_mismatch` allows on the
random and all-on-hull workloads, both in the free-range regime and in the
static-universe regime where the coordinate range is sized by the op count,
cross-checks the answer checksums, prints a table and writes a fresh CSV
(any file already at --csv is replaced).

Defaults are sized for a laptop run of a few minutes; pass larger --sizes
/ --nc-sizes to push further.
"""

import argparse
from pathlib import Path

from lichao.bench import (ALGOS, append_csv, engine_mismatch,
                          ensure_consistent, gen_hull_workload,
                          gen_nc_workload, gen_random_workload, run_benchmark)

HEADER = (f"{'n':>9} {'regime':>7} {'dist':>7} {'algo':>5} "
          f"{'insert_ms':>11} {'query_ms':>10} {'total_ms':>10} {'cv':>7}")


def show(result, regime):
    print(f"{result.n:>9} {regime:>7} {result.distribution:>7} "
          f"{result.algo:>5} {result.insert_ms:>11.2f} "
          f"{result.query_ms:>10.2f} {result.total_ms:>10.2f} "
          f"{result.cv:>7.4f}")


def workloads(args):
    """(regime, workload) pairs: the free-range sizes, then the static."""
    for n in args.sizes:
        yield "free", gen_random_workload(n, args.seed)
        yield "free", gen_hull_workload(n, args.seed)
    for n in args.nc_sizes:
        for dist in ("random", "hull"):
            yield "n=c", gen_nc_workload(n, dist, args.seed)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[10**4, 10**5],
                    help="op counts for the free-range regime")
    ap.add_argument("--nc-sizes", type=int, nargs="+",
                    default=[10**4, 10**5],
                    help="op counts (= universe sizes) for the static regime")
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--csv", default="bench_results.csv")
    args = ap.parse_args()

    results = []
    print(HEADER)
    for regime, wl in workloads(args):
        group = [run_benchmark(wl, algo, args.reps) for algo in ALGOS
                 if engine_mismatch(algo, wl.domain.size, False) is None]
        ensure_consistent(group)
        for r in group:
            show(r, regime)
        results += group
    Path(args.csv).unlink(missing_ok=True)
    append_csv(results, args.csv)
    print(f"\n{len(results)} rows written to {args.csv}")


if __name__ == "__main__":
    main()
