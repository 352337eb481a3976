"""Command-line harness: benchmarks, differential fuzzing, op-file replay.

Exit codes: 0 success, 1 verification or runtime failure (divergent query,
checksum mismatch, out-of-domain op, overflow, out of memory), 2 usage or
parse error, including an --algo that cannot run the input and a universe
(`--c`, `--domain`) that `Domain` refuses.  Which engine
can run which op stream is decided by `lichao.bench.engine_mismatch`
alone, from the universe size and the presence of segments: zkw runs on at
most `ZKW_MAX_UNIVERSE` points.  `verify` checks every engine the
generated stream allows.

Op files are plain text, one op per line: `A k b` inserts a line,
`S k b xl xr` inserts a segment, `Q x` queries.  Lines starting with `#`
and blank lines are ignored.  All integers must fit a signed 64-bit range;
malformed lines are hard errors reported with their line number.  Replay
prints one line per query: the answer, or `INF` when no line covers the
point, so replay output is diffable text and identical across algorithms.
"""

import argparse
import sys

from .bench import (ALGOS, ChecksumMismatchError, WorkloadMismatchError,
                    append_csv, engine_mismatch, gen_hull_workload,
                    gen_nc_workload, gen_random_workload, make_engine,
                    run_benchmark, workload_domain)
from .core import I64_MAX, I64_MIN, Domain, InvalidDomainError, _checked_line
from .verify import gen_verify_ops, run_verify


class OpsFileError(ValueError):
    """Malformed op file; message carries file and line number."""


def _parse_i64(tok: str, where: str) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise OpsFileError(f"{where}: not an integer: {tok!r}") from None
    if v < I64_MIN or v > I64_MAX:
        raise OpsFileError(f"{where}: {tok} outside signed 64-bit range")
    return v


def parse_ops_file(path: str) -> list:
    """Parse an op file into the ("A", ...)/("S", ...)/("Q", ...) form."""
    arity = {"A": 2, "S": 4, "Q": 1}
    ops = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            toks = s.split()
            where = f"{path}:{lineno}"
            tag = toks[0]
            if tag not in arity:
                raise OpsFileError(f"{where}: unknown op {tag!r}")
            if len(toks) - 1 != arity[tag]:
                raise OpsFileError(
                    f"{where}: op {tag} takes {arity[tag]} integer(s), "
                    f"got {len(toks) - 1}")
            ints = [_parse_i64(t, where) for t in toks[1:]]
            ops.append((tag, *ints))
    return ops


def format_op(op) -> str:
    return " ".join(str(f) for f in op)


def cmd_bench(args) -> int:
    if args.n < 2 or args.reps < 1 or args.seed < 0:
        print("error: need --n >= 2, --reps >= 1 and --seed >= 0",
              file=sys.stderr)
        return 2
    why = engine_mismatch(
        args.algo, workload_domain(args.n, args.dist, args.nc).size, False)
    if why:
        raise WorkloadMismatchError(why)
    if args.nc:
        workload = gen_nc_workload(args.n, args.dist, args.seed)
    elif args.dist == "random":
        workload = gen_random_workload(args.n, args.seed)
    else:
        workload = gen_hull_workload(args.n, args.seed)
    result = run_benchmark(workload, args.algo, args.reps)
    if args.csv:
        append_csv([result], args.csv)
    print(f"n={result.n} dist={result.distribution} algo={result.algo} "
          f"insert_ms={result.insert_ms:.3f} query_ms={result.query_ms:.3f} "
          f"total_ms={result.total_ms:.3f} cv={result.cv:.4f} "
          f"checksum={result.checksum:#018x}")
    return 0


def cmd_verify(args) -> int:
    if args.ops < 0 or args.seed < 0:
        print("error: need --ops >= 0 and --seed >= 0", file=sys.stderr)
        return 2
    ops = gen_verify_ops(args.ops, args.c, args.seed, segments=args.segments)
    segments = any(op[0] == "S" for op in ops)
    report = run_verify(ops, args.c, **{
        f"include_{e}": engine_mismatch(e, args.c, segments) is None
        for e in ("zkw", "cht", "persistent")})
    if report.ok:
        print(f"OK: {report.queries_checked} queries checked over "
              f"{report.ops_total} ops (universe {args.c}, seed {args.seed}, "
              f"engines {'+'.join(report.engines)}); "
              f"nodes={report.tree_nodes} "
              f"max_depth={report.tree_max_depth} "
              f"max_visits={report.max_line_visits}/{report.max_seg_visits}")
        return 0
    print(f"FAIL: {report.failure}", file=sys.stderr)
    print(f"failing prefix ({len(report.failing_prefix)} of "
          f"{report.ops_total} ops):", file=sys.stderr)
    for op in report.failing_prefix:
        print(format_op(op), file=sys.stderr)
    return 1


def cmd_replay(args) -> int:
    try:
        ops = parse_ops_file(args.file)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    lo, hi = args.domain
    domain = Domain(lo, hi)
    why = engine_mismatch(args.algo, domain.size,
                          any(op[0] == "S" for op in ops))
    if why:
        raise WorkloadMismatchError(f"{args.file}: {why}")
    engine = make_engine(args.algo, domain)
    # cht has no domain: lines and query points are checked against it here,
    # so every --algo fails at the same op
    for op in ops:
        if op[0] == "A":
            engine.insert_line(_checked_line(op[1:], lo, hi))
        elif op[0] == "S":
            engine.insert_segment((op[1], op[2]), op[3], op[4])
        else:
            v = engine.query(domain.point(op[1]))
            print("INF" if v is None else v)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lichao",
        description="Lower-envelope structures: benchmark, verify, replay.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="generate a workload and time one algo")
    p.add_argument("--n", type=int, required=True, help="op count")
    p.add_argument("--dist", choices=("random", "hull"), default="random")
    p.add_argument("--algo", choices=ALGOS, required=True)
    p.add_argument("--nc", action="store_true",
                   help="static-universe regime: coordinate range sized by "
                        "the op count")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--csv", help="append the result row to this CSV file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify",
                       help="differential fuzz against the naive oracle")
    p.add_argument("--ops", type=int, default=10000, help="op count")
    p.add_argument("--c", type=int, default=4096, help="universe size")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--segments", action="store_true",
                   help="mix segment insertions into the workload")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="execute an op file, print answers")
    p.add_argument("--file", required=True)
    p.add_argument("--algo", choices=ALGOS, default="lict")
    p.add_argument("--domain", type=int, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (OpsFileError, WorkloadMismatchError, InvalidDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # ValueError covers the segment and out-of-domain errors
    except (ValueError, OverflowError, ChecksumMismatchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
