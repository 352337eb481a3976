"""Differential verification against the brute-force oracle.

Generates random interleaved op sequences over a compact universe, replays
them simultaneously through the real structures and the naive oracle, and
checks every query answer for exact equality.  Structural guards run along
the way: per-op visited-node bounds, the node-count bound for full-line
workloads, routing-dominance assertions inside the instrumented tree, and
a full midpoint-optimality audit at the end.  The batch query kernel is
called directly last, on the final state; a kernel that declines fails.

The core tree always runs; zkw, cht and the persistent forest join on
request if `lichao.bench.engine_mismatch` allows them the op stream, and
the report names the engines that ran.

Every failure carries a replayable prefix of the op list, written by
`_fail` alone.  On a mismatch it is the minimal failing prefix: the op list
truncated right after the first divergent query (all earlier queries
matched, so no shorter prefix can fail).  A routing-dominance violation
truncates it after the insertion that raised, and a bound violation after
the op of the first violation.  An audit failure and a batch-kernel
mismatch or decline name the whole op list, since they check the final
state.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bench import WorkloadMismatchError, engine_mismatch, make_engine
from .core import I64_MAX, Domain, LiChaoTree, RoutingDominanceError
from .oracle import NaiveSet
from .persistent import PersistentForest


def gen_verify_ops(n_ops: int, c: int, seed: int,
                   segments: bool = False) -> list:
    """Random interleaved op sequence over the universe [0, c-1].

    Coefficients are drawn small enough that every line satisfies the
    64-bit representability contract over the universe: |k| up to
    min(10^9, I64_MAX // 2c), so |k*x| <= I64_MAX // 2, and |b| up to 10^9
    on every universe.  With `segments=True` roughly a third of the ops
    are segment insertions, with bounds overhanging the universe now and
    then to exercise clamping.  Raises InvalidDomainError unless [0, c-1]
    is a `Domain`.
    """
    c = Domain(0, c - 1).size
    if n_ops == 0:
        return []
    bound = min(10**9, I64_MAX // (2 * c))
    rng = np.random.Generator(np.random.PCG64(seed))
    kinds = rng.integers(0, 3 if segments else 2, size=n_ops).tolist()
    ks = rng.integers(-bound, bound + 1, size=n_ops).tolist()
    bs = rng.integers(-10**9, 10**9 + 1, size=n_ops).tolist()
    xs = rng.integers(0, c, size=n_ops).tolist()
    # up to a quarter of the universe on each side, as far as int64 allows
    overhang = min(max(1, c // 4), I64_MAX + 1 - c)
    los = rng.integers(-overhang, c + overhang, size=n_ops).tolist()
    his = rng.integers(-overhang, c + overhang, size=n_ops).tolist()
    ops = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            ops.append(("A", ks[i], bs[i]))
        elif kind == 1 and segments:
            xl, xr = los[i], his[i]
            if xl > xr:
                xl, xr = xr, xl
            ops.append(("S", ks[i], bs[i], xl, xr))
        else:
            ops.append(("Q", xs[i]))
    return ops


# distinct query points at which the batch kernels are checked; each costs
# an oracle query, and 64 of them took 2-5% of a run
BATCH_POINTS = 16


@dataclass
class VerifyReport:
    ok: bool
    ops_total: int
    engines: tuple = ("lict",)  # the engines that replayed the ops
    queries_checked: int = 0
    line_inserts: int = 0
    seg_inserts: int = 0
    tree_nodes: int = 0
    tree_max_depth: int = 0
    max_line_visits: int = 0
    max_seg_visits: int = 0
    # set together by `_fail`: every report with ok=False has a failure and
    # a failing prefix; a wrong answer also sets the divergence
    failure: Optional[str] = None
    divergence: Optional[tuple] = None  # (op_index, x, expected, engine, got)
    failing_prefix: Optional[list] = None
    bound_violations: list = field(default_factory=list)
    audit_violations: int = 0


def run_verify(ops: list, c: int, *, include_zkw: bool = False,
               include_cht: bool = False,
               include_persistent: bool = False) -> VerifyReport:
    """Replay `ops` over universe [0, c-1] through every selected engine.

    The core tree always participates, built with `audited=True`; the
    `include_*` engines join it.  Raises WorkloadMismatchError, before any
    engine is built, when `lichao.bench.engine_mismatch` refuses an
    included engine: segments on anything but the core tree, or zkw on a
    universe above `ZKW_MAX_UNIVERSE`.  Every check runs on every call:
    routing dominance on each core insertion, per-op visit bounds for
    every tree engine, the node-count bound on full-line runs, the routed
    and midpoint audits at the end, and then the batch query kernel of the
    core tree and of the forest's latest version, called directly at up to
    `BATCH_POINTS` distinct query points of the run, against the oracle's
    final state.  Returns a report; `ok` is True iff every query matched
    the oracle exactly, no structural guard fired and no kernel declined.
    A query is checked against the engines in the order lict, zkw, cht,
    persistent, up to the first wrong answer.
    """
    domain = Domain(0, c - 1)
    has_segments = any(op[0] == "S" for op in ops)
    engines = ["lict"]
    for name, wanted in (("zkw", include_zkw), ("cht", include_cht),
                         ("persistent", include_persistent)):
        if wanted:
            why = engine_mismatch(name, domain.size, has_segments)
            if why:
                raise WorkloadMismatchError(why)
            engines.append(name)

    h = domain.depth_bound
    # one root-to-leaf path; for zkw, over P = 2^h padded coordinates
    line_limit = h + 1
    seg_limit = 4 * (h + 1) * (h + 1)

    tree = LiChaoTree(domain, audited=True)
    naive = NaiveSet()
    zkw = make_engine("zkw", domain) if include_zkw else None
    cht = make_engine("cht", domain) if include_cht else None
    forest = PersistentForest(domain) if include_persistent else None
    latest = 0

    report = VerifyReport(ok=True, ops_total=len(ops), engines=tuple(engines))
    bounds = report.bound_violations

    try:
        for idx, op in enumerate(ops):
            tag = op[0]
            if tag == "A":
                line = (op[1], op[2])
                tree.insert_line(line)
                naive.add_line(line)
                report.line_inserts += 1
                if tree.last_visited > line_limit:
                    bounds.append((idx, "lict-insert-visits",
                                   tree.last_visited, line_limit))
                if report.seg_inserts == 0 and \
                        tree.node_count > report.line_inserts:
                    bounds.append((idx, "lict-node-count", tree.node_count,
                                   report.line_inserts))
                if report.max_line_visits < tree.last_visited:
                    report.max_line_visits = tree.last_visited
                if zkw is not None:
                    zkw.insert_line(line)
                    if zkw.last_visited > line_limit:
                        bounds.append((idx, "zkw-insert-visits",
                                       zkw.last_visited, line_limit))
                if cht is not None:
                    cht.insert_line(line)
                if forest is not None:
                    latest = forest.insert(latest, line)
                    if forest.last_appended > line_limit:
                        bounds.append((idx, "persistent-appended",
                                       forest.last_appended, line_limit))
            elif tag == "S":
                line = (op[1], op[2])
                tree.insert_segment(line, op[3], op[4])
                naive.add_segment(line, op[3], op[4])
                report.seg_inserts += 1
                if tree.last_visited > seg_limit:
                    bounds.append((idx, "lict-segment-visits",
                                   tree.last_visited, seg_limit))
                if report.max_seg_visits < tree.last_visited:
                    report.max_seg_visits = tree.last_visited
            else:
                x = op[1]
                expected = naive.query(x)
                report.queries_checked += 1
                engine, got = "lict", tree.query(x)
                if tree.last_visited > line_limit:
                    bounds.append((idx, "lict-query-visits",
                                   tree.last_visited, line_limit))
                if got == expected and zkw is not None:
                    engine, got = "zkw", zkw.query(x)
                    if zkw.last_visited > line_limit:
                        bounds.append((idx, "zkw-query-visits",
                                       zkw.last_visited, line_limit))
                if got == expected and cht is not None:
                    engine, got = "cht", cht.query(x)
                if got == expected and forest is not None:
                    engine, got = "persistent", forest.query(latest, x)
                if got != expected:
                    _fail(report, ops[:idx + 1],
                          f"op {idx}: query({x}) expected {expected}, "
                          f"{engine} answered {got}",
                          (idx, x, expected, engine, got))
                    break
    except RoutingDominanceError as err:
        _fail(report, ops[:idx + 1],
              f"op {idx}: lict routing dominance violated: {err}")

    report.tree_nodes = tree.node_count
    report.tree_max_depth = tree.stats().max_depth_observed
    if report.ok and bounds:
        _fail(report, ops[:bounds[0][0] + 1],
              f"{len(bounds)} structural bound violation(s), "
              f"first: {bounds[0]}")
    if report.ok:
        # The subtree form of the audit is equivalent to the routed-through
        # invariant only when every line competed from the root, i.e. for
        # full-line workloads; segment runs get the routed form alone.
        violations = tree.audit_routed_optimality()
        if not has_segments:
            violations += tree.audit_midpoint_optimality()
        if zkw is not None:
            violations += zkw.audit_midpoint_optimality()
        if violations:
            report.audit_violations = len(violations)
            _fail(report, ops,
                  f"midpoint-optimality audit failed at {len(violations)} "
                  f"node(s), first: {violations[0]}")
    if report.ok:
        _check_batch(report, ops, naive, tree, forest, latest)
    return report


def _fail(report: VerifyReport, prefix: list, failure: str,
          divergence: Optional[tuple] = None) -> None:
    """Mark `report` failed: the one writer of its failure fields."""
    report.ok = False
    report.failure = failure
    report.failing_prefix = list(prefix)
    report.divergence = divergence


def _check_batch(report: VerifyReport, ops: list, naive: NaiveSet,
                 tree: LiChaoTree, forest: Optional[PersistentForest],
                 latest: int) -> None:
    """Compare the batch kernels with the oracle on the final state; the
    query points lie in the domain, so a decline (None) is a failure.

    zkw's kernel is left out: it copies all 2P cells on each call, 2^21 of
    them at c = 2^20, which costs more than a whole run of this size.  The
    zkw tests and the benchmark, which checks every zkw answer, cover it.
    """
    xs = []
    for op in ops:
        if op[0] == "Q" and op[1] not in xs:
            xs.append(op[1])
            if len(xs) == BATCH_POINTS:
                break
    if not xs:
        return
    expected = [naive.query(x) for x in xs]
    batches = [("lict-batch", tree._kernel(tree._root, xs))]
    if forest is not None:
        batches.append(("persistent-batch",
                        forest._kernel(forest._roots[latest], xs)))
    for engine, got in batches:
        if got is None:
            _fail(report, ops, f"final state: {engine} kernel declined "
                               f"{len(xs)} in-domain query points")
            return
        for x, want, have in zip(xs, expected, got):
            if have != want:
                _fail(report, ops,
                      f"final state: query({x}) expected {want}, "
                      f"{engine} answered {have}",
                      (len(ops) - 1, x, want, engine, have))
                return
