"""Differential verification against the brute-force oracle.

Generates random interleaved op sequences over a compact universe, replays
them simultaneously through the real structures and the naive oracle, and
checks every query answer for exact equality.  Structural guards run along
the way: per-op visited-node bounds, the node-count bound for full-line
workloads, routing-dominance assertions inside the instrumented tree, and
a full midpoint-optimality audit at the end.

On a mismatch the minimal failing prefix is the op list truncated right
after the first divergent query (all earlier queries matched, so no
shorter prefix can fail).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baseline import LineContainer
from .core import I64_MAX, Domain, LiChaoTree
from .oracle import NaiveSet
from .persistent import PersistentForest
from .zkw import ZkwTree


def gen_verify_ops(n_ops: int, c: int, seed: int,
                   segments: bool = False) -> list:
    """Random interleaved op sequence over the universe [0, c-1].

    Coefficients are drawn small enough that every line satisfies the
    64-bit representability contract over the universe.  With
    `segments=True` roughly a third of the ops are segment insertions,
    with bounds overhanging the universe now and then to exercise
    clamping.
    """
    if c < 1:
        raise ValueError("universe size must be >= 1")
    if n_ops == 0:
        return []
    bound = min(10**9, I64_MAX // (2 * c))
    rng = np.random.Generator(np.random.PCG64(seed))
    kinds = rng.integers(0, 3 if segments else 2, size=n_ops).tolist()
    ks = rng.integers(-bound, bound + 1, size=n_ops).tolist()
    bs = rng.integers(-bound, bound + 1, size=n_ops).tolist()
    xs = rng.integers(0, c, size=n_ops).tolist()
    overhang = max(1, c // 4)
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


@dataclass
class VerifyReport:
    ok: bool
    ops_total: int
    queries_checked: int = 0
    line_inserts: int = 0
    seg_inserts: int = 0
    tree_nodes: int = 0
    tree_max_depth: int = 0
    max_line_visits: int = 0
    max_seg_visits: int = 0
    failure: Optional[str] = None
    divergence: Optional[tuple] = None  # (op_index, x, expected, engine, got)
    failing_prefix: Optional[list] = None
    bound_violations: list = field(default_factory=list)
    audit_violations: int = 0


def run_verify(ops: list, c: int, *, include_zkw: bool = False,
               include_cht: bool = False,
               include_persistent: bool = False) -> VerifyReport:
    """Replay `ops` over universe [0, c-1] through every selected engine.

    The core tree always participates, built with `audited=True`.  Every
    check runs on every call: routing dominance on each core insertion,
    per-op visit bounds for every tree engine, the node-count bound on
    full-line runs, and the routed and midpoint audits at the end.  Returns
    a report; `ok` is True iff every query matched the oracle exactly and
    no structural guard fired.
    """
    has_segments = any(op[0] == "S" for op in ops)
    if has_segments and (include_zkw or include_cht or include_persistent):
        raise ValueError("only the core tree supports segment workloads")

    domain = Domain(0, c - 1)
    h = domain.depth_bound
    # one root-to-leaf path; for zkw, over P = 2^h padded coordinates
    line_limit = h + 1
    seg_limit = 4 * (h + 1) * (h + 1)

    tree = LiChaoTree(domain, audited=True)
    naive = NaiveSet()
    zkw = ZkwTree(0, c) if include_zkw else None
    cht = LineContainer() if include_cht else None
    forest = PersistentForest(domain) if include_persistent else None
    latest = 0

    report = VerifyReport(ok=True, ops_total=len(ops))

    for idx, op in enumerate(ops):
        tag = op[0]
        if tag == "A":
            line = (op[1], op[2])
            tree.insert_line(line)
            naive.add_line(line)
            report.line_inserts += 1
            if tree.last_visited > line_limit:
                report.bound_violations.append(
                    (idx, "lict-insert-visits", tree.last_visited,
                     line_limit))
            if report.seg_inserts == 0 and \
                    tree.node_count > report.line_inserts:
                report.bound_violations.append(
                    (idx, "lict-node-count", tree.node_count,
                     report.line_inserts))
            if report.max_line_visits < tree.last_visited:
                report.max_line_visits = tree.last_visited
            if zkw is not None:
                zkw.insert_line(line)
                if zkw.last_visited > line_limit:
                    report.bound_violations.append(
                        (idx, "zkw-insert-visits", zkw.last_visited,
                         line_limit))
            if cht is not None:
                cht.insert_line(line)
            if forest is not None:
                latest = forest.insert(latest, line)
                if forest.last_appended > line_limit:
                    report.bound_violations.append(
                        (idx, "persistent-appended", forest.last_appended,
                         line_limit))
        elif tag == "S":
            line = (op[1], op[2])
            tree.insert_segment(line, op[3], op[4])
            naive.add_segment(line, op[3], op[4])
            report.seg_inserts += 1
            if tree.last_visited > seg_limit:
                report.bound_violations.append(
                    (idx, "lict-segment-visits", tree.last_visited,
                     seg_limit))
            if report.max_seg_visits < tree.last_visited:
                report.max_seg_visits = tree.last_visited
        else:
            x = op[1]
            expected = naive.query(x)
            report.queries_checked += 1
            got = tree.query(x)
            if tree.last_visited > line_limit:
                report.bound_violations.append(
                    (idx, "lict-query-visits", tree.last_visited, line_limit))
            diverged = None
            if got != expected:
                diverged = ("lict", got)
            if diverged is None and zkw is not None:
                got_z = zkw.query(x)
                if zkw.last_visited > line_limit:
                    report.bound_violations.append(
                        (idx, "zkw-query-visits", zkw.last_visited,
                         line_limit))
                if got_z != expected:
                    diverged = ("zkw", got_z)
            if diverged is None and cht is not None:
                got_c = cht.query(x)
                if got_c != expected:
                    diverged = ("cht", got_c)
            if diverged is None and forest is not None:
                got_p = forest.query(latest, x)
                if got_p != expected:
                    diverged = ("persistent", got_p)
            if diverged is not None:
                engine, got_val = diverged
                report.ok = False
                report.divergence = (idx, x, expected, engine, got_val)
                report.failing_prefix = list(ops[:idx + 1])
                report.failure = (
                    f"op {idx}: query({x}) expected {expected}, "
                    f"{engine} answered {got_val}")
                break

    report.tree_nodes = tree.node_count
    report.tree_max_depth = tree.stats().max_depth_observed
    if report.ok and report.bound_violations:
        report.ok = False
        report.failure = (
            f"{len(report.bound_violations)} structural bound violation(s), "
            f"first: {report.bound_violations[0]}")
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
            report.ok = False
            report.audit_violations = len(violations)
            report.failure = (
                f"midpoint-optimality audit failed at {len(violations)} "
                f"node(s), first: {violations[0]}")
    return report
