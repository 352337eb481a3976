import functools
import random

import numpy as np
import pytest

from lichao import (Domain, I64_MAX, I64_MIN, InvalidDomainError,
                    InvalidSegmentError, LiChaoTree, Line, NaiveSet,
                    OutOfDomainError, PersistentForest, RoutingDominanceError,
                    ZkwTree)
from lichao.core import NIL

# four lines whose insertion exercises keep, route-left, route-right and a
# displacement swap on the [0, 8] domain
DEMO_LINES = [(2, 0), (4, -8), (1, 4), (-2, 20)]


def build(domain, lines, **kw):
    t = LiChaoTree(domain, **kw)
    for ln in lines:
        t.insert_line(ln)
    return t


def test_new_tree_is_empty():
    t = LiChaoTree(Domain(0, 8))
    assert t.node_count == 0
    assert all(t.query(x) is None for x in range(0, 9))
    assert t.stats().max_depth_observed == 0


def test_single_point_domain():
    t = LiChaoTree(Domain(5, 5))
    assert t.query(5) is None
    t.insert_line((3, 1))
    assert t.query(5) == 16
    t.insert_line((0, 2))
    assert t.query(5) == 2
    t.insert_line((0, 99))  # loser dropped at the root leaf
    assert t.query(5) == 2
    assert t.node_count == 1


def test_invalid_domain_rejected():
    with pytest.raises(InvalidDomainError):
        Domain(3, 1)


def test_domain_size_and_depth():
    assert Domain(0, 8).size == 9
    assert Domain(0, 8).depth_bound == 4
    assert Domain(5, 5).size == 1
    assert Domain(5, 5).depth_bound == 0
    assert Domain(0, 1023).depth_bound == 10
    assert Domain(-1024, 1023).depth_bound == 11


def test_single_line_query_examples():
    assert build(Domain(0, 8), [(1, 0)]).query(4) == 4
    assert build(Domain(0, 8), [(-1, 10)]).query(6) == 4
    t = build(Domain(-7, 10**9), [(0, 7)])
    for x in (-7, 0, 3, 10**9):
        assert t.query(x) == 7


def test_insert_line_overflow_is_exact_at_the_boundary():
    # a value of exactly I64_MAX or I64_MIN at a domain end is accepted,
    # one past it is not
    assert build(Domain(0, 5), [(1, I64_MAX - 5)]).query(5) == I64_MAX
    with pytest.raises(OverflowError):
        build(Domain(0, 6), [(1, I64_MAX - 5)])
    assert build(Domain(0, 3), [(-1, I64_MIN + 3)]).query(3) == I64_MIN
    with pytest.raises(OverflowError):
        build(Domain(0, 4), [(-1, I64_MIN + 3)])
    # max orientation stores the negated line, so its floor is I64_MIN + 1;
    # the error names the caller's line, not the negated one
    mx = build(Domain(0, 3), [(-1, I64_MIN + 4)], orientation="max")
    assert mx.query(3) == I64_MIN + 1
    with pytest.raises(OverflowError, match=rf"line \(-1, {I64_MIN + 3}\)"):
        build(Domain(0, 3), [(-1, I64_MIN + 3)], orientation="max")
    assert build(Domain(0, 5), [(1, I64_MAX - 5)],
                 orientation="max").query(5) == I64_MAX
    # slope and intercept must fit int64 even where every value does
    d = Domain(2**62, 2**62 + 10)
    for insert in (LiChaoTree(d).insert_line,
                   ZkwTree(d.lo, d.size).insert_line,
                   functools.partial(PersistentForest(d).insert, 0)):
        with pytest.raises(OverflowError):
            insert((4, -2**64))


def test_insert_into_empty_tree():
    t = LiChaoTree(Domain(0, 8))
    t.insert_line((2, 0))
    assert t.node_count == 1
    assert [t.query(x) for x in range(9)] == [2 * x for x in range(9)]


def test_insert_routing_scenario():
    # builds: root [0,8] keeps (2,0); (4,-8) ties at m=4 and goes left;
    # (1,4) loses at m=4 and goes right; (-2,20) then wins at [5,8]'s
    # midpoint 6 and displaces (1,4) down into [5,6]
    t = build(Domain(0, 8), DEMO_LINES)
    placed = {(l, r): line for _, l, r, _, line in t.iter_nodes()}
    assert placed == {
        (0, 8): Line(2, 0),
        (0, 4): Line(4, -8),
        (5, 8): Line(-2, 20),
        (5, 6): Line(1, 4),
    }
    assert t.query(5) == 9
    oracle = NaiveSet()
    for ln in DEMO_LINES:
        oracle.add_line(ln)
    for x in range(9):
        assert t.query(x) == oracle.query(x)


def test_tie_at_midpoint_keeps_resident():
    t = LiChaoTree(Domain(0, 8))
    t.insert_line((2, 0))
    t.insert_line((4, -8))  # equal value 8 at m=4
    placed = {(l, r): line for _, l, r, _, line in t.iter_nodes()}
    assert placed[(0, 8)] == Line(2, 0)
    assert placed[(0, 4)] == Line(4, -8)


def test_duplicate_insert_changes_nothing_observable():
    t = build(Domain(0, 64), [(3, -5), (-1, 7)])
    before = [t.query(x) for x in range(65)]
    nodes_before = t.node_count
    t.insert_line((3, -5))
    assert [t.query(x) for x in range(65)] == before
    assert t.node_count <= nodes_before + 1


def test_insert_rejects_line_breaking_the_64bit_contract():
    t = LiChaoTree(Domain(0, 10))
    t.insert_line((5, 3))
    with pytest.raises(OverflowError):
        t.insert_line((I64_MAX, 0))
    with pytest.raises(OverflowError):
        t.insert_line((I64_MAX // 5, I64_MAX // 2))
    # the failed inserts left no trace
    assert t.node_count == 1
    assert t.query(10) == 53


def test_query_outside_domain_raises():
    t = LiChaoTree(Domain(0, 8))
    with pytest.raises(OutOfDomainError):
        t.query(9)
    with pytest.raises(OutOfDomainError):
        t.query(-1)


def test_segment_over_full_domain_equals_full_line():
    d = Domain(0, 64)
    as_line = build(d, [(2, 1)])
    as_seg = LiChaoTree(d)
    as_seg.insert_segment((2, 1), 0, 64)
    for x in range(65):
        assert as_line.query(x) == as_seg.query(x)


def test_segment_disjoint_is_noop():
    t = build(Domain(10, 20), [(1, 0)])
    before = [t.query(x) for x in range(10, 21)]
    t.insert_segment((0, -999), 0, 9)
    t.insert_segment((0, -999), 21, 50)
    assert t.node_count == 1
    assert [t.query(x) for x in range(10, 21)] == before


def test_segment_clamped_to_domain():
    t = LiChaoTree(Domain(0, 15))
    t.insert_segment((0, 3), -100, 7)  # behaves as [0, 7]
    assert t.query(0) == 3
    assert t.query(7) == 3
    assert t.query(8) is None


def test_segment_window_example():
    t = LiChaoTree(Domain(0, 1023))
    t.insert_segment((0, 5), 100, 899)
    assert t.query(50) is None
    assert t.query(500) == 5
    assert t.query(900) is None
    oracle = NaiveSet()
    oracle.add_segment((0, 5), 100, 899)
    for x in (0, 99, 100, 101, 499, 898, 899, 900, 1023):
        assert t.query(x) == oracle.query(x)


def test_segment_reversed_bounds_raise():
    t = LiChaoTree(Domain(0, 1023))
    with pytest.raises(InvalidSegmentError):
        t.insert_segment((1, 1), 9, 3)
    assert t.node_count == 0


def test_segment_is_checked_over_its_clamped_range_only():
    t = LiChaoTree(Domain(0, 10**12))
    # 10^7 * 10^12 overflows at the domain's end, but not on [0, 10]
    t.insert_segment((10**7, 0), 0, 10)
    assert t.query(5) == 5 * 10**7
    with pytest.raises(OverflowError):
        t.insert_segment((10**7, 0), 10**12 - 5, 3 * 10**12)


def segment_cases(d, rng):
    """[xl, xr] pairs on `d`: the whole domain, single points, overhangs
    past each end and past both, and random ranges inside it."""
    lo, hi, m = d.lo, d.hi, (d.lo + d.hi) >> 1
    cases = [(lo, hi), (lo, lo), (hi, hi), (m, m), (m, m + 1),
             (lo - 1, m), (lo - 5, lo), (m, hi + 1), (hi, hi + 5),
             (lo - 3, hi + 3)]
    for _ in range(40):
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        cases.append((min(a, b), max(a, b)))
    return cases


@pytest.mark.parametrize("d", [Domain(0, 0), Domain(0, 1), Domain(-1, 1),
                               Domain(0, 4095), Domain(I64_MIN, I64_MAX)],
                         ids=["1", "2", "3", "4096", "int64"])
def test_segment_decomposes_into_maximal_canonical_nodes(d):
    # one segment into an empty tree: the nodes that hold its line tile the
    # clamped range, each is maximal (its parent is not covered), every
    # empty node lies on a path to one of them, and each node is one visit
    for xl, xr in segment_cases(d, random.Random(22)):
        t = LiChaoTree(d)
        t.insert_segment((0, 7), xl, xr)
        lo, hi = max(xl, d.lo), min(xr, d.hi)
        nodes = list(t.iter_nodes())
        assert t.last_visited == t.node_count == len(nodes)
        tiles, empty = [], []
        path = []  # (depth, l, r) of the current node's ancestors
        for _h, l, r, depth, line in nodes:
            while path and path[-1][0] >= depth:
                path.pop()
            if line is None:
                empty.append((l, r))
            else:
                assert line == (0, 7)
                if path:
                    _, pl, pr = path[-1]
                    assert not lo <= pl <= pr <= hi, (xl, xr, l, r)
                tiles.append((l, r))
            path.append((depth, l, r))
        tiles.sort()
        assert tiles[0][0] == lo and tiles[-1][1] == hi
        assert all(a[1] + 1 == b[0] for a, b in zip(tiles, tiles[1:]))
        for l, r in empty:
            assert any(l <= a <= b <= r for a, b in tiles), (xl, xr, l, r)


def test_audits_report_a_planted_line():
    t = build(Domain(0, 7), [(1, 0), (-1, 7)], audited=True)
    assert t.audit_midpoint_optimality() == []
    assert t.audit_routed_optimality() == []
    root = t._root
    t._k[root], t._b[root] = 0, 10**6  # far worse at the root midpoint 3
    assert {v[0] for v in t.audit_midpoint_optimality()} == {root}
    assert {v[0] for v in t.audit_routed_optimality()} == {root}


def test_routed_audit_needs_an_audited_tree():
    with pytest.raises(ValueError):
        build(Domain(0, 7), [(1, 0)]).audit_routed_optimality()


def test_routing_assertion_fires_when_the_loser_wins_elsewhere():
    t = LiChaoTree(Domain(0, 7), audited=True)
    t._assert_routing(0, 0, 0, 10, 0, 3)  # winner below loser on [0, 3]
    with pytest.raises(RoutingDominanceError):
        t._assert_routing(0, 10, 0, 0, 0, 3)


def test_stats_after_inserts():
    rng = np.random.default_rng(5)
    t = LiChaoTree(Domain(0, 1023))
    n = 200
    for _ in range(n):
        t.insert_line((int(rng.integers(-1000, 1001)),
                       int(rng.integers(-10**6, 10**6))))
    assert t.node_count <= n
    assert t.stats().max_depth_observed <= 10  # ceil(log2(1024))
    # the deepest node's depth after every insert, segments included,
    # counted level by level over the child handles alone
    t = LiChaoTree(Domain(0, 2**16 - 1))
    for i in range(400):
        ln = (int(rng.integers(-50, 51)), int(rng.integers(-10**6, 10**6)))
        if i < 300:
            t.insert_line(ln)
        else:
            t.insert_segment(ln, *sorted(rng.integers(0, 2**16, 2).tolist()))
        level, depth = [t._root], -1
        while level:
            depth += 1
            level = [c for h in level for c in (t._left[h], t._right[h])
                     if c != NIL]
        assert t.stats().max_depth_observed == depth <= 16
    # a leaf never gets a child, so a walk leaves it through a NIL one
    for h, l, r, _depth, _line in t.iter_nodes():
        if l == r:
            assert t._left[h] == t._right[h] == NIL


def test_visit_bounds_per_operation():
    d = Domain(0, 4095)
    limit = d.depth_bound + 1
    seg_limit = 4 * limit * limit
    rng = np.random.default_rng(11)
    t = LiChaoTree(d)
    for _ in range(500):
        kind = rng.integers(0, 3)
        k = int(rng.integers(-10**6, 10**6))
        b = int(rng.integers(-10**9, 10**9))
        if kind == 0:
            t.insert_line((k, b))
            assert t.last_visited <= limit
        elif kind == 1:
            xl, xr = sorted(int(v) for v in rng.integers(0, 4096, size=2))
            t.insert_segment((k, b), xl, xr)
            assert t.last_visited <= seg_limit
        else:
            t.query(int(rng.integers(0, 4096)))
            assert t.last_visited <= limit


def test_random_lines_match_naive_minimum():
    lo, hi = -1024, 1023
    t = LiChaoTree(Domain(lo, hi))
    oracle = NaiveSet()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        ln = (int(rng.integers(-10**9, 10**9)),
              int(rng.integers(-10**9, 10**9)))
        t.insert_line(ln)
        oracle.add_line(ln)
    for x in rng.integers(lo, hi + 1, size=200).tolist():
        assert t.query(x) == oracle.query(x)


def test_max_orientation_negates():
    lo, hi = -16, 16
    mx = LiChaoTree(Domain(lo, hi), orientation="max")
    mn = LiChaoTree(Domain(lo, hi))
    lines = [(1, 0), (-1, 10), (0, 4)]
    for k, b in lines:
        mx.insert_line((k, b))
        mn.insert_line((-k, -b))
    for x in range(lo, hi + 1):
        assert mx.query(x) == max(k * x + b for k, b in lines)
        assert mx.query(x) == -mn.query(x)


def test_max_orientation_segments():
    mx = LiChaoTree(Domain(0, 31), orientation="max")
    mx.insert_segment((0, 7), 4, 9)
    assert mx.query(5) == 7
    assert mx.query(10) is None


# --- batch queries: query_many and the kernel itself ----------------------


def assert_batches_match(t, xs):
    """query_many and the kernel (None means it declined) both equal
    scalar query."""
    expected = [t.query(x) for x in xs]
    assert t.query_many(xs) == expected
    assert t._kernel(t._root, xs) == expected
    return expected


def test_query_many_on_an_empty_tree_and_empty_xs():
    t = LiChaoTree(Domain(0, 8))
    assert t.query_many([]) == [] and t._kernel(t._root, []) == []
    assert assert_batches_match(t, list(range(9)) * 15) == [None] * 135
    t.insert_line((1, 0))
    assert t.query_many([]) == [] and t._kernel(t._root, []) == []


def test_query_many_on_a_single_point_domain():
    t = LiChaoTree(Domain(5, 5))
    t.insert_line((3, -1))
    t.insert_line((2, 1))
    assert assert_batches_match(t, [5] * 130) == [11] * 130


def test_query_many_across_segment_pass_through_nodes():
    t = LiChaoTree(Domain(-40, 87))
    t.insert_segment((2, 3), -10, 20)
    t.insert_segment((-1, 50), 30, 200)
    t.insert_segment((0, -7), 5, 5)
    got = assert_batches_match(t, list(range(-40, 88)))
    assert None in got and -7 in got
    assert t._b.count(1 << 63) > 0  # empty nodes
    t.insert_line((0, 10**6))
    assert None not in assert_batches_match(t, list(range(-40, 88)))


def test_query_many_max_orientation_spans_i64_min_plus_one_to_i64_max():
    for bad in ((0, 2**63), (0, I64_MIN)):
        with pytest.raises(OverflowError):
            LiChaoTree(Domain(0, 1), "max").insert_line(bad)
    for good in ((0, I64_MIN + 1), (0, I64_MAX)):
        t = build(Domain(0, 1), [good], orientation="max")
        assert assert_batches_match(t, [0, 1] * 65) == [good[1]] * 130
    mx = LiChaoTree(Domain(-16, 16), "max")
    for ln in [(1, 0), (-1, 10), (0, 4)]:
        mx.insert_line(ln)
    mx.insert_segment((0, 100), -3, 2)
    assert_batches_match(mx, list(range(-16, 17)) * 2)


@pytest.mark.parametrize("orientation,edge", [
    ("min", I64_MAX), ("min", I64_MIN), ("max", I64_MAX), ("max", -I64_MAX)])
def test_int64_edge_answers_through_empty_nodes(orientation, edge):
    # segments over part of the domain leave empty nodes on their paths; a
    # line valued exactly at an int64 end must win each of them and be
    # answered, never taken for the empty line
    best = min if orientation == "min" else max
    segments = [((1, 5), 100, 300), ((-2, 7), 700, 701)]
    xs = list(range(1024))
    for edge_first in (False, True):
        t = LiChaoTree(Domain(0, 1023), orientation, audited=True)
        if edge_first:
            t.insert_line((0, edge))
        for ln, xl, xr in segments:
            t.insert_segment(ln, xl, xr)
        if not edge_first:
            assert t._b[t._root] == 1 << 63  # the root is an empty node
            t.insert_segment((0, edge), 0, 127)  # [0, 127] is empty
            t.insert_line((0, edge))
        want = [best([edge] + [k * x + b for (k, b), xl, xr in segments
                               if xl <= x <= xr]) for x in xs]
        assert [t.query(x) for x in xs] == want
        assert t.query_many(xs) == want
        assert t._kernel(t._root, xs) == want
        assert None not in want
        assert t.audit_routed_optimality() == []


def test_query_many_answers_i64_max_through_the_kernel():
    # both lines give exactly I64_MAX at x = 0, the kernel's starting value
    t = build(Domain(0, 7), [(-2, I64_MAX), (-1, I64_MAX)])
    assert assert_batches_match(t, list(range(8)) * 20)[:2] == [
        I64_MAX, I64_MAX - 2]


def test_query_many_over_the_full_64bit_domain():
    rng = np.random.default_rng(9)
    for orientation in ("min", "max"):
        t = LiChaoTree(Domain(I64_MIN, I64_MAX), orientation)
        for _ in range(60):
            t.insert_line((0, int(rng.integers(I64_MIN, I64_MAX))))
            lo = int(rng.integers(-2**60, 0))
            hi = int(rng.integers(0, 2**60))
            t.insert_segment((int(rng.integers(-3, 4)),
                              int(rng.integers(-2**40, 2**40))), lo, hi)
        xs = rng.integers(I64_MIN, I64_MAX, size=200).tolist()
        xs += [I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]
        assert_batches_match(t, xs)
    # slopes whose k*x leaves int64 inside a representable k*x + b
    t = LiChaoTree(Domain(2**62, 2**62 + 3))
    t.insert_line((2, I64_MIN))
    t.insert_line((-3, I64_MAX))
    assert_batches_match(t, [2**62, 2**62 + 1, 2**62 + 3] * 50)


def test_query_many_with_a_negative_offset_lo():
    rng = np.random.default_rng(4)
    t = LiChaoTree(Domain(-1000, 523))
    for _ in range(100):
        t.insert_line((int(rng.integers(-10**6, 10**6)),
                       int(rng.integers(-10**9, 10**9))))
    assert_batches_match(t, rng.integers(-1000, 524, size=500).tolist())


def test_query_many_rejects_an_out_of_domain_x():
    t = LiChaoTree(Domain(-4, 100))
    t.insert_line((1, 1))
    for xs in ([101], [0] * 130 + [-5], [0] * 130 + [2**70],
               [2**64] * 130):
        with pytest.raises(OutOfDomainError):
            t.query_many(xs)
        assert t._kernel(t._root, xs) is None
    empty = LiChaoTree(Domain(0, 3))
    assert empty._kernel(empty._root, [4]) is None
    with pytest.raises(OutOfDomainError):
        empty.query_many([4] * 130)


def test_coefficients_and_domains_outside_int64_are_rejected_up_front():
    t = LiChaoTree(Domain(0, 0))
    with pytest.raises(OverflowError):
        t.insert_line((2**70, 5))
    assert t.node_count == 0
    for lo, hi in ((-2**70, 2**70), (0, 2**63), (I64_MIN - 1, 0)):
        with pytest.raises(InvalidDomainError):
            Domain(lo, hi)


def test_query_many_follows_a_subclass_query():
    class Shifted(LiChaoTree):
        def query(self, x):
            v = super().query(x)
            return None if v is None else v + 1

    t = Shifted(Domain(0, 255))
    for ln in [(1, 0), (-1, 255), (0, 100)]:
        t.insert_line(ln)
    xs = list(range(256))
    assert t.query_many(xs) == [t.query(x) for x in xs]
    assert t.query_many(xs) != LiChaoTree.query_many(build(
        Domain(0, 255), [(1, 0), (-1, 255), (0, 100)]), xs)
