import numpy as np
import pytest

from lichao import (Domain, I64_MAX, I64_MIN, InvalidDomainError,
                    InvalidSegmentError, LiChaoTree, Line, NaiveSet,
                    OutOfDomainError, RoutingDominanceError)

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
    s = t.stats()
    assert (s.node_count, s.max_depth_observed) == (0, 0)


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


def test_eval_examples():
    assert Line(1, 0).eval(4) == 4
    assert Line(-1, 10).eval(6) == 4
    for x in (-7, 0, 3, 10**9):
        assert Line(0, 7).eval(x) == 7


def test_eval_overflow_is_exact_at_the_boundary():
    assert Line(1, I64_MAX - 5).eval(5) == I64_MAX
    with pytest.raises(OverflowError):
        Line(1, I64_MAX - 5).eval(6)
    assert Line(-1, I64_MIN + 3).eval(3) == I64_MIN
    with pytest.raises(OverflowError):
        Line(-1, I64_MIN + 3).eval(4)


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
    s = t.stats()
    assert s.node_count <= n
    assert s.max_depth_observed <= 10  # ceil(log2(1024))


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
