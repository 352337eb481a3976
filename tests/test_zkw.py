import numpy as np
import pytest

from lichao import (Domain, InvalidDomainError, LiChaoTree, OutOfDomainError,
                    ZkwTree)

DEMO_LINES = [(2, 0), (4, -8), (1, 4), (-2, 20)]


def test_cell_layout():
    assert ZkwTree(0, 8).num_cells == 16
    assert ZkwTree(0, 9).num_cells == 32  # padded to P=16
    assert ZkwTree(0, 1).num_cells == 2
    assert ZkwTree(0, 10**6)._p == 2**20


def test_invalid_size_rejected():
    with pytest.raises(InvalidDomainError):
        ZkwTree(0, 0)
    with pytest.raises(InvalidDomainError):
        ZkwTree(0, -3)
    with pytest.raises(InvalidDomainError):
        ZkwTree(2**63 - 1, 2)  # the last coordinate leaves int64


def test_empty_tree_queries_absent():
    z = ZkwTree(0, 8)
    assert all(z.query(x) is None for x in range(8))


def test_single_line():
    z = ZkwTree(0, 8)
    z.insert_line((2, 0))
    assert z.query(5) == 10
    assert [z.query(x) for x in range(8)] == [2 * x for x in range(8)]


def test_matches_core_on_the_demo_scenario():
    z = ZkwTree(0, 9)
    t = LiChaoTree(Domain(0, 8))
    for ln in DEMO_LINES:
        z.insert_line(ln)
        t.insert_line(ln)
    for x in range(9):
        assert z.query(x) == t.query(x)
    assert z.query(5) == 9


def test_padded_coordinates_are_rejected():
    z = ZkwTree(0, 5)  # internally padded to 8
    z.insert_line((1, 0))
    assert z.query(4) == 4
    for x in (5, 6, 7, -1):
        with pytest.raises(OutOfDomainError):
            z.query(x)


def test_insert_respects_representability_contract():
    z = ZkwTree(0, 10)
    with pytest.raises(OverflowError):
        z.insert_line((2**63 - 1, 0))


def test_random_lines_match_core_exactly():
    lo, hi = -1024, 1023
    z = ZkwTree(lo, hi - lo + 1)
    t = LiChaoTree(Domain(lo, hi))
    rng = np.random.default_rng(123)
    ks = rng.integers(-10**6, 10**6, size=1000).tolist()
    bs = rng.integers(-10**9, 10**9, size=1000).tolist()
    for k, b in zip(ks, bs):
        z.insert_line((k, b))
        t.insert_line((k, b))
    xs = rng.integers(lo, hi + 1, size=500).tolist() + [lo, hi]
    for x in xs:
        assert z.query(x) == t.query(x)
    assert z.audit_midpoint_optimality() == []


def test_no_allocation_after_construction():
    z = ZkwTree(0, 100)
    cells_k, cells_b = z._k, z._b
    n = len(cells_k)
    rng = np.random.default_rng(9)
    for _ in range(300):
        z.insert_line((int(rng.integers(-100, 100)),
                       int(rng.integers(-1000, 1000))))
        z.query(int(rng.integers(0, 100)))
    assert z._k is cells_k and z._b is cells_b
    assert len(cells_k) == n


def test_visit_bound_is_log_of_padded_size():
    # a path over the padded size P = 2^h has h+1 cells, h the core depth
    # bound
    for c in (1, 2, 3, 1000, 1024, 1025):
        z = ZkwTree(0, c)
        limit = Domain(0, c - 1).depth_bound + 1
        assert z._p.bit_length() == limit
        rng = np.random.default_rng(4)
        for _ in range(200):
            z.insert_line((int(rng.integers(-500, 500)),
                           int(rng.integers(-10**6, 10**6))))
            assert z.last_visited <= limit
            z.query(int(rng.integers(0, c)))
            assert z.last_visited <= limit


def test_audit_reports_a_planted_line():
    z = ZkwTree(0, 8)
    z.insert_line((1, 0))
    z.insert_line((-1, 7))  # loses at the root midpoint 3, stored below
    assert z.audit_midpoint_optimality() == []
    z._k[1], z._b[1] = 0, 10**6  # root line now far worse at x = 3
    assert {v[0] for v in z.audit_midpoint_optimality()} == {1}


def test_offset_domain():
    z = ZkwTree(-100, 201)
    t = LiChaoTree(Domain(-100, 100))
    rng = np.random.default_rng(77)
    for _ in range(200):
        ln = (int(rng.integers(-1000, 1000)), int(rng.integers(-10**6, 10**6)))
        z.insert_line(ln)
        t.insert_line(ln)
    for x in range(-100, 101):
        assert z.query(x) == t.query(x)
