import numpy as np
import pytest

from lichao import (I64_MAX, I64_MIN, Domain, InvalidDomainError, LiChaoTree,
                    OutOfDomainError, ZkwTree)

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
    assert z.query_many(xs) == z._kernel(xs) == t.query_many(xs)
    assert z.audit_midpoint_optimality() == []


def test_no_allocation_after_construction():
    z = ZkwTree(0, 100)
    cells_k, cells_b = z._k, z._b
    n = len(cells_k)
    attrs = dict(vars(z))
    rng = np.random.default_rng(9)
    for _ in range(300):
        z.insert_line((int(rng.integers(-100, 100)),
                       int(rng.integers(-1000, 1000))))
        z.query(int(rng.integers(0, 100)))
    # a kernel run keeps none of its arrays
    xs = list(range(100)) * 2
    assert z.query_many(xs) == [z.query(x) for x in xs]
    assert z._k is cells_k and z._b is cells_b
    assert len(cells_k) == n and len(cells_b) == n
    assert vars(z).keys() == attrs.keys()


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


# --- batch queries: query_many and the kernel itself ----------------------


def assert_batches_match(z, xs):
    """query_many and the kernel (None means it declined) both equal
    scalar query."""
    expected = [z.query(x) for x in xs]
    assert z.query_many(xs) == expected
    assert z._kernel(xs) == expected
    return expected


def random_tree(lo, size, n, seed):
    z = ZkwTree(lo, size)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        z.insert_line((int(rng.integers(-1000, 1000)),
                       int(rng.integers(-10**6, 10**6))))
    return z


def test_query_many_takes_the_kernel_on_a_long_run(monkeypatch):
    calls = []
    kernel = ZkwTree._kernel

    def spy(self, xs):
        calls.append(len(xs))
        return kernel(self, xs)

    monkeypatch.setattr(ZkwTree, "_kernel", spy)
    z = random_tree(0, 1000, 200, 1)
    xs = list(range(1000))
    assert z.query_many(xs) == [z.query(x) for x in xs]
    # short runs and runs small against the 2P = 2048 cells stay scalar
    assert z.query_many(xs[:127]) == [z.query(x) for x in xs[:127]]
    assert z.query_many(xs[:186]) == [z.query(x) for x in xs[:186]]
    assert calls == [1000]


def test_query_many_on_an_empty_tree_and_empty_xs():
    z = ZkwTree(0, 9)
    assert z.query_many([]) == [] and z._kernel([]) == []
    assert assert_batches_match(z, list(range(9)) * 15) == [None] * 135
    z.insert_line((1, 0))
    assert z.query_many([]) == [] and z._kernel([]) == []
    assert assert_batches_match(z, list(range(9)) * 15) == list(range(9)) * 15


def test_query_many_on_a_single_cell_universe():
    z = ZkwTree(5, 1)
    assert z._p == 1
    z.insert_line((3, -1))
    z.insert_line((2, 1))
    assert assert_batches_match(z, [5] * 130) == [11] * 130


def test_query_many_on_a_padded_universe_up_to_hi():
    z = random_tree(-7, 1000, 300, 2)  # P = 1024
    xs = list(range(-7, 993)) + [z.domain.hi] * 50
    assert assert_batches_match(z, xs)[-1] == z.query(992)


def test_query_many_at_the_ends_of_int64():
    size = 300
    rng = np.random.default_rng(6)
    for lo in (I64_MIN, I64_MAX - size + 1):
        z = ZkwTree(lo, size)
        t = LiChaoTree(Domain(lo, z.domain.hi))
        kept = 0
        while kept < 40:
            # k*lo + b anywhere in int64, where k*x alone may leave it
            k = int(rng.integers(-2, 3))
            b = int(rng.integers(I64_MIN, I64_MAX, endpoint=True)) - k * lo
            try:
                t.insert_line((k, b))
            except OverflowError:
                with pytest.raises(OverflowError):
                    z.insert_line((k, b))
                continue
            z.insert_line((k, b))
            kept += 1
        xs = list(range(lo, z.domain.hi + 1))
        assert assert_batches_match(z, xs) == [t.query(x) for x in xs]


def test_query_many_answers_i64_max_through_empty_cells():
    # the root holds the only line and every other cell on each path is
    # empty, with intercept I64_MAX: the answer at x = 0 is I64_MAX itself
    z = ZkwTree(0, 256)
    z.insert_line((-1, I64_MAX))
    assert z._k.count(None) == len(z._k) - 1  # cell 0 is unused
    got = assert_batches_match(z, list(range(256)))
    assert got[:2] == [I64_MAX, I64_MAX - 1]


def test_query_many_rejects_an_out_of_domain_x():
    z = random_tree(-4, 100, 30, 3)
    for xs in ([96], [-5], [0] * 130 + [-5], [0] * 130 + [96],
               [0] * 130 + [2**70], [2**64] * 130):
        with pytest.raises(OutOfDomainError):
            z.query_many(xs)
        assert z._kernel(xs) is None
    empty = ZkwTree(0, 4)
    assert empty._kernel([4]) is None
    with pytest.raises(OutOfDomainError):
        empty.query_many([4] * 130)


def test_query_many_on_float_xs_follows_the_scalar_loop():
    # a float x is rejected whatever its value: the scalar loop's
    # TypeError, not an answer from the kernel
    z = random_tree(0, 16, 10, 4)
    for xs in ([float(x) for x in range(16)] * 10,
               np.arange(16.0).repeat(10)):
        assert z._kernel(xs) is None
        with pytest.raises(TypeError):
            z.query(xs[0])
        with pytest.raises(TypeError):
            z.query_many(xs)
    with pytest.raises(TypeError):
        z.query_many([16.0] + [0.0] * 130)


def test_query_many_follows_a_subclass_query():
    class Shifted(ZkwTree):
        def query(self, x):
            v = super().query(x)
            return None if v is None else v + 1

    z = Shifted(0, 256)
    plain = ZkwTree(0, 256)
    for ln in [(1, 0), (-1, 255), (0, 100)]:
        z.insert_line(ln)
        plain.insert_line(ln)
    xs = list(range(256))
    assert z.query_many(xs) == [z.query(x) for x in xs]
    assert z.query_many(xs) != plain.query_many(xs)

