import numpy as np
import pytest

import lichao.core
from lichao import (I64_MAX, I64_MIN, Domain, LiChaoTree, OutOfDomainError,
                    PersistentForest, UnknownVersionError, ZkwTree)

DOM = Domain(0, 1023)
H1 = DOM.depth_bound + 1  # max nodes on one root-to-leaf path


def rand_line(rng):
    return (int(rng.integers(-10**6, 10**6)), int(rng.integers(-10**9, 10**9)))


def rebuild_core(lines):
    t = LiChaoTree(DOM)
    for ln in lines:
        t.insert_line(ln)
    return t


def test_version_zero_is_empty():
    f = PersistentForest(DOM)
    assert f.version_count == 1
    # version 0 is one node, the arena's empty node 0
    assert f.arena_size == 1
    assert f.snapshot_bytes(0) == f"0:0,{2**63},-1,-1".encode()
    assert all(f.query(0, x) is None for x in (0, 17, 1023))


def test_insert_leaves_base_untouched():
    f = PersistentForest(DOM)
    v1 = f.insert(0, (2, 0))
    assert v1 == 1
    assert f.query(0, 5) is None
    assert f.query(v1, 5) == 10


def test_unknown_version_rejected():
    f = PersistentForest(DOM)
    for bad in (-1, 1, 42):
        with pytest.raises(UnknownVersionError):
            f.query(bad, 0)
        with pytest.raises(UnknownVersionError):
            f.insert(bad, (1, 1))


def test_query_outside_domain_rejected():
    f = PersistentForest(DOM)
    with pytest.raises(OutOfDomainError):
        f.query(0, 1024)


def test_growth_bound_per_insert():
    f = PersistentForest(DOM)
    rng = np.random.default_rng(3)
    v = 0
    for i in range(150):
        v = f.insert(v, rand_line(rng))
        assert f.last_appended <= H1
    assert f.arena_size <= 150 * H1


def test_linear_history_matches_core_rebuilds():
    f = PersistentForest(DOM)
    rng = np.random.default_rng(21)
    lines = []
    v = 0
    versions = [(0, [])]
    for _ in range(100):
        ln = rand_line(rng)
        lines = lines + [ln]
        v = f.insert(v, ln)
        versions.append((v, lines))
    xs = rng.integers(0, 1024, size=40).tolist() + [0, 1023]
    for vid, vlines in versions:
        core = rebuild_core(vlines)
        for x in xs:
            assert f.query(vid, x) == core.query(x)


def test_branching_versions_are_independent():
    f = PersistentForest(DOM)
    v1 = f.insert(0, (1, 0))
    v2a = f.insert(v1, (0, 100))
    v2b = f.insert(v1, (-1, 2000))
    core_a = rebuild_core([(1, 0), (0, 100)])
    core_b = rebuild_core([(1, 0), (-1, 2000)])
    for x in range(0, 1024, 7):
        assert f.query(v2a, x) == core_a.query(x)
        assert f.query(v2b, x) == core_b.query(x)
        assert f.query(v1, x) == x


def test_committed_versions_are_byte_stable():
    f = PersistentForest(DOM)
    rng = np.random.default_rng(8)
    snaps = {}
    v = 0
    for i in range(60):
        base = int(rng.integers(0, f.version_count))
        v = f.insert(base, rand_line(rng))
        snaps[v] = f.snapshot_bytes(v)
    for vid, snap in snaps.items():
        assert f.snapshot_bytes(vid) == snap


def test_path_copy_shares_everything_off_path():
    f = PersistentForest(DOM)
    rng = np.random.default_rng(13)
    v = 0
    for _ in range(80):
        base = int(rng.integers(0, f.version_count))
        before = f.arena_size
        v = f.insert(base, rand_line(rng))
        fresh = 0
        left, right = f._left, f._right
        stack = [(f._roots[v], f._roots[base])]
        while stack:
            nh, bh = stack.pop()
            if nh == bh:
                continue  # shared subtree handle (or both absent)
            assert nh != -1, "new version lost a subtree the base had"
            assert nh >= before, "copied node is not fresh"
            fresh += 1
            if bh == -1:
                assert left[nh] == -1 and right[nh] == -1
                continue
            stack.append((left[nh], left[bh]))
            stack.append((right[nh], right[bh]))
        assert fresh == f.last_appended


def test_max_orientation_wrapper():
    f = PersistentForest(Domain(0, 63), orientation="max")
    v1 = f.insert(0, (1, 0))
    v2 = f.insert(v1, (-1, 10))
    assert f.query(v2, 0) == 10
    assert f.query(v2, 63) == 63
    assert f.query(v1, 63) == 63


def test_query_many_matches_scalar_on_every_version():
    f = PersistentForest(DOM)
    rng = np.random.default_rng(8)
    versions = [0]
    for _ in range(40):
        versions.append(f.insert(versions[-1], rand_line(rng)))
    side = f.insert(versions[10], (0, -10**12))  # a branch off an old version
    xs = rng.integers(0, 1024, size=300).tolist()
    for v in versions[::7] + [versions[-1], side]:
        expected = [f.query(v, x) for x in xs]
        assert f.query_many(v, xs) == expected
        # version 0 is the empty node 0, which the kernel declines
        assert f._kernel(f._roots[v], xs) == (expected if v else None)
        assert f.query_many(v, xs[:5]) == expected[:5]
    assert (f._kernel(f._roots[versions[10]], xs)
            != f._kernel(f._roots[side], xs))


def test_query_many_checks_the_version_even_for_empty_xs():
    f = PersistentForest(DOM)
    v = f.insert(0, (1, 1))
    assert f.query_many(v, []) == [] and f._kernel(f._roots[v], []) == []
    for bad in (-1, 2, 42):
        for xs in ([], [3], list(range(100))):
            with pytest.raises(UnknownVersionError):
                f.query_many(bad, xs)
    with pytest.raises(OutOfDomainError):
        f.query_many(v, list(range(100)) + [1024])


def test_query_many_max_orientation_and_subclass_query():
    # max orientation takes values in [I64_MIN + 1, I64_MAX], as the tree
    f = PersistentForest(Domain(0, 1), orientation="max")
    for bad in ((0, 2**63), (0, I64_MIN)):
        with pytest.raises(OverflowError):
            f.insert(0, bad)
    fresh = PersistentForest(Domain(0, 1), orientation="max")
    assert f.version_count == 1 and f.arena_size == fresh.arena_size
    for good in ((0, I64_MIN + 1), (0, I64_MAX)):
        v = f.insert(0, good)
        xs = [0, 1] * 65
        assert f.query_many(v, xs) == [f.query(v, x) for x in xs]
        assert f._kernel(f._roots[v], xs) == [good[1]] * 130

    class Shifted(PersistentForest):
        def query(self, version, x):
            return super().query(version, x) + 1

    g = Shifted(DOM)
    v = g.insert(0, (1, 0))
    xs = list(range(200))
    assert g.query_many(v, xs) == [x + 1 for x in xs]


def test_query_many_size_rule_weighs_the_version(monkeypatch):
    # the arena outgrows 300 xs * 11 levels, but version v holds at most
    # max(v, 1) nodes (version 0 is one empty node, and each insert adds at
    # most one), so the run takes the kernel;
    # line a is the only one that wins at x = a, so no insert is dropped
    # early and each copies a long path
    f = PersistentForest(DOM)
    rng = np.random.default_rng(5)
    v = 0
    for a in rng.permutation(DOM.size).tolist():
        v = f.insert(v, (-2 * a, a * a))
    xs = rng.integers(0, 1024, size=300).tolist()
    assert 300 * H1 < f.arena_size
    calls = []
    walk = lichao.core._walk_batch

    def counting(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(lichao.core, "_walk_batch", counting)
    assert f.query_many(v, xs) == [f.query(v, x) for x in xs]
    assert len(calls) == 1


def test_the_three_insert_loops_build_the_same_tree():
    # the tree, zkw and the forest each keep their own insert loop; on a
    # power-of-two domain (no zkw padding) they must store the same line at
    # every node, ties included, and each insert must count the same path
    d = Domain(0, 255)
    rng = np.random.default_rng(12)
    t, z, f = LiChaoTree(d), ZkwTree(d.lo, d.size), PersistentForest(d)
    v = 0
    for _ in range(300):
        ln = (int(rng.integers(-3, 4)), int(rng.integers(-20, 21)))
        t.insert_line(ln)
        z.insert_line(ln)
        v = f.insert(v, ln)
        assert t.last_visited == z.last_visited == f.last_appended

    def shape(nodes):
        return sorted((l, r, depth, tuple(line))
                      for _h, l, r, depth, line in nodes)

    assert shape(t.iter_nodes()) == shape(z.iter_nodes())
    assert shape(t.iter_nodes()) == shape(f._nodes(f._roots[v]))


def _lict_loop(d):
    t = LiChaoTree(d)
    return t.insert_line, lambda: t.node_count, lambda: t.last_visited


def _zkw_loop(d):
    z = ZkwTree(d.lo, d.size)
    return (z.insert_line, lambda: sum(k is not None for k in z._k),
            lambda: z.last_visited)


def _forest_loop(d):
    f = PersistentForest(d)
    latest = [0]

    def insert(line):
        latest[0] = f.insert(latest[0], line)

    # the nodes of the latest version, and its insert's one appended copy
    # per node on the path
    return (insert, lambda: len(list(f._nodes(f._roots[latest[0]]))),
            lambda: f.last_appended)


@pytest.mark.parametrize("loop", [_lict_loop, _zkw_loop, _forest_loop],
                         ids=["lict", "zkw", "persistent"])
@pytest.mark.parametrize("domain,resident,line", [
    # (2, 5) is above (1, 0) at both ends of the domain, so at the root
    (Domain(0, 1023), [(1, 0)], (2, 5)),
    # c = 1: the resident (0, 5) loses the leaf to (0, 3)
    (Domain(0, 0), [(0, 5)], (0, 3)),
    # a first insert: the tree's root is born empty, and its empty line
    # loses to (1, 0) at every point
    (Domain(0, 1023), [], (1, 0)),
], ids=["dominated", "leaf", "empty-line"])
def test_a_loser_that_wins_nowhere_stops_the_descent(loop, domain, resident,
                                                      line):
    # the loser at the root wins nowhere on its interval: it is dropped
    # there, so the insert visits one node and the tree keeps one
    insert, count, visited = loop(domain)
    for ln in resident:
        insert(ln)
    insert(line)
    assert (count(), visited()) == (1, 1)
