import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lichao
from lichao import Domain, LiChaoTree, LineContainer, NaiveSet, baseline
from lichao.bench import gen_nc_workload, run_benchmark


def filled(lines):
    c = LineContainer()
    for ln in lines:
        c.insert_line(ln)
    return c


def test_empty_hull():
    c = LineContainer()
    assert c.query(0) is None
    assert c.hull_size() == 0


def test_single_line():
    c = filled([(2, 1)])
    assert c.query(3) == 7


def test_parallel_lines_keep_only_the_better_one():
    c = filled([(0, 5), (0, 3)])
    assert c.hull_size() == 1
    assert c.items()[0][:2] == (0, 3)
    assert c.query(-100) == 3
    # worse parallel line inserted after is ignored too
    c.insert_line((0, 8))
    assert c.hull_size() == 1
    assert c.query(0) == 3


def test_parabola_family_all_on_hull():
    c = filled([(-(i + 1), (i + 1) ** 2) for i in range(10)])
    assert c.hull_size() == 10


def test_dominated_line_is_dropped():
    c = filled([(1, 0), (-1, 10), (0, 100)])  # (0,100) never wins
    assert c.hull_size() == 2
    assert c.query(0) == 0
    assert c.query(10) == 0
    # (0, 0) only ties the envelope at x = 0, whatever the insertion order
    for order in itertools.permutations([(1, 0), (0, 0), (-1, 0)]):
        assert filled(order).hull_size() == 2


def test_thresholds_strictly_increase_slopes_strictly_decrease():
    rng = np.random.default_rng(17)
    c = filled((int(k), int(b))
               for k, b in zip(rng.integers(-10**6, 10**6, size=400),
                               rng.integers(-10**9, 10**9, size=400)))
    items = c.items()
    assert c.hull_size() == len(items) > 1
    for (k1, _, p1), (k2, _, p2) in zip(items, items[1:]):
        assert p1 < p2
        assert k1 > k2  # min hull: slopes fall as thresholds rise


def test_matches_core_tree_exactly():
    lo, hi = -(2**20), 2**20 - 1
    t = LiChaoTree(Domain(lo, hi))
    c = LineContainer()
    naive = NaiveSet()
    rng = np.random.default_rng(29)
    for _ in range(1000):
        ln = (int(rng.integers(-10**9, 10**9)),
              int(rng.integers(-10**9, 10**9)))
        t.insert_line(ln)
        c.insert_line(ln)
        naive.add_line(ln)
    xs = rng.integers(lo, hi + 1, size=600).tolist() + [lo, hi]
    for x in xs:
        expected = naive.query(x)
        assert c.query(x) == expected
        assert t.query(x) == expected


def test_every_hull_line_is_necessary():
    # removing any stored line from the input set must change some answer
    bound = 10**6
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        lines = [(int(k), int(b))
                 for k, b in zip(rng.integers(-1000, 1000, size=12),
                                 rng.integers(-bound, bound, size=12))]
        c = filled(lines)
        probes = set()
        for _, _, p in c.items():
            for x in (p - 1, p, p + 1):
                if -2 * bound <= x <= 2 * bound:
                    probes.add(x)
        probes.update((-2 * bound, 0, 2 * bound))
        full = {x: c.query(x) for x in probes}
        for hull_k, hull_b, _ in c.items():
            remaining = list(lines)
            remaining.remove((hull_k, hull_b))
            reduced = filled(remaining)
            assert any(reduced.query(x) != full[x] for x in probes), \
                f"line ({hull_k}, {hull_b}) was removable"


def test_rejects_lines_outside_64bit_range():
    c = LineContainer()
    with pytest.raises(OverflowError):
        c.insert_line((2**63, 0))
    with pytest.raises(OverflowError):
        c.insert_line((0, -(2**63) - 1))


def test_query_overflow_guard():
    c = filled([(10**9, 10**9)])
    with pytest.raises(OverflowError):
        c.query(2**60)


def _block_streams(rng):
    # many equal slopes and ties; lines near a parabola, some just off the
    # hull; wide random lines
    yield [(int(k), int(b)) for k, b in zip(rng.integers(-8, 9, size=150),
                                             rng.integers(-30, 31, size=150))]
    near = [(-i, i * i + int(d))
            for i, d in zip(range(-40, 40), rng.integers(0, 3, size=80))]
    yield [near[i] for i in rng.permutation(len(near))]
    yield [(int(k), int(b))
           for k, b in zip(rng.integers(-2**40, 2**40, size=150),
                           rng.integers(-2**60, 2**60, size=150))]


def _assert_blocks(c, load):
    assert all(c._k), "empty block"
    assert all(len(ks) == len(ms) == len(ps) <= 2 * load
               for ks, ms, ps in zip(c._k, c._m, c._p))
    assert c._lk == [ks[-1] for ks in c._k]
    assert c._lp == [ps[-1] for ps in c._p]
    items = c.items()
    for (k1, _, p1), (k2, _, p2) in zip(items, items[1:]):
        assert p1 < p2 and k1 > k2


@pytest.mark.parametrize("load", [1, 2, 3])
def test_small_blocks_split_and_empty_across_boundaries(monkeypatch, load):
    # blocks of at most 2 * load lines, so every stream crosses block
    # boundaries, splits blocks and deletes emptied ones
    monkeypatch.setattr(baseline, "_LOAD", load)
    rng = np.random.default_rng(load)
    for lines in _block_streams(rng):
        c = LineContainer()
        naive = NaiveSet()
        blocks = 0
        for ln in lines:
            c.insert_line(ln)
            naive.add_line(ln)
            _assert_blocks(c, load)
            blocks = max(blocks, len(c._k))
            probes = {p + d for _, _, p in c.items()[:-1] for d in (-1, 0, 1)}
            probes.update(int(x) for x in rng.integers(-200, 200, size=8))
            for x in probes:
                if abs(x) < 2**22:  # where every stream's values fit int64
                    assert c.query(x) == naive.query(x)
        assert blocks > 1


def test_library_runs_without_sortedcontainers():
    # a None entry in sys.modules makes any import of the package fail
    script = ("import sys\n"
              "sys.modules['sortedcontainers'] = None\n"
              "import lichao\n"
              "from lichao.bench import gen_nc_workload, run_benchmark\n"
              "wl = gen_nc_workload(4000, 'hull', 7)\n"
              "print(run_benchmark(wl, 'cht', 1).checksum)\n")
    src = str(Path(lichao.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lict = run_benchmark(gen_nc_workload(4000, "hull", 7), "lict", 1)
    assert int(proc.stdout) == lict.checksum
