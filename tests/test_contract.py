"""Edge-profile differential test of the int64 representability contract.

Domains sit where int64 runs out: offsets near +-2^62, single points
anywhere in int64 and the full int64 range.  Lines are sized so that
|k*x + b| reaches about 2^63 at the domain ends, some just past it.  Every
tree engine must accept exactly the lines the contract allows and answer
exactly what a brute force on Python ints gives, in both orientations,
from the scalar query and from each batch kernel called directly (a
decline, None, fails).
"""

import functools

import numpy as np
import pytest

from lichao import (I64_MAX, I64_MIN, Domain, LiChaoTree, PersistentForest,
                    ZkwTree)

ZKW_MAX_SIZE = 1 << 12  # zkw allocates its whole universe


def allowed(k, b, d, floor):
    """The contract, spelled out on Python ints."""
    return all(floor <= v <= I64_MAX
               for v in (k, b, k * d.lo + b, k * d.hi + b))


def edge_domains(rng):
    w = int(rng.integers(0, 1 << 10))
    s = int(rng.integers(0, 1 << 40))
    p = int(rng.integers(I64_MIN, I64_MAX, endpoint=True))
    return [Domain(2**62 + s, 2**62 + s + w),
            Domain(-2**62 - s - w, -2**62 - s),
            Domain(p, p), Domain(I64_MIN, I64_MAX)]


def edge_line(rng, d, floor):
    """A line whose value reaches about +-2^63 at an end of `d`; the jitter
    puts some lines just outside the contract."""
    m = max(abs(d.lo), abs(d.hi), 1)
    kmax = max(1, 2 * (I64_MAX // m))
    k = int(rng.integers(-kmax, kmax, endpoint=True))
    # intercepts that keep both end values inside [floor, I64_MAX]
    blo = max(floor, floor - k * d.lo, floor - k * d.hi)
    bhi = min(I64_MAX, I64_MAX - k * d.lo, I64_MAX - k * d.hi)
    b = blo if rng.integers(2) else bhi
    return k, b + int(rng.integers(-2, 3))


@pytest.mark.parametrize("orientation", ["min", "max"])
def test_engines_share_one_contract_at_the_int64_edges(orientation):
    sign = -1 if orientation == "max" else 1
    floor = I64_MIN + (orientation == "max")
    rng = np.random.default_rng(63 + len(orientation))
    for _ in range(100):
        for d in edge_domains(rng):
            t = LiChaoTree(d, orientation)
            f = PersistentForest(d, orientation)
            # zkw is min-only
            z = (ZkwTree(d.lo, d.size)
                 if orientation == "min" and d.size <= ZKW_MAX_SIZE else None)
            v = 0
            kept = []
            for _ in range(int(rng.integers(1, 30))):
                line = edge_line(rng, d, floor)
                ok = allowed(*line, d, floor)
                inserts = [t.insert_line, functools.partial(f.insert, v)]
                if z is not None:
                    inserts.append(z.insert_line)
                for insert in inserts:
                    if ok:
                        insert(line)
                    else:
                        with pytest.raises(OverflowError):
                            insert(line)
                if ok:
                    kept.append(line)
                    v = f.version_count - 1
            mid = d.lo + (d.hi - d.lo) // 2
            xs = [d.lo, d.hi, mid, min(mid + 1, d.hi)]
            xs += rng.integers(d.lo, d.hi, size=8, endpoint=True).tolist()
            # max through a negated brute force: max(f) == -min(-f)
            want = [None if not kept else
                    sign * min(sign * (k * x + b) for k, b in kept)
                    for x in xs]
            assert [t.query(x) for x in xs] == want
            assert t._kernel(t._root, xs) == want
            assert [f.query(v, x) for x in xs] == want
            assert f._kernel(f._roots[v], xs) == want
            if z is not None:
                assert [z.query(x) for x in xs] == want
                assert z._kernel(xs) == want
                # one line reaching I64_MAX: every other cell on a path is
                # empty and must not lower it
                for k, b in [(0, I64_MAX), (1, I64_MAX - d.hi),
                             (-1, I64_MAX + d.lo)]:
                    if allowed(k, b, d, floor):
                        z = ZkwTree(d.lo, d.size)
                        z.insert_line((k, b))
                        assert z._kernel(xs) == [k * x + b for x in xs]
