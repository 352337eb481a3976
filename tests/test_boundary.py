"""The input boundary: every value a caller passes is converted once, where
it enters, with `operator.index`.

Coefficients, coordinates, segment bounds and domain bounds may be any
integer type with `__index__` (here int, np.int64 and np.int32), and every
engine must answer exactly what `NaiveSet` answers on the same values as
Python ints, from the scalar query and from `query_many` on short and
long runs.  A numpy scalar left unconverted wraps modulo 2^64 inside the
insert step, the contract check or the hull's thresholds.  A float is
not an integer whatever its value, and every engine raises TypeError for
it.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lichao import (I64_MAX, I64_MIN, Domain, LiChaoTree, LineContainer,
                    NaiveSet, OutOfDomainError, PersistentForest, ZkwTree)

# max orientation's floor: every drawn line is in both orientations' contract
FLOOR = I64_MIN + 1


def typed(v):
    """v as int, np.int64 or, when it fits, np.int32."""
    kinds = [int, np.int64]
    if -2**31 <= v < 2**31:
        kinds.append(np.int32)
    return st.sampled_from(kinds).map(lambda t: t(v))


@st.composite
def scenarios(draw):
    """(lo, hi, size, ops, xs): a domain of at most 64 points, inside int32 or
    anywhere in int64; full lines ("A", k, b) and segments
    ("S", k, b, xl, xr) whose values over the domain come close to the
    int64 ends; query points in the domain."""
    lo = draw(st.one_of(st.integers(-2**31, 2**31 - 64),
                        st.integers(I64_MIN, I64_MAX - 63)))
    hi = lo + draw(st.integers(0, 63))
    # |k*x| <= 2^62 on the domain, so intercepts near both ends fit
    kmax = (1 << 62) // max(abs(lo), abs(hi), 1)
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(-kmax, kmax))
        blo = max(FLOOR, FLOOR - k * lo, FLOOR - k * hi)
        bhi = min(I64_MAX, I64_MAX - k * lo, I64_MAX - k * hi)
        b = draw(st.one_of(st.integers(blo, min(blo + 2**21, bhi)),
                           st.integers(max(bhi - 2**21, blo), bhi),
                           st.integers(blo, bhi)))
        op = ("A", draw(typed(k)), draw(typed(b)))
        if draw(st.booleans()):
            xs = st.integers(max(lo - 2, I64_MIN),
                             min(hi + 2, I64_MAX)).flatmap(typed)
            xl, xr = draw(xs), draw(xs)
            if xl > xr:
                xl, xr = xr, xl
            op = ("S", *op[1:], xl, xr)
        ops.append(op)
    xs = draw(st.lists(st.integers(lo, hi).flatmap(typed), min_size=1,
                       max_size=12))
    return draw(typed(lo)), draw(typed(hi)), draw(typed(hi - lo + 1)), ops, xs


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_every_engine_converts_what_it_is_given(scenario):
    lo, hi, size, ops, xs = scenario
    d = Domain(lo, hi)
    trees = {o: LiChaoTree(d, o) for o in ("min", "max")}
    forest = PersistentForest(d)
    zkw = ZkwTree(lo, size)
    cht = LineContainer()
    # oracles on Python ints: every op, and the full lines alone; max
    # orientation through negated lines, max(f) == -min(-f)
    every = {"min": NaiveSet(), "max": NaiveSet()}
    lines = NaiveSet()
    v = 0
    for op in ops:
        k, b = op[1], op[2]
        ik, ib = int(k), int(b)
        if op[0] == "A":
            for t in trees.values():
                t.insert_line((k, b))
            v = forest.insert(v, (k, b))
            zkw.insert_line((k, b))
            cht.insert_line((k, b))
            lines.add_line((ik, ib))
            every["min"].add_line((ik, ib))
            every["max"].add_line((-ik, -ib))
        else:
            xl, xr = op[3], op[4]
            for t in trees.values():
                t.insert_segment((k, b), xl, xr)
            every["min"].add_segment((ik, ib), int(xl), int(xr))
            every["max"].add_segment((-ik, -ib), int(xl), int(xr))

    def want(oracle, sign=1):
        vals = [oracle.query(int(x)) for x in xs]
        return [None if a is None else sign * a for a in vals]

    # a run long enough for the batch kernels
    reps = 128 // len(xs) + 1
    for o, t in trees.items():
        expect = want(every[o], -1 if o == "max" else 1)
        assert [t.query(x) for x in xs] == expect
        assert t.query_many(xs) == expect
        assert t.query_many(xs * reps) == expect * reps
    expect = want(lines)
    assert [forest.query(v, x) for x in xs] == expect
    assert forest.query_many(v, xs) == expect
    assert forest.query_many(v, xs * reps) == expect * reps
    assert [zkw.query(x) for x in xs] == expect
    assert zkw.query_many(xs) == expect
    assert zkw.query_many(xs * reps) == expect * reps
    assert [cht.query(x) for x in xs] == expect


def test_numpy_lines_inside_the_contract_answer_exactly():
    # 300 trials of 20 np.int64 lines with |k| < 1000 and
    # |b| < 2^63 - 2^21 on [0, 1023]: the insert step's differences and
    # the hull's thresholds wrapped on them
    rng = np.random.default_rng(11)
    d = Domain(0, 1023)
    bmax = (1 << 63) - (1 << 21)
    xs = list(range(0, 1024, 31)) + [1023]
    for _ in range(300):
        ks = rng.integers(-999, 1000, size=20)
        bs = rng.integers(-bmax + 1, bmax, size=20)
        lines = [(ks[i], bs[i]) for i in range(20)]
        want = [min(int(k) * x + int(b) for k, b in lines) for x in xs]
        t, z, f, c = LiChaoTree(d), ZkwTree(0, 1024), PersistentForest(d), \
            LineContainer()
        v = 0
        for line in lines:
            t.insert_line(line)
            z.insert_line(line)
            v = f.insert(v, line)
            c.insert_line(line)
        assert [t.query(x) for x in xs] == want
        assert [z.query(x) for x in xs] == want
        assert [f.query(v, x) for x in xs] == want
        assert [c.query(x) for x in xs] == want


def test_a_numpy_line_outside_the_contract_is_refused():
    # 2^40 * 2^40 leaves int64; unconverted, it wrapped to 0 and was kept
    d = Domain(0, 2**40)
    line = (np.int64(2**40), np.int64(0))
    for insert in (LiChaoTree(d).insert_line, LiChaoTree(d, "max").insert_line,
                   functools.partial(PersistentForest(d).insert, 0),
                   functools.partial(LiChaoTree(d).insert_segment,
                                     xl=np.int64(0), xr=np.int64(2**40))):
        with pytest.raises(OverflowError):
            insert(line)
    z = ZkwTree(np.int64(0), np.int64(16))
    with pytest.raises(OverflowError):
        z.insert_line((np.int64(I64_MAX // 8), np.int64(0)))


def test_numpy_bounds_are_converted():
    d = Domain(np.int64(I64_MIN), np.int64(I64_MAX))
    assert (d.size, d.depth_bound) == (2**64, 64)
    assert type(d.lo) is int and type(d.hi) is int
    assert d == Domain(I64_MIN, I64_MAX)
    p = Domain(0, 9).point(np.int32(9))
    assert (p, type(p)) == (9, int)
    with pytest.raises(OutOfDomainError):
        Domain(0, 9).point(np.int64(10))
    z = ZkwTree(np.int64(0), np.int64(16))
    assert (z.num_cells, z.hi) == (32, 15)
    z.insert_line((np.int32(1), np.int32(2)))
    assert z.query(np.int64(15)) == 17


@pytest.mark.parametrize("x", [3.0, 3.5])
def test_a_float_point_raises_type_error_from_every_engine(x):
    d = Domain(0, 15)
    tmin, tmax = LiChaoTree(d), LiChaoTree(d, "max")
    z = ZkwTree(0, 16)
    c = LineContainer()
    f = PersistentForest(d)
    for insert in (tmin.insert_line, tmax.insert_line, z.insert_line,
                   c.insert_line):
        insert((1, 2))
    v = f.insert(0, (1, 2))
    for query in (tmin.query, tmax.query, z.query, c.query,
                  functools.partial(f.query, v)):
        with pytest.raises(TypeError):
            query(x)
    for query_many in (tmin.query_many, tmax.query_many, z.query_many,
                       functools.partial(f.query_many, v)):
        for xs in ([x], [x] * 130, [0] * 130 + [x]):
            with pytest.raises(TypeError):
                query_many(xs)


def test_a_float_line_or_bound_raises_type_error():
    d = Domain(0, 15)
    t = LiChaoTree(d)
    for line in [(1.0, 2), (1, 2.0)]:
        for insert in (t.insert_line, ZkwTree(0, 16).insert_line,
                       LineContainer().insert_line,
                       functools.partial(PersistentForest(d).insert, 0),
                       functools.partial(t.insert_segment, xl=0, xr=5)):
            with pytest.raises(TypeError):
                insert(line)
    for xl, xr in [(0.0, 5), (0, 5.5)]:
        with pytest.raises(TypeError):
            t.insert_segment((1, 2), xl, xr)
    for make in (lambda: Domain(0.0, 5), lambda: ZkwTree(0, 16.0)):
        with pytest.raises(TypeError):
            make()
