"""Property-based checks of the envelope structures.

The load-bearing properties: linear domination on an interval reduces to
its endpoints, routing keeps dominance over the opposite child, answers
are insensitive to insertion order, min/max are duals, and everything
agrees with the brute-force oracle on random interleaved workloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from lichao import (Domain, LiChaoTree, LineContainer, NaiveSet,
                    PersistentForest, ZkwTree)
from lichao.verify import gen_verify_ops, run_verify

small_coord = st.integers(min_value=-64, max_value=64)
coeff = st.integers(min_value=-10**6, max_value=10**6)
line = st.tuples(coeff, coeff)
lines = st.lists(line, min_size=1, max_size=24)

DOM = Domain(-32, 31)
XS = range(DOM.lo, DOM.hi + 1)
# odd size: a node's two children differ in width
ODD = Domain(-50, 50)


@given(f=line, g=line, a=small_coord, b=small_coord)
def test_linear_domination_reduces_to_endpoints(f, g, a, b):
    if a > b:
        a, b = b, a
    fk, fb = f
    gk, gb = g
    if fk * a + fb <= gk * a + gb and fk * b + fb <= gk * b + gb:
        for x in range(a, b + 1):
            assert fk * x + fb <= gk * x + gb


def _answers(line_list, **kw):
    t = LiChaoTree(DOM, **kw)
    for ln in line_list:
        t.insert_line(ln)
    return [t.query(x) for x in XS]


@given(ls=lines, data=st.data())
def test_insertion_order_does_not_change_answers(ls, data):
    shuffled = data.draw(st.permutations(ls))
    assert _answers(ls) == _answers(shuffled)


@given(ls=st.lists(line, min_size=1, max_size=12))
def test_tied_duplicates_are_order_insensitive(ls):
    # duplicating every line forces midpoint ties on every contested node
    doubled = ls + ls
    assert _answers(doubled) == _answers(list(reversed(doubled)))
    assert _answers(doubled) == _answers(ls)


@given(ls=lines)
def test_min_max_duality(ls):
    mx = LiChaoTree(DOM, orientation="max")
    mn = LiChaoTree(DOM)
    for k, b in ls:
        mx.insert_line((k, b))
        mn.insert_line((-k, -b))
    for x in XS:
        assert mx.query(x) == -mn.query(x)


@given(ls=lines)
def test_routing_dominance_holds_on_every_insertion(ls):
    # instrumented tree raises RoutingDominanceError on any violation
    _answers(ls, audited=True)


@given(ls=lines)
def test_midpoint_invariant_after_full_line_inserts(ls):
    t = LiChaoTree(DOM, audited=True)
    for ln in ls:
        t.insert_line(ln)
    assert t.audit_midpoint_optimality() == []
    assert t.audit_routed_optimality() == []


def _agree_with_the_oracle(dom, ls):
    xs = list(range(dom.lo, dom.hi + 1))
    t = LiChaoTree(dom)
    z = ZkwTree(dom.lo, dom.size)
    c = LineContainer()
    p = PersistentForest(dom)
    v = 0
    naive = NaiveSet()
    for ln in ls:
        t.insert_line(ln)
        z.insert_line(ln)
        c.insert_line(ln)
        v = p.insert(v, ln)
        naive.add_line(ln)
    expected = [naive.query(x) for x in xs]
    assert [t.query(x) for x in xs] == expected
    assert [z.query(x) for x in xs] == expected
    assert [c.query(x) for x in xs] == expected
    # the batch kernel, whatever the run length
    assert t._kernel(t._root, xs) == expected
    assert p._kernel(p._roots[v], xs) == expected


@given(ls=lines)
def test_all_structures_agree_with_the_oracle(ls):
    for dom in (DOM, ODD):
        _agree_with_the_oracle(dom, ls)


@settings(deadline=None)
@given(data=st.data())
def test_segments_agree_with_the_oracle(data):
    ops = []
    n_ops = data.draw(st.integers(min_value=1, max_value=25))
    for _ in range(n_ops):
        k, b = data.draw(line)
        if data.draw(st.booleans()):
            xl = data.draw(small_coord)
            xr = data.draw(small_coord)
            ops.append(((k, b), min(xl, xr), max(xl, xr)))
        else:
            ops.append(((k, b), None, None))
    for dom in (DOM, ODD):
        xs = list(range(dom.lo, dom.hi + 1))
        t = LiChaoTree(dom, audited=True)
        naive = NaiveSet()
        for ln, xl, xr in ops:
            if xl is None:
                t.insert_line(ln)
                naive.add_line(ln)
            else:
                t.insert_segment(ln, xl, xr)
                naive.add_segment(ln, xl, xr)
        expected = [naive.query(x) for x in xs]
        assert [t.query(x) for x in xs] == expected
        assert t._kernel(t._root, xs) == expected
        assert t.audit_routed_optimality() == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_interleaved_differential_fuzz(seed):
    ops = gen_verify_ops(400, 256, seed)
    report = run_verify(ops, 256, include_zkw=True, include_cht=True)
    assert report.ok, report.failure


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_interleaved_segment_fuzz(seed):
    ops = gen_verify_ops(300, 256, seed, segments=True)
    report = run_verify(ops, 256)
    assert report.ok, report.failure
