import numpy as np
import pytest

from lichao import InvalidSegmentError, NaiveSet


def test_empty_set_returns_absent():
    assert NaiveSet().query(0) is None


def test_add_line_appends():
    s = NaiveSet()
    s.add_line((1, 0))
    assert len(s) == 1
    s.add_line((1, 0))  # duplicates are kept, answers unchanged
    assert len(s) == 2
    assert s.query(7) == 7


def test_many_lines():
    s = NaiveSet()
    for i in range(1000):
        s.add_line((i, -i))
    assert len(s) == 1000
    assert s.query(2) == min(i * 2 - i for i in range(1000))


def test_two_crossing_lines():
    s = NaiveSet()
    s.add_line((2, 0))
    s.add_line((-2, 20))
    assert s.query(5) == 10


def test_envelope_scenario_value():
    s = NaiveSet()
    for ln in [(2, 0), (4, -8), (1, 4), (-2, 20)]:
        s.add_line(ln)
    assert s.query(5) == 9


def test_segment_bounds_respected():
    s = NaiveSet()
    s.add_segment((0, 1), 10, 20)
    assert s.query(9) is None
    assert s.query(10) == 1
    assert s.query(20) == 1
    assert s.query(21) is None


def test_segment_outside_query_points_never_matters():
    s = NaiveSet()
    s.add_line((1, 0))
    before = [s.query(x) for x in range(0, 50)]
    s.add_segment((0, -10**9), 1000, 2000)
    assert [s.query(x) for x in range(0, 50)] == before


def test_full_width_segment_equals_line():
    a, b = NaiveSet(), NaiveSet()
    a.add_line((3, -7))
    b.add_segment((3, -7), -(2**62), 2**62)
    for x in (-1000, 0, 1, 999):
        assert a.query(x) == b.query(x)


def test_reversed_segment_rejected():
    with pytest.raises(InvalidSegmentError):
        NaiveSet().add_segment((1, 1), 5, 4)


def test_floats_are_refused_as_every_engine_refuses_them():
    s = NaiveSet()
    for add in (lambda: s.add_line((1.5, 2)), lambda: s.add_line((1, 2.0)),
                lambda: s.add_segment((1, 2), 0.5, 4),
                lambda: s.add_segment((1, 2), 0, 4.9),
                lambda: s.add_segment((1, 2.5), 0, 4)):
        with pytest.raises(TypeError):
            add()
    assert len(s) == 0 and s.query(0) is None
    s.add_line((np.int64(1), np.int32(2)))
    s.add_segment((0, -9), np.int64(4), 4)
    for x in (3.0, 3.7):
        with pytest.raises(TypeError):
            s.query(x)
    assert [s.query(x) for x in (3, np.int64(4))] == [5, -9]


def test_values_past_int64_are_exact():
    # 2^40 * 2^23 = 2^63 is one past I64_MAX; int64 wraps it to I64_MIN
    s = NaiveSet()
    s.add_line((2**40, 0))
    assert s.query(2**23) == 2**63
    s.add_line((0, 0))
    assert s.query(2**23) == 0
    assert s.query(-(2**23)) == -(2**63)
    assert s.query(5) == 0
