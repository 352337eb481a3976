"""Dynamic convex hull trick: explicit lower-envelope maintenance.

Keeps the set of non-dominated lines sorted by slope together with the
integer x-threshold up to which each line is optimal, in the classic
multiset-with-intersections style.  Thresholds are computed with exact
floored integer division, so answers are bit-exact and safe to compare
against the tree-based structures; near-parallel lines cost nothing in
precision here.

Minimum orientation is exposed; internally the classical max-oriented hull
runs on negated lines.  At most one line per slope is kept (the one with
the better intercept), which never changes query answers.

Single-threaded use only.
"""

from typing import Optional

from sortedcontainers import SortedKeyList

from .core import I64_MAX, I64_MIN

# threshold sentinel for the last hull line; far beyond any real
# intersection of 64-bit lines
_INF = 1 << 127


class LineContainer:
    """Multiset-of-lines lower envelope.

    Insertion is amortized O(log N).  A query is O(log^2 N): its binary
    search reads the sorted list by index, at O(log N) per read.
    """

    def __init__(self):
        # items are mutable [k, m, p] triples of the internal max hull,
        # sorted by slope k; p is the threshold up to which the line wins
        self._sl = SortedKeyList(key=lambda t: t[0])

    def hull_size(self) -> int:
        """Number of lines currently contributing to the envelope."""
        return len(self._sl)

    def insert_line(self, line) -> None:
        """Insert a line; dominated lines are removed from the hull."""
        k, b = line
        if not (I64_MIN <= k <= I64_MAX and I64_MIN <= b <= I64_MAX):
            raise OverflowError(f"line ({k}, {b}) outside signed 64-bit range")
        self._add(-k, -b)

    def query(self, x: int) -> Optional[int]:
        """Envelope minimum at x, or None if the hull is empty."""
        sl = self._sl
        n = len(sl)
        if n == 0:
            return None
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if sl[mid][2] >= x:
                hi = mid
            else:
                lo = mid + 1
        k, m, _ = sl[lo]
        v = -(k * x + m)  # back to min orientation
        if v < I64_MIN or v > I64_MAX:
            raise OverflowError(
                f"query at x={x} gives {v}, outside signed 64-bit range")
        return v

    def items(self) -> "list[tuple[int, int, int]]":
        """Hull lines as (k, b, upto) in threshold order.

        `upto` is the largest x at which the line is optimal (the last
        line carries a sentinel beyond any 64-bit coordinate).  Thresholds
        are strictly increasing; slopes strictly decreasing.
        """
        return [(-k, -m, p) for k, m, p in self._sl]

    # -- internal max-oriented hull ------------------------------------

    def _isect(self, i: int, j: int) -> bool:
        # recompute item i's threshold against item j (its successor);
        # True means i's range swallows j's, i.e. j is dominated
        sl = self._sl
        x = sl[i]
        if j >= len(sl):
            x[2] = _INF
            return False
        y = sl[j]
        x[2] = (y[1] - x[1]) // (x[0] - y[0])  # floored, exact
        return x[2] >= y[2]

    def _add(self, k: int, m: int) -> None:
        sl = self._sl
        i = sl.bisect_key_left(k)
        if i < len(sl) and sl[i][0] == k:
            if sl[i][1] >= m:
                return  # an equal-slope line with a better intercept exists
            del sl[i]
        sl.add([k, m, 0])
        i = sl.bisect_key_left(k)
        # drop successors the new line dominates
        while self._isect(i, i + 1):
            del sl[i + 1]
        if i > 0:
            # the new line itself may be dominated by its predecessor
            if self._isect(i - 1, i):
                del sl[i]
                self._isect(i - 1, i)
            i -= 1
            # cascade left while stored thresholds overreach
            while i > 0 and sl[i - 1][2] >= sl[i][2]:
                del sl[i]
                i -= 1
                self._isect(i, i + 1)
