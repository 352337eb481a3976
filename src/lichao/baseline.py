"""Dynamic convex hull trick: explicit lower-envelope maintenance.

Keeps the set of non-dominated lines sorted by slope together with the
integer x-threshold up to which each line is optimal, in the classic
multiset-with-intersections style.  Thresholds are computed with exact
floored integer division, so answers are bit-exact and safe to compare
against the tree-based structures; near-parallel lines cost nothing in
precision here.

The hull is a list of blocks, each three parallel lists (slopes,
intercepts, thresholds), beside each block's last slope and last
threshold.  A lookup bisects those summaries, then one block, both in C:
amortized O(log N) insert, O(log N) query.  A block longer than 2 * _LOAD
splits in two and an empty block is deleted, so there are at most
1 + inserts / _LOAD blocks and no merge step.

Minimum orientation is exposed; internally the classical max-oriented hull
runs on negated lines.  At most one line per slope is kept (the one with
the better intercept), which never changes query answers.  k, b and x are
converted on entry with `operator.index`, as in the trees.

Single-threaded use only.
"""

from bisect import bisect_left
from operator import index
from typing import Optional

from .core import I64_MAX, I64_MIN

# threshold sentinel for the last hull line; far beyond any real
# intersection of 64-bit lines
_INF = 1 << 127

# half the length at which a block splits
_LOAD = 256


class LineContainer:
    """Multiset-of-lines lower envelope in slope-sorted blocks.

    Insertion is amortized O(log N) and a query O(log N): both bisect the
    block summaries, then one block of at most 2 * _LOAD lines.
    """

    def __init__(self):
        # internal max hull, sorted by slope k; p is the threshold up to
        # which the line wins; _lk and _lp hold each block's last k and p
        self._k, self._m, self._p, self._lk, self._lp = [], [], [], [], []

    def hull_size(self) -> int:
        """Number of lines currently contributing to the envelope."""
        return sum(map(len, self._k))

    def insert_line(self, line) -> None:
        """Insert a line; dominated lines are removed from the hull."""
        k, b = line
        k = index(k)
        b = index(b)
        if not (I64_MIN <= k <= I64_MAX and I64_MIN <= b <= I64_MAX):
            raise OverflowError(f"line ({k}, {b}) outside signed 64-bit range")
        self._add(-k, -b)

    def query(self, x: int) -> Optional[int]:
        """Envelope minimum at x, or None if the hull is empty."""
        x = index(x)
        lp = self._lp
        if not lp:
            return None
        # each bisect leaves the last entry out, so an x beyond the
        # sentinel lands on the last line
        b = bisect_left(lp, x, 0, len(lp) - 1)
        p = self._p[b]
        i = bisect_left(p, x, 0, len(p) - 1)
        v = -(self._k[b][i] * x + self._m[b][i])  # back to min orientation
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
        return [(-k, -m, p) for ks, ms, ps in zip(self._k, self._m, self._p)
                for k, m, p in zip(ks, ms, ps)]

    # -- internal max-oriented hull on (block, index) cursors ----------

    def _next(self, b: int, i: int):
        if i + 1 < len(self._k[b]):
            return b, i + 1
        return (b + 1, 0) if b + 1 < len(self._k) else None

    def _prev(self, b: int, i: int):
        if i:
            return b, i - 1
        return (b - 1, len(self._k[b - 1]) - 1) if b else None

    def _isect(self, b: int, i: int) -> bool:
        # recompute the threshold at (b, i) against its successor; True
        # means its range swallows the successor's, i.e. that is dominated
        nxt = self._next(b, i)
        if nxt is None:
            p = _INF
        else:
            c, j = nxt
            p = (self._m[c][j] - self._m[b][i]) // (self._k[b][i]
                                                    - self._k[c][j])
        self._p[b][i] = p
        if i == len(self._p[b]) - 1:
            self._lp[b] = p
        return nxt is not None and p >= self._p[c][j]

    def _delete(self, b: int, i: int) -> None:
        ks, ps = self._k[b], self._p[b]
        del ks[i], self._m[b][i], ps[i]
        if not ks:
            del self._k[b], self._m[b], self._p[b], self._lk[b], self._lp[b]
        elif i == len(ks):
            self._lk[b], self._lp[b] = ks[-1], ps[-1]

    def _add(self, k: int, m: int) -> None:
        K, M, P, lk = self._k, self._m, self._p, self._lk
        if not K:
            self._k, self._m, self._p = [[k]], [[m]], [[_INF]]
            self._lk, self._lp = [k], [_INF]
            return
        b = bisect_left(lk, k)
        if b == len(K):  # the steepest line yet ends the last block
            b -= 1
            lk[b] = k
        ks = K[b]
        i = bisect_left(ks, k)
        if i < len(ks) and ks[i] == k:
            if M[b][i] >= m:
                return  # an equal-slope line with a better intercept exists
            M[b][i] = m
        else:
            ks.insert(i, k)
            M[b].insert(i, m)
            P[b].insert(i, 0)
            if len(ks) > 2 * _LOAD:
                half = len(ks) >> 1
                for rows in (K, M, P):
                    rows.insert(b + 1, rows[b][half:])
                    del rows[b][half:]
                lk.insert(b, ks[-1])
                self._lp.insert(b, P[b][-1])
                if i >= half:
                    b, i = b + 1, i - half
        # drop successors the new line dominates
        while self._isect(b, i):
            self._delete(*self._next(b, i))
        prev = self._prev(b, i)
        if prev is not None:
            # the new line itself may be dominated by its predecessor
            if self._isect(*prev):
                self._delete(b, i)
                self._isect(*prev)
            b, i = prev
            # cascade left while stored thresholds overreach
            while (prev := self._prev(b, i)) and \
                    P[prev[0]][prev[1]] >= P[b][i]:
                self._delete(b, i)
                b, i = prev
                self._isect(b, i)
