"""Static-universe, array-backed lower-envelope tree.

Same envelope semantics as `lichao.core.LiChaoTree` for full lines, but
over a fixed universe padded to a power of two, stored as a flat 1-indexed
heap (cell i has children 2i and 2i+1).  All memory is allocated at
construction; insert and query are plain loops with no recursion and no
allocation, which is what makes this variant attractive when the number
of lines is on the order of the universe size.

Segment insertion is deliberately not provided; use the core tree for
that.  Min orientation only.

Concurrency: single writer; concurrent readers are safe while no writer
is active.
"""

from typing import Iterator, Optional

from .core import (InvalidDomainError, Line, OutOfDomainError,
                   _check_representable, audit_midpoint)


class ZkwTree:
    """Iterative lower-envelope tree over coordinates [lo, lo+size-1].

    Internally the universe is padded to P = next power of two >= size and
    the cell array has 2*P entries (index 0 unused).  Padded coordinates
    beyond size-1 are reachable internally but rejected at the API, so the
    observable domain matches the core tree exactly.
    """

    def __init__(self, lo: int, size: int):
        if size < 1:
            raise InvalidDomainError(f"invalid universe size {size}")
        p = 1 << (size - 1).bit_length() if size > 1 else 1
        self.lo = lo
        self.size = size
        self._p = p
        # parallel cell arrays; _k[i] is None for an empty cell
        self._k: list = [None] * (2 * p)
        self._b: list = [0] * (2 * p)
        #: cells touched by the most recent insert/query operation
        self.last_visited = 0

    @property
    def num_cells(self) -> int:
        return 2 * self._p

    @property
    def hi(self) -> int:
        return self.lo + self.size - 1

    def insert_line(self, line) -> None:
        """Insert a full line; identical envelope semantics to the core tree."""
        k, b = line
        _check_representable(k, b, self.lo, self.hi)
        K, B = self._k, self._b
        off = self.lo
        i = 1
        l, r = 0, self._p - 1
        visits = 0
        while True:
            visits += 1
            ck = K[i]
            if ck is None:
                K[i] = k
                B[i] = b
                break
            cb = B[i]
            m = (l + r) >> 1
            xl = l + off
            xm = m + off
            lef = k * xl + b < ck * xl + cb
            midf = k * xm + b < ck * xm + cb
            if midf:
                K[i] = k
                B[i] = b
                k, b, ck, cb = ck, cb, k, b
            if l == r:
                break
            if lef != midf:
                i = 2 * i
                r = m
            else:
                i = 2 * i + 1
                l = m + 1
        self.last_visited = visits

    def query(self, x: int) -> Optional[int]:
        """Envelope value at x, or None; bottom-up walk from the leaf cell."""
        pos = x - self.lo
        if pos < 0 or pos >= self.size:
            raise OutOfDomainError(
                f"x={x} outside domain [{self.lo}, {self.hi}]")
        K, B = self._k, self._b
        i = pos + self._p
        best = None
        visits = 0
        while i:
            visits += 1
            ck = K[i]
            if ck is not None:
                v = ck * x + B[i]
                if best is None or v < best:
                    best = v
            i >>= 1
        self.last_visited = visits
        return best

    def iter_nodes(self) -> Iterator["tuple[int, int, int, int, Line]"]:
        """Yield (cell, l, r, depth, line) for every cell holding a line.

        Intervals are in external coordinates and include the padding.
        Pre-order; the subtree under an empty cell is empty and skipped.
        """
        off = self.lo
        K, B = self._k, self._b
        stack = [(1, 0, self._p - 1, 0)]
        while stack:
            i, l, r, depth = stack.pop()
            ck = K[i]
            if ck is None:
                continue
            yield i, l + off, r + off, depth, Line(ck, B[i])
            if l < r:
                m = (l + r) >> 1
                stack.append((2 * i + 1, m + 1, r, depth + 1))
                stack.append((2 * i, l, m, depth + 1))

    def audit_midpoint_optimality(self) -> list:
        """Full-traversal check of the per-cell midpoint invariant.

        Returns violation tuples (cell, m, stored_value, better_value);
        empty means every stored line is minimal at its cell's midpoint
        among the lines in that cell's subtree.
        """
        return audit_midpoint(self.iter_nodes())
