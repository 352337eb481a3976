"""Static-universe, array-backed lower-envelope tree.

Same envelope semantics as `lichao.core.LiChaoTree` for full lines, but
over a fixed universe padded to a power of two, stored as a flat 1-indexed
heap (cell i has children 2i and 2i+1).  The cell arrays are allocated at
construction; insert and query are plain loops with no recursion and no
allocation, which is what makes this variant attractive when the number
of lines is on the order of the universe size.

`query_many(xs)` equals `[tree.query(x) for x in xs]`.  A long run goes
through a numpy kernel that copies the cell lists into int64 arrays and
walks bottom-up for all xs at once, from leaf cell `x - lo + P` to the
root; it allocates those temporaries on each call and keeps nothing.  It
is exact for the reason the core kernel is (`lichao.core`): every stored
line is checked over [lo, hi] at insert, and only xs inside it reach the
kernel, so every wrapped int64 evaluation is the true value.  The dispatch
rule and the xs check are the core's `_takes_kernel` and `_kernel_xs`.

Segment insertion is deliberately not provided; use the core tree for
that.  Min orientation only.

Concurrency: single writer; concurrent readers are safe while no writer
is active.
"""

from operator import index
from typing import Iterator, Optional

import numpy as np

from .core import (I64_MAX, Domain, Line, _checked_line, _kernel_xs,
                   _takes_kernel, audit_midpoint)


class ZkwTree:
    """Iterative lower-envelope tree over coordinates [lo, lo+size-1].

    Internally the universe is padded to P = next power of two >= size and
    the cell array has 2*P entries (index 0 unused).  Padded coordinates
    beyond size-1 are reachable internally but rejected at the API, so the
    observable domain matches the core tree exactly.
    """

    def __init__(self, lo: int, size: int):
        # non-empty and in int64; padded to P = 2^depth_bound coordinates
        self.domain = Domain(lo, index(lo) + index(size) - 1)
        p = self._p = 1 << self.domain.depth_bound
        # parallel cell arrays; _k[i] is None for an empty cell, whose
        # intercept I64_MAX never lowers a minimum in the batch kernel
        self._k: list = [None] * (2 * p)
        self._b: list = [I64_MAX] * (2 * p)
        #: cells touched by the most recent insert/query operation
        self.last_visited = 0

    @property
    def num_cells(self) -> int:
        return 2 * self._p

    def insert_line(self, line) -> None:
        """Insert a full line; identical envelope semantics to the core tree."""
        d = self.domain
        k, b = _checked_line(line, d.lo, d.hi)
        K, B = self._k, self._b
        i = 1
        # cell i covers [l, r] in external coordinates, padding included
        l = d.lo
        r = l + self._p - 1
        while True:
            ck = K[i]
            if ck is None:
                K[i] = k
                B[i] = b
                break
            cb = B[i]
            m = (l + r) >> 1
            # k*x + b < ck*x + cb exactly when (k - ck)*x < cb - b
            dk = k - ck
            db = cb - b
            lef = dk * l < db
            midf = dk * m < db
            if midf:
                K[i] = k
                B[i] = b
                k, b, ck, cb = ck, cb, k, b
            if lef != midf:
                i = 2 * i
                r = m
            elif (dk * r < db) != midf:
                i = 2 * i + 1
                l = m + 1
            else:
                break
        # one cell read per level, from the root (cell 1) down to cell i
        self.last_visited = i.bit_length()

    def query(self, x: int) -> Optional[int]:
        """Envelope value at x, or None; bottom-up walk from the leaf cell."""
        x = self.domain.point(x)
        K, B = self._k, self._b
        i = x - self.domain.lo + self._p
        best = None
        while i:
            ck = K[i]
            if ck is not None:
                v = ck * x + B[i]
                if best is None or v < best:
                    best = v
            i >>= 1
        # one cell per level, from the leaf level up to the root
        self.last_visited = self._p.bit_length()
        return best

    def query_many(self, xs) -> "list[Optional[int]]":
        """Envelope values at every x of the sequence `xs`.

        Equals `[self.query(x) for x in xs]`, errors included.  Long runs
        take the numpy kernel (module docstring); short runs, runs small
        against the cell count, subclasses overriding `query` and xs that
        are not integers inside the domain take the scalar loop.  The
        kernel path leaves `last_visited` as it was.
        """
        got = None
        if _takes_kernel(self, ZkwTree, len(xs), self._p.bit_length(),
                         2 * self._p):
            got = self._kernel(xs)
        return list(map(self.query, xs)) if got is None else got

    def _kernel(self, xs) -> "Optional[list]":
        """Bottom-up walk for all xs at once: lane x starts at leaf cell
        x - lo + P and keeps the minimum of k*x + b, in wrapping int64,
        over the P.bit_length() cells up to the root.  Empty cells hold
        slope 0 and intercept I64_MAX.  None when `_kernel_xs` declines
        xs; the kernel's one entry, for `query_many` and the tests."""
        d = self.domain
        x = _kernel_xs(xs, d.lo, d.hi)
        if x is None:
            return None
        K = self._k
        if K[1] is None:
            return [None] * len(x)
        kk = np.fromiter((k or 0 for k in K), np.int64, len(K))
        bb = np.array(self._b, np.int64)
        i = x - d.lo  # then + P: lo - P may lie below int64
        i += self._p
        best = np.full(len(x), I64_MAX, np.int64)
        for _ in range(self._p.bit_length()):
            v = kk[i]
            v *= x
            v += bb[i]
            np.minimum(best, v, out=best)
            i >>= 1
        return best.tolist()

    def iter_nodes(self) -> Iterator["tuple[int, int, int, int, Line]"]:
        """Yield (cell, l, r, depth, line) for every cell holding a line.

        Intervals are in external coordinates and include the padding.
        Pre-order; the subtree under an empty cell is empty and skipped.
        """
        off = self.domain.lo
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
