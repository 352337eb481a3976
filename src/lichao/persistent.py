"""Fully persistent lower-envelope tree via path copying.

Every full-line insertion copies only the nodes along the single
root-to-leaf routing path and produces a new immutable version that shares
all unmodified subtrees with its base.  Nodes live in an append-only arena
and are never mutated after creation, so any number of version histories
(including branched ones) coexist in one forest.

Only full-line insertion is persistent; a persistent segment insertion
would copy O(log^2 C) nodes per operation and is out of scope.

`query_many(version, xs)` equals `[query(version, x) for x in xs]`.  The
arena has the layout and midpoint rule of `LiChaoTree`, so long runs take
the same numpy level-walk kernel (`core._walk_batch`), under the same
dispatch rules and the same exactness argument (see `lichao.core`).  The
kernel gets only the nodes the queried version reaches, renumbered, since
the arena also holds every older version.  The size rule still weighs the
whole arena, which errs toward the scalar loop.

Concurrency: insertions serialize (they append to the shared arena).
Queries on any committed version are safe concurrently with each other and
with one in-flight insertion, because a new version's root is published
only after all of its nodes have been written.
"""

from typing import Optional

from .core import (_BATCH_MIN, MAX, MIN, NIL, Domain, OutOfDomainError,
                   _check_representable, _walk_batch)


class UnknownVersionError(ValueError):
    """Version handle does not name a committed version."""


class PersistentForest:
    """Forest of immutable envelope-tree versions over one domain.

    Version 0 is the empty tree.  `insert(base, line)` returns a new dense
    integer version id; the base version's answers are untouched.  There is
    no garbage collection of unreachable versions.
    """

    def __init__(self, domain: Domain, orientation: str = MIN):
        if orientation not in (MIN, MAX):
            raise ValueError(f"orientation must be {MIN!r} or {MAX!r}")
        self.domain = domain
        self.orientation = orientation
        self._neg = orientation == MAX
        # immutable node arena: parallel append-only lists
        self._k: list = []
        self._b: list = []
        self._left: list = []
        self._right: list = []
        self._roots: list = [NIL]  # version id -> root handle
        #: nodes appended by the most recent insert
        self.last_appended = 0

    @property
    def version_count(self) -> int:
        return len(self._roots)

    @property
    def arena_size(self) -> int:
        return len(self._k)

    def root_of(self, version: int) -> int:
        self._check_version(version)
        return self._roots[version]

    def node(self, handle: int) -> "tuple[int, int, int, int]":
        """(k, b, left, right) of an arena node, for inspection."""
        return (self._k[handle], self._b[handle],
                self._left[handle], self._right[handle])

    def _check_version(self, version: int) -> None:
        if not 0 <= version < len(self._roots):
            raise UnknownVersionError(f"unknown version {version}")

    def _alloc(self, k: int, b: int, left: int, right: int) -> int:
        self._k.append(k)
        self._b.append(b)
        self._left.append(left)
        self._right.append(right)
        return len(self._k) - 1

    def insert(self, base: int, line) -> int:
        """Create a new version = base's envelope lowered by `line`.

        Appends at most ceil(log2(C)) + 1 fresh nodes; everything off the
        routing path is shared with the base version by handle.
        """
        self._check_version(base)
        k, b = line
        if self._neg:
            k, b = -k, -b
        d = self.domain
        _check_representable(k, b, d.lo, d.hi)
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        before = len(K)

        def copy_down(h: int, l: int, r: int, k: int, b: int) -> int:
            if h == NIL:
                return self._alloc(k, b, NIL, NIL)
            ck, cb = K[h], B[h]
            m = (l + r) >> 1
            lef = k * l + b < ck * l + cb
            midf = k * m + b < ck * m + cb
            if midf:
                k, b, ck, cb = ck, cb, k, b
            # (ck, cb) is the winner for the copied node, (k, b) the loser
            if l == r:
                return self._alloc(ck, cb, NIL, NIL)
            if lef != midf:
                return self._alloc(ck, cb, copy_down(Lc[h], l, m, k, b), Rc[h])
            return self._alloc(ck, cb, Lc[h], copy_down(Rc[h], m + 1, r, k, b))

        new_root = copy_down(self._roots[base], d.lo, d.hi, k, b)
        self.last_appended = len(K) - before
        self._roots.append(new_root)
        return len(self._roots) - 1

    def query(self, version: int, x: int) -> Optional[int]:
        """Envelope value at x against the given version's line set."""
        self._check_version(version)
        d = self.domain
        if x < d.lo or x > d.hi:
            raise OutOfDomainError(f"x={x} outside domain [{d.lo}, {d.hi}]")
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        cur = self._roots[version]
        l, r = d.lo, d.hi
        best = None
        while cur != NIL:
            v = K[cur] * x + B[cur]
            if best is None or v < best:
                best = v
            if l == r:
                break
            m = (l + r) >> 1
            if x <= m:
                cur = Lc[cur]
                r = m
            else:
                cur = Rc[cur]
                l = m + 1
        if best is None:
            return None
        return -best if self._neg else best

    def query_many(self, version: int, xs) -> "list[Optional[int]]":
        """Envelope values at every x of the sequence `xs` against the
        given version; equals `[self.query(version, x) for x in xs]` and
        raises UnknownVersionError for a bad version even when `xs` is
        empty."""
        if (len(xs) < _BATCH_MIN
                or type(self).query is not PersistentForest.query
                or len(xs) * (self.domain.depth_bound + 1) < len(self._k)):
            return self._query_loop(version, xs)
        return self._query_batch(version, xs)

    def _query_batch(self, version: int, xs) -> "list[Optional[int]]":
        """`query_many` through the kernel whatever the run length.  The
        kernel gets only the nodes the version reaches, renumbered in
        pre-order; a version is a tree, usually far smaller than the arena
        the older versions fill."""
        order = self.version_nodes(version)
        number = dict(zip(order, range(len(order))))
        number[NIL] = NIL
        K, B, Lc, Rc = self._k, self._b, self._left, self._right
        d = self.domain
        got = _walk_batch([K[h] for h in order], [B[h] for h in order],
                          [number[Lc[h]] for h in order],
                          [number[Rc[h]] for h in order],
                          0 if order else NIL, d.lo, d.hi, xs, self._neg)
        return self._query_loop(version, xs) if got is None else got

    def _query_loop(self, version: int, xs) -> "list[Optional[int]]":
        if not len(xs):
            self._check_version(version)  # `query` checks it otherwise
        q = self.query
        return [q(version, x) for x in xs]

    def version_nodes(self, version: int) -> "list[int]":
        """Handles of all nodes reachable from a version's root, pre-order."""
        self._check_version(version)
        out = []
        stack = [self._roots[version]]
        while stack:
            h = stack.pop()
            if h == NIL:
                continue
            out.append(h)
            stack.append(self._right[h])
            stack.append(self._left[h])
        return out

    def snapshot_bytes(self, version: int) -> bytes:
        """Canonical byte serialization of a version's reachable nodes."""
        parts = []
        for h in self.version_nodes(version):
            parts.append(f"{h}:{self._k[h]},{self._b[h]},"
                         f"{self._left[h]},{self._right[h]}")
        return ";".join(parts).encode()
