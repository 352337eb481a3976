"""Fully persistent lower-envelope tree via path copying.

Every full-line insertion copies only the nodes on its routing path, which
ends where the loser wins nowhere on a node's interval, into a new immutable
version sharing all unmodified subtrees with its base.  Nodes live in an
append-only arena and are never mutated after creation, so any number of
version histories (including branched ones) coexist in one forest.

Only full-line insertion is persistent; a persistent segment insertion
would copy O(log^2 C) nodes per operation and is out of scope.

The node arena, the insert-time contract check (`_min_form`), the scalar
query walk, the node traversal and the kernel entry are shared with
`LiChaoTree` through `lichao.core._PointerArena`; this module keeps the
versions and the path-copying insert.  `query_many(version, xs)` equals
`[query(version, x) for x in xs]`.  The kernel gets only the nodes the
queried version reaches, renumbered, since the arena also holds every
older version, and the size rule weighs version v by v: it holds at most
max(v, 1) nodes, version 0 being the arena's empty node 0, and each insert
adds at most one node to the tree it copies.
The arena never holds fewer: each insert appends at least one node.

Concurrency: insertions serialize (they append to the shared arena).
Queries on any committed version are safe concurrently with each other and
with one in-flight insertion, because a new version's root is published
only after all of its nodes have been written.
"""

from typing import Optional

from .core import MIN, NIL, Domain, _PointerArena, _takes_kernel


class UnknownVersionError(ValueError):
    """Version handle does not name a committed version."""


class PersistentForest(_PointerArena):
    """Forest of immutable envelope-tree versions over one domain.

    Version 0 is the empty tree, the arena's node 0.  `insert(base, line)`
    returns a new dense integer version id; the base version's answers are
    untouched.  There is no garbage collection of unreachable versions.
    """

    def __init__(self, domain: Domain, orientation: str = MIN):
        super().__init__(domain, orientation)
        self._roots: list = [0]  # version id -> root handle
        #: nodes appended by the most recent insert
        self.last_appended = 0

    @property
    def version_count(self) -> int:
        return len(self._roots)

    @property
    def arena_size(self) -> int:
        return len(self._k)

    def _check_version(self, version: int) -> None:
        if not 0 <= version < len(self._roots):
            raise UnknownVersionError(f"unknown version {version}")

    def insert(self, base: int, line) -> int:
        """Create a new version = base's envelope lowered by `line`.

        Appends a copy of each routing-path node, root first, each pointing
        at the copy after it, and a node for the loser if the path leaves
        the tree: at most ceil(log2(C)) + 1 nodes.  The path ends where the
        loser wins nowhere on a node's interval; the rest is shared by handle.
        """
        self._check_version(base)
        d = self.domain
        k, b = self._min_form(line, d.lo, d.hi)
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        before = len(K)
        cur = self._roots[base]
        l, r = d.lo, d.hi
        while cur != NIL:
            ck, cb = K[cur], B[cur]
            m = (l + r) >> 1
            # k*x + b < ck*x + cb exactly when (k - ck)*x < cb - b
            dk = k - ck
            db = cb - b
            lef = dk * l < db
            midf = dk * m < db
            if midf:
                k, b, ck, cb = ck, cb, k, b
            # (ck, cb) is the winner for the copy of `cur`, (k, b) the loser
            K.append(ck)
            B.append(cb)
            if lef != midf:
                # crossing lies in [l, m]; loser continues left
                Lc.append(len(K))
                Rc.append(Rc[cur])
                cur = Lc[cur]
                r = m
            elif (dk * r < db) != midf:
                Lc.append(Lc[cur])
                Rc.append(len(K))
                cur = Rc[cur]
                l = m + 1
            else:  # the loser wins nowhere on [l, r]: dropped, children kept
                Lc.append(Lc[cur])
                Rc.append(Rc[cur])
                break
        else:
            K.append(k)
            B.append(b)
            Lc.append(NIL)
            Rc.append(NIL)
        self.last_appended = len(K) - before
        self._roots.append(before)
        return len(self._roots) - 1

    def query(self, version: int, x: int) -> Optional[int]:
        """Envelope value at x against the given version's line set."""
        self._check_version(version)
        return self._walk(self._roots[version], x)

    def query_many(self, version: int, xs) -> "list[Optional[int]]":
        """Envelope values at every x of the sequence `xs` against the
        given version; equals `[self.query(version, x) for x in xs]` and
        raises UnknownVersionError for a bad version even when `xs` is
        empty."""
        self._check_version(version)
        got = None
        if _takes_kernel(self, PersistentForest, len(xs),
                         self.domain.depth_bound + 1, version):
            got = self._kernel(self._roots[version], xs)
        if got is None:
            q = self.query
            got = [q(version, x) for x in xs]
        return got

    def _arena(self, root: int) -> tuple:
        # a version is a tree, usually far smaller than the arena the older
        # versions fill: hand the kernel its nodes only, renumbered in
        # pre-order by a walk over handles alone
        Lc, Rc = self._left, self._right
        order = []
        stack = [root]
        while stack:
            h = stack.pop()
            if h != NIL:
                order.append(h)
                stack += (Rc[h], Lc[h])
        number = dict(zip(order, range(len(order))))
        number[NIL] = NIL
        K, B = self._k, self._b
        return ([K[h] for h in order], [B[h] for h in order],
                [number[Lc[h]] for h in order],
                [number[Rc[h]] for h in order], 0)

    def snapshot_bytes(self, version: int) -> bytes:
        """Canonical byte serialization of a version's reachable nodes."""
        self._check_version(version)
        K, B, Lc, Rc = self._k, self._b, self._left, self._right
        return ";".join(f"{h}:{K[h]},{B[h]},{Lc[h]},{Rc[h]}" for h, *_ in
                        self._nodes(self._roots[version])).encode()
