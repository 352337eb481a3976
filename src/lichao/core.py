"""Dynamic lower-envelope tree over an inclusive integer coordinate domain.

Maintains a set of lines y = k*x + b and answers point queries for the
minimum (or maximum) value among them.  Each tree node owns an implicit
interval and stores the line that wins at the interval midpoint; insertion
routes the losing line into the child containing the crossing point, so
every operation touches a single root-to-leaf path.

Coordinates, slopes and intercepts are integers; arithmetic is exact.  The
contract: `Domain` bounds, and an inserted line's k, b and k*x + b over the
domain (a segment: its clamped range), lie in int64, in [I64_MIN + 1,
I64_MAX] for max orientation so the stored negated line fits; insertion
checks it once (`_checked_line`).  Each caller value is converted once, on
entry, with `operator.index`, so a numpy integer computes as a Python int
and a float raises TypeError; callers needing precision eps prescale the
domain by 1/eps.

The node arena and its reads from a root handle (scalar walk, pre-order
traversal, batch dispatch) live once in `_PointerArena`, shared by
`LiChaoTree` and `PersistentForest` (one root per version).

Batch queries.  `LiChaoTree.query_many(xs)` equals
`[tree.query(x) for x in xs]`.  Long runs go through `_walk_batch`, a numpy
kernel that copies the node arena into arrays and walks one tree level per
step for all xs at once.  The kernel evaluates k*x + b in int64, whose
multiplication and addition wrap modulo 2^64.  A node's line is
representable over the node's interval (every line reaches a node only
through an interval inside its range), so the true value of every
evaluation lies in int64 and the wrapped result equals it.  The scalar
loop answers instead when `_takes_kernel` says no: the run is short (fewer
than `_BATCH_MIN` xs), copying the nodes or cells the kernel would read
costs more than `len(xs)` paths of scalar steps, or a subclass overrides
`query`; and when `_kernel_xs` declines xs that are not a 1-D integer
array inside the domain (an out-of-domain x then raises from the scalar
loop).  `ZkwTree.query_many` takes the same two helpers.

Concurrency: mutation requires exclusive access (single writer).  Queries
are read-only and may run concurrently with each other, but not with a
writer.  No internal synchronization is provided.
"""

from dataclasses import dataclass
from operator import index
from typing import Iterator, NamedTuple, Optional

import numpy as np

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

MIN = "min"
MAX = "max"

NIL = -1

# runs shorter than this are answered by the scalar loop: the kernel's
# fixed cost (about 20 numpy calls per tree level) matched 128 to 256 scalar
# queries on trees of 11 to 83 nodes over depth bounds 10 to 40
_BATCH_MIN = 128


class InvalidDomainError(ValueError):
    """Domain bounds are not a valid inclusive integer range."""


class OutOfDomainError(ValueError):
    """Query coordinate lies outside the tree's domain."""


class InvalidSegmentError(ValueError):
    """Segment bounds are reversed (xl > xr)."""


class RoutingDominanceError(AssertionError):
    """Instrumented insertion detected a routing-dominance violation."""


class Line(NamedTuple):
    """A line y = k*x + b with integer slope and intercept."""

    k: int
    b: int


@dataclass(frozen=True)
class Domain:
    """Inclusive integer coordinate range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "lo", index(self.lo))
        object.__setattr__(self, "hi", index(self.hi))
        if not I64_MIN <= self.lo <= self.hi <= I64_MAX:
            raise InvalidDomainError(f"invalid domain [{self.lo}, {self.hi}]:"
                                     " need lo <= hi, both in int64")

    @property
    def size(self) -> int:
        """Universe size C = hi - lo + 1."""
        return self.hi - self.lo + 1

    @property
    def depth_bound(self) -> int:
        """Tree depth bound h = ceil(log2(C))."""
        return (self.size - 1).bit_length()

    def point(self, x) -> int:
        """x as an int, after checking that it lies in [lo, hi]."""
        x = index(x)
        if x < self.lo or x > self.hi:
            raise OutOfDomainError(
                f"x={x} outside domain [{self.lo}, {self.hi}]")
        return x


@dataclass(frozen=True)
class TreeStats:
    max_depth_observed: int


def _checked_line(line, lo: int, hi: int,
                  floor: int = I64_MIN) -> "tuple[int, int]":
    """(k, b) of `line` as ints; OverflowError unless k, b and k*x + b on
    [lo, hi] lie in [floor, I64_MAX] (k*x + b is monotone: the ends do)."""
    k, b = line
    k = index(k)
    b = index(b)
    if not (floor <= k <= I64_MAX >= b >= floor <= k * lo + b <= I64_MAX
            >= k * hi + b >= floor):
        raise OverflowError(
            f"line ({k}, {b}) gives {k * lo + b} at x={lo} and {k * hi + b} "
            f"at x={hi}: k, b and these must lie in [{floor}, {I64_MAX}]")
    return k, b


def audit_midpoint(nodes) -> list:
    """Midpoint-invariant violations in a pre-order node stream.

    `nodes` yields (handle, l, r, depth, line) in pre-order, `line` being
    None for a node without one.  A node's line must not beat the line of
    any ancestor at that ancestor's midpoint.  Returns violation tuples
    (handle, m, stored_value, better_value) naming the ancestor, its
    midpoint and its stored value.
    """
    violations = []
    # (depth, handle, k, b, m) of the line-holding ancestors of the node
    ancestors: list = []
    for h, l, r, depth, line in nodes:
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if line is None:
            continue
        ck, cb = line
        for _d, ah, ak, ab, am in ancestors:
            stored = ak * am + ab
            below = ck * am + cb
            if below < stored:
                violations.append((ah, am, stored, below))
        if l < r:
            ancestors.append((depth, h, ck, cb, (l + r) >> 1))
    return violations


def _takes_kernel(obj, owner: type, n: int, levels: int,
                  cells: int) -> bool:
    """Whether `query_many` on `obj`, an instance of `owner`, sends its `n`
    xs to a batch kernel that reads `cells` nodes or cells and `levels` of
    them per x: not for a short run, not when copying the cells costs more
    than walking `n` paths of `levels` scalar steps, and not for a subclass
    that overrides `query`, so the two stay equal."""
    return (n >= _BATCH_MIN and type(obj).query is owner.query
            and n * levels >= cells)


def _kernel_xs(xs, lo: int, hi: int) -> "Optional[np.ndarray]":
    """`xs` as the int64 array a batch kernel reads, or None when xs is not
    a 1-D integer array or an x lies outside [lo, hi]: the caller's scalar
    loop then answers or raises."""
    x = np.array(xs)
    if not len(x):
        return x.astype(np.int64)
    if x.dtype.kind != "i" or x.ndim != 1:
        return None
    x = x.astype(np.int64, copy=False)
    if x.min() < lo or x.max() > hi:
        return None
    return x


def _walk_batch(K, B, Lc, Rc, root: int, lo: int, hi: int, xs,
                neg: bool) -> "Optional[list]":
    """Envelope values at every x of `xs`, one tree level per step.

    `K`, `B`, `Lc`, `Rc` are the parallel arena lists of a tree whose node
    intervals split [l, r] at m = floor((l+r)/2), `root` the handle of its
    root over [lo, hi].  A None slope marks a pass-through node that holds
    no line; leaves have no children.  The arena is copied into numpy
    arrays on every call and nothing is kept; the contract (module
    docstring) keeps [lo, hi], every k and b and every answer in int64.
    Returns the answers in the caller's orientation (`neg` negates them),
    or None when `_kernel_xs` declines xs.
    """
    x = _kernel_xs(xs, lo, hi)
    if x is None:
        return None
    n = len(x)
    if n == 0:
        return []
    if root == NIL:
        return [None] * n
    # one dummy node at index -1 == NIL: it holds (0, I64_MAX), which never
    # lowers a minimum, and its children are NIL, so lanes that leave the
    # tree stay on it
    size = len(K) + 1
    kk = np.empty(size, np.int64)
    bb = np.empty(size, np.int64)
    kk[-1] = 0
    bb[-1] = I64_MAX
    has_line = None
    try:
        kk[:-1] = K
    except TypeError:
        # pass-through nodes get the dummy's line; has_line marks where a
        # lane really met a line
        slopes = np.array(K, dtype=object)
        has_line = np.append(np.not_equal(slopes, None), False)
        slopes[~has_line[:-1]] = 0
        kk[:-1] = slopes
    bb[:-1] = B
    if has_line is not None:
        bb[~has_line] = I64_MAX
    child = np.empty(2 * size, np.int64)  # child[2h] left, child[2h+1] right
    child[0:-2:2] = Lc
    child[1:-2:2] = Rc
    child[-2:] = NIL
    # per lane: offset of x in the current node's interval and r - l of it,
    # unsigned so the 2^64-point domain fits
    pos = (x - lo).view(np.uint64)
    width = np.full(n, hi - lo, np.uint64)
    cur = np.full(n, root, np.int64)
    best = np.full(n, I64_MAX, np.int64)
    met = None if has_line is None else np.zeros(n, bool)
    while True:
        v = kk[cur]
        v *= x
        v += bb[cur]
        np.minimum(best, v, out=best)
        if met is not None:
            met |= has_line[cur]
        # m = l + half; going right moves l to m + 1, and either child's
        # width is (width - right) >> 1
        half = width >> 1
        right = pos > half
        half += 1
        half *= right
        pos -= half
        width -= right
        width >>= 1
        cur += cur
        cur += right
        cur = child[cur]
        if cur.max() == NIL:
            break
    if neg:
        np.negative(best, out=best)
    vals = best.tolist()
    if met is None:
        return vals
    return [v if m else None for v, m in zip(vals, met.tolist())]


class _PointerArena:
    """Parallel node lists `_k`, `_b`, `_left`, `_right` indexed by handle
    (NIL = no node; a None slope marks a pass-through node), and the reads
    that walk them from a root: `LiChaoTree` has one root,
    `PersistentForest` one per version.  A node's interval is implicit from
    [lo, hi] and the path taken; lines are stored min-oriented.
    """

    def __init__(self, domain: Domain, orientation: str):
        if orientation not in (MIN, MAX):
            raise ValueError(f"orientation must be {MIN!r} or {MAX!r}")
        self.domain = domain
        self.orientation = orientation
        self._neg = orientation == MAX
        self._k: list = []
        self._b: list = []
        self._left: list = []
        self._right: list = []
        #: nodes touched by the most recent scalar query (or tree insert)
        self.last_visited = 0

    def _min_form(self, line, lo: int, hi: int) -> "tuple[int, int]":
        """(k, b) of `line` as stored, after checking it on [lo, hi] in the
        caller's orientation: max orientation accepts [I64_MIN + 1,
        I64_MAX], so the negated line it stores fits int64 too."""
        k, b = _checked_line(line, lo, hi, I64_MIN + self._neg)
        return (-k, -b) if self._neg else (k, b)

    def _walk(self, root: int, x: int) -> Optional[int]:
        """Envelope value at x from `root`: walks the root-to-leaf path
        containing x and takes the best value among the stored lines
        encountered; None if no line covers x."""
        d = self.domain
        x = d.point(x)
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        cur = root
        l, r = d.lo, d.hi
        best = None
        visits = 0
        while cur != NIL:
            visits += 1
            ck = K[cur]
            if ck is not None:
                v = ck * x + B[cur]
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
        self.last_visited = visits
        if best is None:
            return None
        return -best if self._neg else best

    def _nodes(self, root: int
               ) -> Iterator["tuple[int, int, int, int, Optional[tuple]]"]:
        """Yield (handle, l, r, depth, line) for every node `root` reaches,
        in pre-order; `line` is the stored (k, b) in internal
        (min-oriented) form, or None for a pass-through node."""
        if root == NIL:
            return
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        stack = [(root, self.domain.lo, self.domain.hi, 0)]
        while stack:
            h, l, r, depth = stack.pop()
            ck = K[h]
            yield h, l, r, depth, None if ck is None else (ck, B[h])
            if l < r:
                m = (l + r) >> 1
                if Rc[h] != NIL:
                    stack.append((Rc[h], m + 1, r, depth + 1))
                if Lc[h] != NIL:
                    stack.append((Lc[h], l, m, depth + 1))

    def _arena(self, root: int) -> tuple:
        """(K, B, left, right, root) that the kernel copies for `root`."""
        return self._k, self._b, self._left, self._right, root

    def _kernel(self, root: int, xs) -> "Optional[list]":
        """`_walk_batch` from `root`: the kernel's one entry, for `_batch`
        and for `run_verify`, which fails a decline (None)."""
        d = self.domain
        return _walk_batch(*self._arena(root), d.lo, d.hi, xs, self._neg)

    def _batch(self, owner: type, root: int, size: int,
               xs) -> "Optional[list]":
        """Kernel answers from `root`, or None when the `query` loop must
        answer: `_takes_kernel` weighs the `size` nodes `root` can reach,
        and the kernel declines xs that are not integers inside the
        domain (module docstring)."""
        if not _takes_kernel(self, owner, len(xs),
                             self.domain.depth_bound + 1, size):
            return None
        return self._kernel(root, xs)


class LiChaoTree(_PointerArena):
    """Lazily allocated lower/upper-envelope tree over an integer domain.

    Nodes are allocated on demand in the `_PointerArena` lists; children
    partition the parent interval into [l, m] and [m+1, r] with
    m = floor((l+r)/2), and a leaf owns a single coordinate and drops
    losing lines outright.

    Ties at a midpoint keep the resident line and route the incoming line
    down; this makes duplicate insertions harmless.

    `orientation="max"` negates lines on insertion and negates query
    results, reusing the min-oriented comparison path.

    `query_many(xs)` answers a run of queries at once; see the module
    docstring for when it takes the numpy kernel and why that is exact.

    With `audited=True` every insertion asserts that the line kept at a
    node dominates the routed-away line on the opposite child's interval
    (checked at both interval endpoints, which suffices for linear
    functions), and every node remembers which inserted lines were ever
    routed through it, enabling the post-hoc `audit_routed_optimality`
    check.  This is a debugging aid and costs extra time and memory per
    insertion.
    """

    def __init__(self, domain: Domain, orientation: str = MIN,
                 audited: bool = False):
        super().__init__(domain, orientation)
        self._root = NIL
        self._max_depth = 0
        # routing record (only when audited): per node, the lines routed
        # through it, flat as k, b, k, b, ...: kept (k, b) tuples would be
        # tracked by the garbage collector and trigger its passes, which
        # also walk the other engines' lists during run_verify
        self._routed = [] if audited else None

    @property
    def node_count(self) -> int:
        return len(self._k)

    def stats(self) -> TreeStats:
        return TreeStats(self._max_depth)

    def _alloc(self, k, b, depth: int) -> int:
        # a None slope makes a pass-through node
        self._k.append(k)
        self._b.append(b)
        self._left.append(NIL)
        self._right.append(NIL)
        if depth > self._max_depth:
            self._max_depth = depth
        if self._routed is not None:
            self._routed.append([] if k is None else [k, b])
        return len(self._k) - 1

    def _assert_routing(self, wk, wb, lk, lb, a, c):
        # Winner must dominate the loser on [a, c], the child interval the
        # loser was NOT routed into.  Endpoints suffice (linearity).
        if wk * a + wb > lk * a + lb or wk * c + wb > lk * c + lb:
            raise RoutingDominanceError(
                f"winner ({wk}, {wb}) does not dominate loser ({lk}, {lb}) "
                f"on [{a}, {c}]"
            )

    def _insert_descend(self, cur: int, l: int, r: int, depth: int,
                        k: int, b: int) -> "tuple[int, int]":
        """Route line (k, b) down from `cur`, a node at `depth` over [l, r].

        Returns (handle, visits): `handle` is `cur`, or the handle of the
        newly created node when `cur` was NIL.  At most one node is
        allocated per call.  The `visits`-th node of the descent lies at
        depth + visits - 1, so a child allocated below it lies at
        depth + visits.
        """
        if cur == NIL:
            return self._alloc(k, b, depth), 1
        routed = self._routed
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        top = cur
        visits = 0
        while True:
            visits += 1
            ck = K[cur]
            if ck is None:
                # pass-through node from a segment decomposition: adopt
                K[cur] = k
                B[cur] = b
                if routed is not None:
                    routed[cur] += k, b
                break
            cb = B[cur]
            m = (l + r) >> 1
            # k*x + b < ck*x + cb exactly when (k - ck)*x < cb - b
            dk = k - ck
            db = cb - b
            lef = dk * l < db
            midf = dk * m < db
            if midf:
                # incoming line wins at the midpoint: swap, resident loses
                K[cur] = k
                B[cur] = b
                k, b, ck, cb = ck, cb, k, b
            # invariant here: (ck, cb) is the stored winner, (k, b) the loser
            if routed is not None:
                # the incoming line: the winner if it won the swap
                routed[cur] += (ck, cb) if midf else (k, b)
                if l < r:
                    if lef != midf:
                        self._assert_routing(ck, cb, k, b, m + 1, r)
                    else:
                        self._assert_routing(ck, cb, k, b, l, m)
            if l == r:
                break  # single-coordinate leaf: the loser is dropped
            if lef != midf:
                # crossing lies in [l, m]; loser continues left
                nxt = Lc[cur]
                r = m
                if nxt == NIL:
                    Lc[cur] = self._alloc(k, b, depth + visits)
                    visits += 1
                    break
            else:
                nxt = Rc[cur]
                l = m + 1
                if nxt == NIL:
                    Rc[cur] = self._alloc(k, b, depth + visits)
                    visits += 1
                    break
            cur = nxt
        return top, visits

    def insert_line(self, line) -> None:
        """Insert a full line, lowering the envelope pointwise.

        Allocates at most one node.  Raises OverflowError if the line is
        not 64-bit representable across the whole domain.
        """
        d = self.domain
        k, b = self._min_form(line, d.lo, d.hi)
        self._root, self.last_visited = self._insert_descend(
            self._root, d.lo, d.hi, 0, k, b)

    def insert_segment(self, line, xl: int, xr: int) -> None:
        """Insert a line restricted to coordinates in [xl, xr].

        The range is clamped to the domain; a fully disjoint segment is a
        no-op.  The covered range decomposes into O(log C) canonical node
        intervals, each receiving an independent line insertion; nodes
        traversed on the way are materialized with absent lines as needed.
        Raises OverflowError if the line is not 64-bit representable across
        the clamped range.
        """
        xl = index(xl)
        xr = index(xr)
        if xl > xr:
            raise InvalidSegmentError(f"segment bounds reversed: [{xl}, {xr}]")
        d = self.domain
        lo = xl if xl > d.lo else d.lo
        hi = xr if xr < d.hi else d.hi
        if lo > hi:
            self.last_visited = 0
            return
        # every evaluation below lies in [lo, hi]
        k, b = self._min_form(line, lo, hi)
        Lc, Rc = self._left, self._right
        visits = 0

        def seg(h: int, l: int, r: int, depth: int) -> int:
            nonlocal visits
            if hi < l or r < lo:
                return h
            if lo <= l and r <= hi:
                h, v = self._insert_descend(h, l, r, depth, k, b)
                visits += v
                return h
            if h == NIL:
                h = self._alloc(None, 0, depth)
            visits += 1
            m = (l + r) >> 1
            Lc[h] = seg(Lc[h], l, m, depth + 1)
            Rc[h] = seg(Rc[h], m + 1, r, depth + 1)
            return h

        self._root = seg(self._root, d.lo, d.hi, 0)
        self.last_visited = visits

    def query(self, x: int) -> Optional[int]:
        """Envelope value at x, or None if no line covers x."""
        return self._walk(self._root, x)

    def query_many(self, xs) -> "list[Optional[int]]":
        """Envelope values at every x of the sequence `xs`.

        Equals `[self.query(x) for x in xs]`, errors included.  Long runs
        take the numpy level-walk kernel; short runs, runs on an arena
        large against them, subclasses overriding `query` and xs that are
        not integers inside the domain take the scalar loop (module
        docstring).  The kernel path leaves `last_visited` as it was.
        """
        got = self._batch(LiChaoTree, self._root, len(self._k), xs)
        return list(map(self.query, xs)) if got is None else got

    def iter_nodes(self) -> Iterator["tuple[int, int, int, int, Optional[tuple]]"]:
        """Yield (handle, l, r, depth, line) for every allocated node.

        `line` is the stored (k, b) in internal (min-oriented) form, None
        for a pass-through node.  Pre-order.
        """
        return self._nodes(self._root)

    def audit_routed_optimality(self) -> list:
        """Check that every stored line is minimal at its node's midpoint
        among all lines ever routed through that node.

        This is the invariant insertion actually maintains, and the only
        form that holds once segments are involved: a segment's line enters
        the tree at its canonical subtrees without competing above them, so
        it may legally beat an ancestor's stored line at the ancestor's
        midpoint.  Requires `audited=True`.  Returns violation tuples
        (handle, m, stored_value, better_value).
        """
        if self._routed is None:
            raise ValueError("routed-optimality audit needs audited=True")
        violations = []
        for h, l, r, _depth, line in self.iter_nodes():
            if line is None:
                continue
            m = (l + r) >> 1
            lk, lb = line
            stored = lk * m + lb
            flat = self._routed[h]
            for fk, fb in zip(flat[::2], flat[1::2]):
                v = fk * m + fb
                if v < stored:
                    violations.append((h, m, stored, v))
        return violations

    def audit_midpoint_optimality(self) -> list:
        """Check the midpoint invariant at every node by full traversal.

        For each node with a stored line and implicit interval [l, r], the
        stored line must be minimal at m = floor((l+r)/2) among all lines
        in that node's subtree.  For trees built from full lines only this
        is exactly the lines-routed-through invariant (every subtree line
        descended through the node); with segments use
        `audit_routed_optimality` instead.  Returns a list of violation
        tuples (handle, m, stored_value, better_value); empty means the
        invariant holds everywhere.
        """
        return audit_midpoint(self.iter_nodes())
