"""Dynamic lower-envelope tree over an inclusive integer coordinate domain.

Maintains a set of lines y = k*x + b and answers point queries for the
minimum (or maximum) value among them.  Each tree node owns an implicit
interval and stores the line that wins at the interval midpoint; insertion
routes the losing line into the child containing the crossing point, so
every operation touches a single root-to-leaf path.

Coordinates, slopes and intercepts are integers.  Arithmetic is exact
(Python ints), and 64-bit-signed representability of k*x + b over the
domain (for a segment, over its clamped range) is enforced as a caller
contract at insertion time.  Non-integer
coordinates are not supported natively; callers needing precision eps
should prescale their coordinate range by 1/eps.

Concurrency: mutation requires exclusive access (single writer).  Queries
are read-only and may run concurrently with each other, but not with a
writer.  No internal synchronization is provided.
"""

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

MIN = "min"
MAX = "max"

NIL = -1


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

    def eval(self, x: int) -> int:
        """Evaluate the line at x, exactly.

        Raises OverflowError if the value does not fit a signed 64-bit
        integer; that signals a violation of the caller's representability
        contract, never a wrong answer.
        """
        v = self.k * x + self.b
        if v < I64_MIN or v > I64_MAX:
            raise OverflowError(
                f"line ({self.k}, {self.b}) at x={x} gives {v}, "
                "outside signed 64-bit range"
            )
        return v


@dataclass(frozen=True)
class Domain:
    """Inclusive integer coordinate range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidDomainError(f"invalid domain [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        """Universe size C = hi - lo + 1."""
        return self.hi - self.lo + 1

    @property
    def depth_bound(self) -> int:
        """Tree depth bound h = ceil(log2(C))."""
        return (self.size - 1).bit_length()

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class TreeStats:
    node_count: int
    max_depth_observed: int


def _check_representable(k: int, b: int, lo: int, hi: int) -> None:
    # k*x + b is monotone in x, so endpoint checks cover the whole range.
    for x in (lo, hi):
        v = k * x + b
        if v < I64_MIN or v > I64_MAX:
            raise OverflowError(
                f"line ({k}, {b}) at x={x} gives {v}, outside signed "
                "64-bit range; representability contract violated"
            )


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


class LiChaoTree:
    """Lazily allocated lower/upper-envelope tree over an integer domain.

    Nodes live in a growable arena of parallel lists indexed by integer
    handles; a handle of -1 means "no node".  A node's interval is implicit
    from the root domain and the path taken.  Children partition the parent
    interval into [l, m] and [m+1, r] with m = floor((l+r)/2); a leaf owns
    a single coordinate and drops losing lines outright.

    Ties at a midpoint keep the resident line and route the incoming line
    down; this makes duplicate insertions harmless.

    `orientation="max"` negates lines on insertion and negates query
    results, reusing the min-oriented comparison path.

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
        if orientation not in (MIN, MAX):
            raise ValueError(f"orientation must be {MIN!r} or {MAX!r}")
        self.domain = domain
        self.orientation = orientation
        self._neg = orientation == MAX
        # Node arena: parallel lists indexed by handle.  _k[h] is None for
        # pass-through nodes materialized by segment decomposition.
        self._k: list = []
        self._b: list = []
        self._left: list = []
        self._right: list = []
        self._root = NIL
        self._max_depth = 0
        #: nodes touched by the most recent insert/query operation
        self.last_visited = 0
        # routing record (only when audited): one id per insertion event, a
        # per-node list of ids routed through it, and the id of each node's
        # currently stored line
        self._records = ([], [], []) if audited else None

    @property
    def node_count(self) -> int:
        return len(self._k)

    def stats(self) -> TreeStats:
        return TreeStats(len(self._k), self._max_depth)

    def _alloc(self, k, b, depth: int, lid=None) -> int:
        # `lid` is the insertion event storing (k, b) here; None for
        # pass-through nodes and when routing is not recorded
        self._k.append(k)
        self._b.append(b)
        self._left.append(NIL)
        self._right.append(NIL)
        if depth > self._max_depth:
            self._max_depth = depth
        if self._records is not None:
            self._records[1].append([] if lid is None else [lid])
            self._records[2].append(lid)
        return len(self._k) - 1

    def _new_record_id(self, k: int, b: int):
        if self._records is None:
            return None
        self._records[0].append((k, b))
        return len(self._records[0]) - 1

    def _assert_routing(self, wk, wb, lk, lb, a, c):
        # Winner must dominate the loser on [a, c], the child interval the
        # loser was NOT routed into.  Endpoints suffice (linearity).
        if wk * a + wb > lk * a + lb or wk * c + wb > lk * c + lb:
            raise RoutingDominanceError(
                f"winner ({wk}, {wb}) does not dominate loser ({lk}, {lb}) "
                f"on [{a}, {c}]"
            )

    def _insert_descend(self, cur: int, l: int, r: int, depth: int,
                        k: int, b: int, lid=None) -> "tuple[int, int]":
        """Route line (k, b) down from `cur` over [l, r].

        Returns (handle, visits): `handle` is `cur`, or the handle of the
        newly created node when `cur` was NIL.  At most one node is
        allocated per call.  `lid` identifies the insertion event when the
        tree is audited.
        """
        if cur == NIL:
            return self._alloc(k, b, depth, lid), 1
        rec = self._records
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
                if rec is not None:
                    rec[1][cur].append(lid)
                    rec[2][cur] = lid
                break
            cb = B[cur]
            m = (l + r) >> 1
            lef = k * l + b < ck * l + cb
            midf = k * m + b < ck * m + cb
            if midf:
                # incoming line wins at the midpoint: swap, resident loses
                K[cur] = k
                B[cur] = b
                k, b, ck, cb = ck, cb, k, b
            # invariant here: (ck, cb) is the stored winner, (k, b) the loser
            if rec is not None:
                rec[1][cur].append(lid)
                if midf:
                    lid, rec[2][cur] = rec[2][cur], lid
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
                    Lc[cur] = self._alloc(k, b, depth + 1, lid)
                    visits += 1
                    break
            else:
                nxt = Rc[cur]
                l = m + 1
                if nxt == NIL:
                    Rc[cur] = self._alloc(k, b, depth + 1, lid)
                    visits += 1
                    break
            cur = nxt
            depth += 1
        return top, visits

    def insert_line(self, line) -> None:
        """Insert a full line, lowering the envelope pointwise.

        Allocates at most one node.  Raises OverflowError if the line is
        not 64-bit representable across the whole domain.
        """
        k, b = line
        if self._neg:
            k, b = -k, -b
        d = self.domain
        _check_representable(k, b, d.lo, d.hi)
        lid = self._new_record_id(k, b)
        self._root, self.last_visited = self._insert_descend(
            self._root, d.lo, d.hi, 0, k, b, lid)

    def insert_segment(self, line, xl: int, xr: int) -> None:
        """Insert a line restricted to coordinates in [xl, xr].

        The range is clamped to the domain; a fully disjoint segment is a
        no-op.  The covered range decomposes into O(log C) canonical node
        intervals, each receiving an independent line insertion; nodes
        traversed on the way are materialized with absent lines as needed.
        Raises OverflowError if the line is not 64-bit representable across
        the clamped range.
        """
        if xl > xr:
            raise InvalidSegmentError(f"segment bounds reversed: [{xl}, {xr}]")
        k, b = line
        if self._neg:
            k, b = -k, -b
        d = self.domain
        lo = xl if xl > d.lo else d.lo
        hi = xr if xr < d.hi else d.hi
        if lo > hi:
            self.last_visited = 0
            return
        # every evaluation below lies in [lo, hi]
        _check_representable(k, b, lo, hi)
        lid = self._new_record_id(k, b)
        Lc, Rc = self._left, self._right
        visits = 0

        def seg(h: int, l: int, r: int, depth: int) -> int:
            nonlocal visits
            if hi < l or r < lo:
                return h
            if lo <= l and r <= hi:
                h, v = self._insert_descend(h, l, r, depth, k, b, lid)
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
        """Envelope value at x, or None if no line covers x.

        Walks the root-to-leaf path containing x and takes the best value
        among the stored lines encountered.
        """
        d = self.domain
        if x < d.lo or x > d.hi:
            raise OutOfDomainError(f"x={x} outside domain [{d.lo}, {d.hi}]")
        K, B = self._k, self._b
        Lc, Rc = self._left, self._right
        cur = self._root
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

    def iter_nodes(self) -> Iterator["tuple[int, int, int, int, Optional[Line]]"]:
        """Yield (handle, l, r, depth, line) for every allocated node.

        Lines are reported in internal (min-oriented) form.  Pre-order.
        """
        if self._root == NIL:
            return
        stack = [(self._root, self.domain.lo, self.domain.hi, 0)]
        while stack:
            h, l, r, depth = stack.pop()
            ck = self._k[h]
            line = None if ck is None else Line(ck, self._b[h])
            yield h, l, r, depth, line
            if l < r:
                m = (l + r) >> 1
                if self._right[h] != NIL:
                    stack.append((self._right[h], m + 1, r, depth + 1))
                if self._left[h] != NIL:
                    stack.append((self._left[h], l, m, depth + 1))

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
        if self._records is None:
            raise ValueError("routed-optimality audit needs audited=True")
        lines, routed, _ = self._records
        violations = []
        for h, l, r, _depth, line in self.iter_nodes():
            if line is None:
                continue
            m = (l + r) >> 1
            stored = line.k * m + line.b
            for lid in routed[h]:
                fk, fb = lines[lid]
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
