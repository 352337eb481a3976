"""Class-level call tracing for the traced benchmark pass.

`Tracer.install()` replaces the public methods and module functions listed
in `TARGETS` with wrappers that time every call with `perf_counter_ns`.
The wrappers sit on the classes and modules themselves, so calls made
inside `lichao.verify.run_verify` are captured as well as the benchmark's
own.  Spans are not stored one by one: each function keeps an array of
durations plus running sums, which is all the per-layer metrics need.  A
stack of open spans charges each span's duration to its parent, so a
function's self time is its busy time minus the time its traced children
cover.  `uninstall()` puts the original attributes back.
"""

from array import array
from time import perf_counter_ns

import numpy as np

from lichao import baseline, bench, core, oracle, persistent, verify, zkw


def _counter(attr):
    """Hook that folds the instance's `attr` after a call into the span."""

    def hook(stat, obj):
        v = getattr(obj, attr, None)
        if v is not None:
            stat.counted += 1
            stat.count_sum += v
            if v > stat.count_max:
                stat.count_max = v

    return hook


_visits = _counter("last_visited")
_appended = _counter("last_appended")


# (owner, attribute, span key, hook run after each call with the instance)
TARGETS = (
    (core.LiChaoTree, "__init__", "core.init", None),
    (core.LiChaoTree, "insert_line", "core.insert_line", _visits),
    (core.LiChaoTree, "insert_segment", "core.insert_segment", _visits),
    (core.LiChaoTree, "query", "core.query", _visits),
    (core.LiChaoTree, "audit_routed_optimality", "core.audit", None),
    (core.LiChaoTree, "audit_midpoint_optimality", "core.audit", None),
    (zkw.ZkwTree, "__init__", "zkw.init", None),
    (zkw.ZkwTree, "insert_line", "zkw.insert_line", _visits),
    (zkw.ZkwTree, "query", "zkw.query", _visits),
    (zkw.ZkwTree, "audit_midpoint_optimality", "zkw.audit", None),
    (baseline.LineContainer, "__init__", "baseline.init", None),
    (baseline.LineContainer, "insert_line", "baseline.insert_line", None),
    (baseline.LineContainer, "query", "baseline.query", None),
    (persistent.PersistentForest, "__init__", "persistent.init", None),
    (persistent.PersistentForest, "insert", "persistent.insert", _appended),
    (persistent.PersistentForest, "query", "persistent.query", None),
    (oracle.NaiveSet, "add_line", "oracle.add", None),
    (oracle.NaiveSet, "add_segment", "oracle.add", None),
    (oracle.NaiveSet, "query", "oracle.query", None),
    (verify, "run_verify", "verify.run_verify", None),
    (verify, "gen_verify_ops", "verify.gen_verify_ops", None),
    # every library stream generator counts as workload generation
    (verify, "gen_verify_ops", "bench.gen", None),
    (bench, "gen_nc_workload", "bench.gen", None),
)

# batch query paths are traced when an engine has one
BATCH_TARGETS = (
    (core.LiChaoTree, "core.query_many"),
    (zkw.ZkwTree, "zkw.query_many"),
    (baseline.LineContainer, "baseline.query_many"),
    (persistent.PersistentForest, "persistent.query_many"),
)


class _Stat:
    __slots__ = ("durs", "child_ns", "counted", "count_sum", "count_max",
                 "items")

    def __init__(self):
        self.durs = array("q")
        self.child_ns = 0
        self.counted = 0
        self.count_sum = 0
        self.count_max = 0
        self.items = 0


class Tracer:
    """Installs timing wrappers and aggregates what they record."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._saved = []

    def stat(self, key):
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = _Stat()
        return s

    def _wrap(self, fn, stats, hook, batch=False):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                child = stack.pop()
                for s in stats:
                    s.durs.append(d)
                    s.child_ns += child
                if stack:
                    stack[-1] += d
                if hook is not None:
                    hook(stats[0], args[0])
                if batch:
                    stats[0].items += len(args[-1])

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target; a target listed twice feeds both keys."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        grouped = {}
        for owner, attr, key, hook in TARGETS:
            entry = grouped.setdefault((owner, attr), ([], hook))
            entry[0].append(self.stat(key))
        for owner, key in BATCH_TARGETS:
            if hasattr(owner, "query_many"):
                grouped[(owner, "query_many")] = ([self.stat(key)], None)
        for (owner, attr), (stats, hook) in grouped.items():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, stats, hook,
                                            batch=attr == "query_many"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def snapshot(self):
        """Calls and busy nanoseconds recorded so far, per span key."""
        return {key: (len(s.durs), sum(s.durs))
                for key, s in self.stats.items()}

    def delta(self, snap):
        """What each span key recorded since `snap`."""
        out = {}
        for key, (n, ns) in self.snapshot().items():
            n0, ns0 = snap.get(key, (0, 0))
            if n > n0:
                out[key] = (n - n0, ns - ns0)
        return out

    def metrics(self, rounds):
        """Per-layer figures; counts and busy times are per round."""
        out = {}
        for key, s in sorted(self.stats.items()):
            n = len(s.durs)
            busy = sum(s.durs)
            out[key] = {
                "calls": n / rounds,
                "busy_s": busy / 1e9 / rounds,
                "self_s": (busy - s.child_ns) / 1e9 / rounds,
                "ns_p50": _pct(s.durs, 50),
                "ns_p99": _pct(s.durs, 99),
                "count_mean": s.count_sum / s.counted if s.counted else 0.0,
                "count_max": s.count_max,
                "items": s.items / rounds,
            }
        return out


def _pct(durs, q):
    if not durs:
        return 0.0
    return float(np.percentile(np.frombuffer(durs, dtype=np.int64), q))
