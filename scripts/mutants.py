#!/usr/bin/env python3
"""Mutation catalogue: single-token faults that the quick suite must kill.

Each mutant replaces one piece of source text that must occur exactly once
in its file.  For every mutant the script copies the repository to a
temporary directory, applies the replacement there, runs the quick suite
(`python -m pytest -q -x -k "not acceptance" tests perfbench`) against the
copy and prints one JSON object per line:

- `killed`: the suite failed;
- `survived`: the suite passed;
- `equivalent`: a mutant that cannot change an answer (its reason says
  why) passed, as it should;
- `unapplied`: the text to replace does not occur exactly once.

A last line sums the results.  The exit status is 1 when a mutant that is
not equivalent survived or was not applied, else 0.  The repository itself
is never modified.  A mutant that passes runs the whole quick suite, about
20 s on 2 CPUs, and the catalogue a few minutes, so this script is not
part of the Tier-1 suite; CI runs it as its own `mutants` job.

    python scripts/mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-k", "not acceptance", "tests", "perfbench"]
TIMEOUT_S = 900

CORE = "src/lichao/core.py"
ZKW = "src/lichao/zkw.py"
PERSISTENT = "src/lichao/persistent.py"
BASELINE = "src/lichao/baseline.py"
BENCH = "src/lichao/bench.py"
VERIFY = "src/lichao/verify.py"
ORACLE = "src/lichao/oracle.py"


def skipped_bound(name, check, indent):
    """A mutant whose `run_verify` never records bound `name`: its `check`
    made False.  `indent` is the indentation of the `bounds.append` line,
    which names the bound, so the text occurs once."""
    tail = f':\n{" " * indent}bounds.append((idx, "{name}",'
    return (f"verify-skips-{name}", VERIFY, check + tail, "False" + tail,
            None)


# (name, file, old, new, reason it is equivalent or None)
CATALOGUE = [
    # tie-breaks: they change which line a node stores, not the answers
    ("core-lef-tie", CORE, "lef = dk * l < db", "lef = dk * l <= db", None),
    ("persistent-lef-tie", PERSISTENT, "lef = dk * l < db",
     "lef = dk * l <= db", None),
    ("zkw-midf-tie", ZKW, "midf = dk * m < db", "midf = dk * m <= db", None),
    # the batch kernel
    ("kernel-dummy-intercept", CORE, "bb[-1] = I64_MAX\n",
     "bb[-1] = I64_MAX - 1\n", None),
    ("kernel-right-ge", CORE, "right = pos > half",
     "right = pos >= half", None),
    ("kernel-no-half-step", CORE, "        half += 1\n", "", None),
    ("kernel-never-right", CORE, "cur += right", "cur += 0", None),
    ("kernel-no-width-step", CORE, "        width -= right\n", "", None),
    ("kernel-declines", CORE,
     'if x.dtype.kind != "i" or x.ndim != 1:', "if True:", None),
    # zkw's bottom-up kernel: an empty cell that lowers an I64_MAX answer,
    # a walk that stops below the root, a kernel that always declines, and
    # a query_many that never calls it
    ("zkw-kernel-empty-intercept", ZKW, "[I64_MAX] * (2 * p)",
     "[I64_MAX - 1] * (2 * p)", None),
    ("zkw-kernel-skips-root", ZKW, "for _ in range(self._p.bit_length()):",
     "for _ in range(self._p.bit_length() - 1):", None),
    ("zkw-kernel-declines", ZKW, "x = _kernel_xs(xs, d.lo, d.hi)",
     "x = None", None),
    ("zkw-kernel-never-called", ZKW, "got = self._kernel(xs)", "got = None",
     None),
    # the empty node: an empty line that ties an I64_MAX line instead of
    # losing to it, and an empty loser that is routed on down the tree
    ("empty-is-int64", CORE, "_EMPTY = 1 << 63", "_EMPTY = (1 << 63) - 1",
     None),
    ("empty-line-routed", CORE, "elif (dk * r < db) != midf:",
     "elif (dk * r < db) != midf or b == _EMPTY:", None),
    # the empty tree's root, node 0: holding a line, missing from the
    # audited routing record, and a forest whose version 0 has no root
    ("empty-root-holds-a-line", CORE, "self._b: list = [_EMPTY]",
     "self._b: list = [I64_MAX]", None),
    ("routed-record-without-root", CORE,
     "self._routed = [[]] if audited else None",
     "self._routed = [] if audited else None", None),
    ("forest-version-zero-nil", PERSISTENT, "self._roots: list = [0]",
     "self._roots: list = [NIL]", None),
    # the stop: a loser that wins nowhere on its node's interval routed on
    # as before the stop (the leaf and the displaced empty line still
    # stop), in each loop; and a stop that tests m where it must test r
    ("dominated-loser-routed", CORE, "elif (dk * r < db) != midf:",
     "elif l < r and not (midf and b == _EMPTY):", None),
    ("zkw-dominated-loser-routed", ZKW, "elif (dk * r < db) != midf:",
     "elif l < r:", None),
    ("persistent-dominated-loser-routed", PERSISTENT,
     "elif (dk * r < db) != midf:", "elif l < r:", None),
    ("stop-tests-m", CORE, "elif (dk * r < db) != midf:",
     "elif (dk * m < db) != midf:", None),
    ("zkw-stop-tests-m", ZKW, "elif (dk * r < db) != midf:",
     "elif (dk * m < db) != midf:", None),
    ("persistent-stop-tests-m", PERSISTENT, "elif (dk * r < db) != midf:",
     "elif (dk * m < db) != midf:", None),
    # the segment loop skips a child that meets the range: the left one
    # when the range starts at the midpoint, the right one when it ends
    # just past it
    ("segment-left-child-lt", CORE, "if lo <= m:", "if lo < m:", None),
    ("segment-right-child-plus-one", CORE, "if m < hi:", "if m + 1 < hi:",
     None),
    # the routing check of audited inserts, its two intervals swapped
    ("routing-intervals-swapped", CORE,
     "self._assert_routing(ck, cb, k, b, m + 1, r)\n"
     "                else:\n"
     "                    self._assert_routing(ck, cb, k, b, l, m)",
     "self._assert_routing(ck, cb, k, b, l, m)\n"
     "                else:\n"
     "                    self._assert_routing(ck, cb, k, b, m + 1, r)",
     None),
    # hull pruning keeps lines that no longer contribute
    ("hull-prune-gt", BASELINE, "nxt is not None and p >= self._p[c][j]",
     "nxt is not None and p > self._p[c][j]", None),
    ("hull-cascade-gt", BASELINE, "P[prev[0]][prev[1]] >= P[b][i]",
     "P[prev[0]][prev[1]] > P[b][i]", None),
    # the hull's blocks: a stale last-threshold summary, a block that
    # never splits, and the new line's cursor off by one across a split
    ("hull-stale-last-threshold", BASELINE,
     "        if i == len(self._p[b]) - 1:\n            self._lp[b] = p\n",
     "", None),
    ("hull-split-never", BASELINE, "if len(ks) > 2 * _LOAD:",
     "if len(ks) > 2 * _LOAD + len(ks):", None),
    ("hull-split-cursor-off-by-one", BASELINE, "if i >= half:",
     "if i > half:", None),
    # the forest's size rule weighs the whole arena, not the version
    ("forest-size-whole-arena", PERSISTENT,
     "self.domain.depth_bound + 1, version)",
     "self.domain.depth_bound + 1, len(self._k))", None),
    # the engine rule refuses zkw at its cap, not only above it
    ("zkw-cap-inclusive", BENCH, "universe > ZKW_MAX_UNIVERSE",
     "universe >= ZKW_MAX_UNIVERSE", None),
    # the benchmark's checksum without the answers of a query run
    ("bench-fold-skipped", BENCH, "h = reduce(fold_answer, got, h)",
     "h = h", None),
    # the oracle's values past int64 left to wrap
    ("oracle-exact-never", ORACLE,
     "if self._kmax * abs(x) + self._bmax > I64_MAX:", "if False:", None),
    # a universe's edges: segment bounds drawn past int64, and random lines
    # drawn on a domain where they overflow
    ("verify-overhang-unclamped", VERIFY,
     "overhang = min(max(1, c // 4), I64_MAX + 1 - c)",
     "overhang = max(1, c // 4)", None),
    ("random-domain-unchecked", BENCH, "_checked_line((k, b), lo, hi)",
     "pass", None),
    # the input boundary: a line or a query point used as the caller passed it
    ("line-unconverted", CORE, "    k = index(k)\n    b = index(b)\n", "",
     None),
    ("point-unconverted", CORE, "        x = index(x)\n", "", None),
    # counters
    ("zkw-insert-visits-plus-one", ZKW,
     "self.last_visited = i.bit_length()",
     "self.last_visited = i.bit_length() + 1", None),
    ("zkw-query-visits-plus-one", ZKW,
     "self.last_visited = self._p.bit_length()",
     "self.last_visited = self._p.bit_length() + 1", None),
    # a leaf that allocates a child, which the scalar walk would step into
    ("leaf-allocates", CORE, "elif (dk * r < db) != midf:",
     "elif (dk * r < db) != midf or l == r:", None),
    # run_verify's engine chain with one engine skipped, and a bound
    # failure without its prefix
    ("verify-skips-lict", VERIFY, 'engine, got = "lict", tree.query(x)',
     'engine, got = "lict", expected', None),
    ("verify-skips-zkw", VERIFY, "if got == expected and zkw is not None:",
     "if False:", None),
    ("verify-skips-cht", VERIFY, "if got == expected and cht is not None:",
     "if False:", None),
    ("verify-skips-persistent", VERIFY,
     "if got == expected and forest is not None:", "if False:", None),
    ("verify-bound-prefix-dropped", VERIFY, "ops[:bounds[0][0] + 1]", "ops",
     None),
    # run_verify with one bound's check skipped
    skipped_bound("lict-insert-visits", "tree.last_visited > line_limit", 20),
    skipped_bound("lict-node-count", "tree.node_count > report.line_inserts",
                  20),
    skipped_bound("zkw-insert-visits", "zkw.last_visited > line_limit", 24),
    skipped_bound("persistent-appended", "forest.last_appended > line_limit",
                  24),
    skipped_bound("lict-segment-visits", "tree.last_visited > seg_limit", 20),
    skipped_bound("lict-query-visits", "tree.last_visited > line_limit", 20),
    skipped_bound("zkw-query-visits", "zkw.last_visited > line_limit", 24),
    # the batch check accepting a decline where the arena holds no empty
    # node: any decline, the forest's past version 0, lict's
    ("verify-accepts-every-decline", VERIFY,
     "if got is None and must_answer:", "if got is None and False:", None),
    ("verify-forest-decline-accepted", VERIFY, "latest != 0))", "False))",
     None),
    ("verify-lict-decline-accepted", VERIFY, "_EMPTY not in tree._b",
     "False", None),
    # equivalent mutants
    ("segment-clamp-ge", CORE, "lo = xl if xl > d.lo else d.lo",
     "lo = xl if xl >= d.lo else d.lo",
     "at xl == d.lo both arms give the same bound"),
    ("batch-size-rule-no-plus-one", CORE,
     "self.domain.depth_bound + 1, len(self._k))",
     "self.domain.depth_bound, len(self._k))",
     "the rule only picks the kernel or the scalar loop, which give the "
     "same answers; only the speed of a run can change"),
]

IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                                "__pycache__", ".benchmarks", "*.egg-info")


def run_mutant(name, path, old, new, reason) -> dict:
    result = {"name": name, "file": path}
    text = (ROOT / path).read_text()
    count = text.count(old)
    if count != 1:
        result.update(result="unapplied", occurrences=count)
        return result
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        (copy / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *SUITE], cwd=copy,
                                  env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            passed = proc.returncode == 0
            lines = proc.stdout.strip().splitlines() or [""]
            by = next((l for l in lines if l.startswith(("FAILED", "ERROR"))),
                      lines[-1])
        except subprocess.TimeoutExpired:
            passed = False
            by = f"timed out after {TIMEOUT_S} s"
        result["seconds"] = round(time.perf_counter() - start, 1)
    if not passed:
        result.update(result="killed", by=by)
    elif reason is not None:
        result.update(result="equivalent", reason=reason)
    else:
        result["result"] = "survived"
    return result


def main() -> int:
    totals = Counter()
    for mutant in CATALOGUE:
        result = run_mutant(*mutant)
        totals[result["result"]] += 1
        print(json.dumps(result), flush=True)
    print(json.dumps({"total": len(CATALOGUE), **totals}))
    return 1 if totals.get("survived") or totals.get("unapplied") else 0


if __name__ == "__main__":
    sys.exit(main())
