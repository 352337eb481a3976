"""Acceptance suite: one test per criterion, one printed verdict per test.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The two fuzz batches (full-line and segment) are produced once per module
and shared by the criteria that inspect different aspects of the same runs.
"""

import math
import time

import numpy as np
import pytest

from lichao import Domain, LiChaoTree, LineContainer, PersistentForest
from lichao.bench import c8_gate, c9_gate
from lichao.verify import gen_verify_ops, run_verify

FUZZ_C = 4096
FUZZ_DEPTH = Domain(0, FUZZ_C - 1).depth_bound  # 12


def _verdict(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def full_line_reports():
    reports = []
    t0 = time.perf_counter()
    for seed in range(100):
        ops = gen_verify_ops(10_000, FUZZ_C, seed)
        reports.append(run_verify(
            ops, FUZZ_C, include_zkw=True, include_cht=True))
    print(f"\n[acceptance] full-line fuzz batch: 100 seeds x 10^4 ops "
          f"in {time.perf_counter() - t0:.1f}s")
    return reports


@pytest.fixture(scope="module")
def segment_reports():
    reports = []
    t0 = time.perf_counter()
    for seed in range(50):
        ops = gen_verify_ops(5_000, FUZZ_C, 10_000 + seed, segments=True)
        reports.append(run_verify(ops, FUZZ_C))
    print(f"\n[acceptance] segment fuzz batch: 50 seeds x 5*10^3 ops "
          f"in {time.perf_counter() - t0:.1f}s")
    return reports


def test_c1_full_line_oracle_equivalence(full_line_reports):
    bad = [r.divergence for r in full_line_reports
           if r.divergence is not None]
    queries = sum(r.queries_checked for r in full_line_reports)
    _verdict("C1 oracle equivalence, full lines (lict/zkw/cht)",
             not bad and queries > 0,
             f"{queries} queries over 100 seeds, divergences: {bad[:3]}")


def test_c2_segment_oracle_equivalence(segment_reports):
    bad = [r.divergence for r in segment_reports if r.divergence is not None]
    queries = sum(r.queries_checked for r in segment_reports)
    segs = sum(r.seg_inserts for r in segment_reports)
    _verdict("C2 oracle equivalence, segments (lict)",
             not bad and queries > 0 and segs > 0,
             f"{queries} queries, {segs} segment inserts, "
             f"divergences: {bad[:3]}")


def test_c3_structural_bounds(full_line_reports, segment_reports):
    violations = []
    for r in full_line_reports + segment_reports:
        violations += r.bound_violations
    line_limit = FUZZ_DEPTH + 1
    seg_limit = 4 * line_limit * line_limit
    max_line = max(r.max_line_visits for r in full_line_reports)
    max_seg = max(r.max_seg_visits for r in segment_reports)
    _verdict("C3 structural bounds (node count, per-op visits)",
             not violations,
             f"max line-op visits {max_line}/{line_limit}, "
             f"max segment visits {max_seg}/{seg_limit}, "
             f"violations: {violations[:3]}")


def test_c4_midpoint_optimality_audit(full_line_reports, segment_reports):
    bad = sum(r.audit_violations for r in full_line_reports + segment_reports)
    _verdict("C4 midpoint-optimality audit after every fuzz run", bad == 0,
             f"{bad} violations across 150 audited trees")


def test_c5_persistence_branched_histories():
    domain = Domain(0, FUZZ_C - 1)
    per_insert_cap = FUZZ_DEPTH + 1
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(31_000 + seed)
        forest = PersistentForest(domain)
        lines_of = {0: ()}
        snaps = {0: forest.snapshot_bytes(0)}
        for _ in range(200):
            # half chain extensions, half branches off random versions
            if rng.integers(0, 2):
                base = forest.version_count - 1
            else:
                base = int(rng.integers(0, forest.version_count))
            line = (int(rng.integers(-10**6, 10**6)),
                    int(rng.integers(-10**9, 10**9)))
            v = forest.insert(base, line)
            if forest.last_appended > per_insert_cap:
                problems.append((seed, v, "appended", forest.last_appended))
            lines_of[v] = lines_of[base] + (line,)
            snaps[v] = forest.snapshot_bytes(v)
        if forest.arena_size > 200 * per_insert_cap:
            problems.append((seed, "arena", forest.arena_size))
        xs = [int(x) for x in rng.integers(0, FUZZ_C, size=48)] + \
             [0, FUZZ_C - 1]
        for v, vlines in lines_of.items():
            if forest.snapshot_bytes(v) != snaps[v]:
                problems.append((seed, v, "bytes changed"))
            core = LiChaoTree(domain)
            for ln in vlines:
                core.insert_line(ln)
            for x in xs:
                if forest.query(v, x) != core.query(x):
                    problems.append((seed, v, x, "answer"))
    _verdict("C5 persistence: versions equal core rebuilds, byte-stable, "
             "bounded growth", not problems, f"problems: {problems[:3]}")


def test_c6_random_hull_size_is_logarithmic():
    sizes_small = []
    sizes_big = []
    for seed in range(10):
        rng = np.random.default_rng(777 + seed)
        ks = rng.integers(-10**9, 10**9 + 1, size=10**5).tolist()
        bs = rng.integers(-10**9, 10**9 + 1, size=10**5).tolist()
        hull = LineContainer()
        for i, (k, b) in enumerate(zip(ks, bs)):
            hull.insert_line((k, b))
            if i + 1 == 10**3:
                sizes_small.append(hull.hull_size())
        sizes_big.append(hull.hull_size())
    mean_small = sum(sizes_small) / len(sizes_small)
    mean_big = sum(sizes_big) / len(sizes_big)
    cap = 64 * math.log(10**5)
    ratio = mean_big / mean_small
    _verdict("C6 random hull size stays logarithmic",
             mean_big < cap and ratio < 10,
             f"mean size {mean_big:.1f} at 10^5 (cap {cap:.1f}), "
             f"{mean_small:.1f} at 10^3, growth ratio {ratio:.2f} (cap 10)")


def test_c7_dual_parabola_hull_complete():
    n = 10**3
    hull = LineContainer()
    for i in range(n):
        hull.insert_line((-(i + 1), (i + 1) ** 2))
    _verdict("C7 dual-parabola family keeps every line on the hull",
             hull.hull_size() == n, f"hull size {hull.hull_size()} of {n}")


def test_c8_static_universe_relative_performance():
    gate = c8_gate()
    _verdict("C8 N=C=10^6 all-on-hull: zkw <= lict, checksums agree",
             gate["pass"],
             f"zkw {gate['zkw_ms']:.0f}ms vs lict {gate['lict_ms']:.0f}ms vs "
             f"cht {gate['cht_ms']:.0f}ms, checksum {gate['checksum']}")


def test_c9_per_op_cost_independent_of_n():
    gate = c9_gate()
    _verdict("C9 per-op cost flat in n at fixed universe",
             gate["pass"],
             f"{gate['us_per_op_1e4']:.2f}us/op at 10^4 vs "
             f"{gate['us_per_op_1e6']:.2f}us/op at 10^6, "
             f"ratio {gate['ratio']:.2f} (cap {gate['cap']})")
