import csv
import math

import pytest

from lichao import Domain, LiChaoTree, LineContainer
from lichao.bench import (CSV_FIELDS, ZKW_MAX_UNIVERSE,
                          ChecksumMismatchError, WorkloadMismatchError,
                          Workload, append_csv, engine_mismatch,
                          ensure_consistent, fold_answer, gen_hull_workload,
                          gen_nc_workload, gen_random_workload,
                          run_benchmark, write_csv)


def test_same_seed_same_ops():
    a = gen_random_workload(1000, 7)
    b = gen_random_workload(1000, 7)
    assert a.ops == b.ops
    assert a.domain == b.domain
    assert gen_random_workload(1000, 8).ops != a.ops


def test_random_workload_shape():
    wl = gen_random_workload(10**5, 42)
    tags = [op[0] for op in wl.ops]
    assert tags.count("A") == 50_000
    assert tags.count("Q") == 50_000
    assert tags[:50_000] == ["A"] * 50_000  # inserts first, then queries
    assert wl.domain == Domain(-10**9, 10**9)
    for op in wl.ops:
        for v in op[1:]:
            assert -10**9 <= v <= 10**9


def test_hull_workload_alternates():
    wl = gen_hull_workload(20)
    assert wl.ops[0] == ("A", -1, 1)
    tags = [op[0] for op in wl.ops]
    assert tags == ["A", "Q"] * 10
    hull = LineContainer()
    for op in wl.ops:
        if op[0] == "A":
            hull.insert_line((op[1], op[2]))
    assert hull.hull_size() == 10


def test_hull_workload_rejects_giant_sizes():
    with pytest.raises(OverflowError):
        gen_hull_workload(2**35)


def test_nc_random_domain_is_sized_by_n():
    wl = gen_nc_workload(10**5, "random", 42)
    assert wl.domain == Domain(-50_000, 50_000)
    for op in wl.ops:
        for v in op[1:]:
            assert -50_000 <= v <= 50_000


def test_nc_hull_queries_within_range():
    wl = gen_nc_workload(100, "hull", 3)
    assert wl.domain == Domain(0, 100)
    qs = [op[1] for op in wl.ops if op[0] == "Q"]
    assert qs and all(0 <= x <= 100 for x in qs)
    inserted = sorted(-op[1] for op in wl.ops if op[0] == "A")
    assert inserted == list(range(1, 51))


def test_nc_hull_shuffle_is_seed_deterministic():
    a = gen_nc_workload(200, "hull", 5)
    b = gen_nc_workload(200, "hull", 5)
    c = gen_nc_workload(200, "hull", 6)
    assert a.ops == b.ops
    assert a.ops != c.ops


def test_single_rep_has_zero_cv():
    wl = gen_random_workload(500, 1)
    res = run_benchmark(wl, "lict", 1)
    assert res.cv == 0.0
    assert res.n == 500
    assert math.isclose(res.total_ms, res.insert_ms + res.query_ms,
                        rel_tol=1e-9)


def test_lict_and_cht_checksums_agree():
    wl = gen_random_workload(10**4, 42)
    r1 = run_benchmark(wl, "lict", 1)
    r2 = run_benchmark(wl, "cht", 1)
    assert r1.checksum == r2.checksum
    ensure_consistent([r1, r2])


def test_all_three_agree_on_nc_workloads():
    for dist in ("random", "hull"):
        wl = gen_nc_workload(4000, dist, 42)
        results = [run_benchmark(wl, algo, 1)
                   for algo in ("lict", "zkw", "cht")]
        ensure_consistent(results)


def test_query_many_folds_to_the_lict_checksum():
    for dist in ("random", "hull"):
        wl = gen_nc_workload(4000, dist, 42)
        t = LiChaoTree(wl.domain)
        xs = []
        for op in wl.ops:
            if op[0] == "A":
                t.insert_line((op[1], op[2]))
            else:
                xs.append(op[1])
        h = 0xCBF29CE484222325
        for v in t.query_many(xs):
            h = fold_answer(h, v)
        assert h == run_benchmark(wl, "lict", 1).checksum


def test_hull_workload_checksums_agree():
    wl = gen_hull_workload(2000, 42)
    ensure_consistent([run_benchmark(wl, "lict", 1),
                       run_benchmark(wl, "cht", 1)])


def test_checksum_divergence_is_detected():
    wl = gen_random_workload(100, 0)
    r1 = run_benchmark(wl, "lict", 1)
    r2 = run_benchmark(wl, "cht", 1)
    r2.checksum ^= 1
    with pytest.raises(ChecksumMismatchError):
        ensure_consistent([r1, r2])


def test_zkw_requires_static_universe():
    wl = gen_random_workload(100, 0)
    with pytest.raises(WorkloadMismatchError):
        run_benchmark(wl, "zkw", 1)


def test_engine_mismatch_rules():
    for universe in (1, ZKW_MAX_UNIVERSE, ZKW_MAX_UNIVERSE + 1, 2**64):
        assert engine_mismatch("lict", universe, True) is None
        for algo in ("cht", "persistent"):
            assert engine_mismatch(algo, universe, False) is None
        for algo in ("zkw", "cht", "persistent"):
            assert "segments" in engine_mismatch(algo, universe, True)
    assert engine_mismatch("zkw", 1, False) is None
    assert engine_mismatch("zkw", ZKW_MAX_UNIVERSE, False) is None
    why = engine_mismatch("zkw", ZKW_MAX_UNIVERSE + 1, False)
    assert "up front" in why and "--nc" in why


def test_segments_only_run_on_the_core_tree():
    wl = Workload(Domain(0, 63), [("S", 1, 0, 5, 20), ("Q", 7)], "custom", 0)
    assert run_benchmark(wl, "lict", 1).checksum
    for algo in ("cht",):
        with pytest.raises(WorkloadMismatchError):
            run_benchmark(wl, algo, 1)


def test_fold_answer_handles_absent():
    h0 = 0xCBF29CE484222325
    assert fold_answer(h0, None) != fold_answer(h0, 0)
    assert fold_answer(h0, -1) == fold_answer(h0, -1)
    assert fold_answer(h0, -1) != fold_answer(h0, 1)


def csv_rows(path):
    """The data rows of a results CSV, after checking its header."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_FIELDS
    return rows


def row(result):
    # floats are written with repr, which str equals
    return [str(getattr(result, f)) for f in CSV_FIELDS]


def test_csv_write_and_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv([], path)
    assert path.read_text().strip() == \
        "n,distribution,algo,insert_ms,query_ms,total_ms,cv,checksum"
    wl = gen_random_workload(200, 2)
    results = [run_benchmark(wl, "lict", 2), run_benchmark(wl, "cht", 2)]
    write_csv(results[:1], path)
    assert len(path.read_text().strip().splitlines()) == 2
    write_csv(results, path)
    assert len(path.read_text().strip().splitlines()) == 3
    assert csv_rows(path) == [row(r) for r in results]


def test_csv_append_writes_header_once(tmp_path):
    path = tmp_path / "rows.csv"
    wl = gen_random_workload(100, 4)
    r = run_benchmark(wl, "lict", 1)
    append_csv(r, path)
    append_csv(r, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("n,distribution")
    assert csv_rows(path) == [row(r), row(r)]
