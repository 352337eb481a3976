import hashlib
import re

import pytest

import lichao.core
from lichao import (LiChaoTree, LineContainer, PersistentForest,
                    RoutingDominanceError, ZkwTree)
from lichao.bench import ZKW_MAX_UNIVERSE, WorkloadMismatchError
from lichao.cli import main, parse_ops_file
from lichao.verify import gen_verify_ops, run_verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_replay_two_lines(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 2 0\nA -2 20\nQ 5\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "10\n"


def test_replay_three_lines(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 2 0\nA -2 20\nA 1 4\nQ 5\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "9\n"


def test_replay_empty_file(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == ""


def test_replay_query_only_prints_inf(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "Q 5\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "INF\n"


def test_replay_comments_and_blanks_ignored(tmp_path, capsys):
    path = write(tmp_path, "ops.txt",
                 "# header comment\n\nA 1 0\n   \nQ 3\n# trailing\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "3\n"


def test_replay_output_identical_across_algos(tmp_path, capsys):
    text = "A 5 -3\nQ 0\nA -5 100\nQ 10\nQ 20\nS 0 0 0 0\n"
    line_only = "".join(l + "\n" for l in text.splitlines()
                        if not l.startswith("S"))
    path = write(tmp_path, "ops.txt", line_only)
    outs = {}
    for algo in ("lict", "zkw", "cht"):
        code, out, _ = run(capsys, "replay", "--file", path,
                           "--algo", algo, "--domain", "0", "31")
        assert code == 0
        outs[algo] = out
    assert outs["lict"] == outs["zkw"] == outs["cht"]


def test_replay_checks_each_line_against_the_domain(tmp_path, capsys):
    # 2^54 * 1023 leaves int64: every algo rejects the line before a query
    path = write(tmp_path, "ops.txt", f"A {2**54} 0\nQ 1\nQ 1023\n")
    errs = set()
    for algo in ("lict", "zkw", "cht"):
        code, out, err = run(capsys, "replay", "--file", path,
                             "--algo", algo, "--domain", "0", "1023")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        errs.add(err)
    assert len(errs) == 1


def test_replay_segments(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "S 0 7 2 4\nQ 3\nQ 9\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "15")
    assert code == 0
    assert out == "7\nINF\n"


def test_replay_segments_need_the_core_tree(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "S 0 7 2 4\nQ 3\n")
    code, _, err = run(capsys, "replay", "--file", path, "--algo", "cht",
                       "--domain", "0", "15")
    assert code == 2
    assert "segments" in err


def record_zkw_builds(monkeypatch):
    """Record each ZkwTree construction in place of allocating its cells."""
    builds = []

    def record(self, lo, size):
        builds.append(size)
        raise MemoryError

    monkeypatch.setattr(ZkwTree, "__init__", record)
    return builds


def test_replay_out_of_memory_is_a_runtime_error(tmp_path, capsys,
                                                monkeypatch):
    builds = record_zkw_builds(monkeypatch)
    path = write(tmp_path, "ops.txt", "A 1 0\nQ 5\n")
    code, out, err = run(capsys, "replay", "--file", path, "--algo", "zkw",
                         "--domain", "0", "1023")
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert builds == [1024]


def test_replay_refuses_zkw_above_its_universe_cap(tmp_path, capsys,
                                                  monkeypatch):
    builds = record_zkw_builds(monkeypatch)
    path = write(tmp_path, "ops.txt", "A 1 0\nQ 5\n")
    code, out, err = run(capsys, "replay", "--file", path, "--algo", "zkw",
                         "--domain", "0", "268435455")
    assert code == 2 and out == ""
    assert "zkw" in err
    assert builds == []


def test_replay_malformed_line_reports_lineno(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 1 0\nA nope 3\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 2
    assert ":2:" in err


def test_replay_wrong_arity_rejected(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "Q 1 2\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 2
    assert ":1:" in err


def test_replay_int_outside_64bit_rejected(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", f"A {2**63} 0\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 2
    assert "64-bit" in err


def test_replay_out_of_domain_query_fails(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 1 0\nQ 9\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 1
    assert "domain" in err


def test_replay_reversed_domain_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "Q 1\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "8", "0")
    assert code == 2


def test_replay_domain_outside_int64_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 0 3\nQ 1\n")
    code, out, err = run(capsys, "replay", "--file", path,
                         "--domain", "0", str(2**70))
    assert (code, out) == (2, "")
    assert "invalid domain" in err and "int64" in err


def test_parse_ops_file_roundtrip(tmp_path):
    path = write(tmp_path, "ops.txt", "A 1 2\nS 3 4 5 6\nQ 7\n")
    assert parse_ops_file(path) == [("A", 1, 2), ("S", 3, 4, 5, 6), ("Q", 7)]


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "2000", "--c", "1024",
                       "--seed", "1")
    assert code == 0
    assert out.startswith("OK:")


def test_verify_segments_ok(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "1500", "--c", "512",
                       "--segments", "--seed", "2")
    assert code == 0


def test_verify_includes_zkw_when_universe_equals_ops(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "1024", "--c", "1024",
                       "--seed", "3")
    assert code == 0
    assert "lict+zkw" in out


def test_verify_checks_cht_on_full_lines_only(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "1024", "--c", "1024",
                       "--seed", "3")
    assert code == 0
    assert "engines lict+zkw+cht+persistent)" in out
    code, out, _ = run(capsys, "verify", "--ops", "600", "--c", "256",
                       "--segments", "--seed", "5")
    assert code == 0
    assert "engines lict)" in out


def test_verify_persistent(capsys):
    # the default run checks every engine its full-line stream allows
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "(universe 4096, seed 42, engines lict+zkw+cht+persistent)" in out


def test_verify_leaves_zkw_out_above_its_universe_cap(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "600", "--c", "1024",
                       "--seed", "4")
    assert code == 0
    assert "engines lict+zkw+cht+persistent)" in out
    code, out, _ = run(capsys, "verify", "--ops", "200", "--c",
                       str(ZKW_MAX_UNIVERSE + 1), "--seed", "4")
    assert code == 0
    assert "engines lict+cht+persistent)" in out


def test_run_verify_refuses_zkw_above_its_universe_cap(monkeypatch):
    builds = record_zkw_builds(monkeypatch)
    ops = [("A", 1, 0), ("Q", 5)]
    with pytest.raises(WorkloadMismatchError, match="zkw"):
        run_verify(ops, 2**28, include_zkw=True)
    assert builds == []


def test_verify_negative_ops_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--ops", "-1")
    assert code == 2 and out == ""
    assert "--ops" in err


@pytest.mark.parametrize("segments", [(), ("--segments",)],
                         ids=["lines", "segments"])
@pytest.mark.parametrize("c", [7 * 10**18, 75 * 10**17, 2**63])
def test_verify_runs_on_every_universe_up_to_int64(capsys, c, segments):
    # segment bounds overhang the universe by at most what int64 leaves
    code, out, err = run(capsys, "verify", "--ops", "300", "--c", str(c),
                         "--seed", "2", *segments)
    assert (code, err) == (0, "")
    assert out.startswith("OK:")


@pytest.mark.parametrize("c, digest", [
    (2**11 + 1,
     "c60b6e3fc7ccf6d91728af7f1f6c78d273d6ec1d48b129feebcf94f37d89db63"),
    (4096, "9ba904adb14628dbd2d4d1c7091625c014bb3b45085abb7c54867f4aae0a37ea"),
    (2**20,
     "1d30cc44e5baba277aaf6cd2cc753d8ef0d2abd9428a816502b8367bf51e81f8"),
])
def test_verify_streams_of_benchmark_universes_are_pinned(c, digest):
    # perfbench's universes: a generator change that moves the benchmark's
    # check streams fails here (the slope's bound is 10^9 below c = 4.6e9)
    ops = gen_verify_ops(300, c, 1, segments=True)
    assert hashlib.sha256(repr(ops).encode()).hexdigest() == digest


def test_verify_streams_on_the_64bit_universe_hold_many_lines():
    # the slope's bound is 0 at c = 2^63; the intercept's stays 10^9
    ops = gen_verify_ops(300, 2**63, 2, segments=True)
    assert len({op[1:3] for op in ops if op[0] != "Q"}) > 100
    report = run_verify(ops, 2**63)
    assert report.ok, report.failure


@pytest.mark.parametrize("c", [0, 2**63 + 1])
def test_verify_invalid_universe_is_usage_error(capsys, c):
    code, out, err = run(capsys, "verify", "--ops", "300", "--c", str(c),
                         "--seed", "2")
    assert (code, out) == (2, "")
    assert "invalid domain" in err


def test_run_verify_refuses_engines_that_cannot_take_segments():
    ops = [("S", 1, 0, 2, 5), ("Q", 3)]
    assert run_verify(ops, 8).engines == ("lict",)
    for engine in ("zkw", "cht", "persistent"):
        with pytest.raises(WorkloadMismatchError, match="segments"):
            run_verify(ops, 8, **{f"include_{engine}": True})


def plant_routing_fault(monkeypatch, after):
    """Make the routing assertion raise on its `after`-th call."""
    calls = []

    def assert_routing(self, *args):
        calls.append(args)
        if len(calls) == after:
            raise RoutingDominanceError("planted")

    monkeypatch.setattr(LiChaoTree, "_assert_routing", assert_routing)


def failing_op_index(failure):
    return int(re.search(r"op (\d+):", failure).group(1))


@pytest.mark.parametrize("segments", [False, True])
def test_verify_reports_a_routing_fault(monkeypatch, capsys, segments):
    kind = "S" if segments else "A"
    ops = [op for op in gen_verify_ops(400, 64, 1, segments=segments)
           if op[0] in (kind, "Q")]
    plant_routing_fault(monkeypatch, 30)
    report = run_verify(ops, 64)
    assert not report.ok
    assert "lict routing dominance violated" in report.failure
    idx = failing_op_index(report.failure)
    assert ops[idx][0] == kind
    assert report.failing_prefix == ops[:idx + 1]

    plant_routing_fault(monkeypatch, 30)
    code, out, err = run(capsys, "verify", "--ops", "400", "--c", "64",
                         "--seed", "1", *(["--segments"] if segments else []))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("FAIL: op ")
    assert "lict routing dominance violated" in lines[0]
    idx = failing_op_index(lines[0])
    assert lines[1] == f"failing prefix ({idx + 1} of 400 ops):"
    assert len(lines) == 2 + idx + 1


@pytest.mark.parametrize("cls,engine", [(LiChaoTree, "lict-batch"),
                                        (PersistentForest, "persistent-batch")])
def test_verify_checks_the_batch_kernel(monkeypatch, cls, engine):
    ops = gen_verify_ops(600, 256, 4)
    orig = cls._kernel

    def off_by_one(self, root, xs):
        return [None if v is None else v + 1 for v in orig(self, root, xs)]

    monkeypatch.setattr(cls, "_kernel", off_by_one)
    report = run_verify(ops, 256, include_persistent=True)
    assert not report.ok
    assert report.divergence[3] == engine
    assert report.failing_prefix == ops
    assert engine in report.failure


def test_verify_fails_a_kernel_that_declines(monkeypatch, capsys):
    # the verify query points lie in the domain, so the kernel must answer
    monkeypatch.setattr(lichao.core, "_walk_batch", lambda *args: None)
    ops = gen_verify_ops(600, 256, 4)
    report = run_verify(ops, 256, include_persistent=True)
    assert not report.ok
    assert report.failure.startswith("final state: lict-batch kernel declined")
    assert report.failing_prefix == ops
    code, out, err = run(capsys, "verify", "--ops", "2000", "--c", "512")
    assert code == 1 and out == ""
    assert "lict-batch kernel declined" in err


def test_verify_prefixes_a_bound_failure(monkeypatch, capsys):
    # the prefix ends at the op of the first violation
    orig = ZkwTree.insert_line

    def one_cell_past_a_leaf(self, line):
        # a count above the h + 1 cells of a root-to-leaf path, on every
        # insert: one added to the true count trips no bound on a stream
        # whose inserts stop above the leaf level
        orig(self, line)
        self.last_visited = self._p.bit_length() + 1

    monkeypatch.setattr(ZkwTree, "insert_line", one_cell_past_a_leaf)
    ops = gen_verify_ops(300, 64, 1)
    report = run_verify(ops, 64, include_zkw=True)
    assert not report.ok
    first = report.bound_violations[0]
    assert first[1] == "zkw-insert-visits"
    assert report.failing_prefix == ops[:first[0] + 1]
    code, out, err = run(capsys, "verify", "--ops", "300", "--c", "64",
                         "--seed", "1")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("FAIL: ")
    assert "structural bound violation" in lines[0]
    assert lines[1] == f"failing prefix ({first[0] + 1} of 300 ops):"
    assert len(lines) == 2 + first[0] + 1


def test_verify_prefixes_an_audit_failure(monkeypatch, capsys):
    # a stored line made worse than one routed through its node; the audit
    # checks the final state, so the prefix is the whole op list
    orig = LiChaoTree.audit_routed_optimality

    def worse_root(self):
        self._b[self._root] += 1
        return orig(self)

    monkeypatch.setattr(LiChaoTree, "audit_routed_optimality", worse_root)
    ops = gen_verify_ops(300, 64, 1)
    report = run_verify(ops, 64)
    assert not report.ok
    assert report.failure.startswith("midpoint-optimality audit failed")
    assert report.audit_violations > 0
    assert report.failing_prefix == ops
    code, out, err = run(capsys, "verify", "--ops", "300", "--c", "64",
                         "--seed", "1")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("FAIL: midpoint-optimality audit failed")
    assert lines[1] == "failing prefix (300 of 300 ops):"
    assert len(lines) == 2 + 300


@pytest.mark.parametrize("cls,engine", [(LiChaoTree, "lict"),
                                        (ZkwTree, "zkw"),
                                        (LineContainer, "cht"),
                                        (PersistentForest, "persistent")])
def test_verify_checks_every_engine_on_each_query(monkeypatch, cls, engine):
    orig = cls.query

    def plus_one(self, *args):
        v = orig(self, *args)
        return 1 if v is None else v + 1

    monkeypatch.setattr(cls, "query", plus_one)
    ops = gen_verify_ops(300, 64, 1)
    report = run_verify(ops, 64, include_zkw=True, include_cht=True,
                        include_persistent=True)
    assert not report.ok
    first_query = next(i for i, op in enumerate(ops) if op[0] == "Q")
    assert report.divergence[0] == first_query
    assert report.divergence[3] == engine
    assert f"{engine} answered" in report.failure
    assert report.failing_prefix == ops[:first_query + 1]


def test_verify_zero_ops_vacuously_passes(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "0")
    assert code == 0


def test_verify_at_reference_scale(capsys):
    code, _, _ = run(capsys, "verify", "--ops", "10000", "--c", "4096",
                     "--seed", "1")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--ops", "10000", "--c", "4096",
                     "--segments", "--seed", "2")
    assert code == 0


def test_verify_persistent_excludes_segments(capsys):
    code, out, _ = run(capsys, "verify", "--segments")
    assert code == 0
    assert "engines lict)" in out
    # the engines come from the stream; there is no switch for them
    code, _, err = run(capsys, "verify", "--persistent")
    assert code == 2
    assert "--persistent" in err


def test_bench_writes_summary_and_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "rows.csv")
    code, out, _ = run(capsys, "bench", "--n", "400", "--dist", "random",
                       "--algo", "lict", "--reps", "2", "--csv", csv_path)
    assert code == 0
    assert "algo=lict" in out and "checksum=" in out
    code, _, _ = run(capsys, "bench", "--n", "400", "--dist", "random",
                     "--algo", "cht", "--reps", "2", "--csv", csv_path)
    assert code == 0
    lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # one header, two rows
    # the two algos folded identical answers
    assert lines[1].rsplit(",", 1)[1] == lines[2].rsplit(",", 1)[1]


def test_bench_nc_zkw(capsys):
    code, out, _ = run(capsys, "bench", "--n", "512", "--nc", "--dist",
                       "hull", "--algo", "zkw", "--reps", "1")
    assert code == 0
    assert "algo=zkw" in out


def test_bench_zkw_without_nc_is_usage_error(capsys, monkeypatch):
    # refused before any op is generated
    def no_generation(*args, **kwargs):
        raise AssertionError("workload generated before the engine check")
    for gen in ("gen_random_workload", "gen_hull_workload"):
        monkeypatch.setattr(f"lichao.cli.{gen}", no_generation)
    for dist in ("random", "hull"):
        code, _, err = run(capsys, "bench", "--n", "1000000", "--dist", dist,
                           "--algo", "zkw")
        assert code == 2
        assert "--nc" in err


def test_bench_bad_flags(capsys):
    code, _, _ = run(capsys, "bench", "--n", "100", "--algo", "nope")
    assert code == 2
    code, _, _ = run(capsys, "bench", "--n", "1", "--algo", "lict")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
