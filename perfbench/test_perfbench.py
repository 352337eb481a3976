"""Toy-size self-test of the benchmark.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from lichao import LiChaoTree, LineContainer  # noqa: E402

TOY = 1 / 64
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_declared_metrics_match_the_tables():
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result, derived, _ = run.run(workload, 3, 0.01, trace, scale=TOY)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert derived["error_rate"] == 0


class PlusOneTree(LiChaoTree):
    def query(self, x):
        v = super().query(x)
        return None if v is None else v + 1


class PlusOneHull(LineContainer):
    def query(self, x):
        v = super().query(x)
        return None if v is None else v + 1


# lict builds the reference, so its stub is caught by the oracle sample;
# any other engine is caught by the reference
@pytest.mark.parametrize("name,make", [("lict", PlusOneTree),
                                       ("cht", lambda d: PlusOneHull())])
def test_wrong_answers_fail_the_run(monkeypatch, capsys, name, make):
    monkeypatch.setitem(run.ENGINES, name, make)
    code = run.main(["--workload", "static-hull", "--seed", "1",
                     "--seconds", "0.01"], scale=TOY)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    derived = json.loads(lines[-2])["derived"]
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert derived["error_rate"] > 0


def test_query_runs_go_to_query_many_whole(monkeypatch):
    calls = []

    class Recording(LiChaoTree):
        """A core tree with a batch query path built from its scalar one."""

        def query_many(self, xs):
            calls.append(len(xs))
            answers = [self.query(x) for x in xs]
            present = np.array([a is not None for a in answers])
            values = np.array([0 if a is None else a for a in answers],
                              dtype=np.int64)
            return values, present

    monkeypatch.setitem(run.ENGINES, "lict", lambda d: Recording(d))
    result, _, _ = run.run("static-hull", 1, 0.01, 0, scale=TOY)
    assert result["correct"]
    # static-hull has one query run, after all the inserts
    n_queries = sum(op[0] == "Q" for op in
                    run.make_streams("static-hull", 1, TOY).ops)
    assert calls and set(calls) == {n_queries}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_the_seed_sets_the_op_streams(workload):
    a = run.make_streams(workload, 1, TOY)
    b = run.make_streams(workload, 1, TOY)
    c = run.make_streams(workload, 2, TOY)
    assert a.ops == b.ops and a.checks == b.checks
    assert a.ops != c.ops
    assert [s[0] for s in a.checks] != [s[0] for s in c.checks]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "free-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
