"""Smoke tests of the benchmark harness: one tiny case per workload.

    python3 -m pytest -q bench

They check that the harness runs, checks and traces; they time nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run

sys.path.insert(0, str(run.SRC))

import make_corpus  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from measure import Op, Runner  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.import_library()


def _roundtrip_corpus(mods, workload, n, k):
    instances = make_corpus.roundtrip_instances(mods, workload, specs=[(n, k, 1)])
    utility = [[Fraction(v) for v in row] for row in instances[0]["utility"]]
    data = make_corpus._generated(mods, utility, (Fraction(1, n),) * n)
    make_corpus._root_out_of_range(data)
    return {workload: {"instances": instances, "probes": [{"id": "root", "data": data}]}}


RANK_CORPUS = {
    "rank-experiments": {
        "instances": [
            {
                "id": "bet",
                "utility": [["0", "0"], ["-1", "1"]],
                "prior": ["1/2", "1/2"],
                "first": [["1", "0"], ["0", "1"]],
                "second": [["1/2", "1/2"], ["1/2", "1/2"]],
                "values": ["1/2", "0"],
                "order": "better",
            }
        ],
        "probes": [
            {
                "id": "boundary-prior",
                "call": "value_of_experiment",
                "utility": [["0", "0"], ["-1", "1"]],
                "prior": ["0", "1"],
                "experiment": [["1", "0"], ["0", "1"]],
                "rejects": ["BoundaryPrior"],
            }
        ],
    }
}


def _tiny(mods, workload):
    if workload == "rank-experiments":
        return RANK_CORPUS
    n, k = (2, 3) if workload == "roundtrip-manyactions" else (4, 3)
    return _roundtrip_corpus(mods, workload, n, k)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_case_passes_its_checks(mods, workload):
    runner = Runner(workloads.build(mods, _tiny(mods, workload), workload, seed=5))
    runner.run(0)
    assert runner.passes == 1
    assert runner.failures() == {}
    assert runner.totals() == (len(runner.ops), 0, 0)
    assert runner.group_seconds("forward") > 0
    assert runner.group_seconds("backward") > 0
    assert runner.group_seconds("reject") > 0
    assert all(runner.stats[op.key].digest for op in runner.ops if op.group != "reject")


def test_wrong_committed_answer_is_caught(mods):
    corpus = json.loads(json.dumps(RANK_CORPUS))
    corpus["rank-experiments"]["instances"][0]["values"][0] = "1/3"
    runner = Runner(workloads.build(mods, corpus, "rank-experiments", seed=0))
    runner.run(0)
    assert runner.totals()[2] == 1
    assert list(runner.failures()) == ["bet/value-a"]


def test_seed_only_orders_the_round_trips(mods):
    corpus = _tiny(mods, "roundtrip-highdim")
    corpus["roundtrip-highdim"]["instances"] += make_corpus.roundtrip_instances(
        mods, "roundtrip-manyactions", specs=[(2, 3, 2)]
    )
    orders = set()
    for seed in range(6):
        ops = workloads.build(mods, corpus, "roundtrip-highdim", seed)
        keys = [op.key for op in ops]
        assert all(keys.index(op.needs) < keys.index(op.key) for op in ops if op.needs)
        orders.add(tuple(keys))
    assert len(orders) > 1 and len({frozenset(keys) for keys in orders}) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_keep_the_answers(mods, workload):
    corpus = _tiny(mods, workload)
    for seed in range(3):
        runner = Runner(workloads.build(mods, corpus, workload, seed))
        runner.run(0)
        assert runner.failures() == {}


def test_accepted_probe_counts_as_failed(mods):
    corpus = _tiny(mods, "roundtrip-manyactions")
    instance = corpus["roundtrip-manyactions"]["instances"][0]
    utility = [[Fraction(v) for v in row] for row in instance["utility"]]
    valid = make_corpus._generated(mods, utility, (Fraction(1, 2),) * 2)
    corpus["roundtrip-manyactions"]["probes"] = [{"id": "valid", "data": valid}]
    runner = Runner(workloads.build(mods, corpus, "roundtrip-manyactions", seed=0))
    runner.run(0)
    attempted, failed, incorrect = runner.totals()
    assert (failed, incorrect) == (1, 0)
    assert runner.failures() == {"valid/reject": ["accepted although it must be rejected"]}


def test_cheap_op_is_timed_in_batches():
    runner = Runner([Op(key="cheap", group="forward", call=lambda _: time.sleep(0.0002), budget=1.0)])
    runner.run(0.05)
    stats = runner.stats["cheap"]
    assert 1 < stats.batch < 10
    assert len(stats.samples) == runner.passes > 1
    assert stats.attempted == 1 + (runner.passes - 1) * stats.batch
    assert runner.totals() == (1, 0, 0) and runner.calls() == stats.attempted


def test_batched_rejections_are_each_judged():
    def refuse(_):
        raise KeyError("refused")

    runner = Runner([Op(key="probe", group="reject", call=refuse, budget=1.0, rejects=(KeyError,))])
    runner.run(0.05)
    stats = runner.stats["probe"]
    assert stats.attempted > runner.passes > 1
    assert stats.failed == 0


def test_totals_count_ops_not_calls():
    def accept(_):
        return None

    runner = Runner([Op(key="probe", group="reject", call=accept, budget=1.0, rejects=(KeyError,))])
    runner.run(0.05)
    assert runner.stats["probe"].failed > runner.passes > 1
    assert runner.totals() == (1, 1, 0)


def test_timeout_counts_its_budget_and_is_not_repeated():
    op = Op(key="slow", group="backward", call=lambda _: time.sleep(5), budget=0.05)
    runner = Runner([op])
    runner.run(0.2)
    stats = runner.stats["slow"]
    assert stats.timed_out and stats.attempted == 1 and stats.failed == 1
    assert stats.samples == [0.05]
    assert runner.group_seconds("backward") == 0.05


def test_tracer_patches_every_importer_and_restores(mods):
    tracer = Tracer(mods.package_modules)
    original = mods.geometry.facet_between
    tracer.install()
    assert mods.decision.facet_between is mods.identification.facet_between
    assert mods.decision.facet_between is not original
    tracer.remove()
    assert mods.decision.facet_between is original
    assert mods.identification.facet_between is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(mods, workload):
    runner = Runner(workloads.build(mods, _tiny(mods, workload), workload, seed=2), Tracer(mods.package_modules))
    runner.run(0)
    metrics = run.per_layer(runner, runner.tracer)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
    lp_calls = metrics["linprog.maximize.calls"]["value"]
    if workload == "rank-experiments":
        assert lp_calls == 0
        assert metrics["geometry.vertices_of.calls"]["value"] == 0
        assert metrics["geometry.hull_halfspaces.calls"]["value"] == 0
    else:
        assert lp_calls > 0
        assert metrics["geometry.hull_halfspaces.subsets"]["value"] > 0
        assert metrics["identification.statements"]["value"] > 0


def test_command_line_contract():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "rank-experiments",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    info = json.loads(done.stdout.splitlines()[-2])["info"]
    assert len(info["setup_s_samples"]) == run.SETUP_REPEATS


def test_setup_repeats_keep_the_library_the_ops_call():
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "roundtrip-manyactions",
         "--seed", "1", "--seconds", "3", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    info = json.loads(done.stdout.splitlines()[-2])["info"]
    assert info["passes"] > 1 and len(info["setup_s_samples"]) == run.SETUP_REPEATS
    # only the two reproductions of missing checks in reconstruct_value
    assert set(info["failures"]) == {"safe-or-bet-zero-gap/reject", "guess-the-state-dropped-cell/reject"}
    assert info["outputs_changed"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank-experiments",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
