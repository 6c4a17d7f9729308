"""Tests of the benchmark itself: schedules, span arithmetic, smoke runs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  The smoke runs use tiny inputs (lenet jobs, a short schedule and
a 500-layer MLP) and take a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import schedule  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

CATALOGUE = schedule.Catalogue(
    base_batches={"lenet": 256, "alexnet": 256, "vgg19": 64},
    topologies=("pcie:2", "single:8"),
    hits_per_problem=3,
    lru_capacity=8,
)


def test_schedule_repeats_for_a_seed():
    first = schedule.serve_epoch(CATALOGUE, 11)
    again = schedule.serve_epoch(CATALOGUE, 11)
    assert first.steps == again.steps
    assert first.expected == again.expected


def test_schedule_composition_is_fixed_and_seed_only_orders():
    counts = {"hit": 36, "cold": 6, "warm": 6, "coalesced": 6}
    epochs = [schedule.serve_epoch(CATALOGUE, seed) for seed in range(8)]
    for epoch in epochs:
        assert epoch.class_counts() == counts
        assert epoch.expected["requests"] == 54
        assert epoch.expected["hits"] == 36
        assert epoch.expected["warm_starts"] == 6
        assert epoch.expected["coalesced"] == 6
    assert len({tuple(e.steps) for e in epochs}) == len(epochs)
    # Some seeds push hits out to the disk tier.
    assert max(e.expected["evictions"] for e in epochs) > 4


def test_schedule_orders_searches_before_their_hits():
    for seed in range(8):
        cached = set()
        for step in schedule.serve_epoch(CATALOGUE, seed).steps:
            model, topology, batch = step.problem
            if step.kind == schedule.HIT:
                assert step.problem in cached
            elif step.kind == schedule.WARM:
                assert (model, topology, batch // 2) in cached
            assert step.coalesced == (
                step.kind != schedule.HIT and topology == "single:8")
            cached.add(step.problem)


def test_expected_stats_model_the_lru():
    a, b, c = ("a", "t", 1), ("b", "t", 1), ("c", "t", 1)
    steps = [
        schedule.Step(schedule.COLD, a, (0,)),
        schedule.Step(schedule.COLD, b, (1,)),
        schedule.Step(schedule.HIT, a, (0,)),    # memory hit: a is newest
        schedule.Step(schedule.COLD, c, (1,)),   # evicts b
        schedule.Step(schedule.HIT, b, (0,)),    # disk hit: evicts a
        schedule.Step(schedule.WARM, ("a", "t", 2), (0, 1)),  # evicts c
    ]
    stats = schedule.expected_stats(steps, lru_capacity=2)
    assert stats == {
        "requests": 7, "hits": 2, "misses": 4, "coalesced": 1,
        "searches": 4, "warm_starts": 1, "warm_fallbacks": 0,
        "evictions": 3, "errors": 0, "timeouts": 0,
    }


def test_job_order_is_seeded():
    jobs = ["a", "b", "c", "d"]
    assert schedule.job_order(jobs, 3) == schedule.job_order(jobs, 3)
    assert sorted(schedule.job_order(jobs, 3)) == jobs
    assert len({tuple(schedule.job_order(jobs, s)) for s in range(10)}) > 1


def test_layer_table_self_times_sum_to_the_root():
    recorded = [
        spans.Span("optimize", 0.0, 10.0, None, 1, key="job"),
        spans.Span("session.input", 1.0, 3.0, 0, 1),
        spans.Span("graph.build", 1.5, 2.5, 1, 1),
        spans.Span("search.dpos", 4.0, 9.0, 0, 1),
    ]
    table = spans.layer_table(recorded, "optimize")
    assert table.self_seconds["optimize"] == pytest.approx(3.0)
    assert table.self_seconds["session.input"] == pytest.approx(1.0)
    assert table.unattributed == pytest.approx(3.0)
    assert table.sum_gap == pytest.approx(0.0)
    assert table.consistent


def test_layer_table_links_submit_to_its_request_and_flags_orphans():
    recorded = [
        spans.Span("serve.request", 0.0, 4.0, None, 1, key="r1"),
        spans.Span("serve.submit", 0.5, 3.5, None, 2, parent_key="r1"),
        spans.Span("store.get", 1.0, 1.5, 1, 2),
        spans.Span("store.put", 5.0, 6.0, None, 2),
    ]
    table = spans.layer_table(recorded, "serve.request")
    assert table.self_seconds["serve.frontend"] == pytest.approx(1.0)
    assert table.self_seconds["serve.submit"] == pytest.approx(2.5)
    assert table.orphans == 1
    assert not table.consistent


def test_overlapping_children_break_the_sum_check():
    recorded = [
        spans.Span("optimize", 0.0, 2.0, None, 1),
        spans.Span("sim.step", 0.0, 1.5, 0, 1),
        spans.Span("sim.step", 0.5, 2.0, 0, 2),
    ]
    table = spans.layer_table(recorded, "optimize")
    assert table.sum_gap > spans.SUM_TOLERANCE


def run_benchmark(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def names(section):
    return [metric["name"] for metric in CONTRACT[section]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_run_emits_every_metric_and_passes_its_checks(
        workload, trace, tmp_path):
    done = run_benchmark([
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke", "--out", str(tmp_path),
    ])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(names(section))
    units = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.sum_gap"] <= spans.SUM_TOLERANCE
        root = "serve.request" if workload == "serve-mix" else "optimize"
        assert metrics[f"{root}.calls"] > 0
        traces = [p for p in os.listdir(tmp_path)
                  if p.endswith(".trace.json")]
        assert traces == [f"{workload}-seed7.trace.json"]
        validated = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        assert validated.returncode == 0, validated.stdout
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_all_workloads_print_one_object_keyed_by_workload(tmp_path):
    done = run_benchmark([
        "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke",
        "--out", str(tmp_path),
    ])
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(results) == [w["name"] for w in CONTRACT["workloads"]]
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"]
        assert set(result["metrics"]) == set(names("end_to_end"))


def test_deadline_grows_with_the_run_length():
    import run

    assert run.deadline_s(30) < 180
    assert run.deadline_s(300) > 2 * 300


def test_contract_names_and_bounds():
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in CONTRACT["workloads"]] == [
        "zoo-search", "scale-100k", "serve-mix"]
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    per_layer = names("per_layer")
    assert len(per_layer) == len(set(per_layer)) <= 128
    for layer in spans.LAYERS:
        assert f"{layer}.self_s" in per_layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(["--workload", "zoo-search", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
