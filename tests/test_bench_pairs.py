"""scripts/bench_pairs.py's summary, read from canned run files: pairs are
matched by run directory, a set is labelled by workload and seed, and the
pair wins, medians and parent IQR decide whether a gain shows."""

from __future__ import annotations

import json
import os
import statistics

import pytest

import bench_pairs
from stats import quartiles

PARENT = "3c70d3c27852f825d5dd270dec595513126e4d96"


def write_run(root, side, name, workload, seed, ms_per_tick, correct=True):
    metrics = {metric: {"value": 1.0, "unit": unit} for metric, unit, _, _ in bench_pairs.spec.END_TO_END}
    metrics["ms_per_tick"]["value"] = ms_per_tick
    record = {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "env": {"python": "3.11.7", "nproc": 2, "machine": "x86_64", "commit": "unknown",
                "src_sha256": f"{side}-digest"},
        "info": ["window: 20.0 s", "machine speed: mean factor 1.2500 from 80 reference-loop runs"],
        "result": {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics},
    }
    folder = os.path.join(root, side, name)
    os.makedirs(folder)
    with open(os.path.join(folder, f"{workload}-s{seed}-t0.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def write_settings(root):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "settings.json"), "w", encoding="utf-8") as handle:
        json.dump({"parent": PARENT}, handle)


def write_set(root, workload, seed, parent_values, change_values):
    for index, (before, after) in enumerate(zip(parent_values, change_values)):
        name = f"{workload}-s{seed}-{index:03d}"
        write_run(root, "parent", name, workload, seed, before)
        write_run(root, "change", name, workload, seed, after)


PARENT_MS = [0.40, 0.41, 0.39, 0.40, 0.42, 0.40, 0.41, 0.40, 0.39, 0.40]
# Faster in nine pairs, slower in the sixth.
CHANGE_MS = [0.38, 0.39, 0.37, 0.38, 0.40, 0.42, 0.38, 0.38, 0.37, 0.38]


def test_a_clear_gain_is_reported_as_one(tmp_path):
    root = str(tmp_path)
    write_settings(root)
    write_set(root, "alloc3", 0, PARENT_MS, CHANGE_MS)
    result = bench_pairs.summarize(root, 34)
    claim = result["claims"]["alloc3.ms_per_tick"]
    q1, median, q3 = quartiles(PARENT_MS)
    assert claim["pairs"] == 10 and claim["change_wins"] == 9
    assert claim["parent_median"] == median and claim["parent_iqr"] == pytest.approx(q3 - q1)
    assert claim["change_median"] == statistics.median(CHANGE_MS)
    assert claim["median_gap_exceeds_parent_iqr"] and claim["gain"]
    assert result["pr"] == 34 and result["sides"]["parent"]["commit"] == PARENT
    parent = result["sides"]["parent"]
    assert parent["src_sha256"] == "parent-digest" and parent["speed_factor_mean"] == 1.25
    summary = parent["workloads"]["alloc3"]
    assert summary["runs"] == 10 and summary["correct"]
    assert summary["metrics"]["ms_per_tick"]["median"] == median
    verdicts = result["verdicts"]["alloc3"]
    assert set(verdicts) == {name for name, *_ in bench_pairs.spec.END_TO_END}
    assert verdicts["ms_per_tick"] == "ok" and verdicts["setup_s"] == "ok"


def test_eight_wins_of_ten_show_no_gain(tmp_path):
    root = str(tmp_path)
    write_settings(root)
    write_set(root, "grid", 0, PARENT_MS, CHANGE_MS[:9] + [0.41])
    claim = bench_pairs.summarize(root, 34)["claims"]["grid.ms_per_tick"]
    assert claim["change_wins"] == 8 and claim["median_gap_exceeds_parent_iqr"]
    assert not claim["gain"]


def test_another_seed_is_its_own_set_and_a_broken_pair_is_left_out(tmp_path):
    root = str(tmp_path)
    write_settings(root)
    write_set(root, "alloc3", 0, PARENT_MS, CHANGE_MS)
    write_set(root, "alloc3", 1, PARENT_MS[:6], CHANGE_MS[:6])
    write_run(root, "parent", "alloc3-s1-006", "alloc3", 1, 0.40)
    result = bench_pairs.summarize(root, 34)
    assert list(result["claims"]) == ["alloc3.ms_per_tick", "alloc3 (--seed 1).ms_per_tick"]
    assert result["claims"]["alloc3 (--seed 1).ms_per_tick"]["pairs"] == 6
    assert result["sides"]["change"]["workloads"]["alloc3 (--seed 1)"]["runs"] == 6


def test_a_run_that_was_not_correct_is_refused(tmp_path):
    root = str(tmp_path)
    write_settings(root)
    write_set(root, "alloc3", 0, PARENT_MS[:2], CHANGE_MS[:2])
    write_run(root, "parent", "alloc3-s0-002", "alloc3", 0, 0.40)
    write_run(root, "change", "alloc3-s0-002", "alloc3", 0, 0.38, correct=False)
    with pytest.raises(bench_pairs.BenchError, match="correct: false"):
        bench_pairs.summarize(root, 34)
