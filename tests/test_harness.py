"""Harness tests: deterministic traces, replay fidelity, metric aggregation,
benchmark grids, and the command line entry points."""

from __future__ import annotations

import copy
import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from stubserver import approve_candidates
from homecrew.errors import ConfigError, ContractViolation
from homecrew.harness.benchmark import (
    BenchmarkSpec,
    cell_configs,
    run_benchmark,
    trace_filename,
    variant_flags,
)
from homecrew.harness.cli import main, parse_backend, parse_seeds
from homecrew.harness.config import EpisodeConfig, RemoteConfig
from homecrew.harness.episode import config_from_header, replay_trace, run_episode
from homecrew.harness.metrics import (
    VARIANT_ORDER,
    aggregate,
    compute_ei,
    efficiency_fraction,
    format_table,
    metrics_json,
    read_long_csv,
)
from homecrew.harness.trace import (
    action_stream,
    end_of,
    header_of,
    load_trace,
    render_trace,
    trace_sha256,
    write_trace,
)
from homecrew.world import task_categories


def episode_config(**overrides) -> EpisodeConfig:
    base = dict(task="WashDishes", num_agents=2, seed=3, max_steps=60)
    base.update(overrides)
    return EpisodeConfig(**base)


def first(records, record_type) -> dict:
    return next(r for r in records if r["type"] == record_type)


def row(task, variant, num_agents, seed, success, steps) -> dict:
    return {
        "task": task,
        "variant": variant,
        "num_agents": num_agents,
        "seed": seed,
        "success": success,
        "steps": steps,
        "satisfied": 2,
        "total": 2,
        "summaries": 0,
        "degraded_exchanges": 0,
    }


class TestTraceDeterminism:
    def test_same_config_yields_identical_bytes(self):
        first = run_episode(episode_config())
        second = run_episode(episode_config())
        assert render_trace(list(first.records)) == render_trace(list(second.records))
        assert trace_sha256(list(first.records)) == trace_sha256(list(second.records))

    def test_seed_reaches_the_trace(self):
        first = run_episode(episode_config(seed=0))
        second = run_episode(episode_config(seed=1))
        assert trace_sha256(list(first.records)) != trace_sha256(list(second.records))

    def test_records_carry_no_wall_clock(self):
        forbidden = {"time", "timestamp", "latency", "latency_ms", "duration",
                     "duration_s", "elapsed", "wall_clock"}
        result = run_episode(episode_config())
        for record in result.records:
            assert not forbidden & set(record)

    def test_write_load_round_trip(self, tmp_path):
        result = run_episode(episode_config())
        path = str(tmp_path / "episode.jsonl")
        write_trace(list(result.records), path)
        assert load_trace(path) == list(result.records)

    def test_header_requires_header_record(self):
        with pytest.raises(ContractViolation):
            header_of([{"type": "tick"}])

    def test_end_requires_end_record(self):
        with pytest.raises(ContractViolation):
            end_of([{"type": "header"}])


class TestEfficiencyImprovement:
    def test_two_agent_anchor(self):
        assert compute_ei(106.1, 34.4) == 68

    def test_three_agent_anchor(self):
        assert compute_ei(106.1, 82.7) == 22

    def test_equal_means_no_improvement(self):
        assert compute_ei(12.0, 12.0) == 0

    def test_regression_is_negative(self):
        assert compute_ei(10.0, 15.0) < 0

    def test_nonpositive_measures_guarded(self):
        assert efficiency_fraction(0.0, 0.0) == 0.0
        assert efficiency_fraction(-3.0, -5.0) == 0.0
        assert compute_ei(0.0, 0.0) == 0

    def test_antisymmetric_over_random_pairs(self):
        rng = random.Random(20260819)
        for _ in range(200):
            a = rng.uniform(1.0, 120.0)
            b = rng.uniform(1.0, 120.0)
            assert compute_ei(a, b) == -compute_ei(b, a)

    def test_fraction_stays_below_one(self):
        rng = random.Random(7)
        for _ in range(200):
            second = rng.uniform(0.5, 60.0)
            first = second + rng.uniform(0.0, 60.0)
            fraction = efficiency_fraction(first, second)
            assert 0.0 <= fraction < 1.0


class TestAggregate:
    def hand_rows(self):
        return [
            row("WashDishes", "full", 1, 0, True, 10),
            row("WashDishes", "full", 1, 1, False, 12),
            row("WashDishes", "full", 2, 0, True, 5),
            row("WashDishes", "full", 2, 1, True, 7),
            row("WashDishes", "no_allocation", 2, 0, True, 9),
            row("WashDishes", "no_allocation", 2, 1, True, 13),
            row("PrepareTea", "no_summary", 2, 0, True, 8),
        ]

    def test_cells_match_hand_computation(self):
        cells = {(c.task, c.variant, c.num_agents): c for c in aggregate(self.hand_rows())}
        baseline = cells[("WashDishes", "full", 1)]
        assert baseline.episodes == 2
        assert baseline.successes == 1
        assert baseline.mean_steps == pytest.approx(11.0)
        assert baseline.success_rate == pytest.approx(0.5)
        assert baseline.ei_vs_single == 0
        pair = cells[("WashDishes", "full", 2)]
        assert pair.mean_steps == pytest.approx(6.0)
        # round(100 * (11 - 6) / 11) = round(45.45...)
        assert pair.ei_vs_single == 45
        assert cells[("WashDishes", "no_allocation", 2)].ei_vs_single == 0

    def test_missing_baseline_omits_ei(self):
        cells = aggregate(self.hand_rows())
        tea = next(c for c in cells if c.task == "PrepareTea")
        assert tea.ei_vs_single is None

    def test_cells_ordered_by_task_variant_agents(self):
        cells = aggregate(self.hand_rows())
        keys = [(c.task, c.variant, c.num_agents) for c in cells]
        assert keys == [
            ("PrepareTea", "no_summary", 2),
            ("WashDishes", "full", 1),
            ("WashDishes", "full", 2),
            ("WashDishes", "no_allocation", 2),
        ]

    def test_string_success_values_count(self):
        rows = [row("WashDishes", "full", 1, 0, "True", 10),
                row("WashDishes", "full", 1, 1, "False", 10)]
        cell = aggregate(rows)[0]
        assert cell.successes == 1

    def test_table_shows_dash_for_missing_ei(self):
        table = format_table(aggregate(self.hand_rows()))
        tea_line = next(line for line in table.splitlines() if "PrepareTea" in line)
        assert tea_line.rstrip().endswith("-")


class TestBenchmark:
    def small_spec(self, **overrides):
        base = dict(
            base=episode_config(),
            tasks=("WashDishes",),
            agent_counts=(1, 2),
            seeds=(0, 1),
            variants=("full", "no_allocation"),
        )
        base.update(overrides)
        return BenchmarkSpec(**base)

    def test_variant_flags(self):
        assert variant_flags("full") == (True, True)
        assert variant_flags("no_summary") == (True, False)
        assert variant_flags("no_allocation") == (False, True)
        assert variant_flags("no_allocation+no_summary") == (False, False)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            self.small_spec(variants=("full", "bogus"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            self.small_spec(seeds=())

    def test_cell_order_ignores_spec_order(self):
        shuffled = self.small_spec(
            tasks=("WashDishes", "PrepareTea"),
            agent_counts=(2, 1),
            seeds=(1, 0),
            variants=("no_allocation", "full"),
        )
        keys = [
            (c.task, c.variant, c.num_agents, c.seed)
            for c in cell_configs(shuffled)
        ]
        assert keys == sorted(
            keys, key=lambda k: (k[0], VARIANT_ORDER.index(k[1]), k[2], k[3])
        )
        assert len(keys) == len(set(keys)) == 16

    def test_duplicate_dimensions_collapse(self):
        spec = self.small_spec(seeds=(0, 0, 1), agent_counts=(2, 2))
        assert len(cell_configs(spec)) == 2 * 1 * 2

    def test_shuffled_spec_reproduces_rows_and_traces(self):
        sorted_run = run_benchmark(self.small_spec())
        shuffled_run = run_benchmark(
            self.small_spec(
                agent_counts=(2, 1),
                seeds=(1, 0),
                variants=("no_allocation", "full"),
            )
        )
        assert shuffled_run.rows == sorted_run.rows
        assert shuffled_run.cells == sorted_run.cells
        for left, right in zip(sorted_run.results, shuffled_run.results):
            assert render_trace(list(left.records)) == render_trace(list(right.records))

    def test_output_files_round_trip(self, tmp_path):
        out_dir = str(tmp_path / "bench")
        outcome = run_benchmark(self.small_spec(), out_dir=out_dir)
        for name in ("long.csv", "metrics.csv", "metrics.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        for result in outcome.results:
            trace_path = os.path.join(out_dir, "traces", trace_filename(result))
            assert load_trace(trace_path) == list(result.records)
        rows_back = read_long_csv(os.path.join(out_dir, "long.csv"))
        assert tuple(aggregate(rows_back)) == outcome.cells
        with open(os.path.join(out_dir, "metrics.json")) as handle:
            payload = json.load(handle)
        assert payload == [cell.as_dict() for cell in outcome.cells]

    def test_metrics_json_is_stable_text(self):
        outcome = run_benchmark(self.small_spec(seeds=(0,), agent_counts=(1,)))
        assert metrics_json(outcome.cells) == metrics_json(list(outcome.cells))


class TestReplay:
    def test_heuristic_trace_replays_clean(self):
        result = run_episode(episode_config())
        replayed, ok, message = replay_trace(list(result.records))
        assert ok, message
        assert message == ""
        assert replayed.steps == result.steps
        assert replayed.success == result.success

    def test_tampered_action_is_caught(self):
        result = run_episode(episode_config())
        records = copy.deepcopy(list(result.records))
        tick = next(r for r in records if r["type"] == "tick" and r["actions"])
        agent = sorted(tick["actions"])[0]
        tick["actions"][agent] = "NOOP"
        _, ok, message = replay_trace(records)
        assert not ok
        assert "action stream diverged" in message

    def test_tampered_step_count_is_caught(self):
        result = run_episode(episode_config())
        records = copy.deepcopy(list(result.records))
        end_of(records)["steps"] += 1
        _, ok, message = replay_trace(records)
        assert not ok
        assert "steps diverged" in message

    def test_config_round_trips_through_header(self):
        config = episode_config(use_summaries=False)
        result = run_episode(config)
        assert config_from_header(header_of(list(result.records))) == config

    def test_variant_flags_rebuilt_from_header(self):
        config = episode_config(use_allocation=False, use_summaries=False)
        result = run_episode(config)
        rebuilt = config_from_header(header_of(list(result.records)))
        assert rebuilt.use_allocation is False
        assert rebuilt.use_summaries is False
        assert rebuilt.variant == "no_allocation+no_summary"


def _valid_count(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


class TestConfigBounds:
    @settings(max_examples=300, deadline=None)
    @given(
        parse_retries=st.one_of(st.integers(-4, 4), st.booleans()),
        timeout_s=st.one_of(
            st.floats(), st.integers(-4, 4), st.booleans(), st.just("5"), st.none()
        ),
        transport_retries=st.one_of(st.integers(-4, 4), st.just(1.0)),
        max_concurrency=st.integers(-4, 8),
    )
    def test_bad_numbers_rejected_at_construction(
        self, parse_retries, timeout_s, transport_retries, max_concurrency
    ):
        timeout_ok = (
            isinstance(timeout_s, (int, float))
            and not isinstance(timeout_s, bool)
            and 0 < timeout_s < math.inf
        )
        valid = (
            _valid_count(parse_retries, 0)
            and timeout_ok
            and _valid_count(transport_retries, 0)
            and _valid_count(max_concurrency, 1)
        )
        try:
            episode_config(
                parse_retries=parse_retries,
                remote=RemoteConfig(
                    timeout_s=timeout_s,
                    transport_retries=transport_retries,
                    max_concurrency=max_concurrency,
                ),
            )
        except ConfigError:
            assert not valid
        else:
            assert valid

    @pytest.mark.parametrize(
        "flags",
        [
            ["--parse-retries", "-1"],
            ["--timeout", "-5"],
            ["--timeout", "0"],
            ["--timeout", "nan"],
        ],
    )
    def test_cli_rejects_bad_numbers(self, flags, capsys):
        assert main(["run", "--task", "WashDishes", *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "values", [{"timeout": None}, {"timeout": [5]}, {"parse-retries": -1}]
    )
    def test_config_file_values_are_checked_too(self, values, tmp_path, capsys):
        # argparse converts only string defaults, so these reach the config.
        config_path = str(tmp_path / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump(values, handle)
        assert main(["run", "--task", "WashDishes", "--config", config_path]) == 2
        assert capsys.readouterr().err.startswith("error:")


    @settings(max_examples=60, deadline=None)
    @given(
        values=st.fixed_dictionaries(
            {},
            optional={
                key: st.one_of(
                    st.integers(-2, 12),
                    st.booleans(),
                    st.none(),
                    st.floats(allow_nan=False),
                    st.lists(st.integers(0, 3), max_size=2),
                )
                for key in ("max-steps", "seed", "agents")
            },
        )
    )
    def test_config_file_counts_are_checked(self, values, tmp_path_factory):
        valid = (
            _valid_count(values.get("max-steps", 1), 1)
            and _valid_count(values.get("seed", 0), -2)
            and _valid_count(values.get("agents", 1), 1)
            and values.get("agents", 1) <= 3
        )
        config_path = str(tmp_path_factory.mktemp("cfg") / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump({"max-steps": 8, **values}, handle)
        code = main(["run", "--task", "WashDishes", "--config", config_path])
        assert code == (0 if valid else 2)


class TestCliParsing:
    def test_backend_shorthand(self):
        assert parse_backend("heuristic") == ("heuristic", "heuristic")
        assert parse_backend("manager=remote,members=heuristic") == (
            "remote",
            "heuristic",
        )
        assert parse_backend("member=scripted") == ("heuristic", "scripted")

    def test_seed_count_and_list(self):
        assert parse_seeds("3") == (0, 1, 2)
        assert parse_seeds("0,2,5") == (0, 2, 5)
        assert parse_seeds("7,") == (7,)

    def test_task_catalog_is_sorted(self):
        names = task_categories()
        assert names == sorted(names)
        assert "WashDishes" in names


class TestCliCommands:
    def run_argv(self, tmp_path, *extra):
        out = str(tmp_path / "run.jsonl")
        argv = ["run", "--task", "WashDishes", "--agents", "2", "--seed", "3",
                "--max-steps", "60", "--out", out, *extra]
        return argv, out

    def test_run_writes_trace_and_reports_digest(self, tmp_path, capsys):
        argv, out = self.run_argv(tmp_path)
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "success=True" in stdout
        assert f"trace written to {out}" in stdout
        digest = stdout.split("sha256=")[1].split()[0]
        assert digest == trace_sha256(load_trace(out))

    def test_replay_command_passes_on_good_trace(self, tmp_path, capsys):
        argv, out = self.run_argv(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["replay", "--trace", out]) == 0
        assert capsys.readouterr().out.startswith("replay PASS")

    def test_replay_command_fails_on_tampered_trace(self, tmp_path, capsys):
        argv, out = self.run_argv(tmp_path)
        main(argv)
        records = load_trace(out)
        end_of(records)["steps"] += 2
        write_trace(records, out)
        capsys.readouterr()
        assert main(["replay", "--trace", out]) == 1
        assert "replay FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "damage",
        [
            lambda records: records[0].pop("variant"),
            lambda records: records[0].pop("format"),
            lambda records: records[0].update(format=99),
            lambda records: records[0].update(variant="sideways"),
            lambda records: records[0].update(variant=3),
            lambda records: records[0].update(num_agents="2"),
            lambda records: records[0].update(max_steps=None),
            lambda records: records[-1].pop("steps"),
            lambda records: records[-1].update(success="yes"),
            lambda records: records[0].update(template="template_v999"),
            lambda records: records[-1].update(steps=True),
        ],
    )
    def test_replay_refuses_a_bad_header_or_end(self, tmp_path, capsys, damage):
        argv, out = self.run_argv(tmp_path)
        main(argv)
        records = load_trace(out)
        damage(records)
        write_trace(records, out)
        capsys.readouterr()
        assert main(["replay", "--trace", out]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda records: first(records, "tick").pop("actions"),
            lambda records: first(records, "tick").update(tick="1"),
            lambda records: first(records, "tick").update(tick=True),
            lambda records: first(records, "tick").update(actions={"1": 3}),
            lambda records: first(records, "tick").update(actions=["WAIT"]),
            lambda records: first(records, "exchange").pop("kind"),
            lambda records: first(records, "exchange").update(kind="DAYDREAM"),
            lambda records: first(records, "exchange").update(tick="0"),
            lambda records: first(records, "exchange").update(agent_id=True),
            lambda records: first(records, "exchange").update(response=5),
            lambda records: first(records, "exchange").pop("response"),
        ],
        ids=[
            "tick-without-actions",
            "tick-str-tick",
            "tick-bool-tick",
            "tick-int-action",
            "tick-list-actions",
            "exchange-without-kind",
            "exchange-unknown-kind",
            "exchange-str-tick",
            "exchange-bool-agent",
            "exchange-int-response",
            "exchange-without-response",
        ],
    )
    def test_replay_refuses_a_malformed_tick_or_exchange(
        self, tmp_path, capsys, stub, damage
    ):
        stub.policy = approve_candidates
        argv, out = self.run_argv(
            tmp_path,
            "--backend", "manager=remote,members=heuristic",
            "--endpoint-url", stub.url, "--model", "m",
        )
        assert main(argv) == 0
        records = load_trace(out)
        damage(records)
        write_trace(records, out)
        capsys.readouterr()
        assert main(["replay", "--trace", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace record ") and "malformed" in err

    @pytest.mark.parametrize("text", ["", "{not json\n", "[1, 2]\n"])
    def test_replay_refuses_an_unreadable_trace(self, tmp_path, capsys, text):
        out = str(tmp_path / "bad.jsonl")
        with open(out, "w") as handle:
            handle.write(text)
        assert main(["replay", "--trace", out]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bench_and_report_agree(self, tmp_path, capsys):
        out_dir = str(tmp_path / "bench")
        argv = ["bench", "--tasks", "WashDishes", "--agents", "1,2",
                "--seeds", "2", "--variants", "full,no_allocation",
                "--max-steps", "60", "--out", out_dir]
        assert main(argv) == 0
        bench_out = capsys.readouterr().out
        assert "mean steps" in bench_out
        assert len(read_long_csv(os.path.join(out_dir, "long.csv"))) == 8
        assert main(["report", "--dir", out_dir]) == 0
        report_out = capsys.readouterr().out
        assert report_out.strip()
        assert report_out.strip() in bench_out

    def test_config_file_sets_defaults(self, tmp_path, capsys):
        config_path = str(tmp_path / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump({"seed": 9, "max-steps": 44}, handle)
        out = str(tmp_path / "cfg.jsonl")
        assert main(["run", "--task", "WashDishes", "--config", config_path,
                     "--out", out]) == 0
        assert " seed=9 " in capsys.readouterr().out
        assert header_of(load_trace(out))["max_steps"] == 44

    def test_explicit_flag_beats_config_file(self, tmp_path, capsys):
        config_path = str(tmp_path / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump({"seed": 9}, handle)
        assert main(["run", "--task", "WashDishes", "--seed", "2",
                     "--config", config_path]) == 0
        assert " seed=2 " in capsys.readouterr().out

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        config_path = str(tmp_path / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump({"bogus": 1}, handle)
        assert main(["run", "--task", "WashDishes", "--config", config_path]) == 2
        assert "unknown option 'bogus'" in capsys.readouterr().err

    def test_unknown_template_is_an_error(self, capsys):
        assert main(["run", "--task", "WashDishes", "--template", "nope"]) == 2
        assert "unknown prompt template: nope" in capsys.readouterr().err

    def test_unknown_backend_is_an_error(self, capsys):
        assert main(["run", "--task", "WashDishes", "--backend", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")
