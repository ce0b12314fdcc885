"""Harness tests: deterministic traces, replay fidelity, metric aggregation,
benchmark grids, and the command line entry points."""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import os
import random
import re
import string
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from stubserver import approve_candidates
import update_goldens
from update_goldens import format_allocation
import homecrew
from homecrew.agents.execution import MacroTask
from homecrew.coordination.allocate import heuristic_allocation
from homecrew.coordination.negotiate import heuristic_proposal
from homecrew.coordination.types import Proposal
from homecrew.errors import NOTE_LIMIT, ConfigError, ContractViolation, RemoteBackendError
from homecrew.harness.benchmark import cell_configs, run_benchmark
from homecrew.harness.cli import (
    MAX_SEEDS,
    build_parser,
    main,
    parse_backend,
    parse_int_list,
    parse_seeds,
)
from homecrew.harness.config import (
    BACKENDS,
    MAX_AGENTS,
    MAX_TIMEOUT_S,
    VARIANTS,
    EpisodeConfig,
    RemoteConfig,
    build_reasoner,
    variant_flags,
)
from homecrew.harness import benchmark, episode
from homecrew.harness.episode import EpisodeResult, replay_trace, run_episode
from homecrew.harness.metrics import (
    aggregate,
    compute_ei,
    efficiency_fraction,
    format_table,
    metrics_json,
    read_long_csv,
)
from homecrew.harness.trace import (
    HEADER_FIELDS,
    LONG_FIELDS,
    check_trace,
    header_record,
    load_trace,
    render_trace,
    trace_sha256,
    write_trace,
)
from homecrew.reasoner import prompts
from homecrew.reasoner.base import (
    ALLOCATE,
    PARSE_RETRIES,
    PROPOSE,
    STRUCTURED,
    SUMMARIZE,
    TEXT,
    Reasoner,
)
from homecrew.reasoner.heuristic import HeuristicReasoner
from homecrew.reasoner.prompts import render_prompt
from homecrew.reasoner.scripted import load_fixtures
from homecrew.summaries import template_digest
from homecrew.world.engine import evaluate_progress, transition
from homecrew.world.scenarios import init_world, task_categories
from homecrew.world.types import ON

SRC = os.path.dirname(os.path.dirname(os.path.abspath(homecrew.__file__)))


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
            check_trace([{"type": "tick"}])

    @settings(max_examples=200, deadline=None)
    @given(
        config=st.builds(
            EpisodeConfig,
            task=st.sampled_from(task_categories()),
            num_agents=st.integers(1, MAX_AGENTS),
            seed=st.integers(),
            manager_backend=st.sampled_from(BACKENDS),
            member_backend=st.sampled_from(BACKENDS),
            use_allocation=st.booleans(),
            use_summaries=st.booleans(),
            max_steps=st.integers(min_value=1),
        )
    )
    def test_header_round_trips(self, config):
        # The header a run writes, as a replay reads it back from disk.
        header = header_record(config, config.manager_backend, config.member_backend)
        end = {"type": "end", "steps": 0, "success": False}
        lines = render_trace([header, end]).splitlines()
        assert check_trace([json.loads(line) for line in lines])[0] == config
        assert sorted(set(header) - {"type"}) == sorted(HEADER_FIELDS)

    def test_end_requires_end_record(self):
        records = list(run_episode(episode_config()).records)
        with pytest.raises(ContractViolation, match="end record"):
            check_trace(records[:-1])


class ProposeRecorder(Reasoner):
    """A member backend that keeps every PROPOSE request. As a text backend
    it answers nothing usable, so each member falls back to its sweep."""

    name = "recorder"

    def __init__(self, produces: str):
        self.produces = produces
        self.requests = []

    def invoke(self, request):
        self.requests.append(request)
        if self.produces == TEXT:
            return ""
        return HeuristicReasoner().invoke(request)


class TestHistoryWindow:
    def test_every_member_gets_the_history_window(self):
        # A view's window holds the ticks after the last summary ending at or
        # before its tick: none on the tick that writes a summary.
        for use_summaries, produces in itertools.product((False, True), (STRUCTURED, TEXT)):
            config = episode_config(max_steps=8, use_summaries=use_summaries)
            member = ProposeRecorder(produces)
            result = run_episode(config, HeuristicReasoner(), member)
            ends = [r["interval"][1] for r in result.records if r["type"] == "summary"]
            if use_summaries and produces == STRUCTURED:
                assert ends and ends[0] < config.max_steps
            later = [r for r in member.requests if r.structured_payload.tick >= 2]
            assert later
            for request in later:
                view = request.structured_payload
                start = max([end for end in ends if end <= view.tick], default=0)
                ticks = [rec.tick for rec in view.history_window]
                assert ticks == sorted(ticks)
                assert set(ticks) == set(range(start + 1, view.tick + 1))
                if produces == TEXT and ticks:
                    assert f"t={start + 1} agent {request.agent_id}: " in request.rendered_prompt

    def test_a_text_decision_renders_its_prompt_once(self, monkeypatch):
        rendered = []

        def counting(kind, inputs):
            rendered.append(kind)
            return render_prompt(kind, inputs)

        monkeypatch.setattr(prompts, "render_prompt", counting)
        config = episode_config(max_steps=6, use_summaries=False)
        structured = ProposeRecorder(STRUCTURED)
        run_episode(config, HeuristicReasoner(), structured)
        assert structured.requests and rendered == []
        assert {request.rendered_prompt for request in structured.requests} == {""}

        text = ProposeRecorder(TEXT)
        run_episode(config, HeuristicReasoner(), text)
        sent = {}
        for request in text.requests:
            sent.setdefault((request.tick, request.agent_id), []).append(request.rendered_prompt)
        assert rendered == [PROPOSE] * len(sent)
        for key, asked in sent.items():
            assert len(asked) == 1 + PARSE_RETRIES, key
            assert len(set(asked)) == 1 and asked[0], key


class Undoer(Reasoner):
    """A member that proposes as the heuristic does until it believes a goal
    object sits at its target, then proposes to carry that object to another
    surface, so that a grab takes a satisfied unit back off the goal."""

    name = "undoer"
    produces = STRUCTURED

    def invoke(self, request):
        view = request.structured_payload
        if request.kind == PROPOSE:
            for object_id, fact in sorted(view.belief.facts.items()):
                for _, target in view.goal.targets.get(fact.object_class, ()):
                    if fact.location == target:
                        elsewhere = min(set(view.house.surfaces) - {target.ref})
                        task = MacroTask.fetch(fact.object_class, ON, elsewhere, object_id)
                        return Proposal(view.agent_id, task, "undo")
        return HeuristicReasoner().invoke(request)


class TestTickProgress:
    def test_each_tick_record_counts_the_world_it_closes_on(self, monkeypatch):
        # The loop recomputes ground-truth progress only after a tick that
        # moves an object. A grab off a goal target is one: the count falls.
        states = []

        def recording_transition(state, joint):
            after, events = transition(state, joint)
            states.append(after)
            return after, events

        monkeypatch.setattr(episode, "transition", recording_transition)
        config = episode_config(num_agents=1, use_allocation=False, max_steps=40)
        result = run_episode(config, HeuristicReasoner(), Undoer())
        _, goal = init_world(config.task, config.num_agents, config.seed)
        satisfied = [r["satisfied"] for r in result.records if r["type"] == "tick"]
        assert satisfied == [evaluate_progress(state, goal).satisfied for state in states]
        assert any(now < before for before, now in zip(satisfied, satisfied[1:]))


# Functions perfbench's tracer wraps on the heuristic path: (module, attribute).
HOT_HOOKS = (
    ("homecrew.coordination.negotiate", "heuristic_proposal"),
    ("homecrew.coordination.allocate", "heuristic_allocation"),
    ("homecrew.summaries", "template_digest"),
    ("homecrew.world.engine", "observe"),
)


class TestHookVisibility:
    def test_functions_patched_after_warm_up_are_still_called(self, monkeypatch):
        # A tracer patches module attributes once the program is loaded and
        # warm, so the hot path must look these up through their modules and
        # never keep a function object of its own. A reasoner built before
        # the patch must see it as well as one built after.
        config = episode_config(task="PrepareAMeal", num_agents=3, seed=2)
        run_episode(config)
        prebuilt = HeuristicReasoner()
        calls = {}
        for module_name, attr in HOT_HOOKS:
            original = getattr(sys.modules[module_name], attr)

            def counting(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _original(*args, **kwargs)

            # Patch every module that imported the name, as the tracer does.
            for name, module in list(sys.modules.items()):
                if name.partition(".")[0] == "homecrew" and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counting)
        for reasoner in (prebuilt, None):
            calls.clear()
            run_episode(config, reasoner, reasoner)
            assert sorted(calls) == sorted(attr for _, attr in HOT_HOOKS), calls


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

    def test_table_shows_dash_for_missing_ei(self):
        table = format_table(aggregate(self.hand_rows()))
        tea_line = next(line for line in table.splitlines() if "PrepareTea" in line)
        assert tea_line.rstrip().endswith("-")


class TestBenchmark:
    def small_grid(self, **overrides):
        base = dict(
            base=episode_config(),
            tasks=("WashDishes",),
            agent_counts=(1, 2),
            seeds=(0, 1),
            variants=("full", "no_allocation"),
        )
        base.update(overrides)
        return cell_configs(**base)

    def test_variant_flags(self):
        assert variant_flags("full") == (True, True)
        assert variant_flags("no_summary") == (True, False)
        assert variant_flags("no_allocation") == (False, True)
        assert variant_flags("no_allocation+no_summary") == (False, False)
        for variant in VARIANTS:
            use_allocation, use_summaries = variant_flags(variant)
            config = episode_config(use_allocation=use_allocation, use_summaries=use_summaries)
            assert config.variant == variant
        for bad in ("bogus", 3, "no_summary+no_allocation"):
            with pytest.raises(ConfigError):
                variant_flags(bad)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            self.small_grid(variants=("full", "bogus"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            self.small_grid(seeds=())

    def test_cell_order_ignores_spec_order(self):
        shuffled = self.small_grid(
            tasks=("WashDishes", "PrepareTea"),
            agent_counts=(2, 1),
            seeds=(1, 0),
            variants=("no_allocation", "full"),
        )
        keys = [(c.task, c.variant, c.num_agents, c.seed) for c in shuffled]
        assert keys == sorted(
            keys, key=lambda k: (k[0], list(VARIANTS).index(k[1]), k[2], k[3])
        )
        assert len(keys) == len(set(keys)) == 16

    def test_duplicate_dimensions_collapse(self):
        assert len(self.small_grid(seeds=(0, 0, 1), agent_counts=(2, 2))) == 2 * 1 * 2

    def test_shuffled_spec_reproduces_rows_and_traces(self, tmp_path):
        sorted_dir, shuffled_dir = tmp_path / "sorted", tmp_path / "shuffled"
        sorted_cells = run_benchmark(self.small_grid(), out_dir=str(sorted_dir))
        shuffled_cells = run_benchmark(
            self.small_grid(
                agent_counts=(2, 1),
                seeds=(1, 0),
                variants=("no_allocation", "full"),
            ),
            out_dir=str(shuffled_dir),
        )
        assert shuffled_cells == sorted_cells
        names = ["long.csv", "metrics.csv", "metrics.json"]
        names += sorted(f"traces/{name}" for name in os.listdir(sorted_dir / "traces"))
        assert len(names) == 3 + 8
        assert sorted(os.listdir(shuffled_dir / "traces")) == sorted(
            os.listdir(sorted_dir / "traces")
        )
        for name in names:
            assert (shuffled_dir / name).read_bytes() == (sorted_dir / name).read_bytes(), name

    def test_output_files_round_trip(self, tmp_path):
        out_dir = str(tmp_path / "bench")
        configs = self.small_grid()
        cells = run_benchmark(configs, out_dir=out_dir)
        for name in ("long.csv", "metrics.csv", "metrics.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        rows_back = read_long_csv(os.path.join(out_dir, "long.csv"))
        assert len(configs) == len(rows_back)
        for config, row in zip(configs, rows_back):
            trace = load_trace(os.path.join(out_dir, "traces", f"{config.key}.jsonl"))
            assert trace == list(run_episode(config).records)
            header, end = trace[0], trace[-1]
            fields = [header[name] for name in ("task", "variant", "num_agents", "seed")]
            fields += [
                end[name]
                for name in ("success", "steps", "satisfied", "total", "summaries",
                             "degraded_exchanges")
            ]
            assert [str(row[name]) for name in LONG_FIELDS] == [str(v) for v in fields]
        assert tuple(aggregate(rows_back)) == cells
        with open(os.path.join(out_dir, "metrics.json")) as handle:
            payload = json.load(handle)
        assert payload == [cell.as_dict() for cell in cells]

    def test_metrics_json_is_stable_text(self):
        cells = run_benchmark(self.small_grid(seeds=(0,), agent_counts=(1,)))
        assert metrics_json(cells) == metrics_json(list(cells))

    def test_failed_grid_leaves_the_finished_traces_and_no_metric_files(self, tmp_path):
        configs = self.small_grid()
        finished = []

        def third_episode_fails(config):
            if len(finished) == 2:
                raise RemoteBackendError("the third episode failed")
            finished.append((config, run_episode(config)))
            return finished[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homecrew.harness.benchmark.run_episode", third_episode_fails)
            with pytest.raises(RemoteBackendError):
                run_benchmark(configs, out_dir=str(tmp_path))
        assert [config for config, _ in finished] == configs[:2]
        assert os.listdir(tmp_path) == ["traces"]
        assert sorted(os.listdir(tmp_path / "traces")) == sorted(
            f"{config.key}.jsonl" for config in configs[:2]
        )
        for config, result in finished:
            text = (tmp_path / "traces" / f"{config.key}.jsonl").read_text()
            assert text == render_trace(list(result.records))

    @pytest.mark.parametrize("to_disk", [False, True], ids=["rows-only", "out-dir"])
    def test_a_grid_holds_at_most_one_finished_episode(self, tmp_path, to_disk):
        finished = []

        def tracked_episode(config):
            alive = sum(ref() is not None for ref in finished)
            assert alive <= 1, f"{alive} finished episodes alive at episode {len(finished)}"
            result = run_episode(config)
            finished.append(weakref.ref(result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homecrew.harness.benchmark.run_episode", tracked_episode)
            cells = run_benchmark(self.small_grid(), out_dir=str(tmp_path) if to_disk else None)
        assert len(finished) == 8 and sum(cell.episodes for cell in cells) == 8


class FlakyManager(Reasoner):
    """A text manager that answers as the heuristic would, except that the
    allocation at tick 1 fails in transport."""

    name = "remote"
    produces = TEXT
    ERROR = "HTTP 503 after 3 attempt(s) to http://127.0.0.1:9/v1"

    def invoke(self, request):
        payload = request.structured_payload
        if request.kind == SUMMARIZE:
            return template_digest(payload.records, payload.delta)
        if request.tick == 1:
            raise RemoteBackendError(self.ERROR)
        return format_allocation(heuristic_allocation(payload))


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
        number = records.index(tick) + 1
        assert message == f"record {number} (tick) diverged at 'actions'"

    def test_tampered_step_count_is_caught(self):
        result = run_episode(episode_config())
        records = copy.deepcopy(list(result.records))
        records[-1]["steps"] += 1
        _, ok, message = replay_trace(records)
        assert not ok
        assert message == f"record {len(records)} (end) diverged at 'steps'"

    def test_config_round_trips_through_header(self):
        config = episode_config(use_summaries=False)
        result = run_episode(config)
        assert check_trace(list(result.records))[0] == config

    def test_a_transport_failure_replays_with_its_note(self):
        result = run_episode(episode_config(), FlakyManager(), HeuristicReasoner())
        records = list(result.records)
        failed = [r for r in records if r["type"] == "exchange" and r["response"] is None]
        assert [r["error"] for r in failed] == [FlakyManager.ERROR]
        replayed, ok, message = replay_trace(records)
        assert ok, message
        recorded = [r for r in records if r["type"] == "allocation"]
        assert [r for r in replayed.records if r["type"] == "allocation"] == recorded
        assert [r.get("note") for r in recorded if r["degraded"]] == [FlakyManager.ERROR]

    def test_variant_flags_rebuilt_from_header(self):
        config = episode_config(use_allocation=False, use_summaries=False)
        result = run_episode(config)
        rebuilt = check_trace(list(result.records))[0]
        assert rebuilt.use_allocation is False
        assert rebuilt.use_summaries is False
        assert rebuilt.variant == "no_allocation+no_summary"


class RefusingCapture(Reasoner):
    """A text backend for both roles that answers with the heuristic's own
    decision in the reply grammar, except that it refuses its first reply to
    each tick's ALLOCATE and to agent 2's PROPOSE."""

    name = "capture"
    produces = TEXT

    def __init__(self):
        self.asked = set()

    def invoke(self, request):
        kind, payload = request.kind, request.structured_payload
        key = (kind, request.tick, request.agent_id)
        first_ask = key not in self.asked
        self.asked.add(key)
        if first_ask and (kind == ALLOCATE or (kind == PROPOSE and request.agent_id == 2)):
            return ""
        if kind == PROPOSE:
            proposal = heuristic_proposal(payload)
            lines = [f"propose: {proposal.candidate.render()}"]
            lines += [f"alt: {task}" for task in proposal.render_alternatives()]
            return "\n".join(lines + [f"why: {proposal.rationale}"])
        if kind == ALLOCATE:
            return format_allocation(heuristic_allocation(payload))
        return template_digest(payload.records, payload.delta)


class TestTraceOrder:
    def test_text_backend_records_follow_the_tick_order(self):
        # Per tick: the summary's exchange and record when one is due, the
        # proposals' exchanges by agent id with each agent's re-asks together,
        # the ALLOCATE exchanges, the allocation record and the tick record.
        capture = RefusingCapture()
        config = episode_config(task="PrepareAMeal", num_agents=3, seed=2)
        records = list(run_episode(config, capture, capture).records)

        def shape(record):
            return record["type"], record.get("kind"), record.get("agent_id"), record.get("tick")

        summary_ticks = {r["tick"] for r in records if r["type"] == "summary"}
        steps = records[-1]["steps"]
        assert records[-1]["success"] and len(summary_ticks - {steps}) >= 2
        expected = [("header", None, None, None)]
        for tick in range(steps + 1):
            if tick in summary_ticks:
                expected += [("exchange", SUMMARIZE, 0, tick), ("summary", None, None, tick)]
            if tick == steps:
                break
            for agent in (1, 2, 2, 3):
                expected.append(("exchange", PROPOSE, agent, tick))
            expected += [("exchange", ALLOCATE, 1, tick)] * 2
            expected += [("allocation", None, None, tick), ("tick", None, None, tick + 1)]
        expected.append(("end", None, None, None))
        assert [shape(r) for r in records] == expected
        allocations = [r for r in records if r["type"] == "allocation"]
        assert {(r["attempts"], r["degraded"]) for r in allocations} == {(2, False)}


def _valid_count(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


class TestConfigBounds:
    @pytest.mark.parametrize(
        "overrides",
        [{"num_agents": 0}, {"num_agents": 4}, {"task": "FoldLaundry"}],
        ids=["no-agents", "four-agents", "unknown-task"],
    )
    def test_team_size_and_task_are_checked(self, overrides):
        # The one check of both: init_world draws any team for a known task.
        with pytest.raises(ConfigError):
            episode_config(**overrides)

    @settings(max_examples=300, deadline=None)
    @given(
        timeout_s=st.one_of(
            st.floats(),
            st.integers(-4, 4),
            st.integers(MAX_TIMEOUT_S - 1, MAX_TIMEOUT_S + 1),
            st.booleans(),
            st.just("5"),
            st.none(),
        ),
        max_concurrency=st.integers(-4, 8),
    )
    def test_bad_numbers_rejected_at_construction(self, timeout_s, max_concurrency):
        timeout_ok = (
            isinstance(timeout_s, (int, float))
            and not isinstance(timeout_s, bool)
            and 0 < timeout_s <= MAX_TIMEOUT_S
        )
        valid = timeout_ok and _valid_count(max_concurrency, 1)
        try:
            episode_config(
                remote=RemoteConfig(timeout_s=timeout_s, max_concurrency=max_concurrency)
            )
        except ConfigError:
            assert not valid
        else:
            assert valid

    @pytest.mark.parametrize(
        "flags",
        [
            ["--timeout", "-5"],
            ["--timeout", "0"],
            ["--timeout", "nan"],
            ["--timeout", "inf"],
            ["--timeout", "1_0"],
            ["--timeout", "\u0663"],
            ["--timeout", "1e3"],
            ["--max-steps", "0"],
            ["--timeout", "9999999999"],
            ["--timeout", "86400.5"],
        ],
    )
    def test_cli_rejects_bad_numbers(self, flags, capsys):
        assert main(["run", "--task", "WashDishes", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "values",
        [
            {"timeout": None},
            {"timeout": [5]},
            {"parse-retries": -1},
            {"template": "template_v1"},
            {"backend": 5},
            {"fixtures": 5},
            {"no-summary": "yes"},
            {"timeout": "5"},
            [1],
            {"timeout": 1e12},
        ],
    )
    def test_config_file_values_are_checked_too(self, values, tmp_path, capsys):
        # argparse would convert a string default through the flag's type, so
        # a number given as a string is refused; other timeouts reach the
        # config; the retry count and the prompt layout are no options at all;
        # text and on/off options refuse a value of another JSON type.
        config_path = str(tmp_path / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump(values, handle)
        assert main(["run", "--task", "WashDishes", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


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
                    st.integers(-2, 12).map(str),
                    st.text(max_size=3),
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
        assert len(parse_seeds(str(MAX_SEEDS))) == MAX_SEEDS

    @pytest.mark.parametrize("count", [MAX_SEEDS + 1, 99999999999999999999])
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_a_seed_count_above_the_cap_is_refused_before_the_grid(
        self, count, source, tmp_path, monkeypatch, capsys
    ):
        def build_no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(benchmark, "cell_configs", build_no_grid)
        argv = ["bench", "--seeds", str(count)]
        if source == "config file":
            path = tmp_path / "bench.json"
            path.write_text(json.dumps({"seeds": str(count)}))
            argv = ["bench", "--config", str(path)]
        assert main(argv) == 2
        error = f"error: --seeds {count} is more than {MAX_SEEDS} seeds\n"
        assert capsys.readouterr().err == error

    @pytest.mark.parametrize(
        "value",
        [
            "manger=remote",
            "manager=",
            "manager,members=remote",
            "=remote",
            "members=heuristic,bogus=x",
            "manager=remote,members=heuristic,manager=heuristic",
            "member=remote,members=heuristic",
        ],
    )
    def test_backend_with_unknown_role_or_no_name_is_refused(self, value, capsys):
        with pytest.raises(ConfigError):
            parse_backend(value)
        assert main(["run", "--task", "WashDishes", "--backend", value]) == 2
        assert capsys.readouterr().err.startswith("error: --backend item")

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(
            st.text(),
            st.lists(
                st.one_of(
                    st.integers(-20, 20).map(str),
                    st.sampled_from(
                        ["1_0", "+5", "-", " 7 ", "0x1", "\u0663", "\uff15", "\u00b2"]
                    ),
                    st.text(max_size=3),
                ),
                max_size=4,
            ).map(",".join),
        )
    )
    def test_int_list_items_are_ascii_integers(self, value):
        items = [item.strip() for item in value.split(",") if item.strip()]
        if all(re.fullmatch(r"-?[0-9]+", item) for item in items):
            assert parse_int_list(value) == tuple(int(item) for item in items)
        else:
            with pytest.raises(ConfigError):
                parse_int_list(value)

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
        cases = [
            ("end", "steps", load_trace(out)[-1]["steps"] + 2, "'steps'"),
            # A text backend whose replies the trace never recorded.
            ("header", "manager_backend", "remote", "('ALLOCATE', 0, 1)"),
            ("header", "member_backend", "scripted", "('PROPOSE', 0, 1)"),
        ]
        for record_type, key, value, detail in cases:
            records = load_trace(out)
            first(records, record_type)[key] = value
            damaged = str(tmp_path / f"{key}.jsonl")
            write_trace(records, damaged)
            capsys.readouterr()
            assert main(["replay", "--trace", damaged]) == 1, key
            stdout = capsys.readouterr().out
            assert stdout.startswith("replay FAIL") and detail in stdout, stdout

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
            lambda records: records[0].update(format=True),
            lambda records: records[0].update(format=1.0),
            lambda records: records[0].update(task="Nope"),
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

    @pytest.mark.parametrize(
        "command, out, where",
        [
            ("run", "missing/dir/t.jsonl", "its directory does not exist"),
            ("run", ".", "is a directory"),
            ("bench", "file.txt", "cannot write bench output to"),
            ("bench", "file.txt/sub", "cannot write bench output to"),
        ],
        ids=["run-missing-dir", "run-into-dir", "bench-onto-file", "bench-under-file"],
    )
    def test_unwritable_out_is_refused_before_any_episode(
        self, tmp_path, capsys, command, out, where
    ):
        (tmp_path / "file.txt").write_text("keep\n")
        target = os.path.join(str(tmp_path), out)
        scope = ["--task", "WashDishes"] if command == "run" else ["--seeds", "1"]
        argv = [command, *scope, "--max-steps", "5", "--out", target]

        def no_episode(*_args, **_kwargs):
            raise AssertionError("an episode ran before --out was checked")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homecrew.harness.cli.run_episode", no_episode)
            patch.setattr("homecrew.harness.benchmark.run_episode", no_episode)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err
        assert (tmp_path / "file.txt").read_text() == "keep\n"

    def test_write_error_after_the_run_is_an_error(self, tmp_path, capsys):
        folder = tmp_path / "vanishing"
        folder.mkdir()
        out_dir = str(tmp_path / "bench")

        def episode_then_remove_folder(config):
            result = run_episode(config)
            folder.rmdir()
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homecrew.harness.cli.run_episode", episode_then_remove_folder)
            run_argv = ["run", "--task", "WashDishes", "--max-steps", "5",
                        "--out", str(folder / "t.jsonl")]
            assert main(run_argv) == 2
            assert "error: cannot write trace" in capsys.readouterr().err
        # A directory in long.csv's place fails the grid's first write after
        # its episodes, which have left their traces.
        os.makedirs(os.path.join(out_dir, "long.csv"))
        bench_argv = ["bench", "--tasks", "WashDishes", "--agents", "1", "--seeds", "1",
                      "--variants", "full", "--max-steps", "5", "--out", out_dir]
        assert main(bench_argv) == 2
        assert "error: cannot write bench output" in capsys.readouterr().err
        assert os.listdir(os.path.join(out_dir, "traces")) == ["WashDishes_full_a1_s0.jsonl"]

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
        assert load_trace(out)[0]["max_steps"] == 44

    def test_explicit_flag_beats_config_file(self, tmp_path, capsys):
        config_path = str(tmp_path / "defaults.json")
        with open(config_path, "w") as handle:
            json.dump({"seed": 9}, handle)
        assert main(["run", "--task", "WashDishes", "--seed", "2",
                     "--config", config_path]) == 0
        assert " seed=2 " in capsys.readouterr().out

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        # Every Namespace has the dunder attributes; none of them is an option.
        config_path = str(tmp_path / "defaults.json")
        for key in ("bogus", "__class__", "__dict__", "__doc__", "__init__", "__module__"):
            with open(config_path, "w") as handle:
                json.dump({key: 1 if key == "bogus" else "x"}, handle)
            assert main(["run", "--task", "WashDishes", "--config", config_path]) == 2
            assert f"error: config file sets unknown option {key!r}" in capsys.readouterr().err

    def test_unknown_backend_is_an_error(self, capsys):
        assert main(["run", "--task", "WashDishes", "--backend", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_scripted_backend_without_fixtures_is_an_error(self, capsys):
        assert main(["run", "--task", "WashDishes", "--backend", "scripted"]) == 2
        assert capsys.readouterr().err == "error: scripted backend needs --fixtures\n"

    def test_replay_of_a_duplicated_end_fails_at_the_extra_record(self, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        assert main(["run", "--task", "WashDishes", "--agents", "2", "--out", out]) == 0
        records = load_trace(out)
        write_trace(records + records[-1:], out)
        capsys.readouterr()
        assert main(["replay", "--trace", out]) == 1
        n = len(records)
        assert capsys.readouterr().out.startswith(
            f"replay FAIL: record {n + 1} (end) diverged: recorded {n + 1} records, replayed {n}"
        )

    @pytest.mark.parametrize(
        "endpoint", ["ftp://example.invalid/v1", "example.invalid/v1", "http://", "http://[::1"]
    )
    def test_bad_endpoint_is_refused_before_the_run(self, endpoint, tmp_path, capsys):
        argv, out = self.run_argv(
            tmp_path, "--backend", "remote", "--endpoint-url", endpoint, "--model", "m"
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: remote backend needs an http(s) endpoint URL")
        assert repr(endpoint) in captured.err
        assert captured.out == "" and not os.path.exists(out)

    @pytest.mark.parametrize(
        "text, where",
        [
            (None, "cannot read fixtures"),
            ("{not json\n", "line 1 "),
            ('\n{"tick": 0, "agent_id": 1, "response": "x"}\n', "line 2 "),
            ('{"kind": "PROPOSE", "tick": true, "agent_id": 1, "response": "x"}\n', "line 1 "),
            ('{"kind": "PROPOSE", "tick": 0, "agent_id": 1, "response": 5}\n', "line 1 "),
            ('{"kind": "propose", "tick": 0, "agent_id": 1, "response": "x"}\n', "line 1 "),
            ('{"kind": "PROPOSE", "tick": 0, "agent_id": 1, "response": "x", "error": "e"}\n',
             "line 1 "),
            ('{"kind": "PROPOSE", "tick": 0, "agent_id": 1, "response": null, "error": 5}\n',
             "line 1 "),
        ],
        ids=["missing", "not-json", "no-kind", "bool-tick", "int-response", "unknown-kind",
             "error-beside-response", "int-error"],
    )
    def test_scripted_fixtures_are_checked(self, tmp_path, capsys, text, where):
        path = str(tmp_path / "fixtures.jsonl")
        if text is not None:
            with open(path, "w") as handle:
                handle.write(text)
        argv = ["run", "--task", "WashDishes", "--backend", "scripted", "--fixtures", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err and where in err

    def test_fixtures_are_read_even_when_no_role_is_scripted(self, tmp_path, capsys):
        path = str(tmp_path / "missing.jsonl")
        assert main(["run", "--task", "WashDishes", "--fixtures", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read fixtures {path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["replay", "--trace", "{path}"], "trace"),
            (["run", "--task", "WashDishes", "--fixtures", "{path}"], "fixtures"),
        ],
        ids=["trace", "fixtures"],
    )
    def test_a_non_utf8_byte_is_an_error(self, tmp_path, capsys, argv, what):
        path = str(tmp_path / "latin1.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"type": "header", "task": "caf\xe9"}\n')
        assert main([item.format(path=path) for item in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {what} {path}: ")

    def test_bench_reads_its_fixtures_once(self, tmp_path, capsys, monkeypatch):
        # The manager answers no decision without allocation and summaries,
        # so one line serves every episode.
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text(
            '{"kind": "ALLOCATE", "tick": 0, "agent_id": 1, "response": "1: IDLE"}\n'
        )
        reads = []

        def counted(path):
            reads.append(path)
            return load_fixtures(path)

        monkeypatch.setattr("homecrew.harness.cli.load_fixtures", counted)
        out_dir = str(tmp_path / "bench")
        argv = ["bench", "--tasks", "WashDishes", "--agents", "1,2", "--seeds", "2",
                "--variants", "no_allocation+no_summary", "--max-steps", "5",
                "--backend", "manager=scripted,members=heuristic",
                "--fixtures", str(fixtures), "--out", out_dir]
        assert main(argv) == 0
        assert len(read_long_csv(os.path.join(out_dir, "long.csv"))) == 4
        assert reads == [str(fixtures)]

    def test_replay_builds_both_roles_through_build_reasoner(
        self, tmp_path, capsys, stub, monkeypatch
    ):
        stub.policy = approve_candidates
        argv, out = self.run_argv(
            tmp_path,
            "--backend", "manager=remote,members=heuristic",
            "--endpoint-url", stub.url, "--model", "m",
        )
        assert main(argv) == 0
        built = []

        def counted(config, backend):
            built.append(backend)
            return build_reasoner(config, backend)

        monkeypatch.setattr("homecrew.harness.episode.build_reasoner", counted)
        replayed, ok, message = replay_trace(load_trace(out))
        assert ok, message
        assert built == ["scripted", "heuristic"]
        assert replayed.records[0]["manager_backend"] == "scripted"

    def bench_argv(self, out_dir, seeds):
        return ["bench", "--tasks", "WashDishes", "--agents", "1", "--seeds", seeds,
                "--variants", "full", "--max-steps", "5", "--out", out_dir]

    def test_bench_refuses_traces_it_does_not_write(self, tmp_path, capsys):
        out_dir = str(tmp_path / "bench")
        assert main(self.bench_argv(out_dir, "3")) == 0
        before = {
            name: (tmp_path / "bench" / name).read_bytes()
            for name in ["long.csv", "metrics.csv", "metrics.json"]
            + [f"traces/{n}" for n in os.listdir(os.path.join(out_dir, "traces"))]
        }
        capsys.readouterr()
        assert main(self.bench_argv(out_dir, "1")) == 2
        captured = capsys.readouterr()
        traces = os.path.join(out_dir, "traces")
        assert captured.err == (
            f"error: bench output {traces} holds 2 file(s) this grid does not write,"
            " such as WashDishes_full_a1_s1.jsonl\n"
        )
        assert captured.out == ""
        after = {
            os.path.relpath(os.path.join(folder, name), out_dir)
            for folder, _, names in os.walk(out_dir)
            for name in names
        }
        assert after == set(before)
        for name, data in before.items():
            assert (tmp_path / "bench" / name).read_bytes() == data, name

    def test_bench_overwrites_its_own_grid(self, tmp_path, capsys):
        out_dir = str(tmp_path / "bench")
        assert main(self.bench_argv(out_dir, "2")) == 0
        assert main(self.bench_argv(out_dir, "2")) == 0
        assert len(os.listdir(os.path.join(out_dir, "traces"))) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--trace", "{path}"],
            ["run", "--task", "WashDishes", "--config", "{path}"],
            ["run", "--task", "WashDishes", "--backend", "scripted", "--fixtures", "{path}"],
        ],
        ids=["trace", "config", "fixtures"],
    )
    def test_too_deeply_nested_json_is_an_error(self, tmp_path, capsys, argv):
        # json gives up on this nesting with RecursionError, not ValueError.
        path = str(tmp_path / "deep.json")
        with open(path, "w") as handle:
            handle.write("[" * 200_000 + "\n")
        assert main([item.format(path=path) for item in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_an_over_long_agent_id_in_a_reply_degrades(self, tmp_path):
        # More digits than int() converts. Every attempt of the three
        # allocations gets this reply; the summary due at tick 3 gets a note.
        reply = "9" * 4301 + ": IDLE\n1: IDLE"
        lines = [
            {"kind": "ALLOCATE", "tick": tick, "agent_id": 1, "response": reply}
            for tick in range(3)
            for _ in range(1 + PARSE_RETRIES)
        ]
        lines.append({"kind": "SUMMARIZE", "tick": 3, "agent_id": 0, "response": "noted"})
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = str(tmp_path / "trace.jsonl")
        argv = ["run", "--task", "PrepareTea", "--agents", "1",
                "--backend", "manager=scripted,members=heuristic",
                "--fixtures", str(fixtures), "--max-steps", "3", "--out", out]
        assert main(argv) == 0
        with open(out) as handle:
            records = [json.loads(line) for line in handle]
        allocations = [r for r in records if r["type"] == "allocation"]
        assert len(allocations) == 3
        for record in allocations:
            assert record["degraded"] and record["attempts"] == 1 + PARSE_RETRIES
            assert record["note"].startswith("unknown agent id 9999")
            assert len(record["note"]) <= NOTE_LIMIT
        exchanges = [r for r in records if r["type"] == "exchange" and r["kind"] == "ALLOCATE"]
        assert [r["response"] for r in exchanges] == [line["response"] for line in lines[:-1]]
        assert main(["replay", "--trace", out]) == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--agents", "x"],
            ["--seeds", "a,b"],
            ["--tasks", ""],
            ["--tasks", ",,"],
            ["--variants", ""],
            ["--variants", ",,"],
        ],
    )
    def test_bench_refuses_bad_lists(self, flags, capsys):
        assert main(["bench", "--max-steps", "5", *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def refused(self, argv, capsys):
        """main(argv)'s exit code and stderr, where no episode may run and
        nothing may reach stdout."""

        def no_episode(*_args, **_kwargs):
            raise AssertionError("an episode ran before the flags were checked")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("homecrew.harness.cli.run_episode", no_episode)
            patch.setattr("homecrew.harness.benchmark.run_benchmark", no_episode)
            code = main(argv)
        out, err = capsys.readouterr()
        assert out == ""
        return code, err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("bench", "--seeds", "1_0"),
            ("bench", "--seeds", "+5"),
            ("bench", "--agents", "\u0662"),
            ("run", "--seed", "1_0"),
            ("run", "--seed", "+5"),
            ("run", "--agents", "\u0662"),
        ],
        ids=[
            "bench-underscored-seeds",
            "bench-signed-seeds",
            "bench-arabic-indic-agents",
            "run-underscored-seed",
            "run-signed-seed",
            "run-arabic-indic-agents",
        ],
    )
    def test_integer_flags_take_only_ascii_digits(self, capsys, command, flag, value):
        # int() reads each value; the flags refuse it as they refuse 'x'.
        scope = "--task" if command == "run" else "--tasks"
        argv = [command, scope, "WashDishes", "--max-steps", "5", flag, value]
        code, err = self.refused(argv, capsys)
        assert code == 2 and repr(value) in err, err

    @pytest.mark.parametrize(
        "argv, agents",
        [
            (["run", "--task", "WashDishes", "--agents", "4"], 4),
            (["bench", "--tasks", "WashDishes", "--agents", "0,1", "--seeds", "1"], 0),
        ],
        ids=["run-four", "bench-zero"],
    )
    def test_team_size_is_refused_before_any_episode(self, capsys, argv, agents):
        code, err = self.refused(argv, capsys)
        assert code == 2
        assert err == f"error: num_agents must be in 1..3, got {agents}\n"

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "task,variant\nx\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,True,many,1,1,0,0\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,maybe,4,1,1,0,0\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,True,1_000,1,1,0,0\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,True, 5 ,1,1,0,0\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,True,\u0665,1,1,0,0\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,True,4,x,1,0,0\n",
            "task,variant,num_agents,seed,success,steps,satisfied,total,summaries,"
            "degraded_exchanges\nWashDishes,full,1,0,True,4,1,1,0,x\n",
        ],
        ids=[
            "missing",
            "short-row",
            "str-steps",
            "bad-success",
            "underscored-steps",
            "padded-steps",
            "arabic-indic-steps",
            "str-satisfied",
            "str-degraded",
        ],
    )
    def test_report_refuses_a_missing_or_malformed_long_csv(self, tmp_path, capsys, text):
        if text is not None:
            with open(tmp_path / "long.csv", "w") as handle:
                handle.write(text)
        assert main(["report", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "long.csv" in err

    def test_report_refuses_a_variant_outside_the_grid(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(
            ",".join(LONG_FIELDS) + "\nWashDishes,bogus,1,0,True,4,1,1,0,0\n"
        )
        assert main(["report", "--dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot read {path}: line 2: unknown variant 'bogus'\n"
        assert captured.out == ""


_LIST_ITEM = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        task_categories() + ["manager", "members", "member", "heuristic", "remote"]
    ),
    st.text(max_size=3),
)
_LIST_FLAG = st.lists(
    st.one_of(_LIST_ITEM, st.tuples(_LIST_ITEM, _LIST_ITEM).map("=".join)),
    max_size=4,
).map(",".join)


def fake_episode(config, *_):
    end = {"type": "end", "success": True, "steps": 0, "satisfied": 0,
           "total": 1, "summaries": 0, "degraded_exchanges": 0}
    return EpisodeResult(({"type": "header"}, end))


def _fuzzed_flags():
    """The real subcommands' flags, except those that print help or name a
    file to read or write, with flags no subcommand has."""
    _, subparsers = build_parser()
    real = {
        flag
        for subparser in subparsers.values()
        for action in subparser._actions
        for flag in action.option_strings
    }
    real -= {"-h", "--help", "--out", "--config", "--fixtures"}
    return sorted(real) + ["--bogus", "--seed-list", "--tasks-all", "-x"]


_FUZZED_FLAGS = _fuzzed_flags()


_FLAG_VALUE = st.one_of(
    st.text(
        alphabet="0123456789\u0660\u0661\u0662\u0663\u0669_+-., \t\n" + string.ascii_letters,
        max_size=3,
    ),
    st.sampled_from(
        task_categories() + list(VARIANTS) + ["heuristic", "1,2", "0.5", "1e3", "inf"]
    ),
)


@st.composite
def _argv(draw):
    """A subcommand, then flags, each bare one time in four and otherwise
    with a value; half the time the subcommand's required flag comes first."""
    command = draw(st.sampled_from(["run", "bench", "replay", "report", "bogus", ""]))
    flags = draw(
        st.lists(
            st.tuples(st.sampled_from(_FUZZED_FLAGS), st.integers(0, 3), _FLAG_VALUE),
            max_size=5,
        )
    )
    argv = [flag if bare == 0 else f"{flag}={value}" for flag, bare, value in flags]
    required = {"run": "--task", "replay": "--trace", "report": "--dir"}.get(command)
    if required and draw(st.booleans()):
        value = draw(st.sampled_from(task_categories()) if command == "run" else _FLAG_VALUE)
        argv.insert(0, f"{required}={value}")
    return [command, *argv]


class TestCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_argv())
    @example(argv=["bench", "--bogus=x\ny"])
    def test_any_argument_list_ends_in_a_result_or_one_error_line(
        self, argv, tmp_path_factory
    ):
        with pytest.MonkeyPatch.context() as patch:
            # Only argument handling runs: no episode and no grid, and
            # replay and report read from an empty directory.
            patch.chdir(tmp_path_factory.mktemp("cli"))
            patch.setattr("homecrew.harness.cli.run_episode", fake_episode)
            patch.setattr(
                "homecrew.harness.benchmark.run_benchmark",
                lambda configs, out_dir=None: (),
            )
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().split("\n")
            assert len(lines) == 2 and lines[0].startswith("error: ") and lines[1] == ""

    @settings(max_examples=300, deadline=None)
    @given(tasks=_LIST_FLAG, agents=_LIST_FLAG, seeds=_LIST_FLAG, backend=_LIST_FLAG)
    def test_list_and_backend_flags_end_in_a_result_or_an_error(
        self, tasks, agents, seeds, backend
    ):
        argvs = [
            ["run", "--task", "WashDishes", f"--backend={backend}"],
            ["bench", f"--tasks={tasks}", f"--agents={agents}",
             f"--seeds={seeds}", f"--backend={backend}"],
        ]
        with pytest.MonkeyPatch.context() as patch:
            # Only argument handling runs: no episode, no grid.
            patch.setattr("homecrew.harness.cli.run_episode", fake_episode)
            patch.setattr(
                "homecrew.harness.benchmark.run_benchmark",
                lambda configs, out_dir=None: (),
            )
            for argv in argvs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code == 0 or (code == 2 and err.getvalue().startswith("error:"))


def run_fresh(script: str, cwd: str) -> subprocess.CompletedProcess:
    """``script`` in a new interpreter that imports homecrew from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def homecrew_cli(*argv: str, cwd: str) -> subprocess.CompletedProcess:
    """``homecrew ARGV`` in a new interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "homecrew.harness.cli", *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


def set_every(record_type, **fields):
    def tamper(records):
        for record in records:
            if record["type"] == record_type:
                record.update(fields)
        return records

    return tamper


class TestReplayCommand:
    """Each tampering alone fails ``homecrew replay`` at the first record it
    changed: summaries, proposals, events, satisfied counts and end counters
    are all compared, not only the actions."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        cwd = str(tmp_path_factory.mktemp("replay"))
        done = homecrew_cli(
            "run", "--task", "WashDishes", "--agents", "2", "--seed", "0",
            "--out", "t.jsonl", cwd=cwd,
        )
        assert done.returncode == 0, done.stderr
        done = homecrew_cli("replay", "--trace", "t.jsonl", cwd=cwd)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("replay PASS")
        return cwd, load_trace(os.path.join(cwd, "t.jsonl"))

    @pytest.mark.parametrize(
        "tamper",
        [
            set_every("summary", text="tampered"),
            set_every("allocation", proposals={"1": "IDLE"}),
            set_every("tick", events=[]),
            set_every("tick", satisfied=99),
            set_every("end", summaries=42, degraded_exchanges=7),
            lambda records: records + records[-1:],
            lambda records: records[:1] + [{"type": "note", "text": "x"}] + records[1:],
        ],
        ids=[
            "summary-text",
            "allocation-proposals",
            "tick-events",
            "tick-satisfied",
            "end-counters",
            "duplicated-end",
            "foreign-record",
        ],
    )
    def test_tampered_trace_fails_at_its_first_changed_record(self, recorded, tamper):
        cwd, records = recorded
        tampered = tamper(copy.deepcopy(records))
        number, changed = next(
            (n, was)
            for n, (was, now) in enumerate(zip(tampered, records + [None]), 1)
            if was != now
        )
        write_trace(tampered, os.path.join(cwd, "tampered.jsonl"))
        done = homecrew_cli("replay", "--trace", "tampered.jsonl", cwd=cwd)
        assert done.returncode == 1, done.stderr
        assert done.stdout.startswith(
            f"replay FAIL: record {number} ({changed['type']}) diverged"
        ), done.stdout


class TestStartup:
    def test_heuristic_episode_loads_no_http_or_thread_pool(self, tmp_path):
        done = run_fresh(
            """
            import sys
            import homecrew.harness
            import homecrew.harness.cli
            from homecrew.harness.config import EpisodeConfig
            from homecrew.harness.episode import run_episode
            assert run_episode(EpisodeConfig(task="WashDishes")).success
            print(sorted({"requests", "concurrent.futures", "http.client", "ssl"} & set(sys.modules)))
            """,
            str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_heuristic_episode_loads_no_text_grammar_or_metrics(self, tmp_path):
        # Prompts, reply parsing and the bench metrics serve text backends
        # and bench output only; a heuristic episode reads none of them. The
        # first imports are those perfbench's set-up probe makes.
        done = run_fresh(
            """
            import sys
            import homecrew.harness, homecrew.harness.trace
            from homecrew.world import init_world
            from homecrew.harness.config import EpisodeConfig
            from homecrew.harness.episode import run_episode
            assert run_episode(EpisodeConfig(task="PrepareAMeal", num_agents=3)).success
            unused = {
                "homecrew.reasoner.prompts",
                "homecrew.reasoner.parsing",
                "homecrew.agents.textify",
                "homecrew.harness.metrics",
                "csv",
            }
            print(sorted(unused & set(sys.modules)))
            """,
            str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_loads_no_grid_or_metrics(self, tmp_path):
        # Only bench and report use them, and import them where they run.
        done = run_fresh(
            """
            import sys
            import homecrew.harness.cli
            unused = {"csv", "homecrew.harness.metrics", "homecrew.harness.benchmark"}
            print(sorted(unused & set(sys.modules)))
            """,
            str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_module_imports_first(self, tmp_path):
        # Each module under src/homecrew is imported as the first homecrew
        # module of the process, so no import cycle depends on load order.
        package = os.path.join(SRC, "homecrew")
        names = sorted(
            os.path.relpath(os.path.join(folder, name), SRC)[: -len(".py")]
            .replace(os.sep, ".")
            .removesuffix(".__init__")
            for folder, _, files in os.walk(package)
            for name in files
            if name.endswith(".py")
        )
        assert "homecrew.reasoner.heuristic" in names
        done = run_fresh(
            f"""
            import importlib, sys
            for name in {names!r}:
                for loaded in [m for m in sys.modules if m.partition(".")[0] == "homecrew"]:
                    del sys.modules[loaded]
                importlib.import_module(name)
                print(name)
            """,
            str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == names

    def test_cli_without_requests(self, tmp_path):
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text(
            json.dumps({"kind": "SUMMARIZE", "tick": 0, "agent_id": 1, "response": "x"}) + "\n"
        )
        done = run_fresh(
            f"""
            import sys
            sys.modules["requests"] = None
            from homecrew.harness.cli import main

            run = ["run", "--task", "WashDishes", "--max-steps", "30"]
            print(main(run + ["--backend", "remote", "--endpoint-url",
                              "http://127.0.0.1:9", "--model", "m"]))
            print(main(run + ["--out", "t.jsonl"]))
            # The manager is never asked without allocation and summaries.
            print(main(run + ["--backend", "manager=scripted,members=heuristic",
                              "--no-allocation", "--no-summary",
                              "--fixtures", {str(fixtures)!r}]))
            print(main(["bench", "--tasks", "WashDishes", "--agents", "1,2",
                        "--seeds", "1", "--max-steps", "30", "--out", "bench"]))
            print(main(["replay", "--trace", "t.jsonl"]))
            """,
            str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        codes = [line for line in done.stdout.splitlines() if line in ("0", "1", "2")]
        assert codes == ["2", "0", "0", "0", "0"], done.stdout
        assert done.stderr.startswith("error: remote backend needs the requests package")
        assert "Traceback" not in done.stderr

    def test_update_goldens_imports_without_pythonpath(self, tmp_path):
        # As README documents it: from a plain shell, nothing on PYTHONPATH.
        # Loading the module runs its top-level homecrew import, not main().
        script = os.path.join(os.path.dirname(SRC), "scripts", "update_goldens.py")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import importlib.util, sys\n"
                "spec = importlib.util.spec_from_file_location('update_goldens', sys.argv[1])\n"
                "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n",
                script,
            ],
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize(
        "argv, code", [(["-h"], 0), (["--help"], 0), (["--dry-run"], 2), (["tests/data"], 2)]
    )
    def test_update_goldens_takes_no_arguments(self, argv, code, monkeypatch, tmp_path, capsys):
        # Its output paths point at tmp_path, so a run that went ahead could
        # not touch tests/data; none may start an episode or write a file.
        for name in ("OUT_PATH", "GRID_PATH", "PROMPT_PATH"):
            monkeypatch.setattr(update_goldens, name, str(tmp_path / name))

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(update_goldens, "run_episode", no_episode)
        with pytest.raises(SystemExit) as done:
            update_goldens.main(argv)
        assert done.value.code == code
        out, err = capsys.readouterr()
        if code == 0:
            assert update_goldens.__doc__.strip().splitlines()[0] in out
        else:
            assert "error: unrecognized arguments" in err
        assert os.listdir(tmp_path) == []
