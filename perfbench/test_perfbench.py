"""Tests of the benchmark's own arithmetic, tracer, stub and spec.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from stats import Span  # noqa: E402
from workloads import WORKLOADS, EpisodeSpec  # noqa: E402

run._prepare_imports()


# -- percentiles -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(list(reversed(values)), 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 50) == 5


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.percentile_resolved(100, 90)
    assert not stats.percentile_resolved(99, 90)
    assert stats.percentile_resolved(20, 50)
    assert not stats.percentile_resolved(19, 50)
    assert not stats.percentile_resolved(0, 50)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert stats.verdict(base, [100.2, 100.9, 99.5, 100.1, 100.4], "lower", 0.1) == "ok"
    assert stats.verdict(base, [120.0, 121.0, 119.0, 120.0, 120.5], "lower", 0.1) == "worse"
    assert stats.verdict(base, [80.0, 81.0, 79.0, 80.0, 80.5], "higher", 0.1) == "worse"
    noisy = [50.0, 100.0, 150.0, 100.0, 60.0]
    assert stats.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert stats.verdict(noisy, [10.0, 20.0, 30.0, 20.0, 12.0], "lower", 0.1) == "better"


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 5.0, 0, 1),
        Span("a.child", 2.0, 3.0, 1, 1),
        # overlaps "a", as a span from another thread would
        Span("b", 4.0, 8.0, 0, 1),
        # reaches past its parent's end; only the covered part counts
        Span("b.child", 7.0, 9.0, 3, 1),
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0, 2.0])


def test_self_time_rejects_a_parent_from_another_episode():
    spans = [Span("root", 0.0, 2.0, None, 1), Span("x", 0.5, 1.0, 0, 2)]
    with pytest.raises(ValueError):
        stats.self_times(spans)


# -- tracer ------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_modules():
    """homecrew.fake_lib defines leaf/outer/Thing; homecrew.fake_user holds a
    from-import copy of leaf."""
    lib = types.ModuleType("homecrew.fake_lib")

    def leaf(x):
        return [x] * x

    def outer(x):
        return len(lib.leaf(x)) + len(lib.leaf(x))

    class Thing:
        def method(self):
            return lib.leaf(1)

    lib.leaf, lib.outer, lib.Thing = leaf, outer, Thing
    user = types.ModuleType("homecrew.fake_user")
    user.leaf = leaf
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user
    del sys.modules[lib.__name__]
    del sys.modules[user.__name__]


def test_tracer_wraps_every_binding_and_restores(fake_modules):
    lib, user = fake_modules
    original = lib.leaf
    hooks = (
        tracer_mod.Hook("x.leaf", "homecrew.fake_lib", "leaf", sizes=True),
        tracer_mod.Hook("y.outer", "homecrew.fake_lib", "outer"),
        tracer_mod.Hook("y.method", "homecrew.fake_lib", "Thing.method", durations=True),
    )
    tr = tracer_mod.Tracer(hooks, clock=FakeClock())
    tr.install()
    assert lib.leaf is not original and user.leaf is lib.leaf
    tr.begin_episode()
    assert lib.outer(2) == 4
    user.leaf(3)
    lib.Thing().method()
    tr.end_episode(ticks=4)
    tr.uninstall()
    assert lib.leaf is original and user.leaf is original

    t = tr.totals
    assert t.calls == {"x.leaf": 4, "y.outer": 1, "y.method": 1}
    assert t.sizes["x.leaf"] == 2 + 2 + 3 + 1
    # each clock read advances by 1: outer spans 5 ticks, its two leaves 1 each
    assert t.total_s["y.outer"] == 5.0
    assert t.self_s["y.outer"] == 3.0
    assert t.layer_self_s("x") == 4.0
    assert t.durations["y.method"] == [3.0]
    assert t.episodes == 1 and t.ticks == 4
    assert t.absent == ()


def test_tracer_records_nothing_outside_an_episode(fake_modules):
    lib, _ = fake_modules
    tr = tracer_mod.Tracer((tracer_mod.Hook("x.leaf", "homecrew.fake_lib", "leaf"),))
    tr.install()
    try:
        lib.leaf(2)
    finally:
        tr.uninstall()
    assert tr.totals.calls == {}


def test_removed_hook_points_report_absent(fake_modules):
    hooks = (
        tracer_mod.Hook("x.gone", "homecrew.fake_lib", "gone"),
        tracer_mod.Hook("x.gone_method", "homecrew.fake_lib", "Thing.gone"),
        tracer_mod.Hook("x.gone_module", "homecrew.no_such_module", "f"),
    )
    tr = tracer_mod.Tracer(hooks)
    assert tr.totals.absent == ("x.gone", "x.gone_method", "x.gone_module")
    tr.install()
    tr.uninstall()


def test_count_hooks_record_their_enclosing_span(fake_modules):
    lib, _ = fake_modules
    hooks = (
        tracer_mod.Hook("x.leaf", "homecrew.fake_lib", "leaf", kind=tracer_mod.COUNT),
        tracer_mod.Hook("y.outer", "homecrew.fake_lib", "outer"),
    )
    tr = tracer_mod.Tracer(hooks)
    tr.install()
    tr.begin_episode()
    lib.outer(1)
    lib.leaf(1)
    tr.end_episode(ticks=1)
    tr.uninstall()
    assert tr.totals.nested == {("x.leaf", "y.outer"): 2, ("x.leaf", tracer_mod.ROOT): 1}


def test_hook_modules_resolve_through_sys_modules():
    import homecrew.coordination.allocate as shadowed

    assert callable(shadowed) and not isinstance(shadowed, types.ModuleType)
    module = tracer_mod.resolve_module("homecrew.coordination.allocate")
    assert isinstance(module, types.ModuleType)
    assert hasattr(module, "heuristic_allocation")


def test_every_shipped_hook_resolves_today():
    assert tracer_mod.Tracer().totals.absent == ()


# -- ratio bases ---------------------------------------------------------------------


def test_per_layer_ratio_bases():
    t = tracer_mod.Totals(episodes=4, ticks=40, root_s=2.0)
    t.calls = {
        "world.load_catalog": 8,
        "world.distance": 30,
        "world.next_hop": 10,
        "coordination.score_joint": 90,
        "coordination.allocate_with_report": 30,
        "reasoner.render_prompt": 120,
        "reasoner.remote": 60,
        "reasoner.parse_proposal": 50,
        "reasoner.parse_allocation": 10,
        "coordination.make_proposal": 20,
    }
    t.total_s = {"reasoner.remote": 1.5, "world.init_world": 0.004}
    t.self_s = {"world.observe": 0.2, "world.transition": 0.3, "coordination.make_proposal": 0.001}
    t.raised = {"reasoner.parse_proposal": 3}
    t.sizes = {"coordination.enumerate_joint_space": 45}
    t.nested = {
        ("coordination.check_conflicts", "coordination.enumerate_joint_space"): 60,
        ("coordination.check_conflicts", "coordination.allocate_with_report"): 99,
        ("reasoner.http_post", "reasoner.remote"): 66,
    }
    t.durations = {"reasoner.remote": [0.01] * 50 + [0.02] * 50}
    plain = [run.Run("k", 10.0), run.Run("k", 30.0)]
    traced = [run.Run("k", 15.0), run.Run("k", 45.0)]
    m = run.per_layer(t, plain, traced)
    assert m["world.load_catalog.calls_per_episode"] == 2.0
    assert m["world.init_world.ms_per_episode"] == pytest.approx(1.0)
    assert m["world.distance.calls_per_tick"] == 1.0
    assert m["world.self_share"] == pytest.approx(0.25)
    assert m["coordination.score_joint.calls_per_alloc"] == 3.0
    assert m["coordination.joints_feasible_ratio"] == 0.75
    assert m["coordination.make_proposal.self_us_per_call"] == pytest.approx(50.0)
    assert m["reasoner.render_prompt.calls_per_tick"] == 3.0
    assert m["reasoner.prompt_use_ratio"] == 0.5
    assert m["reasoner.remote.calls_per_tick"] == 1.5
    assert m["reasoner.remote.wait_share"] == 0.75
    assert m["reasoner.remote.attempts_per_call"] == pytest.approx(1.1)
    assert m["reasoner.remote.ms_p50"] == pytest.approx(10.0)
    assert m["reasoner.remote.ms_p90"] == pytest.approx(20.0)
    assert m["reasoner.parse.failures_per_call"] == 0.05
    assert m["tracing_overhead"] == 1.5
    assert m["summaries.summarize.us_per_call"] == 0.0
    assert set(m) == {name for name, *_ in spec.PER_LAYER}


class _Result:
    def __init__(self, steps, success, degraded, records):
        self.steps, self.success, self.degraded_exchanges, self.records = steps, success, degraded, records


def test_end_to_end_ratio_bases():
    records = [
        {"type": "allocation", "mode": "centralized", "proposals": {"1": "x", "2": "y"}},
        {"type": "allocation", "mode": "self", "proposals": {"1": "x"}},
        {"type": "summary"},
        {"type": "tick"},
    ]
    assert run.decisions_in(records) == 3 + 1 + 1
    runs = [
        run.Run("a", 10.0, 10.0, _Result(4, True, 1, records), "d"),
        run.Run("a", 30.0, 30.0, _Result(4, True, 1, records), "d"),
        run.Run("b", 20.0, 20.0, _Result(8, False, 0, records), "e"),
        run.Run("c", 99.0, error="ValueError: boom"),
    ]
    setup = [(0.3, 0.3, 0.5), (0.1, 0.1, 0.5), (0.2, 0.2, 0.5)]
    m = run.end_to_end(runs, setup, failed=1, attempted=4, normalize=False)
    assert m["setup_s"] == 0.2
    assert m["episodes_per_s"] == 3 / 0.060
    assert m["ms_per_tick"] == 60.0 / 16
    assert m["episode_ms_p50"] == 20.0
    assert m["success_rate"] == 0.5
    assert m["mean_steps"] == 6.0
    assert m["episodes_ok_frac"] == 0.75
    assert m["decisions_ok_frac"] == 1.0 - 2 / 15
    assert set(m) == {name for name, *_ in spec.END_TO_END}

    # on a machine running at half the reference speed, CPU time counts half
    for r in runs:
        r.factor = 0.5
    half = run.end_to_end(runs, setup, failed=1, attempted=4)
    assert half["ms_per_tick"] == pytest.approx(30.0 / 16)
    assert half["setup_s"] == pytest.approx(0.1)
    assert half["episodes_per_s"] == pytest.approx(3 / 0.030)


def test_speed_normalization_scales_only_cpu_time():
    import speed

    assert speed.factor([speed.REFERENCE_MS * 2] * 3) == 0.5
    # 100 ms of wall time of which 20 ms CPU, on a machine twice as slow
    assert speed.normalized(100.0, 20.0, 0.5) == 90.0
    assert speed.normalized(100.0, 20.0, 1.0) == 100.0
    assert speed.reference_ms() > 0


# -- workloads, stub, spec ---------------------------------------------------------------


def test_seed_zero_of_grid_holds_the_canonical_grid():
    episodes = WORKLOADS["grid"].episodes(0)
    assert len(episodes) == 1200
    assert {e.seed for e in episodes} == set(range(40))
    assert {e.variant for e in episodes} == {"full", "no_allocation"}
    assert {e.agents for e in episodes} == {1, 2, 3}
    assert episodes == WORKLOADS["grid"].episodes(0)
    assert episodes != sorted(episodes, key=lambda e: e.key)
    assert {e.seed for e in WORKLOADS["grid"].episodes(3)} == set(range(120, 160))


def test_episode_keys_round_trip_golden_names():
    with open(os.path.join(ROOT, "tests", "data", "golden_hashes.json")) as handle:
        for key in json.load(handle):
            assert EpisodeSpec.from_key(key).key == key


def test_stub_episode_succeeds_without_degrading_and_replays():
    bench = run.Bench("remote-stub", 5, delay_s=0.0)
    try:
        from homecrew.harness import replay_trace

        for episode in [e for e in bench.episodes if e.agents == 3][:2] + [bench.episodes[0]]:
            result, _ = bench.run(episode)
            assert result.success and result.degraded_exchanges == 0
            assert replay_trace(list(result.records))[1]
        assert bench.stub.errors == 0 and bench.stub.requests > 0
    finally:
        bench.close()


def test_stub_reply_depends_only_on_the_body():
    import stub

    body = {"model": "m", "messages": [{"role": "user", "content": "You are the team manager writing a note.\n\n## What changed\nBetween tick 1 and tick 3 task progress advanced by 1 unit(s).\n"}]}
    assert stub.completion(body) == stub.completion(json.loads(json.dumps(body)))
    assert "advanced by 1" in stub.reply_text(body)


def test_benchmark_json_is_generated_from_spec_and_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = handle.read()
    assert committed == spec.render_benchmark_json()
    data = json.loads(committed)
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in data["workloads"]] == sorted(WORKLOADS, key=list(spec.WORKLOAD_WHY).index)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names)) and all(len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    mapped = {metric for metric, *_ in spec.LAYER_MAP}
    for name, *_ in spec.PER_LAYER:
        if name != "tracing_overhead" and not name.endswith(("reasoner.self_share", "summaries.self_share")):
            assert any(name == m or name.startswith(m + ".") for m in mapped), name
