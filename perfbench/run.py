#!/usr/bin/env python3
"""homecrew benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Runs the workload's episodes back to back in one closed loop through the
public entry point (``EpisodeConfig`` + ``run_episode``), timing each episode
from building its config to the digest of its trace. The window lasts
``--seconds`` and, with ``--trace 0``, at least one full pass over the
workload's episodes. Outputs are then checked: every repeat of an episode
gives the same digest, seed 0 matches the pinned manifest in
``perfbench/reference``, the five digests in tests/data/golden_hashes.json
are recomputed, and every remote-stub trace replays exactly.

``--trace 0`` reports the end-to-end metrics, with times normalized to a
reference machine speed (see speed.py). ``--trace 1`` runs each
episode untraced and traced in turn, checks that both give the same digest,
and reports the per-layer metrics from the traced runs. The last line of
stdout is one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_hashes.json")
REFERENCE_DIR = os.path.join(HERE, "reference")

sys.path.insert(0, HERE)

import spec  # noqa: E402
import speed  # noqa: E402
from stats import percentile, percentile_resolved, ratio  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, EpisodeSpec, VARIANT_FLAGS  # noqa: E402

SETUP_SPAWNS = 7
WARMUP_EPISODES = 2
CALIBRATE_EVERY_S = 0.25
# Stop a window that has not finished its pass by then, to end within 180 s.
MAX_WINDOW_S = 120.0


class SetupError(Exception):
    pass


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def _prepare_imports() -> None:
    if not os.path.isfile(os.path.join(SRC, "homecrew", "__init__.py")):
        raise SetupError(f"homecrew sources not found under {SRC}")
    sys.path.insert(0, SRC)
    # requests must reach the loopback stub directly, never through a proxy.
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "http_proxy", "https_proxy"):
        os.environ.pop(name, None)
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"


class Bench:
    """The program under test, set up for one workload."""

    def __init__(self, workload_name: str, seed: int, delay_s: Optional[float] = None):
        # Calls go through the module so that the tracer's hooks see them.
        self.harness = importlib.import_module("homecrew.harness")
        self.trace_sha256 = importlib.import_module("homecrew.harness.trace").trace_sha256
        self.workload = WORKLOADS[workload_name]
        self.episodes = self.workload.episodes(seed)
        self.stub = None
        self.remote = None
        if self.workload.remote:
            from stub import DELAY_S, MODEL, LoopbackStub

            self.stub = LoopbackStub(DELAY_S if delay_s is None else delay_s).start()
            self.remote = self.harness.RemoteConfig(
                endpoint_url=self.stub.url,
                model=MODEL,
                max_concurrency=nproc(),
            )

    def config(self, episode: EpisodeSpec, heuristic: bool = False):
        """The episode's config, on the workload's backend or the heuristic."""
        remote = None if heuristic else self.remote
        use_allocation, use_summaries = VARIANT_FLAGS[episode.variant]
        backend = "remote" if remote is not None else "heuristic"
        extra = {"remote": remote} if remote is not None else {}
        return self.harness.EpisodeConfig(
            task=episode.task,
            num_agents=episode.agents,
            seed=episode.seed,
            manager_backend=backend,
            member_backend=backend,
            use_allocation=use_allocation,
            use_summaries=use_summaries,
            **extra,
        )

    def run(self, episode: EpisodeSpec):
        """One episode as a user runs it: build the config, run, digest."""
        result = self.harness.run_episode(self.config(episode))
        return result, self.trace_sha256(list(result.records))

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None


class Run:
    """One timed episode: wall and process CPU time in ms, and the machine
    speed factor around it (see speed.py)."""

    __slots__ = ("key", "ms", "cpu_ms", "factor", "steps", "success", "degraded", "decisions", "digest", "error")

    def __init__(self, key, ms, cpu_ms=0.0, result=None, digest="", error=""):
        self.key = key
        self.ms = ms
        self.cpu_ms = cpu_ms
        self.factor = 1.0
        self.digest = digest
        self.error = error
        self.steps = result.steps if result else 0
        self.success = bool(result and result.success)
        self.degraded = result.degraded_exchanges if result else 0
        self.decisions = decisions_in(result.records) if result else 0


def decisions_in(records) -> int:
    """Decisions a trace records: one per member proposal and centralized
    allocation per tick, and one per summary."""
    total = 0
    for record in records:
        if record.get("type") == "allocation":
            total += len(record["proposals"]) + (record["mode"] == "centralized")
        elif record.get("type") == "summary":
            total += 1
    return total


def timed(bench: Bench, episode: EpisodeSpec, keep: Optional[dict]) -> Run:
    clock, cpu_clock = time.perf_counter, time.process_time
    start, cpu_start = clock(), cpu_clock()
    try:
        result, digest = bench.run(episode)
    except Exception as exc:  # an episode that raises is a failed operation
        return Run(episode.key, (clock() - start) * 1e3, error=f"{type(exc).__name__}: {exc}")
    ms, cpu_ms = (clock() - start) * 1e3, (cpu_clock() - cpu_start) * 1e3
    if keep is not None and episode.key not in keep:
        keep[episode.key] = list(result.records)
    return Run(episode.key, ms, cpu_ms, result, digest)


def measure(bench: Bench, seconds: float, keep: Optional[dict]) -> tuple:
    """Closed loop over the shuffled episodes until the window has lasted
    ``seconds`` and every episode ran at least once. The reference loop runs
    between episodes every CALIBRATE_EVERY_S; each run gets the speed factor
    of the two samples around it. Returns the runs, the window length in
    seconds and the number of reference samples."""
    episodes = bench.episodes
    runs: List[Run] = []
    marks: List[int] = []
    samples = [speed.reference_ms()]
    clock = time.perf_counter
    start = last_sample = clock()
    i = 0
    while True:
        now = clock()
        if now - last_sample >= CALIBRATE_EVERY_S:
            samples.append(speed.reference_ms())
            last_sample = now = clock()
        elapsed = now - start
        if elapsed >= MAX_WINDOW_S or (elapsed >= seconds and i >= len(episodes)):
            break
        runs.append(timed(bench, episodes[i % len(episodes)], keep))
        marks.append(len(samples) - 1)
        i += 1
    window_s = clock() - start
    samples.append(speed.reference_ms())
    for run, mark in zip(runs, marks):
        run.factor = speed.factor(samples[mark : mark + 2])
    return runs, window_s, len(samples)


def measure_traced(bench: Bench, seconds: float, tracer, keep: Optional[dict]) -> tuple:
    """Each episode untraced and traced in turn (alternating which goes
    first) until the window has lasted ``seconds``. The output checks then
    hold every traced digest to its untraced twin."""
    episodes = bench.episodes
    plain: List[Run] = []
    traced: List[Run] = []
    served = 0
    clock = time.perf_counter
    start = clock()
    i = 0
    while clock() - start < seconds or not traced:
        episode = episodes[i % len(episodes)]
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not is_traced:
                plain.append(timed(bench, episode, keep))
                continue
            before = bench.stub.requests if bench.stub else 0
            tracer.install()
            tracer.begin_episode()
            run = timed(bench, episode, None)
            tracer.end_episode(run.steps)
            tracer.uninstall()
            served += (bench.stub.requests if bench.stub else 0) - before
            traced.append(run)
        i += 1
    return plain, traced, served


# -- checks ------------------------------------------------------------------


def check_outputs(bench: Bench, runs: List[Run], seed: int, keep: dict) -> Dict[str, str]:
    """Problems per episode key: digests that disagree across repeats or
    with the manifest, runs that raised, traces that fail replay."""
    problems: Dict[str, str] = {}
    first: Dict[str, str] = {}
    for run in runs:
        if run.error:
            problems[run.key] = run.error
        elif first.setdefault(run.key, run.digest) != run.digest:
            problems[run.key] = "digest differs between runs of one episode"
    if seed == DEFAULT_SEED:
        path = os.path.join(REFERENCE_DIR, f"{bench.workload.name}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            manifest = {}
            problems["(manifest)"] = f"cannot read {os.path.relpath(path, ROOT)}: {exc}"
        for key, digest in first.items():
            if manifest.get(key) != digest:
                problems.setdefault(key, "digest differs from the reference manifest")
    for key, records in keep.items():
        try:
            _, ok, detail = bench.harness.replay_trace(records)
        except Exception as exc:  # a replay that raises is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            problems.setdefault(key, f"replay failed: {detail}")
    return problems


def check_golden(bench: Bench) -> Tuple[int, List[str]]:
    """Recompute the pinned digests of tests/data/golden_hashes.json:
    (episodes run, keys that mismatched or could not be checked)."""
    try:
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
    except (OSError, ValueError) as exc:
        return 1, [f"cannot read {os.path.relpath(GOLDEN, ROOT)}: {exc}"]
    bad = []
    for key, digest in sorted(golden.items()):
        config = bench.config(EpisodeSpec.from_key(key), heuristic=True)
        if bench.trace_sha256(list(bench.harness.run_episode(config).records)) != digest:
            bad.append(key)
    return len(golden), bad


# -- set-up time ----------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side of the set-up measurement: get the first episode ready and
    say so with the CPU time used until then, then time the reference loop
    in this same process for the parent to normalize with."""
    from homecrew.world import init_world

    bench = Bench(workload_name, seed)
    config = bench.config(bench.episodes[0])
    init_world(config.task, config.num_agents, config.seed)
    print(f"ready {time.process_time()!r}", flush=True)
    bench.close()
    speed.reference_ms()
    print(f"reference {statistics.mean(speed.reference_ms() for _ in range(2))!r}", flush=True)


def setup_seconds(workload_name: str, seed: int) -> List[Tuple[float, float, float]]:
    """Cold process to first episode ready, once per spawn: (wall seconds,
    the child's CPU seconds until then, the speed factor the child measured
    right after)."""
    times = []
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-probe",
        "--workload",
        workload_name,
        "--seed",
        str(seed),
    ]
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = child.stdout.readline().split()
            elapsed = time.perf_counter() - start
            reference = child.stdout.readline().split()
            child.stdout.read()
        finally:
            child.stdout.close()
            try:
                code = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                code = child.wait()
        if code != 0 or len(ready) != 2 or ready[0] != "ready" or len(reference) != 2:
            raise SetupError(f"set-up probe failed (exit {code}, said {ready + reference})")
        times.append((elapsed, float(ready[1]), speed.factor([float(reference[1])])))
    return times


# -- metrics ------------------------------------------------------------------


def end_to_end(
    runs: List[Run], setup: List[Tuple[float, float, float]], failed: int, attempted: int, normalize: bool = True
) -> dict:
    """End-to-end metrics. Times are normalized to the reference machine
    speed (see speed.py) unless ``normalize`` is false. episodes_per_s counts
    the time spent in episodes, not in the reference loop between them."""
    ok = [r for r in runs if not r.error]
    ms = [speed.normalized(r.ms, r.cpu_ms, r.factor if normalize else 1.0) for r in ok]
    ticks = sum(r.steps for r in ok)
    distinct = {r.key: r for r in ok}
    decisions = sum(r.decisions for r in ok)
    degraded = sum(r.degraded for r in ok)
    return {
        "setup_s": statistics.median(speed.normalized(w, c, f if normalize else 1.0) for w, c, f in setup),
        "episodes_per_s": ratio(len(ok), sum(ms) / 1e3),
        "ms_per_tick": ratio(sum(ms), ticks),
        "episode_ms_p50": percentile(ms, 50),
        "episode_ms_p90": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": ratio(sum(r.success for r in distinct.values()), len(distinct)),
        "mean_steps": ratio(sum(r.steps for r in distinct.values()), len(distinct)),
        "episodes_ok_frac": 1.0 - ratio(failed, attempted),
        "decisions_ok_frac": 1.0 - ratio(degraded, decisions),
    }


def per_layer(totals, plain: List[Run], traced: List[Run]) -> dict:
    """Per-layer metrics from the traced episodes; see spec.PER_LAYER."""
    calls = totals.calls
    total_s = totals.total_s
    self_s = totals.self_s
    episodes = totals.episodes
    ticks = totals.ticks
    root = totals.root_s

    def n(key):
        return calls.get(key, 0)

    def us_per_call(key):
        return ratio(total_s.get(key, 0.0), n(key)) * 1e6

    remote_ms = [d * 1e3 for d in totals.durations.get("reasoner.remote", [])]
    parses = ("reasoner.parse_proposal", "reasoner.parse_allocation")
    sent = n("reasoner.remote") + n("reasoner.scripted")
    return {
        "world.load_catalog.calls_per_episode": ratio(n("world.load_catalog"), episodes),
        "world.init_world.ms_per_episode": ratio(total_s.get("world.init_world", 0.0), episodes) * 1e3,
        "world.distance.calls_per_tick": ratio(n("world.distance") + n("world.next_hop"), ticks),
        "world.observe.us_per_call": us_per_call("world.observe"),
        "world.transition.us_per_call": us_per_call("world.transition"),
        "world.evaluate_progress.us_per_call": us_per_call("world.evaluate_progress"),
        "world.evaluate_progress.calls_per_tick": ratio(n("world.evaluate_progress"), ticks),
        "world.self_share": ratio(totals.layer_self_s("world"), root),
        "agents.merge_team_belief.calls_per_tick": ratio(n("agents.merge_team_belief"), ticks),
        "agents.merge_team_belief.us_per_call": us_per_call("agents.merge_team_belief"),
        "agents.perceive.us_per_call": us_per_call("agents.perceive"),
        "agents.expand_macro.us_per_call": us_per_call("agents.expand_macro"),
        "agents.belief_digest.us_per_call": us_per_call("agents.belief_digest"),
        "agents.self_share": ratio(totals.layer_self_s("agents"), root),
        "coordination.score_joint.calls_per_alloc": ratio(
            n("coordination.score_joint"), n("coordination.allocate_with_report")
        ),
        "coordination.heuristic_allocation.us_per_call": us_per_call("coordination.heuristic_allocation"),
        "coordination.joints_feasible_ratio": ratio(
            totals.sizes.get("coordination.enumerate_joint_space", 0),
            totals.nested.get(("coordination.check_conflicts", "coordination.enumerate_joint_space"), 0),
        ),
        "coordination.self_share": ratio(totals.layer_self_s("coordination"), root),
        "coordination.make_proposal.self_us_per_call": ratio(
            self_s.get("coordination.make_proposal", 0.0), n("coordination.make_proposal")
        )
        * 1e6,
        "coordination.allocate_with_report.self_us_per_call": ratio(
            self_s.get("coordination.allocate_with_report", 0.0),
            n("coordination.allocate_with_report"),
        )
        * 1e6,
        "coordination.heuristic_proposal.us_per_call": us_per_call("coordination.heuristic_proposal"),
        "coordination.assemble_context.us_per_call": us_per_call("coordination.assemble_context"),
        "reasoner.render_prompt.calls_per_tick": ratio(n("reasoner.render_prompt"), ticks),
        "reasoner.render_prompt.us_per_call": us_per_call("reasoner.render_prompt"),
        "reasoner.prompt_use_ratio": ratio(sent, n("reasoner.render_prompt")),
        "reasoner.remote.calls_per_tick": ratio(n("reasoner.remote"), ticks),
        "reasoner.remote.ms_p50": percentile(remote_ms, 50) if remote_ms else 0.0,
        "reasoner.remote.ms_p90": percentile(remote_ms, 90) if remote_ms else 0.0,
        "reasoner.remote.wait_share": ratio(total_s.get("reasoner.remote", 0.0), root),
        "reasoner.remote.attempts_per_call": ratio(
            totals.nested.get(("reasoner.http_post", "reasoner.remote"), 0), n("reasoner.remote")
        ),
        "reasoner.parse.failures_per_call": ratio(
            sum(totals.raised.get(k, 0) for k in parses), sum(n(k) for k in parses)
        ),
        "reasoner.self_share": ratio(totals.layer_self_s("reasoner"), root),
        "summaries.summarize.us_per_call": us_per_call("summaries.summarize"),
        "summaries.summarize.calls_per_episode": ratio(n("summaries.summarize"), episodes),
        "summaries.self_share": ratio(totals.layer_self_s("summaries"), root),
        "harness.run_episode.self_share": ratio(self_s.get("harness.run_episode", 0.0), root),
        "harness.render_trace.us_per_episode": ratio(total_s.get("harness.render_trace", 0.0), episodes) * 1e6,
        "tracing_overhead": ratio(sum(r.ms for r in traced), sum(r.ms for r in plain)),
    }


# -- reporting ------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program's sources, to tie results to code when there is
    no git metadata."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "homecrew")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree.
    The ceiling keeps git from finding a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def report(args, env: dict, info: List[str], metrics: dict, attempted: int, failed: int) -> dict:
    """Print the human-readable lines and return the result object."""
    units = spec.units()
    print(f"homecrew benchmark: workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in info:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": env,
            "info": info,
            "result": result,
        }
        path = os.path.join(args.out, f"{args.workload}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    return result


def benchmark(args, bench: Bench, setup: List[Tuple[float, float, float]]) -> dict:
    env = environment()
    for episode in bench.episodes[:WARMUP_EPISODES]:
        bench.run(episode)
    keep: Optional[Dict[str, list]] = {} if bench.workload.remote else None
    served_before = bench.stub.requests if bench.stub else 0
    if args.trace == 0:
        runs, window_s, samples = measure(bench, args.seconds, keep)
        checked = runs
    else:
        from tracer import Tracer

        tracer = Tracer()
        runs, traced, served = measure_traced(bench, args.seconds, tracer, keep)
        checked = runs + traced

    problems = check_outputs(bench, checked, args.seed, keep or {})
    golden_runs, golden_bad = check_golden(bench)
    attempted = len(checked) + golden_runs
    failed = sum(1 for r in checked if r.key in problems) + len(golden_bad)
    decisions = sum(r.decisions for r in checked)
    degraded = sum(r.degraded for r in checked)
    info = [
        f"episodes: {len(checked)} timed runs of {len({r.key for r in checked})}/"
        f"{len(bench.episodes)} distinct, {sum(r.steps for r in checked)} ticks",
        f"golden digests: {golden_runs - len(golden_bad)}/{golden_runs} match"
        + (f"; mismatched: {', '.join(golden_bad)}" if golden_bad else ""),
    ]
    info += [f"problem: {key}: {problems[key]}" for key in sorted(problems)[:5]]
    if bench.stub is not None:
        info.append(
            f"stub: {bench.stub.requests - served_before} requests in the window, "
            f"{bench.stub.errors} refused, at most {bench.stub.max_connections} "
            f"connection(s) open, {bench.stub.delay_s * 1e3:g} ms delay each"
        )

    if args.trace == 0:
        raw = end_to_end(runs, setup, failed, attempted, normalize=False)
        metrics = end_to_end(runs, setup, failed, attempted)
        info.append(
            f"window: {window_s:.3f} s; p90 from {len(runs)} samples"
            + ("" if percentile_resolved(len(runs), 90) else " (fewer than 10 beyond it)")
            + f"; setup_s from {len(setup)} cold starts"
        )
        info.append(
            f"machine speed: mean factor {statistics.mean(r.factor for r in runs):.4f} from "
            f"{samples} reference-loop runs ({speed.REFERENCE_MS} ms at factor 1); CPU time is "
            f"{ratio(sum(r.cpu_ms for r in runs), sum(r.ms for r in runs)):.3f} of episode wall time"
        )
        info.append(
            "raw wall times: "
            + ", ".join(f"{k}={raw[k]:.6g}" for k in ("setup_s", "episodes_per_s", "ms_per_tick", "episode_ms_p50", "episode_ms_p90"))
        )
    else:
        posts = tracer.totals.nested.get(("reasoner.http_post", "reasoner.remote"), 0)
        if served != posts:
            failed += 1
            info.append(
                f"problem: the stub served {served} requests in traced episodes "
                f"but the client posted {posts}"
            )
        info.append(
            f"traced episodes: {tracer.totals.episodes}; stub requests in them: {served}; "
            f"absent hooks: {', '.join(tracer.totals.absent) or 'none'}"
        )
        metrics = per_layer(tracer.totals, runs, traced)
    info.append(f"failed_frac: {ratio(failed, attempted):.6g} ({failed}/{attempted} episodes)")
    info.append(f"degraded_frac: {ratio(degraded, decisions):.6g} ({degraded}/{decisions} decisions)")
    return report(args, env, info, metrics, attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with its environment to this directory")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        _prepare_imports()
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        setup = setup_seconds(args.workload, args.seed) if args.trace == 0 else []
        bench = Bench(args.workload, args.seed)
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = benchmark(args, bench, setup)
    finally:
        bench.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
