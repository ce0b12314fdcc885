"""Command line entry points: run, bench, replay, report."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from ..errors import EngineError
from ..reasoner import TEMPLATE_V1
from ..reasoner.base import DEFAULT_PARSE_RETRIES
from ..reasoner.remote import DEFAULT_KEY_ENV, DEFAULT_TIMEOUT_S
from ..world import task_categories
from .benchmark import BenchmarkSpec, run_benchmark
from .config import (
    DEFAULT_MAX_STEPS,
    EpisodeConfig,
    RemoteConfig,
    load_config_file,
)
from .episode import replay_trace, run_episode
from .metrics import aggregate, format_table, read_long_csv
from .trace import load_trace, trace_sha256, write_trace


def parse_backend(value: str) -> Tuple[str, str]:
    """'heuristic' for both roles, or 'manager=remote,members=heuristic'."""
    if "=" not in value:
        return value, value
    parts = {}
    for item in value.split(","):
        if not item:
            continue
        key, _, name = item.partition("=")
        parts[key.strip()] = name.strip()
    manager = parts.get("manager", "heuristic")
    member = parts.get("members", parts.get("member", "heuristic"))
    return manager, member


def parse_int_list(value: str) -> Tuple[int, ...]:
    return tuple(int(item) for item in value.split(",") if item.strip())


def parse_seeds(value: str) -> Tuple[int, ...]:
    """A bare count N means seeds 0..N-1; otherwise an explicit list."""
    stripped = value.strip()
    if "," not in stripped and stripped.isdigit():
        return tuple(range(int(stripped)))
    return parse_int_list(value)


def add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="heuristic",
        help="backend for both roles, or manager=NAME,members=NAME",
    )
    parser.add_argument("--endpoint-url", default="", help="remote base URL")
    parser.add_argument("--model", default="", help="remote model name")
    parser.add_argument(
        "--key-env",
        default=DEFAULT_KEY_ENV,
        help="environment variable holding the remote API key",
    )
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S)
    parser.add_argument("--fixtures", default=None, help="scripted fixtures JSONL")
    parser.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    parser.add_argument("--parse-retries", type=int, default=DEFAULT_PARSE_RETRIES)
    parser.add_argument("--template", default=TEMPLATE_V1)
    parser.add_argument(
        "--config", default=None, help="JSON file of defaults for these options"
    )


def build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="homecrew",
        description="household multi-robot coordination benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a single episode")
    add_common_options(run_parser)
    run_parser.add_argument("--task", required=True, choices=task_categories())
    run_parser.add_argument("--agents", type=int, default=2)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-allocation", action="store_true")
    run_parser.add_argument("--no-summary", action="store_true")
    run_parser.add_argument("--out", default=None, help="trace JSONL path")

    bench_parser = sub.add_parser("bench", help="run a benchmark grid")
    add_common_options(bench_parser)
    bench_parser.add_argument("--tasks", default=",".join(task_categories()))
    bench_parser.add_argument("--agents", default="1,2,3")
    bench_parser.add_argument(
        "--seeds", default="20", help="count N for seeds 0..N-1, or a,b,c"
    )
    bench_parser.add_argument("--variants", default="full,no_summary,no_allocation")
    bench_parser.add_argument("--out", default=None, help="output directory")

    replay_parser = sub.add_parser("replay", help="re-run a recorded trace")
    replay_parser.add_argument("--trace", required=True)

    report_parser = sub.add_parser("report", help="re-aggregate a bench directory")
    report_parser.add_argument("--dir", required=True)

    return parser, {
        "run": run_parser,
        "bench": bench_parser,
        "replay": replay_parser,
        "report": report_parser,
    }


def apply_config_file(args, subparser) -> bool:
    """Install config-file values as defaults; explicit flags still win.
    Returns True when a second parse is needed."""
    if not getattr(args, "config", None):
        return False
    values = load_config_file(args.config)
    mapped = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config"):
            raise EngineError(f"config file sets unknown option {key!r}")
        mapped[dest] = value
    subparser.set_defaults(**mapped)
    return True


def episode_config_from_args(
    args, task: str, num_agents: int, seed: int, use_allocation=True, use_summaries=True
) -> EpisodeConfig:
    manager_backend, member_backend = parse_backend(args.backend)
    remote = RemoteConfig(
        endpoint_url=args.endpoint_url,
        model=args.model,
        api_key_env=args.key_env,
        timeout_s=args.timeout,
    )
    return EpisodeConfig(
        task=task,
        num_agents=num_agents,
        seed=seed,
        manager_backend=manager_backend,
        member_backend=member_backend,
        use_allocation=use_allocation,
        use_summaries=use_summaries,
        max_steps=args.max_steps,
        parse_retries=args.parse_retries,
        template=args.template,
        remote=remote,
        fixtures_path=args.fixtures,
    )


def cmd_run(args) -> int:
    config = episode_config_from_args(
        args,
        task=args.task,
        num_agents=args.agents,
        seed=args.seed,
        use_allocation=not args.no_allocation,
        use_summaries=not args.no_summary,
    )
    result = run_episode(config)
    records = list(result.records)
    if args.out:
        write_trace(records, args.out)
    print(
        f"task={result.task} agents={result.num_agents} seed={result.seed} "
        f"variant={result.variant} success={result.success} steps={result.steps} "
        f"satisfied={result.satisfied}/{result.total} summaries={result.num_summaries} "
        f"degraded={result.degraded_exchanges} sha256={trace_sha256(records)}"
    )
    if args.out:
        print(f"trace written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    tasks = tuple(item for item in args.tasks.split(",") if item.strip())
    base = episode_config_from_args(args, task=tasks[0], num_agents=1, seed=0)
    spec = BenchmarkSpec(
        base=base,
        tasks=tasks,
        agent_counts=parse_int_list(args.agents),
        seeds=parse_seeds(args.seeds),
        variants=tuple(item for item in args.variants.split(",") if item.strip()),
    )
    outcome = run_benchmark(spec, out_dir=args.out)
    print(format_table(outcome.cells))
    if args.out:
        print(f"\nwrote long.csv, metrics.csv, metrics.json, traces/ to {args.out}")
    return 0


def cmd_replay(args) -> int:
    records = load_trace(args.trace)
    result, ok, message = replay_trace(records)
    if ok:
        print(f"replay PASS steps={result.steps} success={result.success}")
        return 0
    print(f"replay FAIL: {message}")
    return 1


def cmd_report(args) -> int:
    rows = read_long_csv(os.path.join(args.dir, "long.csv"))
    print(format_table(aggregate(rows)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "bench") and apply_config_file(
            args, subparsers[args.command]
        ):
            args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "replay":
            return cmd_replay(args)
        return cmd_report(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
