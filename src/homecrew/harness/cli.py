"""Command line entry points: run, bench, replay, report."""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, Optional, Tuple

from ..errors import ConfigError, EngineError
from ..reasoner.scripted import load_fixtures
from ..world.scenarios import task_categories
from .config import (
    DEFAULT_MAX_STEPS,
    EpisodeConfig,
    RemoteConfig,
    load_config_file,
)
from .episode import replay_trace, run_episode
from .trace import load_trace, trace_sha256, write_trace


def split_list(value: str) -> Tuple[str, ...]:
    """The non-blank items of a comma-separated flag, stripped."""
    return tuple(item.strip() for item in value.split(",") if item.strip())


def parse_backend(value: str) -> Tuple[str, str]:
    """'heuristic' for both roles, or 'manager=remote,members=heuristic'.
    ``member`` and ``members`` name one role, and no role may be named twice."""
    if "=" not in value:
        return value, value
    parts = {}
    for item in split_list(value):
        key, _, name = (part.strip() for part in item.partition("="))
        if key not in ("manager", "members", "member") or not name:
            raise ConfigError(f"--backend item {item!r} is not manager=, members= or member=NAME")
        role = "manager" if key == "manager" else "members"
        if role in parts:
            raise ConfigError(f"--backend item {item!r} names the {role} role a second time")
        parts[role] = name
    return parts.get("manager", "heuristic"), parts.get("members", "heuristic")


def integer(value: str) -> int:
    """An integer flag's value: ASCII digits with an optional leading '-', once
    stripped. int() alone also reads '1_0', '+5' and non-ASCII digits."""
    text = value.strip()
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{value!r} is not an integer")
    return int(text)


def seconds(value: str) -> float:
    """A duration flag's value: ASCII digits with an optional fraction, once
    stripped. float() alone also reads '1_0', '1e3', 'inf' and non-ASCII digits."""
    text = value.strip()
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text):
        raise ValueError(f"{value!r} is not a number of seconds")
    return float(text)


def parse_int_list(value: str) -> Tuple[int, ...]:
    try:
        return tuple(integer(item) for item in split_list(value))
    except ValueError:
        raise ConfigError(f"{value!r} is not a comma-separated list of integers")


# The largest bare seed count: 10,000 seeds already make a 450,000-episode
# default grid, and a larger count is refused before its range is built.
MAX_SEEDS = 10_000


def parse_seeds(value: str) -> Tuple[int, ...]:
    """A bare count N, at most MAX_SEEDS, means seeds 0..N-1; otherwise an
    explicit list."""
    if "," in value or not value.strip().isdigit():
        return parse_int_list(value)
    count = parse_int_list(value)[0]
    if count > MAX_SEEDS:
        raise ConfigError(f"--seeds {count} is more than {MAX_SEEDS} seeds")
    return tuple(range(count))


def check_out(path: str) -> None:
    """Refuse a trace --out path before the episode runs: it must not be a
    directory, and it must go into one that exists."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory, not a trace file")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"--out {path}: its directory does not exist")


class ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, except that a refused argument raises ConfigError,
    which main reports in one error: line like every other refusal."""

    def error(self, message: str):
        raise ConfigError(message)


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
        default=RemoteConfig.api_key_env,
        help="environment variable holding the remote API key",
    )
    parser.add_argument("--timeout", type=seconds, default=RemoteConfig.timeout_s)
    parser.add_argument("--fixtures", default=None, help="scripted fixtures JSONL")
    parser.add_argument("--max-steps", type=integer, default=DEFAULT_MAX_STEPS)
    parser.add_argument(
        "--config", default=None, help="JSON file of defaults for these options"
    )


def build_parser() -> Tuple[ArgumentParser, dict]:
    parser = ArgumentParser(
        prog="homecrew",
        description="household multi-robot coordination benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a single episode")
    add_common_options(run_parser)
    run_parser.add_argument("--task", required=True, choices=task_categories())
    run_parser.add_argument("--agents", type=integer, default=2)
    run_parser.add_argument("--seed", type=integer, default=0)
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
        if dest not in vars(args) or dest in ("command", "config"):
            raise ConfigError(f"config file sets unknown option {key!r}")
        # Numbers are checked by the configs, except that argparse would
        # convert a string through the flag's type; all else is checked here.
        default = subparser.get_default(dest)
        expected = str if default is None else type(default)
        number = expected in (int, float)
        if isinstance(value, str) if number else not isinstance(value, expected):
            name = "number" if number else expected.__name__
            raise ConfigError(f"config file sets {key!r} to {value!r}, not a {name}")
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
        remote=remote,
        fixtures=None if args.fixtures is None else load_fixtures(args.fixtures),
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
    if args.out:
        check_out(args.out)
    result = run_episode(config)
    records = list(result.records)
    if args.out:
        write_trace(records, args.out)
    end = result.end
    print(
        f"task={config.task} agents={config.num_agents} seed={config.seed} "
        f"variant={config.variant} success={result.success} steps={result.steps} "
        f"satisfied={end['satisfied']}/{end['total']} summaries={end['summaries']} "
        f"degraded={result.degraded_exchanges} sha256={trace_sha256(records)}"
    )
    if args.out:
        print(f"trace written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    # Imported here, as in cmd_report, so that run and replay never load them.
    from .benchmark import cell_configs, run_benchmark
    from .metrics import format_table

    configs = cell_configs(
        episode_config_from_args(args, task_categories()[0], num_agents=1, seed=0),
        tasks=split_list(args.tasks),
        agent_counts=parse_int_list(args.agents),
        seeds=parse_seeds(args.seeds),
        variants=split_list(args.variants),
    )
    print(format_table(run_benchmark(configs, out_dir=args.out)))
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
    from .metrics import aggregate, format_table, read_long_csv

    rows = read_long_csv(os.path.join(args.dir, "long.csv"))
    print(format_table(aggregate(rows)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("run", "bench"):
            if apply_config_file(args, subparsers[args.command]):
                args = parser.parse_args(argv)
            # A blank path would write into the working directory, or nowhere.
            if args.out is not None and not args.out.strip():
                raise ConfigError(f"--out {args.out!r} is blank")
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "replay":
            return cmd_replay(args)
        return cmd_report(args)
    except EngineError as exc:
        # One line, even where the message quotes an argument raw.
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
