"""Run configuration and backend construction.

An EpisodeConfig pins everything a run depends on; two runs with equal
configs and backends must produce byte-identical traces. Remote endpoint
details live in RemoteConfig; the API key itself is only ever read from the
named environment variable when a request is sent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ConfigError, is_int
from ..reasoner.base import Reasoner
from ..reasoner.heuristic import HeuristicReasoner
from ..reasoner.remote import RemoteReasoner
from ..reasoner.scripted import Fixtures, ScriptedReasoner
from ..world.scenarios import task_categories

BACKENDS = ("heuristic", "remote", "scripted")

# The ablation variants in report order: (use_allocation, use_summaries).
VARIANTS = {
    "full": (True, True),
    "no_summary": (True, False),
    "no_allocation": (False, True),
    "no_allocation+no_summary": (False, False),
}

DEFAULT_MAX_STEPS = 250

MAX_AGENTS = 3


def _check_int(name: str, value) -> None:
    if not is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    _check_int(name, value)
    if value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class RemoteConfig:
    """The remote backend's settings. timeout_s bounds each attempt's connect
    and each wait for reply data; max_concurrency bounds how many of one
    tick's decisions are in flight at once (1 sends them in turn). The
    endpoint and model may stay empty until a RemoteReasoner checks them."""

    endpoint_url: str = ""
    model: str = ""
    api_key_env: str = "HOMECREW_API_KEY"
    timeout_s: float = 30.0
    max_concurrency: int = 4

    def __post_init__(self):
        timeout = self.timeout_s
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout < math.inf
        ):
            raise ConfigError(
                f"timeout must be a positive number of seconds, got {timeout!r}"
            )
        _check_count("max_concurrency", self.max_concurrency, 1)


@dataclass(frozen=True)
class EpisodeConfig:
    """One episode's settings: task, team size, seed, each role's backend,
    the variant's two flags and the step cap. A bad value is a ConfigError."""

    task: str
    num_agents: int = 2
    seed: int = 0
    manager_backend: str = "heuristic"
    member_backend: str = "heuristic"
    use_allocation: bool = True
    use_summaries: bool = True
    max_steps: int = DEFAULT_MAX_STEPS
    remote: RemoteConfig = field(default_factory=RemoteConfig)
    # The replies a scripted role plays, read once when the run is set up.
    fixtures: Optional[Fixtures] = field(default=None, repr=False)

    def __post_init__(self):
        if self.task not in task_categories():
            raise ConfigError(f"unknown task category {self.task!r}")
        _check_int("num_agents", self.num_agents)
        if not 1 <= self.num_agents <= MAX_AGENTS:
            raise ConfigError(f"num_agents must be in 1..{MAX_AGENTS}, got {self.num_agents}")
        _check_int("seed", self.seed)
        _check_count("max_steps", self.max_steps, 1)
        for name in (self.manager_backend, self.member_backend):
            if name not in BACKENDS:
                raise ConfigError(f"unknown backend {name!r}")

    @property
    def variant(self) -> str:
        flags = (bool(self.use_allocation), bool(self.use_summaries))
        return next(name for name, entry in VARIANTS.items() if entry == flags)

    @property
    def key(self) -> str:
        """The episode's name in bench trace files and pinned digests."""
        return f"{self.task}_{self.variant}_a{self.num_agents}_s{self.seed}"


def variant_flags(variant) -> Tuple[bool, bool]:
    """(use_allocation, use_summaries) for a variant name in VARIANTS."""
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    return VARIANTS[variant]


def build_reasoner(config: EpisodeConfig, backend: str) -> Reasoner:
    if backend == "heuristic":
        return HeuristicReasoner()
    if backend == "remote":
        return RemoteReasoner(config.remote)
    # EpisodeConfig admits no backend name but these three.
    if config.fixtures is None:
        raise ConfigError("scripted backend needs --fixtures")
    return ScriptedReasoner(config.fixtures)


def load_config_file(path: str) -> dict:
    """JSON file of CLI defaults; keys mirror the long option names."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data
