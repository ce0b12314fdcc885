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

from ..errors import ConfigError
from ..reasoner import (
    HeuristicReasoner,
    Reasoner,
    RemoteReasoner,
    ScriptedReasoner,
    TEMPLATE_V1,
    load_fixtures,
)
from ..reasoner.base import DEFAULT_PARSE_RETRIES
from ..reasoner.prompts import check_template
from ..reasoner.remote import (
    DEFAULT_KEY_ENV,
    DEFAULT_TIMEOUT_S,
    DEFAULT_TRANSPORT_RETRIES,
)
from ..world import scenarios, task_categories

BACKENDS = ("heuristic", "remote", "scripted")

DEFAULT_MAX_STEPS = 250


def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    _check_int(name, value)
    if value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class RemoteConfig:
    """Where text decisions go and how long each may take. timeout_s and
    transport_retries bound every request; max_concurrency bounds how many
    of one tick's decisions are in flight at once (1 sends them in turn)."""

    endpoint_url: str = ""
    model: str = ""
    api_key_env: str = DEFAULT_KEY_ENV
    timeout_s: float = DEFAULT_TIMEOUT_S
    transport_retries: int = DEFAULT_TRANSPORT_RETRIES
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
        _check_count("transport_retries", self.transport_retries, 0)
        _check_count("max_concurrency", self.max_concurrency, 1)


@dataclass(frozen=True)
class EpisodeConfig:
    task: str
    num_agents: int = 2
    seed: int = 0
    manager_backend: str = "heuristic"
    member_backend: str = "heuristic"
    use_allocation: bool = True
    use_summaries: bool = True
    max_steps: int = DEFAULT_MAX_STEPS
    parse_retries: int = DEFAULT_PARSE_RETRIES
    template: str = TEMPLATE_V1
    remote: RemoteConfig = field(default_factory=RemoteConfig)
    fixtures_path: Optional[str] = None

    def __post_init__(self):
        if self.task not in task_categories():
            raise ConfigError(f"unknown task category {self.task!r}")
        _check_int("num_agents", self.num_agents)
        if not 1 <= self.num_agents <= scenarios.MAX_AGENTS:
            raise ConfigError(
                f"num_agents must be in 1..{scenarios.MAX_AGENTS}, got {self.num_agents}"
            )
        _check_int("seed", self.seed)
        _check_count("max_steps", self.max_steps, 1)
        _check_count("parse_retries", self.parse_retries, 0)
        check_template(self.template)
        for name in (self.manager_backend, self.member_backend):
            if name not in BACKENDS:
                raise ConfigError(f"unknown backend {name!r}")

    @property
    def variant(self) -> str:
        if self.use_allocation and self.use_summaries:
            return "full"
        if not self.use_allocation and not self.use_summaries:
            return "no_allocation+no_summary"
        return "no_allocation" if not self.use_allocation else "no_summary"


def variant_flags(variant: str) -> Tuple[bool, bool]:
    """(use_allocation, use_summaries) for a variant name; the inverse of
    EpisodeConfig.variant for the names it produces."""
    return ("no_allocation" not in variant, "no_summary" not in variant)


def build_reasoner(config: EpisodeConfig, backend: str) -> Reasoner:
    if backend == "heuristic":
        return HeuristicReasoner()
    if backend == "remote":
        remote = config.remote
        if not remote.endpoint_url or not remote.model:
            raise ConfigError("remote backend needs --endpoint-url and --model")
        return RemoteReasoner(
            endpoint_url=remote.endpoint_url,
            model=remote.model,
            api_key_env=remote.api_key_env,
            timeout_s=remote.timeout_s,
            transport_retries=remote.transport_retries,
        )
    if backend == "scripted":
        if not config.fixtures_path:
            raise ConfigError("scripted backend needs --fixtures")
        return ScriptedReasoner(load_fixtures(config.fixtures_path))
    raise ConfigError(f"unknown backend {backend!r}")


def load_config_file(path: str) -> dict:
    """JSON file of CLI defaults; keys mirror the long option names."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data
