"""Episode traces: deterministic JSONL, one record per line.

Serialization is pinned to one JSONEncoder(sort_keys=True, separators=(",", ":")),
and records carry no wall-clock material, so equal runs produce byte-equal
files. Record types: header, exchange, allocation, summary, tick, end.
The exchange records hold every raw text-backend response (null for a
transport failure, with the failure's message as ``error``), which is exactly
what a replay needs to rebuild the backends; check_trace reads them.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Tuple

from ..errors import ConfigError, ContractViolation, is_int
from ..reasoner.base import TEMPLATE_V1
from ..reasoner.scripted import Fixtures, exchange_entry, read_jsonl
from .config import EpisodeConfig, variant_flags

TRACE_FORMAT = 1

# The header fields read off the EpisodeConfig as they are.
CONFIG_FIELDS = ("task", "num_agents", "seed", "max_steps")
# The header fields naming each role's backend. A replay writes the backend
# that really answered (``scripted`` for a text one), so it skips them.
BACKEND_FIELDS = ("manager_backend", "member_backend")
# What a replay rebuilds the run from; a header missing any of them is refused.
HEADER_FIELDS = ("format", "variant", "template") + CONFIG_FIELDS + BACKEND_FIELDS


def header_record(config: EpisodeConfig, manager_backend: str, member_backend: str) -> dict:
    """The record a trace starts with: the trace format, the config's variant
    and CONFIG_FIELDS, the backend answering each role, and the prompt layout."""
    return {
        "type": "header", "format": TRACE_FORMAT, "template": TEMPLATE_V1,
        "variant": config.variant,
        **{name: getattr(config, name) for name in CONFIG_FIELDS},
        **dict(zip(BACKEND_FIELDS, (manager_backend, member_backend))),
    }


# json.dumps with these settings builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def render_line(record: dict) -> str:
    return _ENCODER.encode(record)


def render_trace(records: List[dict]) -> str:
    return "\n".join(render_line(record) for record in records) + "\n"


def trace_sha256(records: List[dict]) -> str:
    return hashlib.sha256(render_trace(records).encode("utf-8")).hexdigest()


def write_trace(records: List[dict], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_trace(records))
    except OSError as exc:
        raise ConfigError(f"cannot write trace {path}: {exc}") from exc


def load_trace(path: str) -> List[dict]:
    return [record for _, record in read_jsonl(path, "trace", ContractViolation)]


def check_trace(records: List[dict]) -> Tuple[EpisodeConfig, Fixtures]:
    """The config a trace was recorded under, and its exchanges queued per
    (kind, tick, agent_id) in recorded order: what a replay reruns it from.
    Every record a replay reads is checked first, so a trace no run could
    have written is refused before any rerun. The header must hold
    HEADER_FIELDS, the integer TRACE_FORMAT and the prompt layout this
    program renders; its variant is checked by variant_flags and its values
    by EpisodeConfig. The end record must hold integer steps and a success
    flag, each tick record an int tick and an actions object of strings, and
    each exchange record what a fixture line holds (exchange_entry)."""
    header = records[0] if records else {}
    if header.get("type") != "header":
        raise ContractViolation("trace does not start with a header record")
    missing = [name for name in HEADER_FIELDS if name not in header]
    if missing:
        raise ContractViolation(f"trace header lacks {', '.join(missing)}")
    if not (is_int(header["format"]) and header["format"] == TRACE_FORMAT):
        raise ContractViolation(f"trace format {header['format']!r} is not {TRACE_FORMAT}")
    if header["template"] != TEMPLATE_V1:
        raise ContractViolation(
            f"trace header names unknown prompt template {header['template']!r}"
        )
    use_allocation, use_summaries = variant_flags(header["variant"])
    config = EpisodeConfig(
        **{name: header[name] for name in CONFIG_FIELDS + BACKEND_FIELDS},
        use_allocation=use_allocation,
        use_summaries=use_summaries,
    )
    end = records[-1]
    if end.get("type") != "end":
        raise ContractViolation("trace does not finish with an end record")
    if not is_int(end.get("steps")) or not isinstance(end.get("success"), bool):
        raise ContractViolation("trace end record lacks integer steps or a success flag")
    fixtures: Fixtures = {}
    for number, record in enumerate(records, 1):
        if record.get("type") == "tick":
            tick, actions = record.get("tick"), record.get("actions")
            if not (
                is_int(tick)
                and isinstance(actions, dict)
                and all(isinstance(k, str) and isinstance(v, str) for k, v in actions.items())
            ):
                raise ContractViolation(f"trace record {number} is a malformed tick")
        elif record.get("type") == "exchange":
            entry = exchange_entry(record)
            if entry is None:
                raise ContractViolation(f"trace record {number} is a malformed exchange")
            key, response = entry
            fixtures.setdefault(key, []).append(response)
    return config, fixtures
