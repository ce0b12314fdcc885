"""Episode traces: deterministic JSONL, one record per line.

Serialization is pinned to one JSONEncoder(sort_keys=True, separators=(",", ":")),
and records carry no wall-clock material, so equal runs produce byte-equal
files. Record types: header, exchange, allocation, summary, tick, end.
Exchange records hold every raw text-backend response (null for a transport
failure, with the failure's message as ``error``), which is exactly what a
replay needs to rebuild the backends.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from ..errors import ConfigError, ContractViolation
from ..reasoner.scripted import Exchange, exchange_entry, is_int

TRACE_FORMAT = 1

# What a replay rebuilds the run from; a header missing any of them is refused.
HEADER_FIELDS = (
    "format",
    "task",
    "num_agents",
    "seed",
    "variant",
    "manager_backend",
    "member_backend",
    "max_steps",
    "template",
)


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
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"line {number} is not a JSON object")
                records.append(record)
    except (OSError, ValueError, RecursionError) as exc:
        raise ContractViolation(f"cannot read trace {path}: {exc}")
    return records


def header_of(records: List[dict]) -> dict:
    if not records or records[0].get("type") != "header":
        raise ContractViolation("trace does not start with a header record")
    header = records[0]
    missing = [name for name in HEADER_FIELDS if name not in header]
    if missing:
        raise ContractViolation(f"trace header lacks {', '.join(missing)}")
    if header["format"] != TRACE_FORMAT:
        raise ContractViolation(
            f"trace format {header['format']!r} is not {TRACE_FORMAT}"
        )
    return header


def end_of(records: List[dict]) -> dict:
    if not records or records[-1].get("type") != "end":
        raise ContractViolation("trace does not finish with an end record")
    end = records[-1]
    if not is_int(end.get("steps")) or not isinstance(end.get("success"), bool):
        raise ContractViolation("trace end record lacks integer steps or a success flag")
    return end


def exchanges_of(records: List[dict]) -> List[Exchange]:
    """(kind, tick, agent_id, response) tuples in recorded order, ready for
    ScriptedReasoner.from_exchanges. An exchange record is checked as a
    fixture line is (exchange_entry)."""
    exchanges = []
    for number, r in enumerate(records, 1):
        if r.get("type") != "exchange":
            continue
        entry = exchange_entry(r)
        if entry is None:
            raise ContractViolation(f"trace record {number} is a malformed exchange")
        exchanges.append(entry)
    return exchanges


def action_stream(records: List[dict]) -> None:
    """Check every tick record: an int tick and an actions object of strings.
    Replay compares the tick records whole; this refuses, before any rerun,
    one that no run could have written."""
    for number, r in enumerate(records, 1):
        if r.get("type") != "tick":
            continue
        tick, actions = r.get("tick"), r.get("actions")
        if not (
            is_int(tick)
            and isinstance(actions, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in actions.items())
        ):
            raise ContractViolation(f"trace record {number} is a malformed tick")
