"""Episode traces: deterministic JSONL, one record per line.

Serialization is pinned to json.dumps(sort_keys=True, separators=(",", ":")),
and records carry no wall-clock material, so equal runs produce byte-equal
files. Record types: header, exchange, allocation, summary, tick, end.
Exchange records hold every raw text-backend response (null for a transport
failure), which is exactly what a replay needs to rebuild the backends.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..errors import ContractViolation
from ..reasoner.base import REQUEST_KINDS

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


def render_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def render_trace(records: List[dict]) -> str:
    return "\n".join(render_line(record) for record in records) + "\n"


def trace_sha256(records: List[dict]) -> str:
    return hashlib.sha256(render_trace(records).encode("utf-8")).hexdigest()


def write_trace(records: List[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_trace(records))


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
    except (OSError, ValueError) as exc:
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def end_of(records: List[dict]) -> dict:
    if not records or records[-1].get("type") != "end":
        raise ContractViolation("trace does not finish with an end record")
    end = records[-1]
    if not _is_int(end.get("steps")) or not isinstance(end.get("success"), bool):
        raise ContractViolation("trace end record lacks integer steps or a success flag")
    return end


def exchanges_of(
    records: List[dict],
) -> List[Tuple[str, int, int, Optional[str]]]:
    """(kind, tick, agent_id, response) tuples in recorded order, ready for
    ScriptedReasoner.from_exchanges. An exchange record needs a known kind,
    int tick and agent_id, and a response that is a string or null."""
    exchanges = []
    for number, r in enumerate(records, 1):
        if r.get("type") != "exchange":
            continue
        kind, tick, agent_id = r.get("kind"), r.get("tick"), r.get("agent_id")
        response = r.get("response")
        if (
            kind not in REQUEST_KINDS
            or not _is_int(tick)
            or not _is_int(agent_id)
            or "response" not in r
            or not (response is None or isinstance(response, str))
        ):
            raise ContractViolation(f"trace record {number} is a malformed exchange")
        exchanges.append((kind, tick, agent_id, response))
    return exchanges


def action_stream(records: List[dict]) -> List[Tuple[int, Dict[str, str]]]:
    """Per-tick primitive actions, the unit replay fidelity is judged on. A
    tick record needs an int tick and an actions object of strings."""
    stream = []
    for number, r in enumerate(records, 1):
        if r.get("type") != "tick":
            continue
        tick, actions = r.get("tick"), r.get("actions")
        if not (
            _is_int(tick)
            and isinstance(actions, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in actions.items())
        ):
            raise ContractViolation(f"trace record {number} is a malformed tick")
        stream.append((tick, dict(actions)))
    return stream
