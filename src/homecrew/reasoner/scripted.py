"""Recorded replies: the exchange records a run writes, and the replay backend.

Fixtures map (kind, tick, agent_id) to a FIFO queue of raw responses, which
is exactly the information a trace's exchange records carry. Replaying a
trace therefore reproduces the original episode without any live backend;
running past the recorded script is a hard error rather than a silent
improvisation.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Type, Union

from ..errors import ConfigError, EngineError, FixtureExhausted, RemoteBackendError, is_int
from .base import REQUEST_KINDS, TEXT, Reasoner, ReasonerRequest

FixtureKey = Tuple[str, int, int]

# A reply, or the recorded transport failure that replays in its place.
FixtureValue = Union[str, RemoteBackendError]

# Each decision point's replies, queued in recorded order.
Fixtures = Dict[FixtureKey, List[FixtureValue]]


class RecordingReasoner(Reasoner):
    """Pass-through wrapper around a text backend that appends every exchange
    (response, or transport failure with its message) to the list it was
    given: one decision call's own buffer."""

    def __init__(self, inner: Reasoner, sink: List[dict]):
        self.inner = inner
        self.sink = sink

    def invoke(self, request: ReasonerRequest) -> str:
        entry = {
            "type": "exchange",
            "kind": request.kind,
            "tick": request.tick,
            "agent_id": request.agent_id,
        }
        try:
            reply = self.inner.invoke(request)
        except RemoteBackendError as exc:
            self.sink.append({**entry, "response": None, "error": str(exc)})
            raise
        self.sink.append({**entry, "response": reply})
        return reply


def exchange_entry(record) -> Optional[Tuple[FixtureKey, FixtureValue]]:
    """((kind, tick, agent_id), response) of a fixture line or a trace
    exchange record, which carry the same fields; None unless the kind is a
    request kind, tick and agent_id are ints and response a string or null.
    A null response is a transport failure; its message is the record's
    string ``error`` when it has one, a field no reply may carry."""
    if not isinstance(record, dict) or "response" not in record:
        return None
    kind, tick, agent_id, response = (
        record.get(name) for name in ("kind", "tick", "agent_id", "response")
    )
    if kind not in REQUEST_KINDS or not (is_int(tick) and is_int(agent_id)):
        return None
    key = (kind, tick, agent_id)
    if response is None:
        error = record.get("error", f"scripted transport failure for {key}")
        return (key, RemoteBackendError(error)) if isinstance(error, str) else None
    if isinstance(response, str) and "error" not in record:
        return key, response
    return None


class ScriptedReasoner(Reasoner):
    name = "scripted"
    produces = TEXT

    def __init__(self, fixtures: Fixtures):
        self._queues: Fixtures = {key: list(responses) for key, responses in fixtures.items()}

    def invoke(self, request: ReasonerRequest) -> str:
        key = (request.kind, request.tick, request.agent_id)
        queue = self._queues.get(key)
        if not queue:
            raise FixtureExhausted(f"no scripted response for {key}")
        value = queue.pop(0)
        if isinstance(value, RemoteBackendError):
            raise value
        return value


def read_jsonl(path: str, what: str, error: Type[EngineError]) -> List[Tuple[int, dict]]:
    """Each non-blank line of a file, numbered, as a JSON object. An unreadable
    file or a line that is not a JSON object raises ``cannot read {what} {path}``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    objects = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                value = json.loads(line)
            except (ValueError, RecursionError):
                value = None
            if not isinstance(value, dict):
                raise error(f"cannot read {what} {path}: line {number} is not a JSON object")
            objects.append((number, value))
    return objects


def load_fixtures(path: str) -> Fixtures:
    """Read fixtures from JSONL: one object per line with kind, tick,
    agent_id, and response fields (a null response replays a transport
    failure, with the line's ``error`` as its message). Repeated keys queue
    in file order; any other line is refused, naming it."""
    fixtures: Fixtures = {}
    for number, value in read_jsonl(path, "fixtures", ConfigError):
        entry = exchange_entry(value)
        if entry is None:
            raise ConfigError(
                f"fixtures {path} line {number} is not an object with a request "
                "kind, int tick and agent_id, and a string response or a null "
                "one with an optional string error"
            )
        key, response = entry
        fixtures.setdefault(key, []).append(response)
    return fixtures
