"""Reasoner backend contract.

Every decision point (member proposals, the manager's allocation, progress
summaries) goes through one interface: build a request, invoke a backend,
get a response. Structured backends answer from the typed payload; text
backends answer with raw text that the calling module parses and validates,
asking through ``ask``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

from ..errors import RemoteBackendError, ResponseParseError

PROPOSE = "PROPOSE"
ALLOCATE = "ALLOCATE"
SUMMARIZE = "SUMMARIZE"

REQUEST_KINDS = (PROPOSE, ALLOCATE, SUMMARIZE)

# Backends either compute from the structured payload or emit text to parse.
STRUCTURED = "structured"
TEXT = "text"

# How many times a decision re-asks a text backend after an unusable reply.
PARSE_RETRIES = 2


@dataclass(frozen=True)
class ReasonerRequest:
    """rendered_prompt is built only for text backends; structured ones read
    structured_payload alone."""

    kind: str
    structured_payload: Any
    rendered_prompt: str = ""
    tick: int = 0
    agent_id: int = 0


@dataclass(frozen=True)
class ReasonerResponse:
    """raw_text is set by text backends; parsed by structured ones. latency_s
    and token_counts are runtime metadata and never enter traces."""

    raw_text: Optional[str] = None
    parsed: Any = None
    latency_s: float = 0.0
    token_counts: Mapping[str, int] = field(default_factory=dict)


class Reasoner:
    """Backend interface; subclasses set ``name`` and ``produces``."""

    name = "base"
    produces = TEXT

    def invoke(self, request: ReasonerRequest) -> ReasonerResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; nothing by default."""


def ask(
    reasoner: Reasoner,
    request: ReasonerRequest,
    parse: Callable[[str], Any],
    retries: int = PARSE_RETRIES,
) -> Tuple[Any, int, str]:
    """(parsed reply or None, attempts made, note) for one text decision.
    A reply that ``parse`` refuses with ResponseParseError is re-asked with
    the identical request up to ``retries`` times; a transport failure ends
    the asking at once. The note is the last failure's message, and empty
    when a reply was accepted."""
    note = ""
    for attempt in range(1, 2 + retries):
        try:
            response = reasoner.invoke(request)
        except RemoteBackendError as exc:
            return None, attempt, str(exc)
        try:
            return parse(response.raw_text or ""), attempt, ""
        except ResponseParseError as exc:
            note = str(exc)
    return None, 1 + retries, note
