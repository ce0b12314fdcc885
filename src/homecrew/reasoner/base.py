"""Reasoner backend contract.

Every decision point (member proposals, the manager's allocation, progress
summaries) is asked through ``ask``: it builds the request, invokes the
backend and reads the response. Structured backends answer from the
decision's typed inputs; text backends answer with raw text that the calling
module's ``parse`` validates.
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
    kind: str,
    inputs: Any,
    parse: Callable[[str], Any],
    tick: int,
    agent_id: int,
    retries: int = PARSE_RETRIES,
) -> Tuple[Any, int, str]:
    """(decision or None, attempts made, note) for one decision of ``kind``
    on ``inputs``. A structured backend is invoked once with the inputs alone
    and no prompt is built. A text backend gets the prompt rendered once from
    the inputs; a reply that ``parse`` refuses with ResponseParseError is
    re-asked with the identical request up to ``retries`` times, and a
    transport failure ends the asking at once. The note is the last
    failure's message, and empty when a reply was accepted."""
    if reasoner.produces == STRUCTURED:
        return reasoner.invoke(ReasonerRequest(kind, inputs)).parsed, 1, ""
    # Deferred: prompts imports this module for the request kinds.
    from .prompts import render_prompt

    request = ReasonerRequest(kind, inputs, render_prompt(kind, inputs), tick, agent_id)
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
