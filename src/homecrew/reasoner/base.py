"""Reasoner backend contract.

Every decision point (member proposals, the manager's allocation, progress
summaries) is asked through ``ask``: it builds the request, invokes the
backend and reads what ``invoke`` returns. Structured backends return the
decision itself, computed from the decision's typed inputs; text backends
return the reply text, which the calling module's ``parse`` validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple

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


class Reasoner:
    """Backend interface; subclasses set ``name`` and ``produces``.
    ``invoke`` returns the decision for a structured backend, and the reply
    text for a text backend, which raises RemoteBackendError instead when no
    reply arrives."""

    name = "base"
    produces = TEXT

    def invoke(self, request: ReasonerRequest) -> Any:
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
        return reasoner.invoke(ReasonerRequest(kind, inputs)), 1, ""
    # Deferred: prompts imports this module for the request kinds.
    from .prompts import render_prompt

    request = ReasonerRequest(kind, inputs, render_prompt(kind, inputs), tick, agent_id)
    note = ""
    for attempt in range(1, 2 + retries):
        try:
            reply = reasoner.invoke(request)
        except RemoteBackendError as exc:
            return None, attempt, str(exc)
        try:
            return parse(reply), attempt, ""
        except ResponseParseError as exc:
            note = str(exc)
    return None, 1 + retries, note
