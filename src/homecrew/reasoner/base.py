"""Reasoner backend contract.

Every decision point (member proposals, the manager's allocation, progress
summaries) is asked through ``ask``: it builds the request, invokes the
backend and reads what ``invoke`` returns. Structured backends return the
decision itself, computed from the decision's typed inputs; text backends
return the reply text. ``ask`` owns both halves of the text grammar: it
renders the prompt (``prompts.render_prompt``) and reads the reply
(``parsing.parse_reply``), so a structured run loads neither. It is also
the one fallback: a text decision with no usable reply is the heuristic
backend's decision on the same inputs.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..errors import RemoteBackendError, ResponseParseError
from ..world.types import value_type

PROPOSE = "PROPOSE"
ALLOCATE = "ALLOCATE"
SUMMARIZE = "SUMMARIZE"

REQUEST_KINDS = (PROPOSE, ALLOCATE, SUMMARIZE)

# Backends either compute from the structured payload or emit text to parse.
STRUCTURED = "structured"
TEXT = "text"

# How many times a proposal or allocation re-asks a text backend after an
# unusable reply; a summary is never re-asked.
PARSE_RETRIES = 2

# The prompt layout's name, written into every trace header. A new layout
# gets a new name, never an edit of this one in place.
TEMPLATE_V1 = "template_v1"


@value_type
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
    reasoner: Reasoner, kind: str, inputs: Any, tick: int, agent_id: int
) -> Tuple[Any, int, Optional[str]]:
    """(decision, attempts made, note) for one decision of ``kind`` on
    ``inputs``. A structured backend is invoked once with the inputs alone
    and no prompt is built. A text backend gets the prompt rendered once from
    the inputs, and ``parse_reply`` reads each reply; a reply it refuses with
    ResponseParseError is re-asked with the identical request up to
    PARSE_RETRIES times, except a summary, which is never re-asked. A
    transport failure ends the asking at once. When no reply is accepted,
    the decision is the heuristic backend's on the same inputs and the note
    is the last failure's message, which may be empty; the note is None
    exactly when a reply or a structured backend decided."""
    if reasoner.produces == STRUCTURED:
        return reasoner.invoke(ReasonerRequest(kind, inputs)), 1, None
    # Deferred: the text grammar and the heuristic import this module for
    # the request kinds.
    from .heuristic import HeuristicReasoner
    from .parsing import parse_reply
    from .prompts import render_prompt

    request = ReasonerRequest(kind, inputs, render_prompt(kind, inputs), tick, agent_id)
    attempts = 1 if kind == SUMMARIZE else 1 + PARSE_RETRIES
    for attempt in range(1, attempts + 1):
        try:
            reply = reasoner.invoke(request)
        except RemoteBackendError as exc:
            attempts, note = attempt, str(exc)
            break
        try:
            return parse_reply(kind, reply, inputs), attempt, None
        except ResponseParseError as exc:
            note = str(exc)
    return HeuristicReasoner().invoke(ReasonerRequest(kind, inputs)), attempts, note
