"""Reasoning backends and the response grammar."""

from .base import (
    ALLOCATE,
    PROPOSE,
    STRUCTURED,
    SUMMARIZE,
    TEXT,
    Reasoner,
    ReasonerRequest,
    ReasonerResponse,
)
from .heuristic import HeuristicReasoner
from .parsing import (
    format_allocation,
    parse_allocation,
    parse_proposal,
    parse_task,
)
from .prompts import (
    NO_SUMMARIES_MARKER,
    TEMPLATE_V1,
    AgentBlock,
    AllocatePayload,
    ProposePayload,
    SummarizePayload,
    render_prompt,
)
from .remote import DEFAULT_KEY_ENV, RemoteReasoner
from .scripted import ScriptedReasoner, load_fixtures

__all__ = [
    "ALLOCATE",
    "AgentBlock",
    "AllocatePayload",
    "DEFAULT_KEY_ENV",
    "HeuristicReasoner",
    "NO_SUMMARIES_MARKER",
    "PROPOSE",
    "ProposePayload",
    "Reasoner",
    "ReasonerRequest",
    "ReasonerResponse",
    "RemoteReasoner",
    "STRUCTURED",
    "SUMMARIZE",
    "ScriptedReasoner",
    "SummarizePayload",
    "TEMPLATE_V1",
    "TEXT",
    "format_allocation",
    "load_fixtures",
    "parse_allocation",
    "parse_proposal",
    "parse_task",
    "render_prompt",
]
