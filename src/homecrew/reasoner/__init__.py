"""Reasoning backends and the response grammar."""

from .base import (
    ALLOCATE,
    PROPOSE,
    STRUCTURED,
    SUMMARIZE,
    TEXT,
    Reasoner,
    ReasonerRequest,
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
    render_prompt,
)
from .remote import RemoteReasoner
from .scripted import ScriptedReasoner, load_fixtures

__all__ = [
    "ALLOCATE",
    "HeuristicReasoner",
    "NO_SUMMARIES_MARKER",
    "PROPOSE",
    "Reasoner",
    "ReasonerRequest",
    "RemoteReasoner",
    "STRUCTURED",
    "SUMMARIZE",
    "ScriptedReasoner",
    "TEMPLATE_V1",
    "TEXT",
    "format_allocation",
    "load_fixtures",
    "parse_allocation",
    "parse_proposal",
    "parse_task",
    "render_prompt",
]
