"""Deterministic structured backend.

Computes every decision directly from the request's structured payload, so
runs need no network and are exactly reproducible. Two of the text path's
degraded fallbacks call the same functions, so they decide as this backend
does: ALLOCATE (``heuristic_allocation``) and SUMMARIZE (``template_digest``).
PROPOSE does not: ``make_proposal`` falls back to a bare sweep of the
top-ranked room, with no alternatives.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from ..errors import ContractViolation
from .base import (
    ALLOCATE,
    PROPOSE,
    STRUCTURED,
    SUMMARIZE,
    Reasoner,
    ReasonerRequest,
)


class HeuristicReasoner(Reasoner):
    name = "heuristic"
    produces = STRUCTURED

    def __init__(self) -> None:
        # Looked up by path: the coordination package's ``allocate`` is the
        # function, not its module. Each decision reads its function off the
        # module at call time, so a function patched onto the module is the
        # one called.
        self._negotiate = import_module("..coordination.negotiate", __package__)
        self._allocate = import_module("..coordination.allocate", __package__)
        self._summaries = import_module("..summaries", __package__)

    def invoke(self, request: ReasonerRequest) -> Any:
        kind, payload = request.kind, request.structured_payload
        if kind == PROPOSE:
            return self._negotiate.heuristic_proposal(payload)
        if kind == ALLOCATE:
            return self._allocate.heuristic_allocation(payload)
        if kind == SUMMARIZE:
            return self._summaries.template_digest(payload.records, payload.delta)
        raise ContractViolation(f"unknown request kind {kind!r}")
