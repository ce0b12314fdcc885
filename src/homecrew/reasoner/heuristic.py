"""Deterministic structured backend.

Computes every decision directly from the request's structured payload, so
runs need no network and are exactly reproducible. A text decision with no
usable reply is this backend's decision on the same inputs (``base.ask``).
"""

from __future__ import annotations

from typing import Any

from ..coordination.allocate import heuristic_allocation
from ..coordination.negotiate import heuristic_proposal
from ..errors import ContractViolation
from ..summaries import template_digest
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

    def invoke(self, request: ReasonerRequest) -> Any:
        kind, payload = request.kind, request.structured_payload
        if kind == PROPOSE:
            return heuristic_proposal(payload)
        if kind == ALLOCATE:
            return heuristic_allocation(payload)
        if kind == SUMMARIZE:
            return template_digest(payload.records, payload.delta)
        raise ContractViolation(f"unknown request kind {kind!r}")
