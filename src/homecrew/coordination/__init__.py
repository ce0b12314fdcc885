"""Negotiation round and centralized allocation."""

from .allocate import (
    allocate,
    allocate_with_report,
    assemble_context,
    enumerate_joint_space,
    heuristic_allocation,
    score_joint,
)
from .negotiate import heuristic_proposal, make_proposal
from .types import (
    AgentView,
    AllocationInputs,
    CrossAgentContext,
    JointAction,
    Proposal,
    check_conflicts,
    remaining_by_predicate,
)

__all__ = [
    "AgentView",
    "AllocationInputs",
    "CrossAgentContext",
    "JointAction",
    "Proposal",
    "allocate",
    "allocate_with_report",
    "assemble_context",
    "check_conflicts",
    "enumerate_joint_space",
    "heuristic_allocation",
    "heuristic_proposal",
    "make_proposal",
    "remaining_by_predicate",
    "score_joint",
]
