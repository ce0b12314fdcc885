"""Value types for the negotiation and allocation round."""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List, Mapping, Tuple

from ..agents.belief import Belief
from ..agents.execution import MacroTask
from ..agents.records import HistoryRecord
from ..summaries import Summary
from ..world.types import GoalSpec, HouseMap, Observation, TaskProgress, value_type


# The most ranked backups a proposal carries: the heuristic builds no more and
# replies are cut to it, so the allocator reads every alternative it gets.
MAX_ALTERNATIVES = 3


@value_type
class Proposal:
    """One member's bid for this round: a candidate task, short reasoning,
    and up to MAX_ALTERNATIVES ranked backups."""

    agent_id: int
    candidate: MacroTask
    rationale: str = ""
    alternatives: Tuple[MacroTask, ...] = ()

    def render_alternatives(self) -> Tuple[str, ...]:
        return tuple(task.render() for task in self.alternatives)


@value_type
class ContextEntry:
    """One agent's contribution to the shared round context: its proposal,
    belief and observation."""

    agent_id: int
    proposal: Proposal
    belief: Belief
    observation: Observation


@value_type
class JointAction:
    """One macro task per agent for this round."""

    tasks: Mapping[int, MacroTask]

    def items(self) -> List[Tuple[int, MacroTask]]:
        return sorted(self.tasks.items())


@value_type
class AgentView:
    """Everything one member knows when proposing: its own belief and
    observation, its own recent records, and the shared goal/progress."""

    agent_id: int
    tick: int
    num_agents: int
    house: HouseMap
    goal: GoalSpec
    progress: TaskProgress
    observation: Observation
    belief: Belief
    history_window: Tuple[HistoryRecord, ...] = ()


@value_type
class AllocationInputs:
    """The inputs of an ALLOCATE decision, for any backend: every agent's
    round contribution in agent-id order, plus the shared goal, progress
    and summaries."""

    tick: int
    entries: Tuple[ContextEntry, ...]
    house: HouseMap
    summaries: Tuple[Summary, ...]
    progress: TaskProgress
    goal: GoalSpec
    # merge_team_belief of the entries' beliefs in entry (agent-id) order.
    # Never compared.
    team: Belief = field(compare=False, repr=False)

    def entry(self, agent_id: int) -> ContextEntry:
        for entry in self.entries:
            if entry.agent_id == agent_id:
                return entry
        raise KeyError(f"agent {agent_id} not in context")

    def agent_ids(self) -> Tuple[int, ...]:
        return tuple(entry.agent_id for entry in self.entries)


def remaining_by_predicate(goal: GoalSpec, progress: TaskProgress) -> Dict[Tuple[str, str, str], int]:
    """How many units each goal predicate still needs, keyed by
    (relation, object_class, target). Used by the conflict check and scorer.
    ``progress`` must be the goal's own: one entry per predicate."""
    return {
        pred.key(): max(0, pred.count - have)
        for pred, have in zip(goal.predicates, progress.by_predicate, strict=True)
    }


def check_conflicts(
    joint: JointAction, remaining: Dict[Tuple[str, str, str], int]
) -> List[str]:
    """Conflict rules every accepted joint action must satisfy: no two agents
    on one bound object, and no predicate in ``remaining`` loaded past its
    remaining unit count (an empty ``remaining`` checks bound objects only).
    Returns human-readable violations; empty means conflict-free."""
    violations: List[str] = []
    bound_ids: Dict[str, List[int]] = {}
    predicate_load: Dict[Tuple[str, str, str], List[int]] = {}
    for agent_id, task in joint.items():
        if task.object_id is not None:
            bound_ids.setdefault(task.object_id, []).append(agent_id)
        key = task.predicate_key()
        if key is not None:
            predicate_load.setdefault(key, []).append(agent_id)
    for object_id in sorted(bound_ids):
        agents = bound_ids[object_id]
        if len(agents) > 1:
            violations.append(f"object {object_id} assigned to agents {agents}")
    for key in sorted(predicate_load):
        if key in remaining and len(predicate_load[key]) > remaining[key]:
            violations.append(
                f"predicate {key} needs {remaining[key]} more unit(s) but "
                f"{len(predicate_load[key])} agents assigned"
            )
    return violations
