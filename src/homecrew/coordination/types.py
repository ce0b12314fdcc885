"""Value types for the negotiation and allocation round."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..agents.belief import Belief
from ..agents.execution import MacroTask
from ..agents.records import HistoryRecord
from ..summaries import CollaborativeSummary
from ..world.types import GoalSpec, HouseMap, Observation, TaskProgress


@dataclass(frozen=True)
class Proposal:
    """One member's bid for this round: a candidate task, short reasoning,
    and up to a handful of ranked backups."""

    agent_id: int
    candidate: MacroTask
    rationale: str = ""
    alternatives: Tuple[MacroTask, ...] = ()
    degraded: bool = False

    def render_alternatives(self) -> Tuple[str, ...]:
        return tuple(task.render() for task in self.alternatives)


@dataclass(frozen=True)
class Vocabulary:
    """The legal ids a reasoner response may mention, used to validate text
    responses without touching world state."""

    agent_ids: Tuple[int, ...]
    rooms: Tuple[str, ...]
    objects: Mapping[str, str]
    classes: Tuple[str, ...]
    surfaces: Tuple[str, ...]
    containers: Tuple[str, ...]

    @classmethod
    def from_house(cls, house: HouseMap, agent_ids: Tuple[int, ...]) -> "Vocabulary":
        return cls(
            agent_ids=tuple(sorted(agent_ids)),
            rooms=tuple(house.rooms),
            objects=dict(sorted(house.object_classes.items())),
            classes=tuple(sorted(set(house.object_classes.values()))),
            surfaces=tuple(sorted(house.surfaces)),
            containers=tuple(sorted(house.containers)),
        )

    def task_form_lines(self) -> Tuple[str, ...]:
        return (
            f"FETCH(<object id or class>, ON, <surface>) surfaces: {', '.join(self.surfaces)}",
            f"FETCH(<object id or class>, IN, <container>) containers: {', '.join(self.containers)}",
            f"EXPLORE(<room>) rooms: {', '.join(self.rooms)}",
            "IDLE",
        )


@dataclass(frozen=True)
class ContextEntry:
    """One agent's contribution to the shared round context: its proposal,
    belief and observation."""

    agent_id: int
    proposal: Proposal
    belief: Belief
    observation: Observation


@dataclass(frozen=True)
class CrossAgentContext:
    tick: int
    entries: Tuple[ContextEntry, ...]
    house: HouseMap

    @property
    def vocabulary(self) -> Vocabulary:
        """Built on demand: only text prompts and text responses need it."""
        return Vocabulary.from_house(self.house, self.agent_ids())

    def entry(self, agent_id: int) -> ContextEntry:
        for entry in self.entries:
            if entry.agent_id == agent_id:
                return entry
        raise KeyError(f"agent {agent_id} not in context")

    def agent_ids(self) -> Tuple[int, ...]:
        return tuple(entry.agent_id for entry in self.entries)


@dataclass(frozen=True)
class JointAction:
    """One macro task per agent for this round."""

    tasks: Mapping[int, MacroTask]

    def items(self) -> List[Tuple[int, MacroTask]]:
        return sorted(self.tasks.items())

    def task_for(self, agent_id: int) -> MacroTask:
        return self.tasks[agent_id]

    def render(self) -> str:
        return "; ".join(f"{aid}: {task.render()}" for aid, task in self.items())


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class AllocationInputs:
    """Structured payload for ALLOCATE requests."""

    context: CrossAgentContext
    summaries: CollaborativeSummary
    progress: TaskProgress
    goal: GoalSpec


def remaining_by_predicate(goal: GoalSpec, progress: TaskProgress) -> Dict[Tuple[str, str, str], int]:
    """How many units each goal predicate still needs, keyed by
    (relation, object_class, target). Used by the conflict check and scorer."""
    remaining: Dict[Tuple[str, str, str], int] = {}
    for idx, pred in enumerate(goal.predicates):
        have = progress.by_predicate[idx] if idx < len(progress.by_predicate) else 0
        remaining[pred.key()] = max(0, pred.count - have)
    return remaining


def check_conflicts(
    joint: JointAction,
    remaining: Optional[Dict[Tuple[str, str, str], int]] = None,
) -> List[str]:
    """Conflict rules every accepted joint action must satisfy: no two agents
    on one bound object, and no goal predicate oversubscribed beyond its
    remaining unit count (checked only when remaining counts are supplied).
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
    if remaining is not None:
        for key in sorted(predicate_load):
            if key in remaining and len(predicate_load[key]) > remaining[key]:
                violations.append(
                    f"predicate {key} needs {remaining[key]} more unit(s) but "
                    f"{len(predicate_load[key])} agents assigned"
                )
    return violations
