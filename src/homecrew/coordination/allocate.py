"""Centralized allocation over the members' proposals.

The manager assembles every agent's proposal, belief, and observation into
one shared context, then picks the joint assignment. The deterministic
path returns the first strict maximum of score_joint over each agent's
candidate plus alternatives plus Idle, among joints that pass the conflict
rules (agents ascending, option order as listed). It finds that joint with a
pruned search over per-option terms; enumerate_joint_space and score_joint
state the same result directly. Text backends are asked for an assignment
line per agent; with no usable reply the joint is that same deterministic
one (``ask``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..agents.belief import Belief, merge_team_belief
from ..agents.execution import (
    MacroTask,
    believed_instance,
    held_matches,
    room_hides_content,
)
from ..reasoner.base import ALLOCATE, Reasoner, ask
from ..world.types import HouseMap, Observation
from .types import (
    AllocationInputs,
    ContextEntry,
    JointAction,
    Proposal,
    check_conflicts,
    remaining_by_predicate,
)

# Placing one needed goal unit outweighs any travel the house can require.
RELEVANCE_WEIGHT = 10
# Sweeping a room that can still hide objects must beat idling from anywhere,
# so this exceeds the longest path in the house.
NOVELTY_WEIGHT = 3
IDLE = MacroTask.idle()


@dataclass(frozen=True)
class AllocationReport:
    """How the decision was reached; recorded in traces, never in prompts."""

    attempts: int
    degraded: bool
    note: str = ""


def assemble_context(
    proposals: Sequence[Proposal],
    beliefs: Dict[int, Belief],
    observations: Dict[int, Observation],
) -> Tuple[ContextEntry, ...]:
    """Every agent's round contribution, ordered by agent id."""
    return tuple(
        ContextEntry(
            agent_id=p.agent_id,
            proposal=p,
            belief=beliefs[p.agent_id],
            observation=observations[p.agent_id],
        )
        for p in sorted(proposals, key=lambda p: p.agent_id)
    )


def _agent_options(entry: ContextEntry) -> List[MacroTask]:
    proposal = entry.proposal
    return list(dict.fromkeys((proposal.candidate, *proposal.alternatives, IDLE)))


def enumerate_joint_space(inputs: AllocationInputs) -> List[JointAction]:
    """Conflict-free joint assignments from the proposed options, in a fixed
    order: agents ascending, per-agent options as proposed (candidate first,
    then alternatives, then Idle), cartesian product row-major."""
    remaining = remaining_by_predicate(inputs.goal, inputs.progress)
    per_agent = [(entry.agent_id, _agent_options(entry)) for entry in inputs.entries]
    agent_ids = [agent_id for agent_id, _ in per_agent]
    joints: List[JointAction] = []
    for combo in itertools.product(*[options for _, options in per_agent]):
        joint = JointAction(tasks=dict(zip(agent_ids, combo)))
        if not check_conflicts(joint, remaining):
            joints.append(joint)
    return joints


def _fetch_term(
    task: MacroTask, entry: ContextEntry, house: HouseMap
) -> Tuple[bool, int]:
    """Whether this agent's belief leaves the fetch achievable, and the
    believed rooms of travel left. An object in hand that the task wants
    goes straight to the target. Else the instance believed_instance offers
    counts both legs, out to it and on to the target, so a carried object
    never looks dearer than one on a shelf (which would tell the agent to
    drop it). Else no travel is known, and the fetch stays achievable only
    while no instance of it is believed."""
    room = entry.observation.room
    target = house.room_of(str(task.target))
    held = entry.observation.held
    if held is not None and held_matches(task, held, house):
        return True, house.distance(room, target)
    fact = believed_instance(task, entry.belief, room, house)
    if fact is not None:
        object_room = str(house.location_room(fact.location))
        return True, house.distance(room, object_room) + house.distance(object_room, target)
    if task.object_id is not None:
        return task.object_id not in entry.belief.facts, 0
    return task.object_class not in (f.object_class for f in entry.belief.facts.values()), 0


def score_joint(joint: JointAction, inputs: AllocationInputs) -> int:
    """Deterministic utility of a joint assignment: per agent, goal relevance
    (a needed, achievable fetch unit) weighted RELEVANCE_WEIGHT, minus rooms
    of travel to the next waypoint, plus NOVELTY_WEIGHT for exploring a room
    the team has not exhausted. Duplicate credit never pays: extra agents past
    a predicate's remaining units score no relevance, and only the lowest-id
    explorer of a still-hidden room earns novelty."""
    remaining = remaining_by_predicate(inputs.goal, inputs.progress)
    house = inputs.house
    team = merge_team_belief([entry.belief for entry in inputs.entries])
    fetch_assignees: Dict[Tuple[str, str, str], List[int]] = {}
    explore_assignees: Dict[str, List[int]] = {}
    for agent_id, task in joint.items():
        if task.kind == "FETCH":
            key = task.predicate_key()
            assert key is not None
            fetch_assignees.setdefault(key, []).append(agent_id)
        elif task.kind == "EXPLORE":
            explore_assignees.setdefault(str(task.room), []).append(agent_id)
    total = 0
    for agent_id, task in joint.items():
        if task.kind == "IDLE":
            continue
        entry = inputs.entry(agent_id)
        if task.kind == "EXPLORE":
            room = str(task.room)
            novel = (
                room_hides_content(team, room, house)
                and explore_assignees[room][0] == agent_id
            )
            total += NOVELTY_WEIGHT * int(novel)
            total -= house.distance(entry.observation.room, room)
            continue
        key = task.predicate_key()
        assert key is not None
        need = remaining.get(key, 0)
        within_quota = agent_id in fetch_assignees[key][:need]
        relevant, travel = _fetch_term(task, entry, house)
        total += RELEVANCE_WEIGHT * int(within_quota and relevant) - travel
    return total


# One agent option as the search sees it: own score term, predicate key,
# bound object id, and the room whose novelty bonus it would claim.
_Term = Tuple[int, Optional[Tuple[str, str, str]], Optional[str], Optional[str]]


def _option_term(
    task: MacroTask,
    entry: ContextEntry,
    team: Belief,
    remaining: Dict[Tuple[str, str, str], int],
    house: HouseMap,
) -> _Term:
    """score_joint's share for this agent doing this task, with the novelty
    bonus left out. In a conflict-free joint no predicate is loaded past its
    remaining units, so every assignee of a needed predicate is within
    quota and the fetch term depends on this agent alone."""
    if task.kind == "FETCH":
        key = task.predicate_key()
        relevant, travel = _fetch_term(task, entry, house)
        own = RELEVANCE_WEIGHT * int(remaining.get(key, 0) > 0 and relevant) - travel
        return own, key, task.object_id, None
    if task.kind == "EXPLORE":
        room = str(task.room)
        novel = room if room_hides_content(team, room, house) else None
        own = -house.distance(entry.observation.room, room)
        return own, None, task.object_id, novel
    return 0, None, task.object_id, None


def _descend(
    terms: List[List[_Term]], ceiling: List[int], picks: Tuple[int, ...], score: int,
    units_left: Dict[Tuple[str, str, str], int], bound_ids: Set[str], claimed: Set[str],
    best: Optional[Tuple[int, Tuple[int, ...]]],
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The best leaf below the branch ``picks`` (an option index per agent so
    far) as (score, picks), or ``best`` when none beats it. The branch's
    ``units_left``, ``bound_ids`` and ``claimed`` are restored on return."""
    depth = len(picks)
    if depth == len(terms):
        # The bound below lets a leaf through only if it beats the best
        # strictly (ceiling[len(terms)] is 0), or if it is the first.
        return score, picks
    for index, (own, key, object_id, room) in enumerate(terms[depth]):
        if units_left.get(key) == 0:
            continue
        if object_id is not None and object_id in bound_ids:
            continue
        novel = room is not None and room not in claimed
        gain = own + NOVELTY_WEIGHT * int(novel)
        if best is not None and score + gain + ceiling[depth + 1] <= best[0]:
            continue
        if key in units_left:
            units_left[key] -= 1
        if object_id is not None:
            bound_ids.add(object_id)
        if novel:
            claimed.add(room)
        best = _descend(
            terms, ceiling, picks + (index,), score + gain, units_left, bound_ids, claimed, best
        )
        if novel:
            claimed.discard(room)
        if object_id is not None:
            bound_ids.discard(object_id)
        if key in units_left:
            units_left[key] += 1
    return best


def heuristic_allocation(inputs: AllocationInputs) -> JointAction:
    """First strict maximum of score_joint over the enumerated joint space,
    found without scoring each joint. A conflict-free joint scores the sum of
    its options' own terms plus NOVELTY_WEIGHT per distinct novel room it
    explores (the bonus goes to one explorer, whichever it is). A depth-first
    walk in enumeration order carries the units each predicate has left, the
    bound ids and the claimed rooms, drops any branch that cannot beat the
    best leaf so far even if every later agent took its best option with the
    bonus, and replaces the best leaf only on a strictly higher score. The
    all-Idle joint always survives the conflict filter, so this never comes
    up empty."""
    house = inputs.house
    remaining = remaining_by_predicate(inputs.goal, inputs.progress)
    options = [_agent_options(entry) for entry in inputs.entries]
    terms = [
        [_option_term(task, entry, inputs.team, remaining, house) for task in row]
        for entry, row in zip(inputs.entries, options)
    ]
    # ceiling[i]: the most agents i.. can still add to a joint's score.
    ceiling = [0] * (len(terms) + 1)
    for i in reversed(range(len(terms))):
        ceiling[i] = ceiling[i + 1] + max(
            own + NOVELTY_WEIGHT * (room is not None) for own, _, _, room in terms[i]
        )
    best = _descend(terms, ceiling, (), 0, dict(remaining), set(), set(), None)
    assert best is not None
    return JointAction(
        tasks={
            entry.agent_id: row[pick]
            for entry, row, pick in zip(inputs.entries, options, best[1])
        }
    )


def allocate_with_report(
    reasoner: Reasoner, inputs: AllocationInputs
) -> Tuple[JointAction, AllocationReport]:
    """Allocation plus how it went. Text backends re-ask with the identical
    prompt after malformed or conflicting responses; with no usable reply
    the joint is heuristic_allocation's and the report is marked degraded,
    with ask's note."""
    manager_id = min(inputs.agent_ids())
    joint, attempts, note = ask(reasoner, ALLOCATE, inputs, inputs.tick, manager_id)
    return joint, AllocationReport(attempts, degraded=note is not None, note=note or "")


def allocate(reasoner: Reasoner, inputs: AllocationInputs) -> JointAction:
    """The joint assignment alone; see allocate_with_report."""
    joint, _ = allocate_with_report(reasoner, inputs)
    return joint
