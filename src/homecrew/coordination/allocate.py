"""Centralized allocation over the members' proposals.

The manager assembles every agent's proposal, belief, and observation into
one shared context, then picks the joint assignment. The deterministic
path returns the first strict maximum of score_joint over each agent's
candidate plus alternatives plus Idle, among joints that pass the conflict
rules (agents ascending, option order as listed). It finds that joint with a
pruned search over per-option terms; enumerate_joint_space and score_joint
state the same result directly. Text backends are asked for an assignment
line per agent and fall back to that same deterministic path after
parse_retries unusable responses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..agents.belief import Belief, TeamBelief, merge_team_belief
from ..agents.execution import (
    EXPLORE_ROOM,
    FETCH_PLACE,
    IDLE,
    MacroTask,
    believed_instance,
    held_matches,
    room_hides_content,
)
from ..agents.textify import belief_digest, render_observation
from ..errors import RemoteBackendError, ResponseParseError
from ..reasoner.base import (
    ALLOCATE,
    DEFAULT_PARSE_RETRIES,
    STRUCTURED,
    Reasoner,
    ReasonerRequest,
)
from ..reasoner.parsing import parse_allocation
from ..reasoner.prompts import TEMPLATE_V1, AgentBlock, AllocatePayload, render_prompt
from ..summaries import CollaborativeSummary
from ..world.types import (
    LOC_AGENT,
    GoalSpec,
    HouseMap,
    Observation,
    TaskProgress,
    goal_location,
)
from .types import (
    AllocationInputs,
    ContextEntry,
    CrossAgentContext,
    JointAction,
    Proposal,
    check_conflicts,
    remaining_by_predicate,
)

# Per-agent option cap: candidate + this many alternatives + Idle.
JOINT_ALTERNATIVES = 3

# Placing one needed goal unit outweighs any travel the house can require.
RELEVANCE_WEIGHT = 10
# Sweeping a room that can still hide objects must beat idling from anywhere,
# so this exceeds the longest path in the house.
NOVELTY_WEIGHT = 3


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
    house: HouseMap,
) -> CrossAgentContext:
    """Bundle every agent's round contribution, ordered by agent id."""
    ordered = sorted(proposals, key=lambda p: p.agent_id)
    entries = tuple(
        ContextEntry(
            agent_id=p.agent_id,
            proposal=p,
            belief=beliefs[p.agent_id],
            observation=observations[p.agent_id],
        )
        for p in ordered
    )
    tick = entries[0].observation.tick if entries else 0
    return CrossAgentContext(tick=tick, entries=entries, house=house)


def _agent_options(entry: ContextEntry, k: int) -> List[MacroTask]:
    options: List[MacroTask] = [entry.proposal.candidate]
    for task in entry.proposal.alternatives[:k]:
        if task not in options:
            options.append(task)
    idle = MacroTask.idle()
    if idle not in options:
        options.append(idle)
    return options


def enumerate_joint_space(
    context: CrossAgentContext,
    k: int = JOINT_ALTERNATIVES,
    remaining: Optional[Dict[Tuple[str, str, str], int]] = None,
) -> List[JointAction]:
    """Conflict-free joint assignments from the proposed options, in a fixed
    order: agents ascending, per-agent options as proposed (candidate first,
    then alternatives, then Idle), cartesian product row-major."""
    per_agent = [
        (entry.agent_id, _agent_options(entry, k)) for entry in context.entries
    ]
    agent_ids = [agent_id for agent_id, _ in per_agent]
    joints: List[JointAction] = []
    for combo in itertools.product(*[options for _, options in per_agent]):
        joint = JointAction(tasks=dict(zip(agent_ids, combo)))
        if not check_conflicts(joint, remaining):
            joints.append(joint)
    return joints


def _fetch_distance(task: MacroTask, entry: ContextEntry, house: HouseMap) -> int:
    """Believed rooms of travel left: straight to the target when the agent
    already holds a matching object, else out to the believed object and from
    there to the target. Counting both legs keeps a carried object from
    looking dearer than one still on a shelf, which would tell the agent to
    drop it. Unknown positions cost nothing rather than guessing."""
    room = entry.observation.room
    target_room = house.room_of(str(task.target))
    held = entry.observation.held
    if held is not None and held_matches(task, held, house):
        return house.distance(room, target_room)
    fact = believed_instance(task, entry.belief, room, house)
    if fact is None or fact.location.kind == LOC_AGENT:
        return 0
    object_room = str(house.location_room(fact.location))
    return house.distance(room, object_room) + house.distance(object_room, target_room)


def _can_complete(task: MacroTask, entry: ContextEntry, house: HouseMap) -> bool:
    """Whether this agent's belief leaves the fetch achievable: the object
    (or some instance of the class) is not already at the target and not in
    another agent's hand. Unknown objects stay optimistic."""
    held = entry.observation.held
    if held is not None and held_matches(task, held, house):
        return True
    target_loc = goal_location(str(task.relation), str(task.target))
    if task.object_id is not None:
        fact = entry.belief.facts.get(task.object_id)
        if fact is None:
            return True
        if fact.location == target_loc:
            return False
        if fact.location.kind == LOC_AGENT and int(fact.location.ref) != entry.agent_id:
            return False
        return True
    known = [
        fact
        for fact in entry.belief.facts.values()
        if fact.object_class == task.object_class
    ]
    if not known:
        return True
    for fact in known:
        if fact.location == target_loc:
            continue
        if fact.location.kind == LOC_AGENT and int(fact.location.ref) != entry.agent_id:
            continue
        return True
    return False


def score_joint(
    joint: JointAction,
    context: CrossAgentContext,
    progress: TaskProgress,
    goal: GoalSpec,
) -> int:
    """Deterministic utility of a joint assignment: per agent, goal relevance
    (a needed, achievable fetch unit) weighted RELEVANCE_WEIGHT, minus rooms
    of travel to the next waypoint, plus NOVELTY_WEIGHT for exploring a room
    the team has not exhausted. Duplicate credit never pays: extra agents past
    a predicate's remaining units score no relevance, and only the lowest-id
    explorer of a still-hidden room earns novelty."""
    remaining = remaining_by_predicate(goal, progress)
    house = context.house
    team = merge_team_belief([entry.belief for entry in context.entries])
    fetch_assignees: Dict[Tuple[str, str, str], List[int]] = {}
    explore_assignees: Dict[str, List[int]] = {}
    for agent_id, task in joint.items():
        if task.kind == FETCH_PLACE:
            key = task.predicate_key()
            assert key is not None
            fetch_assignees.setdefault(key, []).append(agent_id)
        elif task.kind == EXPLORE_ROOM:
            explore_assignees.setdefault(str(task.room), []).append(agent_id)
    total = 0
    for agent_id, task in joint.items():
        if task.kind == IDLE:
            continue
        entry = context.entry(agent_id)
        if task.kind == EXPLORE_ROOM:
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
        if within_quota and _can_complete(task, entry, house):
            total += RELEVANCE_WEIGHT
        total -= _fetch_distance(task, entry, house)
    return total


# One agent option as the search sees it: own score term, predicate key,
# bound object id, and the room whose novelty bonus it would claim.
_Term = Tuple[int, Optional[Tuple[str, str, str]], Optional[str], Optional[str]]


def _option_term(
    task: MacroTask,
    entry: ContextEntry,
    team: TeamBelief,
    remaining: Dict[Tuple[str, str, str], int],
    house: HouseMap,
) -> _Term:
    """score_joint's share for this agent doing this task, with the novelty
    bonus left out. In a conflict-free joint no predicate is loaded past its
    remaining units, so every assignee of a needed predicate is within
    quota and the fetch term depends on this agent alone."""
    if task.kind == FETCH_PLACE:
        key = task.predicate_key()
        relevant = remaining.get(key, 0) > 0 and _can_complete(task, entry, house)
        own = RELEVANCE_WEIGHT * int(relevant) - _fetch_distance(task, entry, house)
        return own, key, task.object_id, None
    if task.kind == EXPLORE_ROOM:
        room = str(task.room)
        novel = room if room_hides_content(team, room, house) else None
        own = -house.distance(entry.observation.room, room)
        return own, None, task.object_id, novel
    return 0, None, task.object_id, None


def heuristic_allocation(inputs: AllocationInputs) -> JointAction:
    """First strict maximum of score_joint over the enumerated joint space,
    found without scoring each joint. A conflict-free joint scores the sum of
    its options' own terms plus NOVELTY_WEIGHT per distinct novel room it
    explores (the bonus goes to one explorer, whichever it is). A depth-first
    walk in enumeration order carries the units each predicate has left, the
    bound ids and the claimed rooms, drops any branch that cannot beat the best leaf so far even if
    every later agent took its best option with the bonus, and replaces the
    best leaf only on a strictly higher score. The all-Idle joint always
    survives the conflict filter, so this never comes up empty."""
    context = inputs.context
    house = context.house
    remaining = remaining_by_predicate(inputs.goal, inputs.progress)
    team = merge_team_belief([entry.belief for entry in context.entries])
    options = [_agent_options(entry, JOINT_ALTERNATIVES) for entry in context.entries]
    terms = [
        [_option_term(task, entry, team, remaining, house) for task in row]
        for entry, row in zip(context.entries, options)
    ]
    # ceiling[i]: the most agents i.. can still add to a joint's score.
    ceiling = [0] * (len(terms) + 1)
    for i in reversed(range(len(terms))):
        ceiling[i] = ceiling[i + 1] + max(
            own + NOVELTY_WEIGHT * (room is not None) for own, _, _, room in terms[i]
        )
    units_left = dict(remaining)
    bound_ids: Set[str] = set()
    claimed: Set[str] = set()
    picks: List[int] = []
    best: Optional[List[int]] = None
    best_score = 0

    def descend(depth: int, score: int) -> None:
        nonlocal best, best_score
        if depth == len(terms):
            # The bound below lets a leaf through only if it beats the best
            # strictly (ceiling[len(terms)] is 0), or if it is the first.
            best, best_score = list(picks), score
            return
        for index, (own, key, object_id, room) in enumerate(terms[depth]):
            if units_left.get(key) == 0:
                continue
            if object_id is not None and object_id in bound_ids:
                continue
            novel = room is not None and room not in claimed
            gain = own + NOVELTY_WEIGHT * int(novel)
            if best is not None and score + gain + ceiling[depth + 1] <= best_score:
                continue
            if key in units_left:
                units_left[key] -= 1
            if object_id is not None:
                bound_ids.add(object_id)
            if novel:
                claimed.add(room)
            picks.append(index)
            descend(depth + 1, score + gain)
            picks.pop()
            if novel:
                claimed.discard(room)
            if object_id is not None:
                bound_ids.discard(object_id)
            if key in units_left:
                units_left[key] += 1

    descend(0, 0)
    assert best is not None
    return JointAction(
        tasks={
            entry.agent_id: row[pick]
            for entry, row, pick in zip(context.entries, options, best)
        }
    )


def _allocate_request(inputs: AllocationInputs, template: str) -> ReasonerRequest:
    context = inputs.context
    blocks = tuple(
        AgentBlock(
            agent_id=entry.agent_id,
            proposal_line=entry.proposal.candidate.render(),
            rationale=entry.proposal.rationale,
            alternative_lines=entry.proposal.render_alternatives(),
            belief_text=belief_digest(entry.belief, inputs.goal),
            observation_text=render_observation(entry.observation),
        )
        for entry in context.entries
    )
    payload = AllocatePayload(
        tick=context.tick,
        goal_text=inputs.goal.render(),
        progress_line=(
            f"{inputs.progress.satisfied}/{inputs.progress.total} goal units "
            f"satisfied (tick {context.tick})"
        ),
        summary_lines=inputs.summaries.rendered_lines(),
        blocks=blocks,
        agent_ids=context.agent_ids(),
        task_forms=context.vocabulary.task_form_lines(),
    )
    manager_id = min(context.agent_ids()) if context.entries else 0
    return ReasonerRequest(
        kind=ALLOCATE,
        structured_payload=inputs,
        rendered_prompt=render_prompt(ALLOCATE, payload, template),
        tick=context.tick,
        agent_id=manager_id,
    )


def allocate_with_report(
    reasoner: Reasoner,
    context: CrossAgentContext,
    summaries: CollaborativeSummary,
    progress: TaskProgress,
    goal: GoalSpec,
    parse_retries: int = DEFAULT_PARSE_RETRIES,
    template: str = TEMPLATE_V1,
) -> Tuple[JointAction, AllocationReport]:
    """Allocation plus how it went. Text backends re-ask with the identical
    prompt after malformed or conflicting responses; after parse_retries
    re-asks (or once the backend errors out) the deterministic path takes
    over and the report is marked degraded. A structured backend gets the
    inputs alone; no prompt is built for it."""
    inputs = AllocationInputs(
        context=context, summaries=summaries, progress=progress, goal=goal
    )
    if reasoner.produces == STRUCTURED:
        joint = reasoner.invoke(ReasonerRequest(ALLOCATE, inputs)).parsed
        return joint, AllocationReport(attempts=1, degraded=False)
    request = _allocate_request(inputs, template)
    remaining = remaining_by_predicate(goal, progress)
    attempts = 0
    note = ""
    for _ in range(1 + parse_retries):
        attempts += 1
        try:
            response = reasoner.invoke(request)
        except RemoteBackendError as exc:
            note = str(exc)
            break
        try:
            joint = parse_allocation(response.raw_text or "", context, remaining)
        except ResponseParseError as exc:
            note = str(exc)
            continue
        return joint, AllocationReport(attempts=attempts, degraded=False)
    joint = heuristic_allocation(inputs)
    return joint, AllocationReport(attempts=attempts, degraded=True, note=note)


def allocate(
    reasoner: Reasoner,
    context: CrossAgentContext,
    summaries: CollaborativeSummary,
    progress: TaskProgress,
    goal: GoalSpec,
    parse_retries: int = DEFAULT_PARSE_RETRIES,
    template: str = TEMPLATE_V1,
) -> JointAction:
    """The joint assignment alone; see allocate_with_report."""
    joint, _ = allocate_with_report(
        reasoner, context, summaries, progress, goal, parse_retries, template
    )
    return joint
