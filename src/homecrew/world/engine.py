"""World dynamics: legality, simultaneous transition, observation, progress.

All agents' primitives are judged against the pre-state and applied together.
Two primitives clash only when two agents grab one object; the lower agent id
wins and the loser's primitive degrades to Wait with a Conflict event.
Primitives come only from ``expand_macro``, and an illegal one still degrades
to Wait with a Failure event instead of raising, so no joint action can
corrupt the world.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import ContractViolation
from .types import (
    ACTION_KINDS,
    IN,
    LOC_AGENT,
    LOC_CONTAINER,
    ON,
    WAIT,
    Action,
    AgentState,
    Event,
    Fact,
    GoalSpec,
    Location,
    Observation,
    TaskProgress,
    WorldState,
    goal_location,
)

if TYPE_CHECKING:
    from ..agents.belief import Belief


def _seen_from(state: WorldState, location: Location) -> Optional[str]:
    """The room from which an object at ``location`` can be seen: the room
    of its floor, surface or open container, or the room of the agent holding
    it. None while it is shut inside a closed container."""
    if location.kind == LOC_AGENT:
        return state.agents[int(location.ref)].room
    shut = location.kind == LOC_CONTAINER and not state.container_open[str(location.ref)]
    return None if shut else state.house.location_room(location)


def room_sightings(state: WorldState) -> Dict[str, Tuple[Fact, ...]]:
    """What can be seen from each room an agent stands in, built in one pass
    over the objects: per room, one tuple of Facts stamped with this tick, in
    object-id order. Agents in one room share that room's tuple."""
    seen: Dict[str, List[str]] = {ast.room: [] for ast in state.agents.values()}
    for object_id, location in state.locations.items():
        ids = seen.get(_seen_from(state, location))
        if ids is not None:
            ids.append(object_id)
    classes, locations, tick = state.house.object_classes, state.locations, state.tick
    return {
        room: tuple([Fact(oid, classes[oid], locations[oid], tick) for oid in sorted(ids)])
        for room, ids in seen.items()
    }


def is_legal(state: WorldState, agent_id: int, action: object) -> bool:
    """Whether the agent can execute ``action`` this tick. Anything that is
    not a well-formed primitive (not an Action, an unknown kind, a target of
    the wrong type or one the kind does not take) is illegal, never an error."""
    if not isinstance(action, Action):
        return False
    kind, target = action.kind, action.target
    if kind == "WAIT" or kind == "EXPLORE":
        return target is None
    if not isinstance(target, str):
        return False
    me = state.agents[agent_id]
    room = me.room
    if kind == "GOTO":
        return target in state.house.adjacency[room]
    if kind == "GRAB":
        location = state.locations.get(target)
        return (
            me.held is None
            and location is not None
            and location.kind != LOC_AGENT
            and _seen_from(state, location) == room
        )
    if kind == "PUTON":
        return me.held is not None and target in state.house.surfaces_in(room)
    if kind in ("OPEN", "PUTIN") and target in state.house.containers_in(room):
        is_open = state.container_open[target]
        if kind == "OPEN":
            return not is_open
        return is_open and me.held is not None
    return False


def transition(state: WorldState, joint: Mapping[int, Action]) -> Tuple[WorldState, List[Event]]:
    """Apply one primitive per agent simultaneously against the pre-state.
    The one clash is two grabs of one object, which the lower agent id wins.
    Primitives come only from ``expand_macro``; an illegal one still becomes
    Wait with a failure event."""
    ids = sorted(state.agents)
    if sorted(joint) != ids:
        raise ContractViolation(
            f"joint action must cover exactly agents {ids}, got {sorted(joint)}"
        )
    tick = state.tick + 1
    events: List[Event] = []
    final: Dict[int, Action] = {}

    for agent_id in ids:
        action = joint[agent_id]
        if is_legal(state, agent_id, action):
            final[agent_id] = action
        else:
            known = isinstance(action, Action) and action.kind in ACTION_KINDS
            label = action.render() if known else repr(action)
            final[agent_id] = WAIT
            events.append(
                Event(tick, agent_id, "failure", note=f"illegal action {label}")
            )

    # Two grabs of the same object: lowest id keeps it.
    grabs: Dict[str, List[int]] = {}
    for agent_id in ids:
        action = final[agent_id]
        if action.kind == "GRAB":
            grabs.setdefault(str(action.target), []).append(agent_id)
    for object_id in sorted(grabs):
        contenders = grabs[object_id]
        for loser in contenders[1:]:
            final[loser] = WAIT
            events.append(
                Event(tick, loser, "conflict", note=f"grab {object_id} lost to agent {contenders[0]}")
            )

    locations = dict(state.locations)
    container_open = dict(state.container_open)
    agents = dict(state.agents)
    for agent_id in ids:
        action = final[agent_id]
        if action.kind == "GOTO":
            room = str(action.target)
            agents[agent_id] = AgentState(room, agents[agent_id].held)
            events.append(Event(tick, agent_id, "moved", note=f"moved to {room}"))
        elif action.kind == "GRAB":
            object_id = str(action.target)
            locations[object_id] = Location(LOC_AGENT, agent_id)
            agents[agent_id] = AgentState(agents[agent_id].room, object_id)
            events.append(Event(tick, agent_id, "grabbed", note=f"grabbed {object_id}"))
        elif action.kind == "OPEN":
            cid = str(action.target)
            container_open[cid] = True
            events.append(Event(tick, agent_id, "opened", note=f"opened {cid}"))
        elif action.kind in ("PUTON", "PUTIN"):
            target = str(action.target)
            object_id = str(agents[agent_id].held)
            relation = ON if action.kind == "PUTON" else IN
            locations[object_id] = goal_location(relation, target)
            agents[agent_id] = AgentState(agents[agent_id].room, None)
            events.append(
                Event(tick, agent_id, "placed", note=f"placed {object_id} {relation.lower()} {target}")
            )
    new_state = WorldState(
        tick=tick,
        house=state.house,
        locations=locations,
        container_open=container_open,
        agents=agents,
    )
    return new_state, events


def observe(
    state: WorldState,
    agent_id: int,
    sightings: Mapping[str, Tuple[Fact, ...]],
) -> Observation:
    """Room-local view for one agent; closed containers and other rooms stay
    opaque. ``sightings`` is this state's ``room_sightings``, built once for
    every agent that observes the state."""
    me = state.agents[agent_id]
    room = me.room
    containers = {cid: state.container_open[cid] for cid in state.house.containers_in(room)}
    agents_here = {
        other: ast.held
        for other, ast in sorted(state.agents.items())
        if other != agent_id and ast.room == room
    }
    return Observation(
        agent_id=agent_id,
        tick=state.tick,
        room=room,
        held=me.held,
        objects=sightings[room],
        containers=containers,
        agents_here=agents_here,
        surfaces_here=state.house.surfaces_in(room),
    )


def evaluate_progress(source: Union[WorldState, Belief], goal: GoalSpec) -> TaskProgress:
    """Count satisfied goal units in a WorldState (ground truth) or a Belief
    (what the team thinks): every object in ``locations``, or every fact,
    whose class a predicate asks for and that sits at that predicate's goal
    location. Counts cap at each predicate's demand."""
    raw = [0] * len(goal.predicates)
    targets = goal.targets
    if isinstance(source, WorldState):
        classes = source.house.object_classes
        for object_id, location in source.locations.items():
            for idx, target in targets.get(classes[object_id], ()):
                if location == target:
                    raw[idx] += 1
    else:
        for fact in source.facts.values():
            for idx, target in targets.get(fact.object_class, ()):
                if fact.location == target:
                    raw[idx] += 1
    by_predicate = tuple(min(pred.count, raw[idx]) for idx, pred in enumerate(goal.predicates))
    return TaskProgress(
        satisfied=sum(by_predicate),
        total=goal.total_units,
        by_predicate=by_predicate,
    )
