"""World dynamics: legality, simultaneous transition, observation, progress.

All agents' primitives are judged against the pre-state and applied together.
Two primitives clash only in the two documented cases (two grabs of one
object; a grab out of a container someone else is closing); the lower agent
id wins and the loser's primitive degrades to Wait with a Conflict event.
Illegal primitives degrade to Wait with a Failure event instead of raising,
so arbitrary reasoner output can never corrupt the world.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Set, Tuple

from ..errors import ContractViolation
from .types import (
    EXPLORE,
    LOC_AGENT,
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    WAIT,
    Action,
    Event,
    GoalSpec,
    Location,
    Observation,
    ObjectSighting,
    TaskProgress,
    WorldState,
    close_container,
    go_to,
    grab,
    open_container,
    put_in,
    put_on,
)

_KNOWN_KINDS = {"goto", "grab", "open", "close", "put_on", "put_in", "explore", "wait"}


def _visible_objects(state: WorldState, room: str) -> List[str]:
    """Objects perceivable from inside ``room``: on the floor, on a surface,
    inside an open container, or in the hand of an agent standing here."""
    out = []
    for object_id in sorted(state.locations):
        loc = state.locations[object_id]
        if loc.kind == LOC_ROOM and loc.ref == room:
            out.append(object_id)
        elif loc.kind == LOC_SURFACE and state.house.surfaces[str(loc.ref)] == room:
            out.append(object_id)
        elif (
            loc.kind == LOC_CONTAINER
            and state.house.containers[str(loc.ref)] == room
            and state.container_open[str(loc.ref)]
        ):
            out.append(object_id)
        elif loc.kind == LOC_AGENT and state.agents[int(loc.ref)].room == room:
            out.append(object_id)
    return out


def legal_actions(state: WorldState, agent_id: int) -> Set[Action]:
    """Every primitive the agent could execute this tick. Explore and Wait
    are always included."""
    me = state.agents[agent_id]
    room = me.room
    legal: Set[Action] = {WAIT, EXPLORE}
    for nb in state.house.adjacency[room]:
        legal.add(go_to(nb))
    if me.held is None:
        for object_id in _visible_objects(state, room):
            if state.locations[object_id].kind != LOC_AGENT:
                legal.add(grab(object_id))
    for cid in state.house.containers_in(room):
        if state.container_open[cid]:
            legal.add(close_container(cid))
            if me.held is not None:
                legal.add(put_in(cid))
        else:
            legal.add(open_container(cid))
    if me.held is not None:
        for sid in state.house.surfaces_in(room):
            legal.add(put_on(sid))
    return legal


def transition(state: WorldState, joint: Mapping[int, Action]) -> Tuple[WorldState, List[Event]]:
    """Apply one primitive per agent simultaneously against the pre-state."""
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
        if action.kind in _KNOWN_KINDS and action in legal_actions(state, agent_id):
            final[agent_id] = action
        else:
            label = action.render() if action.kind in _KNOWN_KINDS else repr(action)
            final[agent_id] = WAIT
            events.append(
                Event(tick, agent_id, "failure", note=f"illegal action {label}")
            )

    # Two grabs of the same object: lowest id keeps it.
    grabs: Dict[str, List[int]] = {}
    for agent_id in ids:
        action = final[agent_id]
        if action.kind == "grab":
            grabs.setdefault(str(action.target), []).append(agent_id)
    for object_id in sorted(grabs):
        contenders = grabs[object_id]
        for loser in contenders[1:]:
            final[loser] = WAIT
            events.append(
                Event(
                    tick,
                    loser,
                    "conflict",
                    note=f"grab {object_id} lost to agent {contenders[0]}",
                    object_id=object_id,
                )
            )

    # A grab out of a container that someone else closes the same tick.
    closes: Dict[str, List[int]] = {}
    for agent_id in ids:
        action = final[agent_id]
        if action.kind == "close":
            closes.setdefault(str(action.target), []).append(agent_id)
    for cid in sorted(closes):
        grabbers = [
            agent_id
            for agent_id in ids
            if final[agent_id].kind == "grab"
            and state.locations[str(final[agent_id].target)] == Location(LOC_CONTAINER, cid)
        ]
        if not grabbers:
            continue
        closers = closes[cid]
        if min(grabbers) < min(closers):
            for loser in closers:
                final[loser] = WAIT
                events.append(
                    Event(
                        tick,
                        loser,
                        "conflict",
                        note=f"close {cid} lost to agent {min(grabbers)}",
                        target=cid,
                    )
                )
        else:
            for loser in grabbers:
                object_id = str(final[loser].target)
                final[loser] = WAIT
                events.append(
                    Event(
                        tick,
                        loser,
                        "conflict",
                        note=f"grab {object_id} lost to agent {min(closers)} closing {cid}",
                        object_id=object_id,
                        target=cid,
                    )
                )

    locations = dict(state.locations)
    container_open = dict(state.container_open)
    agents = dict(state.agents)
    for agent_id in ids:
        action = final[agent_id]
        if action.kind == "goto":
            room = str(action.target)
            agents[agent_id] = replace(agents[agent_id], room=room)
            events.append(Event(tick, agent_id, "moved", note=f"moved to {room}", target=room))
        elif action.kind == "grab":
            object_id = str(action.target)
            locations[object_id] = Location(LOC_AGENT, agent_id)
            agents[agent_id] = replace(agents[agent_id], held=object_id)
            events.append(
                Event(tick, agent_id, "grabbed", note=f"grabbed {object_id}", object_id=object_id)
            )
        elif action.kind == "open":
            cid = str(action.target)
            container_open[cid] = True
            events.append(Event(tick, agent_id, "opened", note=f"opened {cid}", target=cid))
        elif action.kind == "close":
            cid = str(action.target)
            container_open[cid] = False
            events.append(Event(tick, agent_id, "closed", note=f"closed {cid}", target=cid))
        elif action.kind in ("put_on", "put_in"):
            target = str(action.target)
            object_id = str(agents[agent_id].held)
            kind = LOC_SURFACE if action.kind == "put_on" else LOC_CONTAINER
            locations[object_id] = Location(kind, target)
            agents[agent_id] = replace(agents[agent_id], held=None)
            note_rel = "on" if action.kind == "put_on" else "in"
            events.append(
                Event(
                    tick,
                    agent_id,
                    "placed",
                    note=f"placed {object_id} {note_rel} {target}",
                    object_id=object_id,
                    target=target,
                )
            )
    new_state = WorldState(
        tick=tick,
        house=state.house,
        locations=locations,
        container_open=container_open,
        agents=agents,
    )
    return new_state, events


def observe(state: WorldState, agent_id: int) -> Observation:
    """Room-local view for one agent; closed containers and other rooms stay
    opaque."""
    me = state.agents[agent_id]
    room = me.room
    sightings = tuple(
        ObjectSighting(
            object_id=object_id,
            object_class=state.object_class(object_id),
            location=state.locations[object_id],
        )
        for object_id in _visible_objects(state, room)
    )
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
        objects=sightings,
        containers=containers,
        agents_here=agents_here,
        surfaces_here=state.house.surfaces_in(room),
    )


def evaluate_progress(source, goal: GoalSpec) -> TaskProgress:
    """Count satisfied goal units in a WorldState or a belief.

    ``source`` must expose object_placements() yielding
    (object_id, object_class, Location); both WorldState (ground truth) and
    Belief (what the team thinks) do. Counts cap at each predicate's demand.
    """
    raw = [0] * len(goal.predicates)
    targets = goal.targets
    for _object_id, object_class, location in source.object_placements():
        for idx, target in targets.get(object_class, ()):
            if location == target:
                raw[idx] += 1
    by_predicate = tuple(min(pred.count, raw[idx]) for idx, pred in enumerate(goal.predicates))
    return TaskProgress(
        satisfied=sum(by_predicate),
        total=goal.total_units(),
        by_predicate=by_predicate,
    )
