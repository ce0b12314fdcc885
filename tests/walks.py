"""Test-side references for the world's rules, and random walks built on them.

``reference_legal_actions`` builds an agent's legal set rule by rule,
independently of the engine's ``is_legal``, which the world tests check
against it. ``random_legal_joint`` draws one reference-legal primitive per
agent, so tests can walk a scenario through states that legal play reaches.
"""

from __future__ import annotations

from homecrew.world.types import (
    EXPLORE,
    LOC_AGENT,
    LOC_CONTAINER,
    LOC_ROOM,
    LOC_SURFACE,
    WAIT,
    Action,
)


def reference_visible_objects(state, room):
    """Reference visibility: every object id in sorted order, kept when it
    can be seen from inside ``room``."""
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


def reference_legal_actions(state, agent_id):
    """Reference legality: the legal set built rule by rule, which is_legal
    must agree with."""
    me = state.agents[agent_id]
    room = me.room
    legal = {WAIT, EXPLORE}
    for nb in state.house.adjacency[room]:
        legal.add(Action("GOTO", nb))
    if me.held is None:
        for object_id in reference_visible_objects(state, room):
            if state.locations[object_id].kind != LOC_AGENT:
                legal.add(Action("GRAB", object_id))
    for cid in state.house.containers_in(room):
        if state.container_open[cid]:
            if me.held is not None:
                legal.add(Action("PUTIN", cid))
        else:
            legal.add(Action("OPEN", cid))
    if me.held is not None:
        for sid in state.house.surfaces_in(room):
            legal.add(Action("PUTON", sid))
    return legal


def random_legal_joint(state, rng):
    """One reference-legal primitive per agent, each drawn with ``rng`` from
    that agent's legal set sorted by rendering, in agent-id order."""
    return {
        i: rng.choice(sorted(reference_legal_actions(state, i), key=lambda a: a.render()))
        for i in state.agents
    }
