"""Member-side proposal step.

Each member ranks candidate tasks from its own belief: believed goal objects
by travel distance, or a sweep of the room most likely to still hide one when
none are known. A text backend's proposal with no usable reply is this
heuristic proposal (``ask``), flagged as degraded.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..agents.execution import MacroTask, sweep_targets
from ..reasoner.base import PROPOSE, Reasoner, ask
from ..world.types import LOC_AGENT, Fact
from .types import MAX_ALTERNATIVES, AgentView, Proposal


def _ranked_fetch_options(view: AgentView) -> List[Tuple[MacroTask, Fact]]:
    """The first MAX_ALTERNATIVES fetch candidates for unmet predicates, each
    with the fact it was ranked by: nearest believed instance first, ties by
    object id, then predicate order, each task once. Objects already at
    their target or in another agent's hand are skipped; an object in this
    agent's own hand ranks at distance zero. One pass over the facts counts
    what each predicate already has and collects the rest; tasks are built
    only for the options returned."""
    predicates, targets = view.goal.predicates, view.goal.targets
    house, here = view.house, view.observation.room
    have = [0] * len(predicates)
    candidates: List[Tuple[int, Fact]] = []
    for fact in view.belief.facts.values():
        location = fact.location
        if location.kind == LOC_AGENT and int(location.ref) != view.agent_id:
            continue
        for idx, target in targets.get(fact.object_class, ()):
            if location == target:
                have[idx] += 1
            else:
                candidates.append((idx, fact))
    ranked: List[Tuple[int, str, int, Fact]] = []
    for idx, fact in candidates:
        if have[idx] >= predicates[idx].count:
            continue
        location = fact.location
        if location.kind == LOC_AGENT:
            distance = 0
        else:
            distance = house.distance(here, str(house.location_room(location)))
        ranked.append((distance, fact.object_id, idx, fact))
    # (object id, predicate) pairs are unique, so facts are never compared.
    ranked.sort()
    options: List[Tuple[MacroTask, Fact]] = []
    for _, object_id, idx, fact in ranked:
        if len(options) == MAX_ALTERNATIVES:
            break
        pred = predicates[idx]
        task = MacroTask.fetch(pred.object_class, pred.relation, pred.target, object_id=object_id)
        # Two predicates with one key would name the same task twice.
        if any(task == kept for kept, _ in options):
            continue
        options.append((task, fact))
    return options


def heuristic_proposal(view: AgentView) -> Proposal:
    """Deterministic proposal from one member's belief. Also what the
    structured backend returns."""
    if view.progress.total and view.progress.satisfied >= view.progress.total:
        return Proposal(view.agent_id, MacroTask.idle(), "goal already satisfied")
    options = _ranked_fetch_options(view)
    sweep_order = sweep_targets(view.belief, view.house, view.observation.room)
    sweep_room = sweep_order[0]
    explore_task = MacroTask.explore(sweep_room)
    if options:
        candidate, fact = options[0]
        if fact.location.kind == LOC_AGENT:
            where = "already in hand"
        else:
            where = f"seen at {fact.location.render()}"
        alternatives = tuple(task for task, _ in options[1:]) + (explore_task,)
        return Proposal(view.agent_id, candidate, f"{candidate.object_id} {where}", alternatives)
    alternatives = tuple(MacroTask.explore(room) for room in sweep_order[1:2])
    return Proposal(
        view.agent_id,
        explore_task,
        f"no usable goal objects known; sweeping {sweep_room}",
        alternatives,
    )


def make_proposal(reasoner: Reasoner, view: AgentView) -> Proposal:
    """One member's proposal via the given backend, never raising on bad
    responses: with no usable reply it is heuristic_proposal's, degraded."""
    proposal, _, note = ask(reasoner, PROPOSE, view, view.tick, view.agent_id)
    return proposal if note is None else dataclasses.replace(proposal, degraded=True)
