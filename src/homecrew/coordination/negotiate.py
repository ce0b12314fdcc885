"""Member-side proposal step.

Each member ranks candidate tasks from its own belief: believed goal objects
by travel distance, or a sweep of the room most likely to still hide one when
none are known. Text backends get one retry per parse_retries with the
identical prompt; after that the member falls back to a deterministic sweep
proposal flagged as degraded.
"""

from __future__ import annotations

from typing import List, Tuple

from ..agents.execution import MacroTask, sweep_targets
from ..agents.textify import render_belief, render_history, render_observation
from ..errors import RemoteBackendError, ResponseParseError
from ..reasoner.base import (
    DEFAULT_PARSE_RETRIES,
    PROPOSE,
    STRUCTURED,
    Reasoner,
    ReasonerRequest,
)
from ..reasoner.parsing import parse_proposal
from ..reasoner.prompts import TEMPLATE_V1, ProposePayload, render_prompt
from ..world.engine import evaluate_progress
from ..world.types import LOC_AGENT, goal_location
from .types import AgentView, Proposal, Vocabulary

# How many ranked backups a proposal carries; the allocator never reads more.
MAX_ALTERNATIVES = 3


def _ranked_fetch_options(view: AgentView) -> List[Tuple[MacroTask, str]]:
    """Fetch candidates for unmet predicates, nearest believed instance first.
    Objects already at their target or in another agent's hand are skipped;
    an object in this agent's own hand ranks at distance zero."""
    believed = evaluate_progress(view.belief, view.goal)
    ranked: List[Tuple[Tuple[int, str, int], MacroTask, str]] = []
    for idx, pred in enumerate(view.goal.predicates):
        have = believed.by_predicate[idx] if idx < len(believed.by_predicate) else 0
        if have >= pred.count:
            continue
        target_loc = goal_location(pred.relation, pred.target)
        for object_id in sorted(view.belief.facts):
            fact = view.belief.facts[object_id]
            if fact.object_class != pred.object_class:
                continue
            if fact.location == target_loc:
                continue
            if fact.location.kind == LOC_AGENT:
                if int(fact.location.ref) != view.agent_id:
                    continue
                distance, where = 0, "already in hand"
            else:
                room = str(view.house.location_room(fact.location))
                distance = view.house.distance(view.observation.room, room)
                where = f"seen at {fact.location.render()}"
            task = MacroTask.fetch(
                pred.object_class, pred.relation, pred.target, object_id=object_id
            )
            ranked.append(((distance, object_id, idx), task, where))
    ranked.sort(key=lambda item: item[0])
    return [(task, where) for _, task, where in ranked]


def heuristic_proposal(view: AgentView) -> Proposal:
    """Deterministic proposal from one member's belief. Also the shape the
    structured backend returns and the degraded-path fallback builds on."""
    if view.progress.total and view.progress.satisfied >= view.progress.total:
        return Proposal(view.agent_id, MacroTask.idle(), "goal already satisfied")
    options = _ranked_fetch_options(view)
    sweep_order = sweep_targets(view.belief, view.house, view.observation.room)
    sweep_room = sweep_order[0]
    explore_task = MacroTask.explore(sweep_room)
    if options:
        candidate, where = options[0]
        alternatives: List[MacroTask] = []
        for task, _ in options[1:]:
            if task != candidate and task not in alternatives:
                alternatives.append(task)
            if len(alternatives) >= MAX_ALTERNATIVES - 1:
                break
        if explore_task not in alternatives:
            alternatives.append(explore_task)
        return Proposal(
            view.agent_id,
            candidate,
            f"{candidate.object_id} {where}",
            tuple(alternatives[:MAX_ALTERNATIVES]),
        )
    alternatives = tuple(MacroTask.explore(room) for room in sweep_order[1:2])
    return Proposal(
        view.agent_id,
        explore_task,
        f"no usable goal objects known; sweeping {sweep_room}",
        alternatives,
    )


def _propose_request(
    view: AgentView, vocabulary: Vocabulary, template: str
) -> ReasonerRequest:
    own_records = tuple(
        rec for rec in view.history_window if rec.agent_id == view.agent_id
    )
    payload = ProposePayload(
        agent_id=view.agent_id,
        num_agents=view.num_agents,
        tick=view.tick,
        goal_text=view.goal.render(),
        progress_line=(
            f"{view.progress.satisfied}/{view.progress.total} goal units "
            f"satisfied (tick {view.tick})"
        ),
        belief_text=render_belief(view.belief),
        observation_text=render_observation(view.observation),
        history_text=render_history(own_records),
        task_forms=vocabulary.task_form_lines(),
    )
    return ReasonerRequest(
        kind=PROPOSE,
        structured_payload=view,
        rendered_prompt=render_prompt(PROPOSE, payload, template),
        tick=view.tick,
        agent_id=view.agent_id,
    )


def make_proposal(
    reasoner: Reasoner,
    view: AgentView,
    parse_retries: int = DEFAULT_PARSE_RETRIES,
    template: str = TEMPLATE_V1,
) -> Proposal:
    """One member's proposal via the given backend, never raising on bad
    responses: text parse failures re-ask with the identical prompt up to
    parse_retries times, then degrade to a deterministic sweep. A structured
    backend gets the view alone; no prompt is built for it."""
    if reasoner.produces == STRUCTURED:
        return reasoner.invoke(ReasonerRequest(PROPOSE, view)).parsed
    vocabulary = Vocabulary.from_house(
        view.house, tuple(range(1, view.num_agents + 1))
    )
    request = _propose_request(view, vocabulary, template)
    for _ in range(1 + parse_retries):
        try:
            response = reasoner.invoke(request)
        except RemoteBackendError:
            break
        try:
            return parse_proposal(
                response.raw_text or "", vocabulary, view.agent_id, MAX_ALTERNATIVES
            )
        except ResponseParseError:
            continue
    sweep_room = sweep_targets(view.belief, view.house, view.observation.room)[0]
    return Proposal(
        view.agent_id,
        MacroTask.explore(sweep_room),
        "fallback after unusable responses",
        degraded=True,
    )
