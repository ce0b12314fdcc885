"""One episode end to end, plus trace replay.

Per tick: everyone observes and folds the observation into their belief,
the beliefs merge into the team belief, a summary is written if the believed
satisfied-count moved (covering exactly the records since the last change),
then members propose, the manager allocates (or, with allocation disabled,
each member self-executes its own candidate), macros expand to primitives
against the team belief, the world transitions, and each agent's action and
events enter the history.
The lowest agent id doubles as manager; a single-agent run is the same loop
with a one-entry team.

Proposals never read the summary, so within a tick the summary call and every
member's proposal call form one round. When a backend is remote and
max_concurrency > 1 the round runs on a thread pool bounded by
max_concurrency, and allocation starts once the whole round has returned.
Each call records its exchanges into its own buffer, and the buffers are
appended in the order a sequential run writes them (summary, then proposals
by agent id), so the trace does not depend on which call finished first.
Every other backend runs the round inline, in that same order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..agents import Belief, expand_macro, merge_team_belief, perceive
from ..agents.records import HistoryRecord
from ..coordination import (
    AgentView,
    JointAction,
    allocate_with_report,
    assemble_context,
    make_proposal,
)
from ..errors import ContractViolation, RemoteBackendError
from ..reasoner import (
    HeuristicReasoner,
    Reasoner,
    ReasonerRequest,
    ReasonerResponse,
    RemoteReasoner,
    ScriptedReasoner,
    TEXT,
)
from ..summaries import (
    CollaborativeSummary,
    append,
    detect_change,
    slice_history,
    summarize,
)
from ..world import (
    TaskProgress,
    evaluate_progress,
    init_world,
    observe,
    transition,
)
from .config import EpisodeConfig, build_reasoner, variant_flags
from .trace import TRACE_FORMAT, action_stream, end_of, exchanges_of, header_of


@dataclass(frozen=True)
class EpisodeResult:
    task: str
    num_agents: int
    seed: int
    variant: str
    success: bool
    steps: int
    satisfied: int
    total: int
    num_summaries: int
    degraded_exchanges: int
    records: Tuple[dict, ...]

    def as_row(self) -> dict:
        return {
            "task": self.task,
            "num_agents": self.num_agents,
            "seed": self.seed,
            "variant": self.variant,
            "success": self.success,
            "steps": self.steps,
            "satisfied": self.satisfied,
            "total": self.total,
            "summaries": self.num_summaries,
            "degraded_exchanges": self.degraded_exchanges,
        }


class RecordingReasoner(Reasoner):
    """Pass-through wrapper that appends every text exchange (response or
    transport failure) to the list it was given: the trace sink, or one
    round call's own buffer. Structured backends leave no exchanges; they
    are reproduced by rerunning, not by replaying text."""

    def __init__(self, inner: Reasoner, sink: List[dict]):
        self.inner = inner
        self.sink = sink
        self.name = inner.name
        self.produces = inner.produces

    def invoke(self, request: ReasonerRequest) -> ReasonerResponse:
        if self.produces != TEXT:
            return self.inner.invoke(request)
        entry = {
            "type": "exchange",
            "kind": request.kind,
            "tick": request.tick,
            "agent_id": request.agent_id,
        }
        try:
            response = self.inner.invoke(request)
        except RemoteBackendError:
            entry["response"] = None
            self.sink.append(entry)
            raise
        entry["response"] = response.raw_text
        self.sink.append(entry)
        return response


# One decision call of a round: the backend, and the step that asks it.
Call = Tuple[Reasoner, Callable[[Reasoner], object]]


def _recorded(
    inner: Reasoner, step: Callable[[Reasoner], object]
) -> Tuple[object, List[dict]]:
    exchanges: List[dict] = []
    return step(RecordingReasoner(inner, exchanges)), exchanges


def _play_round(
    pool: Optional[ThreadPoolExecutor], calls: Sequence[Call]
) -> List[Tuple[object, List[dict]]]:
    """Each call's result and exchanges, in call order. Without a pool the
    calls run one after another on this thread. With one they all run at
    once, and every result is read, so the first failure in call order
    reaches the caller."""
    if pool is None:
        return [_recorded(inner, step) for inner, step in calls]
    futures = [pool.submit(_recorded, inner, step) for inner, step in calls]
    return [future.result() for future in futures]


def run_episode(
    config: EpisodeConfig,
    manager: Optional[Reasoner] = None,
    member: Optional[Reasoner] = None,
) -> EpisodeResult:
    built: List[Reasoner] = []
    pool: Optional[ThreadPoolExecutor] = None
    try:
        if manager is None:
            manager = build_reasoner(config, config.manager_backend)
            built.append(manager)
        if member is None:
            if config.member_backend == config.manager_backend:
                member = manager
            else:
                member = build_reasoner(config, config.member_backend)
                built.append(member)
        if config.remote.max_concurrency > 1 and any(
            isinstance(r, RemoteReasoner) for r in (manager, member)
        ):
            pool = ThreadPoolExecutor(
                max_workers=config.remote.max_concurrency,
                thread_name_prefix="homecrew-round",
            )
        return _play_episode(config, manager, member, pool)
    finally:
        # Sessions close before the workers are joined, so a server running
        # in this process gets the join to see those connections end before
        # the next episode opens its own.
        for reasoner in built:
            reasoner.close()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _play_episode(
    config: EpisodeConfig,
    manager: Reasoner,
    member: Reasoner,
    pool: Optional[ThreadPoolExecutor],
) -> EpisodeResult:
    state, goal = init_world(config.task, config.num_agents, config.seed)
    agent_ids = sorted(state.agents)
    sink: List[dict] = [
        {
            "type": "header",
            "format": TRACE_FORMAT,
            "task": config.task,
            "num_agents": config.num_agents,
            "seed": config.seed,
            "variant": config.variant,
            "manager_backend": manager.name,
            "member_backend": member.name,
            "max_steps": config.max_steps,
            "template": config.template,
        }
    ]
    recording_manager = RecordingReasoner(manager, sink)

    beliefs: Dict[int, Belief] = {i: Belief.empty() for i in agent_ids}
    history: List[HistoryRecord] = []
    collected = CollaborativeSummary.empty()
    last_believed = TaskProgress(
        0, goal.total_units(), tuple(0 for _ in goal.predicates)
    )
    t_last = 0
    degraded = 0
    success = False

    while True:
        observations = {i: observe(state, i) for i in agent_ids}
        for i in agent_ids:
            beliefs[i] = perceive(observations[i], beliefs[i])
        team = merge_team_belief([beliefs[i] for i in agent_ids])
        believed = evaluate_progress(team, goal)
        # Whether a summary is due, and the window it moves, never depend on
        # the summary's text, so both are settled before the round starts.
        calls: List[Call] = []
        summary_due = False
        if config.use_summaries and detect_change(believed, last_believed):
            window = slice_history(history, t_last, state.tick)
            if window:
                summary_due = True
                calls.append(
                    (
                        manager,
                        partial(
                            summarize,
                            records=window,
                            delta_progress=believed.satisfied - last_believed.satisfied,
                            interval=(t_last, state.tick),
                            index=len(collected) + 1,
                            goal=goal,
                            template=config.template,
                        ),
                    )
                )
                t_last = state.tick
                last_believed = believed
        progress = evaluate_progress(state, goal)
        finished = progress.done() or state.tick >= config.max_steps
        if not finished:
            window_records = tuple(slice_history(history, t_last, state.tick))
            for i in agent_ids:
                view = AgentView(
                    agent_id=i,
                    tick=state.tick,
                    num_agents=config.num_agents,
                    house=state.house,
                    goal=goal,
                    progress=believed,
                    observation=observations[i],
                    belief=beliefs[i],
                    history_window=window_records,
                )
                # Proposals are member work even for the agent carrying the
                # manager role; only ALLOCATE/SUMMARIZE use the manager backend.
                calls.append(
                    (
                        member,
                        partial(
                            make_proposal,
                            view=view,
                            parse_retries=config.parse_retries,
                            template=config.template,
                        ),
                    )
                )
        outcomes = _play_round(pool, calls)
        if summary_due:
            summary, exchanges = outcomes.pop(0)
            sink.extend(exchanges)
            collected = append(collected, summary)
            degraded += int(summary.degraded)
            sink.append(
                {
                    "type": "summary",
                    "tick": state.tick,
                    "index": summary.index,
                    "interval": list(summary.interval),
                    "delta": summary.delta,
                    "text": summary.text,
                    "degraded": summary.degraded,
                }
            )
        if progress.done():
            success = True
            steps = state.tick
            break
        if finished:
            steps = config.max_steps
            break

        proposals = []
        for proposal, exchanges in outcomes:
            sink.extend(exchanges)
            degraded += int(proposal.degraded)
            proposals.append(proposal)
        proposal_lines = {str(p.agent_id): p.candidate.render() for p in proposals}
        if config.use_allocation:
            context = assemble_context(proposals, beliefs, observations, state.house)
            prompt_summaries = (
                collected if config.use_summaries else CollaborativeSummary.empty()
            )
            joint, report = allocate_with_report(
                recording_manager,
                context,
                prompt_summaries,
                believed,
                goal,
                config.parse_retries,
                config.template,
            )
            degraded += int(report.degraded)
            mode, attempts, was_degraded = "centralized", report.attempts, report.degraded
            note = report.note
        else:
            joint = JointAction(tasks={p.agent_id: p.candidate for p in proposals})
            mode, attempts, was_degraded, note = "self", 0, False, ""
        allocation = {
            "type": "allocation",
            "tick": state.tick,
            "mode": mode,
            "attempts": attempts,
            "degraded": was_degraded,
            "joint": {str(a): task.render() for a, task in joint.items()},
            "proposals": proposal_lines,
        }
        # Only a degraded decision has a note, so clean traces keep their bytes.
        if note:
            allocation["note"] = note
        sink.append(allocation)
        actions = {
            i: expand_macro(joint.task_for(i), team, observations[i], state.house)
            for i in agent_ids
        }
        state, events = transition(state, actions)
        history.extend(
            HistoryRecord(
                state.tick, i, actions[i], tuple(e for e in events if e.agent_id == i)
            )
            for i in agent_ids
        )
        sink.append(
            {
                "type": "tick",
                "tick": state.tick,
                "actions": {str(i): actions[i].render() for i in agent_ids},
                "events": [e.render() for e in events],
                "satisfied": evaluate_progress(state, goal).satisfied,
            }
        )

    sink.append(
        {
            "type": "end",
            "success": success,
            "steps": steps,
            "satisfied": progress.satisfied,
            "total": progress.total,
            "summaries": len(collected),
            "degraded_exchanges": degraded,
        }
    )
    return EpisodeResult(
        task=config.task,
        num_agents=config.num_agents,
        seed=config.seed,
        variant=config.variant,
        success=success,
        steps=steps,
        satisfied=progress.satisfied,
        total=progress.total,
        num_summaries=len(collected),
        degraded_exchanges=degraded,
        records=tuple(sink),
    )


def config_from_header(header: dict) -> EpisodeConfig:
    """The config a trace was recorded under. Field values are checked by
    EpisodeConfig; a variant it would not name the same way is refused."""
    variant = header["variant"]
    if not isinstance(variant, str):
        raise ContractViolation(f"trace header variant {variant!r} is not a string")
    use_allocation, use_summaries = variant_flags(variant)
    config = EpisodeConfig(
        task=header["task"],
        num_agents=header["num_agents"],
        seed=header["seed"],
        manager_backend=header["manager_backend"],
        member_backend=header["member_backend"],
        use_allocation=use_allocation,
        use_summaries=use_summaries,
        max_steps=header["max_steps"],
        template=header["template"],
    )
    if config.variant != variant:
        raise ContractViolation(f"trace header names unknown variant {variant!r}")
    return config


def replay_trace(records: List[dict]) -> Tuple[EpisodeResult, bool, str]:
    """Rerun a trace with its text exchanges scripted back and compare step
    count plus the per-tick action stream against the recording. Every record
    replay reads is checked before the rerun starts."""
    header = header_of(records)
    recorded_end = end_of(records)
    config = config_from_header(header)
    original = action_stream(records)
    scripted = ScriptedReasoner.from_exchanges(exchanges_of(records))
    manager = (
        HeuristicReasoner()
        if header["manager_backend"] == "heuristic"
        else scripted
    )
    member = (
        HeuristicReasoner()
        if header["member_backend"] == "heuristic"
        else scripted
    )
    result = run_episode(config, manager, member)
    problems = []
    if result.steps != recorded_end["steps"]:
        problems.append(
            f"steps diverged: recorded {recorded_end['steps']}, replayed {result.steps}"
        )
    if recorded_end["success"] != result.success:
        problems.append("success flag diverged")
    replayed = action_stream(list(result.records))
    if original != replayed:
        first_bad = next(
            (
                (tick, a, b)
                for (tick, a), (_, b) in zip(original, replayed)
                if a != b
            ),
            None,
        )
        problems.append(f"action stream diverged, first difference: {first_bad}")
    return result, not problems, "; ".join(problems)
