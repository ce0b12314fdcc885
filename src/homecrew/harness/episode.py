"""One episode end to end, plus trace replay.

Per tick: everyone observes and folds the observation into their belief,
the beliefs merge into the team belief, a summary is written if the believed
satisfied count differs from the one the summaries so far have seen (covering
exactly the records since the last summary), then members propose, the
manager allocates (or, with allocation disabled, each member self-executes
its own candidate), macros expand to primitives against the team belief, the
world transitions, and each agent's action and events enter the history.
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

from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..agents.belief import Belief, merge_team_belief, perceive
from ..agents.execution import expand_macro
from ..agents.records import HistoryRecord
from ..coordination.allocate import AllocationReport, allocate_with_report, assemble_context
from ..coordination.negotiate import make_proposal
from ..coordination.types import AgentView, AllocationInputs, JointAction
from ..errors import FixtureExhausted
from ..reasoner.base import TEXT, Reasoner
from ..reasoner.remote import RemoteReasoner
from ..reasoner.scripted import RecordingReasoner
from ..summaries import (
    Summary,
    progress_since,
    slice_history,
    summarized_until,
    summarize,
)
from ..world.engine import evaluate_progress, observe, room_sightings, transition
from ..world.scenarios import init_world
from .config import EpisodeConfig, build_reasoner
from .trace import BACKEND_FIELDS, check_trace, header_record, render_line

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# An episode's long.csv columns: the first four are read from its trace's
# header, the rest from its end record.
LONG_FIELDS = [
    "task", "variant", "num_agents", "seed",
    "success", "steps", "satisfied", "total", "summaries", "degraded_exchanges",
]


@dataclass(frozen=True)
class EpisodeResult:
    """An episode as its trace records it: the header first, the end last."""

    records: Tuple[dict, ...]

    @property
    def header(self) -> dict:
        return self.records[0]

    @property
    def end(self) -> dict:
        return self.records[-1]

    @property
    def success(self) -> bool:
        return self.end["success"]

    @property
    def steps(self) -> int:
        return self.end["steps"]

    @property
    def degraded_exchanges(self) -> int:
        return self.end["degraded_exchanges"]

    def as_row(self) -> dict:
        header, end = self.header, self.end
        row = {name: header[name] for name in LONG_FIELDS[:4]}
        row.update((name, end[name]) for name in LONG_FIELDS[4:])
        return row


# One decision call of a round: the backend, and the step that asks it.
Call = Tuple[Reasoner, Callable[[Reasoner], object]]


def _recorded(
    inner: Reasoner, step: Callable[[Reasoner], object]
) -> Tuple[object, List[dict]]:
    """The step's result and its exchanges with a text backend. A structured
    backend leaves none: it is reproduced by rerunning, not by replaying text."""
    exchanges: List[dict] = []
    reasoner = RecordingReasoner(inner, exchanges) if inner.produces == TEXT else inner
    return step(reasoner), exchanges


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
            # Imported here so that runs without a remote backend never load it.
            from concurrent.futures import ThreadPoolExecutor

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
    sink: List[dict] = [header_record(config, manager.name, member.name)]

    beliefs: Dict[int, Belief] = {i: Belief.empty() for i in agent_ids}
    history: List[HistoryRecord] = []
    # The summaries written so far: where the last ended, and the progress
    # they have seen, are read off them.
    collected: Tuple[Summary, ...] = ()
    degraded = 0
    # Ground truth for the current state: computed once per state, it feeds
    # the tick record that closes a tick and the done check that opens the next.
    progress = evaluate_progress(state, goal)

    while True:
        sightings = room_sightings(state)
        observations = {i: observe(state, i, sightings) for i in agent_ids}
        for i in agent_ids:
            beliefs[i] = perceive(observations[i], beliefs[i])
        team = merge_team_belief([beliefs[i] for i in agent_ids])
        believed = evaluate_progress(team, goal)
        # Whether a summary is due, and the window it covers, never depend on
        # the summary's text, so both are settled before the round starts.
        window = tuple(slice_history(history, summarized_until(collected), state.tick))
        delta = progress_since(collected, believed)
        summary_due = config.use_summaries and delta != 0 and bool(window)
        calls: List[Call] = []
        if summary_due:
            step = partial(
                summarize, collected=collected, records=window, delta_progress=delta,
                tick=state.tick, goal=goal,
            )
            calls.append((manager, step))
            # Members see the records since the last summary: none, now.
            window = ()
        finished = progress.done() or state.tick >= config.max_steps
        if not finished:
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
                    history_window=window,
                )
                # Proposals are member work even for the agent carrying the
                # manager role; only ALLOCATE/SUMMARIZE use the manager backend.
                calls.append((member, partial(make_proposal, view=view)))
        outcomes = _play_round(pool, calls)
        if summary_due:
            summary, exchanges = outcomes.pop(0)
            sink.extend(exchanges)
            collected += (summary,)
            degraded += int(summary.degraded)
            record = {"type": "summary", "tick": state.tick, **asdict(summary)}
            record["interval"] = list(summary.interval)
            sink.append(record)
        if finished:
            break

        proposals = []
        for proposal, exchanges in outcomes:
            sink.extend(exchanges)
            degraded += int(proposal.degraded)
            proposals.append(proposal)
        if config.use_allocation:
            inputs = AllocationInputs(
                tick=state.tick,
                entries=assemble_context(proposals, beliefs, observations),
                house=state.house,
                summaries=collected,
                progress=believed,
                goal=goal,
                team=team,
            )
            (joint, report), exchanges = _recorded(
                manager, partial(allocate_with_report, inputs=inputs)
            )
            sink.extend(exchanges)
        else:
            joint = JointAction(tasks={p.agent_id: p.candidate for p in proposals})
            report = AllocationReport(attempts=0, degraded=False)
        degraded += int(report.degraded)
        allocation = {
            "type": "allocation",
            "tick": state.tick,
            "mode": "centralized" if config.use_allocation else "self",
            "attempts": report.attempts,
            "degraded": report.degraded,
            "joint": {str(a): task.render() for a, task in joint.items()},
            "proposals": {str(p.agent_id): p.candidate.render() for p in proposals},
        }
        # Only a degraded decision has a note, so clean traces keep their bytes.
        if report.note:
            allocation["note"] = report.note
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
        progress = evaluate_progress(state, goal)
        sink.append(
            {
                "type": "tick",
                "tick": state.tick,
                "actions": {str(i): actions[i].render() for i in agent_ids},
                "events": [e.render() for e in events],
                "satisfied": progress.satisfied,
            }
        )

    sink.append(
        {
            "type": "end",
            "success": progress.done(),
            "steps": state.tick,
            "satisfied": progress.satisfied,
            "total": progress.total,
            "summaries": len(collected),
            "degraded_exchanges": degraded,
        }
    )
    return EpisodeResult(tuple(sink))


def divergence(recorded: List[dict], replayed: List[dict]) -> str:
    """Where two traces first differ by ``render_line`` bytes: the record's
    number and type and the first differing key, or the two record counts when
    one trace runs on past the other. Empty when they agree."""
    for number, (was, now) in enumerate(zip_longest(recorded, replayed), 1):
        if was is None or now is None:
            return (
                f"record {number} ({(now if was is None else was).get('type')}) diverged: "
                f"recorded {len(recorded)} records, replayed {len(replayed)}"
            )
        skip = BACKEND_FIELDS if number == 1 else ()
        for key in sorted((was.keys() | now.keys()).difference(skip)):
            if key not in was or key not in now or (
                render_line({key: was[key]}) != render_line({key: now[key]})
            ):
                return f"record {number} ({was.get('type')}) diverged at {key!r}"
    return ""


def replay_trace(records: List[dict]) -> Tuple[Optional[EpisodeResult], bool, str]:
    """Rerun a trace's config with its text roles scripted from its exchanges,
    and compare every record the rerun writes with the recorded one.
    check_trace refuses a malformed trace before the rerun starts. A rerun that
    asks for a reply the trace never recorded has diverged too, and leaves no result."""
    config, fixtures = check_trace(records)
    backends = {
        role: "heuristic" if getattr(config, role) == "heuristic" else "scripted"
        for role in BACKEND_FIELDS
    }
    try:
        result = run_episode(replace(config, fixtures=fixtures, **backends))
    except FixtureExhausted as exc:
        return None, False, f"the rerun asked for a reply the trace never recorded: {exc}"
    message = divergence(records, list(result.records))
    return result, not message, message
