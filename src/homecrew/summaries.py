"""Progress-triggered collaboration summaries.

Whenever the team's believed progress changes, the records since the last
change point are condensed into one bounded note and appended to a running
list. The notes replace raw history in manager prompts, so prompt size grows
with the number of milestones instead of the number of ticks. Interval
bookkeeping is half-open: a summary over (lo, hi] covers the records with
lo < tick <= hi, and consecutive summaries tile the history exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .agents.records import HistoryRecord
from .agents.textify import render_history
from .errors import ContractViolation, RemoteBackendError, ResponseParseError
from .reasoner.base import SUMMARIZE, STRUCTURED, Reasoner, ReasonerRequest
from .reasoner.prompts import TEMPLATE_V1, SummarizePayload, render_prompt
from .world.types import GoalSpec, TaskProgress

SUMMARY_CHAR_BUDGET = 512


@dataclass(frozen=True)
class Summary:
    """One collaboration note covering the half-open tick interval
    (interval[0], interval[1]]."""

    index: int
    interval: Tuple[int, int]
    delta: int
    text: str
    source_record_count: int
    degraded: bool = False

    def render_line(self) -> str:
        lo, hi = self.interval
        return f"[{self.index}] ticks {lo + 1}-{hi}: {self.text}"


@dataclass(frozen=True)
class CollaborativeSummary:
    entries: Tuple[Summary, ...] = ()

    @classmethod
    def empty(cls) -> "CollaborativeSummary":
        return cls(entries=())

    def __len__(self) -> int:
        return len(self.entries)

    def rendered_lines(self) -> Tuple[str, ...]:
        """Most recent first, the order prompts show them in."""
        return tuple(s.render_line() for s in reversed(self.entries))


def detect_change(progress: TaskProgress, last_progress: TaskProgress) -> bool:
    """Progress means the count of satisfied goal units; any move in either
    direction triggers a summary."""
    return progress.satisfied != last_progress.satisfied


def slice_history(
    history: Sequence[HistoryRecord], t_last: int, t: int
) -> List[HistoryRecord]:
    """Records with t_last < tick <= t, original order preserved."""
    return [record for record in history if t_last < record.tick <= t]


def template_digest(records: Sequence[HistoryRecord], delta: int) -> str:
    """Deterministic fallback note: what was placed, what clashed."""
    placed = [e for r in records for e in r.events if e.kind == "placed"]
    conflicts = sum(1 for r in records for e in r.events if e.kind == "conflict")
    failures = sum(1 for r in records for e in r.events if e.kind == "failure")
    parts = [f"progress {delta:+d}"]
    if placed:
        parts.append(", ".join(f"agent {e.agent_id} {e.note}" for e in placed))
    else:
        parts.append("no placements recorded")
    if conflicts:
        parts.append(f"{conflicts} conflict(s)")
    if failures:
        parts.append(f"{failures} failed action(s)")
    return "; ".join(parts)


@dataclass(frozen=True)
class SummaryInputs:
    """Structured payload for SUMMARIZE requests."""

    records: Tuple[HistoryRecord, ...]
    delta: int
    interval: Tuple[int, int]


def summarize(
    reasoner: Reasoner,
    records: Sequence[HistoryRecord],
    delta_progress: int,
    interval: Tuple[int, int],
    index: int = 1,
    goal: Optional[GoalSpec] = None,
    template: str = TEMPLATE_V1,
) -> Summary:
    """Condense one interval's records into a bounded Summary.

    Text backends get a prompt and may answer freely; on transport failure or
    an empty answer the deterministic template digest is used instead and the
    summary is flagged degraded. No answer is re-asked, so there is no parse
    retry count here. A structured backend gets the records alone; no prompt
    is built for it. The text is always clipped to the character budget.
    """
    if not records:
        raise ContractViolation("cannot summarize an empty record slice")
    if delta_progress == 0:
        raise ContractViolation("summaries are only written when progress changed")
    inputs = SummaryInputs(
        records=tuple(records), delta=delta_progress, interval=interval
    )
    text = None
    degraded = False
    if reasoner.produces == STRUCTURED:
        text = reasoner.invoke(ReasonerRequest(SUMMARIZE, inputs)).parsed
    else:
        payload = SummarizePayload(
            interval=interval,
            delta=delta_progress,
            goal_text=goal.render() if goal is not None else "(objective not provided)",
            record_lines=tuple(render_history(records).split("\n")),
        )
        request = ReasonerRequest(
            kind=SUMMARIZE,
            structured_payload=inputs,
            rendered_prompt=render_prompt(SUMMARIZE, payload, template),
            tick=interval[1],
            agent_id=0,
        )
        try:
            response = reasoner.invoke(request)
            raw = (response.raw_text or "").strip()
            text = " ".join(raw.split()) if raw else None
        except (RemoteBackendError, ResponseParseError):
            text = None
        if text is None:
            text = template_digest(records, delta_progress)
            degraded = True
    return Summary(
        index=index,
        interval=interval,
        delta=delta_progress,
        text=str(text)[:SUMMARY_CHAR_BUDGET],
        source_record_count=len(records),
        degraded=degraded,
    )


def append(collected: CollaborativeSummary, summary: Summary) -> CollaborativeSummary:
    """Append with tiling checks: indexes run 1..n and each interval starts
    where the previous one ended (the first starts at 0)."""
    lo, hi = summary.interval
    if lo >= hi:
        raise ContractViolation(f"empty or inverted summary interval ({lo}, {hi}]")
    expected_index = len(collected.entries) + 1
    if summary.index != expected_index:
        raise ContractViolation(
            f"summary index {summary.index} out of order, expected {expected_index}"
        )
    expected_lo = collected.entries[-1].interval[1] if collected.entries else 0
    if lo != expected_lo:
        raise ContractViolation(
            f"summary interval ({lo}, {hi}] not adjacent to previous end {expected_lo}"
        )
    return replace(collected, entries=collected.entries + (summary,))
