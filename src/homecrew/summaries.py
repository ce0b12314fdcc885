"""Progress-triggered collaboration summaries.

Whenever the team's believed progress changes, the records since the last
change point are condensed into one bounded note and appended to a running
list. The notes replace raw history in the manager's ALLOCATE prompt, so it
grows with milestones, not ticks. A member's PROPOSE prompt still renders its
own records since the last summary, so it grows with the ticks of a stall.
Intervals are half-open: a summary over (lo, hi] covers the records with
lo < tick <= hi, and consecutive summaries tile the history exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .agents.records import HistoryRecord
from .errors import ContractViolation, ResponseParseError
from .reasoner.base import SUMMARIZE, Reasoner, ask
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
    degraded: bool = False

    def render_line(self) -> str:
        lo, hi = self.interval
        return f"[{self.index}] ticks {lo + 1}-{hi}: {self.text}"


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


def _note(raw: str) -> str:
    """A reply as one line of text; an empty reply is refused."""
    text = " ".join(raw.split())
    if not text:
        raise ResponseParseError("empty summary")
    return text


@dataclass(frozen=True)
class SummaryInputs:
    """The inputs of a SUMMARIZE decision, for any backend."""

    records: Tuple[HistoryRecord, ...]
    delta: int
    interval: Tuple[int, int]
    goal: GoalSpec


def summarize(
    reasoner: Reasoner,
    records: Sequence[HistoryRecord],
    delta_progress: int,
    interval: Tuple[int, int],
    index: int = 1,
    *,
    goal: GoalSpec,
) -> Summary:
    """Condense one interval's records into a bounded Summary.

    Text backends get a prompt and may answer freely; on transport failure or
    an empty answer the deterministic template digest is used instead and the
    summary is flagged degraded. No answer is re-asked (``retries=0``).
    The text is always clipped to the character budget.
    """
    if not records:
        raise ContractViolation("cannot summarize an empty record slice")
    if delta_progress == 0:
        raise ContractViolation("summaries are only written when progress changed")
    inputs = SummaryInputs(
        records=tuple(records), delta=delta_progress, interval=interval, goal=goal
    )
    text, _, _ = ask(reasoner, SUMMARIZE, inputs, _note, interval[1], 0, retries=0)
    degraded = text is None
    if degraded:
        text = template_digest(records, delta_progress)
    return Summary(
        index=index,
        interval=interval,
        delta=delta_progress,
        text=str(text)[:SUMMARY_CHAR_BUDGET],
        degraded=degraded,
    )


def append(collected: Tuple[Summary, ...], summary: Summary) -> Tuple[Summary, ...]:
    """Append with tiling checks: indexes run 1..n and each interval starts
    where the previous one ended (the first starts at 0)."""
    lo, hi = summary.interval
    if lo >= hi:
        raise ContractViolation(f"empty or inverted summary interval ({lo}, {hi}]")
    expected_index = len(collected) + 1
    if summary.index != expected_index:
        raise ContractViolation(
            f"summary index {summary.index} out of order, expected {expected_index}"
        )
    expected_lo = collected[-1].interval[1] if collected else 0
    if lo != expected_lo:
        raise ContractViolation(
            f"summary interval ({lo}, {hi}] not adjacent to previous end {expected_lo}"
        )
    return collected + (summary,)
