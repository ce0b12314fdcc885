"""Progress-triggered collaboration summaries.

The summaries written so far are an episode's only memory of progress. A
summary is due when the team's believed satisfied count differs from the sum
of the deltas already written (``progress_since``); the records since the
last summary are then condensed into one bounded note that ``summarize``
numbers and places after the last. The notes replace raw history in the
manager's ALLOCATE prompt, so it grows with milestones, not ticks. A member's
PROPOSE prompt still renders its own records since the last summary, so it
grows with the ticks of a stall. Intervals are half-open: a summary over
(lo, hi] covers the records with lo < tick <= hi, and each one starts where
the last ended, so the summaries tile the history by construction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .agents.records import HistoryRecord
from .errors import ContractViolation
from .reasoner.base import SUMMARIZE, Reasoner, ask
from .world.types import GoalSpec, TaskProgress, value_type

SUMMARY_CHAR_BUDGET = 512


@value_type
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


def summarized_until(collected: Sequence[Summary]) -> int:
    """The tick the last summary ends at, or 0 before the first."""
    return collected[-1].interval[1] if collected else 0


def progress_since(collected: Sequence[Summary], believed: TaskProgress) -> int:
    """How far the believed satisfied count has moved since the summaries
    written so far, whose deltas add up to the count they last saw. Any move,
    in either direction, makes a summary due."""
    return believed.satisfied - sum(summary.delta for summary in collected)


def slice_history(
    history: Sequence[HistoryRecord], lo: int, hi: int
) -> List[HistoryRecord]:
    """Records with lo < tick <= hi, original order preserved."""
    return [record for record in history if lo < record.tick <= hi]


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


@value_type
class SummaryInputs:
    """The inputs of a SUMMARIZE decision, for any backend."""

    records: Tuple[HistoryRecord, ...]
    delta: int
    interval: Tuple[int, int]
    goal: GoalSpec


def summarize(
    reasoner: Reasoner,
    collected: Sequence[Summary],
    records: Sequence[HistoryRecord],
    delta_progress: int,
    tick: int,
    *,
    goal: GoalSpec,
) -> Summary:
    """Condense the records since the last of ``collected`` into the next
    bounded Summary: numbered after it, over the interval from its end to
    ``tick``.

    Text backends get a prompt and may answer freely; on transport failure or
    an empty answer ``ask`` returns the heuristic's template digest instead
    and the summary is flagged degraded. ``ask`` never re-asks a summary.
    The text is always clipped to the character budget.
    """
    if not records:
        raise ContractViolation("cannot summarize an empty record slice")
    if delta_progress == 0:
        raise ContractViolation("summaries are only written when progress changed")
    interval = (summarized_until(collected), tick)
    if tick <= interval[0]:
        raise ContractViolation(f"empty or inverted summary interval ({interval[0]}, {tick}]")
    inputs = SummaryInputs(
        records=tuple(records), delta=delta_progress, interval=interval, goal=goal
    )
    text, _, note = ask(reasoner, SUMMARIZE, inputs, tick, 0)
    return Summary(
        index=len(collected) + 1,
        interval=interval,
        delta=delta_progress,
        text=str(text)[:SUMMARY_CHAR_BUDGET],
        degraded=note is not None,
    )

