"""Episode history records: one row per agent per tick."""

from __future__ import annotations

from typing import Tuple

from ..world.types import Action, Event, value_type


@value_type
class HistoryRecord:
    """What one agent did at one tick and what came of it.

    tick is the post-transition tick: the first tick at which the action's
    effects are part of the world.
    """

    tick: int
    agent_id: int
    action: Action
    events: Tuple[Event, ...] = ()
