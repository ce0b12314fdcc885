"""Agent core: beliefs, history records, macro execution, text rendering."""

from .belief import Belief, Fact, TeamBelief, merge_team_belief, perceive
from .execution import (
    EXPLORE_ROOM,
    FETCH_PLACE,
    IDLE,
    MacroTask,
    believed_instance,
    expand_macro,
    room_hides_content,
    sweep_targets,
)
from .records import HistoryRecord
from .textify import (
    belief_digest,
    render_belief,
    render_history,
    render_observation,
)

__all__ = [
    "Belief",
    "EXPLORE_ROOM",
    "FETCH_PLACE",
    "Fact",
    "HistoryRecord",
    "IDLE",
    "MacroTask",
    "TeamBelief",
    "belief_digest",
    "believed_instance",
    "expand_macro",
    "room_hides_content",
    "sweep_targets",
    "merge_team_belief",
    "perceive",
    "render_belief",
    "render_history",
    "render_observation",
]
