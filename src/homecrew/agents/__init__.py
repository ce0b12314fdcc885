"""Agent core: beliefs, history records, macro execution, text rendering."""

from .belief import Belief, Fact, merge_team_belief, perceive
from .execution import (
    EXPLORE_ROOM,
    FETCH_PLACE,
    MacroTask,
    believed_instance,
    expand_macro,
    room_hides_content,
    sweep_targets,
)
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
    "MacroTask",
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
