"""Episode driver, benchmark grids, metrics, and trace tools."""

from .config import EpisodeConfig, RemoteConfig
from .episode import replay_trace, run_episode

__all__ = [
    "EpisodeConfig",
    "RemoteConfig",
    "replay_trace",
    "run_episode",
]
