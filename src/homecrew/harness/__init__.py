"""Episode driver, benchmark grids, metrics, and trace tools."""

# perfbench/run.py's Bench reads these four names off this package.
from .config import EpisodeConfig, RemoteConfig
from .episode import replay_trace, run_episode
