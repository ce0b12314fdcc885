"""Episode driver, benchmark grids, metrics, and trace tools."""

from .benchmark import BenchmarkResult, BenchmarkSpec, run_benchmark
from .config import (
    EpisodeConfig,
    RemoteConfig,
    variant_flags,
)
from .episode import EpisodeResult, replay_trace, run_episode
from .metrics import (
    aggregate,
    compute_ei,
    efficiency_fraction,
    format_table,
    metrics_json,
    read_long_csv,
)
from .trace import (
    end_of,
    header_of,
    load_trace,
    render_trace,
    trace_sha256,
    write_trace,
)

__all__ = [
    "BenchmarkResult",
    "BenchmarkSpec",
    "EpisodeConfig",
    "EpisodeResult",
    "RemoteConfig",
    "aggregate",
    "compute_ei",
    "efficiency_fraction",
    "end_of",
    "format_table",
    "header_of",
    "load_trace",
    "metrics_json",
    "read_long_csv",
    "render_trace",
    "replay_trace",
    "run_benchmark",
    "run_episode",
    "trace_sha256",
    "variant_flags",
    "write_trace",
]
