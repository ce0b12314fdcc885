"""Episode driver, benchmark grids, metrics, and trace tools."""

from .benchmark import BenchmarkResult, BenchmarkSpec, run_benchmark
from .config import (
    DEFAULT_MAX_STEPS,
    EpisodeConfig,
    RemoteConfig,
    build_reasoner,
    load_config_file,
    variant_flags,
)
from .episode import EpisodeResult, replay_trace, run_episode
from .metrics import (
    CellMetrics,
    aggregate,
    compute_ei,
    efficiency_fraction,
    format_table,
    long_csv,
    metrics_csv,
    metrics_json,
    read_long_csv,
)
from .trace import (
    TRACE_FORMAT,
    action_stream,
    end_of,
    exchanges_of,
    header_of,
    load_trace,
    render_trace,
    trace_sha256,
    write_trace,
)

__all__ = [
    "BenchmarkResult",
    "BenchmarkSpec",
    "CellMetrics",
    "DEFAULT_MAX_STEPS",
    "EpisodeConfig",
    "EpisodeResult",
    "RemoteConfig",
    "TRACE_FORMAT",
    "action_stream",
    "aggregate",
    "build_reasoner",
    "compute_ei",
    "efficiency_fraction",
    "end_of",
    "exchanges_of",
    "format_table",
    "header_of",
    "load_config_file",
    "load_trace",
    "long_csv",
    "metrics_csv",
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
