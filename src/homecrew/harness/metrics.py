"""Benchmark metrics.

The step measure for one cell is the mean episode length, with failed
episodes entering at the step cap. Efficiency improvement between two step
measures is their signed difference as a percentage of the larger one,
rounded to an integer; each cell reports it against the single-agent full
run of the same task.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ContractViolation
from .config import VARIANTS
from .trace import LONG_FIELDS, LONG_INT_FIELDS


def efficiency_fraction(first: float, second: float) -> float:
    """Signed fractional improvement from first to second, normalized by the
    larger measure; positive when second is the smaller (better) one."""
    m0 = max(first, second)
    if m0 <= 0:
        return 0.0
    return (first - second) / m0


def compute_ei(first: float, second: float) -> int:
    return round(100.0 * efficiency_fraction(first, second))


@dataclass(frozen=True)
class CellMetrics:
    """One bench cell, a (task, variant, agents) triple over its seeds. EI is
    against the task's full single-agent cell, None when the grid lacks it."""

    task: str
    variant: str
    num_agents: int
    episodes: int
    successes: int
    mean_steps: float
    success_rate: float
    ei_vs_single: Optional[int]

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "mean_steps": round(self.mean_steps, 3),
            "success_rate": round(self.success_rate, 3),
        }


def aggregate(rows: Sequence[dict]) -> List[CellMetrics]:
    """Cell metrics from typed per-episode rows, as ``EpisodeResult.as_row``
    and read_long_csv give them, ordered (task, variant, agents). The EI
    column compares each cell to the same task's full single-agent cell and
    is omitted when that baseline is absent."""
    grouped: Dict[Tuple[str, str, int], List[dict]] = {}
    for row in rows:
        key = (row["task"], row["variant"], row["num_agents"])
        grouped.setdefault(key, []).append(row)
    means = {
        key: sum(r["steps"] for r in cell_rows) / len(cell_rows)
        for key, cell_rows in grouped.items()
    }
    cells = []
    for key in sorted(grouped, key=lambda k: (k[0], list(VARIANTS).index(k[1]), k[2])):
        task, variant, num_agents = key
        cell_rows = grouped[key]
        successes = sum(1 for r in cell_rows if r["success"])
        baseline = means.get((task, "full", 1))
        cells.append(
            CellMetrics(
                task=task,
                variant=variant,
                num_agents=num_agents,
                episodes=len(cell_rows),
                successes=successes,
                mean_steps=means[key],
                success_rate=successes / len(cell_rows),
                ei_vs_single=(
                    compute_ei(baseline, means[key]) if baseline is not None else None
                ),
            )
        )
    return cells


def long_csv(rows: Sequence[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=LONG_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({field: row[field] for field in LONG_FIELDS})
    return buffer.getvalue()


def read_long_csv(path: str) -> List[dict]:
    """The rows of a long.csv as long_csv wrote them; any other file is
    refused, naming the first line that is not such a row."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                values = [row.get(name) for name in LONG_FIELDS]
                if None in row or None in values or row["success"] not in ("True", "False"):
                    raise ValueError(f"line {reader.line_num} is not a long.csv row")
                if row["variant"] not in VARIANTS:
                    raise ValueError(f"line {reader.line_num}: unknown variant {row['variant']!r}")
                # The integer columns, each only in the spelling str() writes.
                for name in LONG_INT_FIELDS:
                    text, row[name] = row[name], int(row[name])
                    if str(row[name]) != text:
                        raise ValueError(f"line {reader.line_num}: bad {name} {text!r}")
                row["success"] = row["success"] == "True"
                rows.append(row)
    except (OSError, ValueError, csv.Error) as exc:
        raise ContractViolation(f"cannot read {path}: {exc}")
    return rows


def metrics_csv(cells: Sequence[CellMetrics]) -> str:
    buffer = io.StringIO()
    names = [f.name for f in fields(CellMetrics)]
    writer = csv.DictWriter(buffer, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    for cell in cells:
        writer.writerow(cell.as_dict())
    return buffer.getvalue()


def metrics_json(cells: Sequence[CellMetrics]) -> str:
    return json.dumps([cell.as_dict() for cell in cells], sort_keys=True, indent=2)


def format_table(cells: Sequence[CellMetrics]) -> str:
    """Aligned text table for terminal output."""
    header = ["task", "variant", "agents", "runs", "ok", "mean steps", "EI%"]
    body = [
        [
            cell.task,
            cell.variant,
            str(cell.num_agents),
            str(cell.episodes),
            str(cell.successes),
            f"{cell.mean_steps:.1f}",
            "-" if cell.ei_vs_single is None else str(cell.ei_vs_single),
        ]
        for cell in cells
    ]
    widths = [
        max(len(row[col]) for row in [header] + body) for col in range(len(header))
    ]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)))
    return "\n".join(lines)
