#!/usr/bin/env python3
"""Alternating perfbench pairs of a parent commit against this checkout.

    python3 scripts/bench_pairs.py --parent REV --pr N
        [--workloads grid alloc3 remote-stub] [--seed 0]

REV is unpacked with ``git archive`` into a temporary directory, so the
repository's ``.git`` is left alone, and this checkout is copied into
another without its dot-directories and ``__pycache__``. Each call runs ten
pairs per workload of ``perfbench/run.py --workload W --seed S --trace 0``
at the benchmark's own run length, once in each tree, each side with its own
``perfbench/``; the side that runs first alternates from pair to pair. Every
run writes into its own ``--out`` directory under
``.bench_results/pairs-<N>/``, so no run overwrites another's file, and a
later call with the same REV adds ten more pairs (of another workload, seed
or the same one) to that set.

``BENCH_<N>.json`` at the repository root is then rewritten from every
complete pair in that directory: per side and workload the median [Q1, Q3]
of each end-to-end metric, per workload the ``ms_per_tick`` pair wins, both
medians, the parent's quartile distance and whether that shows a gain (the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's quartile distance), and each end-to-end metric's
verdict against its bound in BENCHMARK.json. Sets run with a seed other than
0 are labelled ``W (--seed S)``.

Children run with PYTHONDONTWRITEBYTECODE=1, because ``setup_s`` depends on
the bytecode setting; as neither tree holds a ``__pycache__``, both sides
compile the project's modules at every start. A REV that does not resolve, or a run that fails or
reports ``correct: false``, ends as ``error: ...`` with exit 2.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spec  # noqa: E402
from stats import quartiles, verdict  # noqa: E402

CLAIM_METRIC = "ms_per_tick"
SIDES = ("parent", "change")
PAIRS = 10
DEFAULT_SEED = 0
_SPEED_RE = re.compile(r"machine speed: mean factor ([0-9.]+)")


class BenchError(Exception):
    """A refusal: printed as one ``error:`` line, exit 2."""


def resolve(rev: str) -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        raise BenchError(f"revision {rev!r} does not resolve to a commit")
    return out.stdout.strip()


def unpack(commit: str, dest: str) -> None:
    """Write the tree of ``commit`` into ``dest`` with ``git archive``."""
    with subprocess.Popen(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE
    ) as child:
        with tarfile.open(fileobj=child.stdout, mode="r|") as archive:
            if hasattr(tarfile, "data_filter"):
                archive.extractall(dest, filter="data")
            else:
                archive.extractall(dest)
    if child.returncode != 0:
        raise BenchError(f"git archive {commit} failed")


def run_one(tree: str, workload: str, seed: int, out: str) -> None:
    """One ``run.py --trace 0`` in ``tree``; its record lands in ``out``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{spec.RUN_SECONDS:g}", "--trace", "0", "--out", out,
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    records = glob.glob(os.path.join(out, "*.json"))
    if done.returncode not in (0, 1) or len(records) != 1:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{workload} run in {tree} exited {done.returncode}: {tail[0]}")
    with open(records[0], "r", encoding="utf-8") as handle:
        if not json.load(handle)["result"]["correct"]:
            raise BenchError(f"{workload} run in {tree} reported correct: false")


def set_label(workload: str, seed: int) -> str:
    return workload if seed == DEFAULT_SEED else f"{workload} (--seed {seed})"


def load_pairs(root: str) -> Dict[str, List[Tuple[dict, dict]]]:
    """Set label -> (parent record, change record) per complete pair, in
    pair order. A pair is the same run directory name under both sides."""
    pairs: Dict[str, List[Tuple[dict, dict]]] = {}
    for name in sorted(os.listdir(os.path.join(root, "parent"))):
        found = [glob.glob(os.path.join(root, side, name, "*.json")) for side in SIDES]
        if not all(len(paths) == 1 for paths in found):
            continue
        records = []
        for (path,) in found:
            with open(path, "r", encoding="utf-8") as handle:
                records.append(json.load(handle))
        for record in records:
            if not record["result"]["correct"]:
                raise BenchError(f"{name}: a run reported correct: false")
        label = set_label(records[0]["workload"], int(records[0]["seed"]))
        pairs.setdefault(label, []).append((records[0], records[1]))
    return pairs


def _speed_factor(record: dict) -> float:
    for line in record["info"]:
        match = _SPEED_RE.search(line)
        if match:
            return float(match.group(1))
    raise BenchError(f"{record['workload']}: run record has no machine speed line")


def _side_summary(records: List[dict]) -> dict:
    metrics = {}
    for name, unit, _, _ in spec.END_TO_END:
        q1, median, q3 = quartiles([r["result"]["metrics"][name]["value"] for r in records])
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    return {
        "runs": len(records),
        "correct": all(r["result"]["correct"] for r in records),
        "speed_factor_mean": statistics.mean(_speed_factor(r) for r in records),
        "metrics": metrics,
    }


def _pair_claim(parent: List[float], change: List[float], better: str) -> dict:
    """A gain needs the change to win at least nine tenths of the pairs
    (ties count for neither) and the medians to differ, in the better
    direction, by more than the parent's IQR."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p1, p_median, p3 = quartiles(parent)
    c_median = statistics.median(change)
    exceeds = sign * (p_median - c_median) > p3 - p1
    return {
        "pairs": len(parent),
        "change_wins": wins,
        "parent_median": p_median,
        "change_median": c_median,
        "median_change": (c_median - p_median) / abs(p_median) if p_median else 0.0,
        "parent_iqr": p3 - p1,
        "median_gap_exceeds_parent_iqr": exceeds,
        "gain": exceeds and wins >= 0.9 * len(parent),
    }


def summarize(root: str, pr: int) -> dict:
    """The BENCH_<pr>.json object for every complete pair under ``root``."""
    with open(os.path.join(root, "settings.json"), "r", encoding="utf-8") as handle:
        settings = json.load(handle)
    pairs = load_pairs(root)
    if not pairs:
        raise BenchError(f"no complete pair under {root}")
    betters = spec.betters()
    sides = {
        "parent": {"commit": settings["parent"], "workloads": {}},
        "change": {"commit": "the commit that adds this file (parent + this change)", "workloads": {}},
    }
    claims, verdicts = {}, {}
    first = next(iter(pairs.values()))[0][0]["env"]
    for label, runs in pairs.items():
        per_side = {side: [pair[index] for pair in runs] for index, side in enumerate(SIDES)}
        for side, records in per_side.items():
            sides[side]["workloads"][label] = _side_summary(records)
            sides[side]["src_sha256"] = records[0]["env"]["src_sha256"]
        values = {
            name: [[r["result"]["metrics"][name]["value"] for r in per_side[side]] for side in SIDES]
            for name, *_ in spec.END_TO_END
        }
        claims[f"{label}.{CLAIM_METRIC}"] = _pair_claim(*values[CLAIM_METRIC], betters[CLAIM_METRIC])
        verdicts[label] = {
            name: verdict(*values[name], betters[name], bound) for name, _, _, bound in spec.END_TO_END
        }
    for side in SIDES:
        factors = [w["speed_factor_mean"] for w in sides[side]["workloads"].values()]
        sides[side]["speed_factor_mean"] = statistics.mean(factors)
    return {
        "pr": pr,
        "benchmark": (
            f"perfbench/run.py --workload W --seed S --seconds {spec.RUN_SECONDS:g} --trace 0, "
            "pairs per set as listed, parent and change alternating which runs first"
        ),
        "environment": {
            "python": first["python"],
            "nproc": first["nproc"],
            "machine": first["machine"],
            "dont_write_bytecode": 1,
        },
        "sides": sides,
        "claims": claims,
        "verdicts": verdicts,
    }


def _settings(root: str, parent: str) -> None:
    """Pin the directory to one parent; refuse a mix."""
    path = os.path.join(root, "settings.json")
    wanted = {"parent": parent}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            held = json.load(handle)
        if held != wanted:
            raise BenchError(f"{root} holds runs of {held}; remove it or pass that parent")
        return
    os.makedirs(root, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(wanted, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to measure against")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<PR>.json")
    parser.add_argument("--workloads", nargs="+", default=sorted(spec.WORKLOAD_WHY), choices=sorted(spec.WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.pr < 0 or args.seed < 0:
        parser.error("--pr and --seed must be >= 0")

    root = os.path.join(ROOT, ".bench_results", f"pairs-{args.pr}")
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    try:
        parent = resolve(args.parent)
        _settings(root, parent)
        unpack(parent, trees["parent"])
        shutil.copytree(ROOT, trees["change"], ignore=shutil.ignore_patterns(".*", "__pycache__"))
        for workload in args.workloads:
            stem = f"{workload}-s{args.seed}"
            start = len(glob.glob(os.path.join(root, "parent", f"{stem}-*")))
            for index in range(start, start + PAIRS):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                for side in order:
                    out = os.path.join(root, side, f"{stem}-{index:03d}")
                    shutil.rmtree(out, ignore_errors=True)
                    run_one(trees[side], workload, args.seed, out)
                print(f"{stem} pair {index + 1 - start}/{PAIRS} done", file=sys.stderr)
        result = summarize(root, args.pr)
    except (BenchError, OSError, tarfile.TarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    for name, claim in result["claims"].items():
        print(
            f"{name}: {claim['parent_median']:.5g} -> {claim['change_median']:.5g} "
            f"({claim['median_change']:+.2%}), change wins {claim['change_wins']}/{claim['pairs']}, "
            f"parent IQR {claim['parent_iqr']:.3g}: {'gain' if claim['gain'] else 'no gain'}"
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
