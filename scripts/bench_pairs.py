#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized as a BENCH_<n>.json trajectory file.

    python3 scripts/bench_pairs.py --parent ../parent --change . --out BENCH_6.json

``--parent`` and ``--change`` are two clean git checkouts, each with its
own ``perfbench/``; each side's SHA is read from its checkout.  For every
seed 1..10 and every workload this runs ``perfbench/run.py --trace 0``
(at its own fixed run length) once in each checkout, the parent first on
odd seeds and the change first on even ones.  The summary gives, per
workload, side and end-to-end metric, the median and quartiles over the
runs and every run's value; per metric, the pairs the change wins (lower
is better, ties count for neither); the failed and attempted rounds; and
the host.

Both checkouts' ``src/`` and ``perfbench/`` are byte-compiled before the
first pair, because ``setup_s`` includes importing the program: without
bytecode caches the same code measured 0.14-0.27 s against 0.10-0.13 s
with them, and under ``PYTHONDONTWRITEBYTECODE=1`` a run writes none, so a
checkout that happened to have caches would win ``setup_s``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("certify", "complete", "search")
METRICS = ("round_s_p50", "round_s_tail", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
PAIRS = 10


def checkout_sha(checkout: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    if git("status", "--porcelain", "--untracked-files=no"):
        sys.exit(f"error: {checkout} has uncommitted changes, its SHA would not name what ran")
    return git("rev-parse", "HEAD")


def byte_compile(checkout: Path) -> None:
    for tree in ("src", "perfbench"):
        if not compileall.compile_dir(checkout / tree, quiet=1):
            sys.exit(f"error: cannot byte-compile {checkout / tree}")


def run_pairs(checkouts: dict[str, Path]) -> dict[str, dict[str, list[tuple[dict, dict]]]]:
    """Per workload and side, the (report, result) lines of seeds 1..PAIRS in order."""
    for checkout in checkouts.values():
        byte_compile(checkout)
    out = {workload: {side: [] for side in SIDES} for workload in WORKLOADS}
    for seed in range(1, PAIRS + 1):
        for workload in WORKLOADS:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                     "--trace", "0"],
                    cwd=checkouts[side], capture_output=True, text=True, check=True,
                )
                out[workload][side].append(tuple(json.loads(line) for line in result.stdout.splitlines()[-2:]))
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarize(runs: dict[str, dict[str, list[tuple[dict, dict]]]], shas: dict[str, str]) -> dict:
    workloads = {}
    for workload, sides in runs.items():
        results = {side: [result for _, result in sides[side]] for side in SIDES}
        entry = {"pairs": PAIRS, "seeds": list(range(1, PAIRS + 1))}
        for side in SIDES:
            entry[f"{side}_attempted"] = sum(result["attempted"] for result in results[side])
            entry[f"{side}_failed"] = sum(result["failed"] for result in results[side])
        for metric in METRICS:
            values = {side: [result["metrics"][metric]["value"] for result in results[side]] for side in SIDES}
            parent, change = values["parent"], values["change"]
            entry[metric] = {
                "unit": results["parent"][0]["metrics"][metric]["unit"],
                **{side: {**quartiles(values[side]), "runs": values[side]} for side in SIDES},
                "change_wins": sum(c < p for p, c in zip(parent, change)),
                "change_loses": sum(c > p for p, c in zip(parent, change)),
                "median_change_pct": round(
                    100 * (statistics.median(change) / statistics.median(parent) - 1), 2
                ),
            }
        workloads[workload] = entry
    machine = runs[WORKLOADS[0]]["parent"][0][0]["machine"]
    return {
        "command": "perfbench/run.py --trace 0, alternating parent/change pairs",
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(), **machine},
        "workloads": workloads,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="git checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="git checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    shas = {side: checkout_sha(path) for side, path in checkouts.items()}
    summary = summarize(run_pairs(checkouts), shas)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
