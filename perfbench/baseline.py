#!/usr/bin/env python3
"""Run the benchmark over two sets of seeds and record a baseline with its spread.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once
per seed in each of two sets (seeds 1..N, then N+1..2N; the first set of
every workload runs before the second), and ``run.py --trace 1`` once,
one run at a time.  For each set and end-to-end metric it records the
values, the median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  The benchmark is steady when every run is correct, every spread
is within a third of the metric's bound in BENCHMARK.json, and no second
median is worse than the first by more than the bound.  The record also
holds the machine, the Python and numpy versions, the git commit of the
code measured and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(report line, result line, wall seconds) of one benchmark run."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--out", type=Path, help="write the record as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    seed_sets = [list(range(1, args.seeds + 1)), list(range(args.seeds + 1, 2 * args.seeds + 1))]
    record: dict = {
        "git_sha": git_sha(),
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "seed_sets": seed_sets,
        "workloads": {name: {"why": why, "sets": []} for name, why in whys.items()},
    }
    steady = True

    def flag(message: str) -> None:
        nonlocal steady
        steady = False
        print(f"  {message}", flush=True)

    for seeds in seed_sets:
        for name, entry in record["workloads"].items():
            values: dict[str, list[float]] = {}
            runs = []
            for seed in seeds:
                report, result, wall = run_once(name, seed, spec["run_seconds"], trace=0)
                record["machine"]["numpy"] = report["machine"]["numpy"]
                entry["seed_note"] = report["seed_note"]
                runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "tail_percentile": report["tail_percentile"],
                             "wall_s": round(wall, 2), "wall_setup_s": report["wall_setup_s"],
                             "host_slowdown_p50": report["host_slowdown_p50"], **{k: v["value"] for k, v in result["metrics"].items()}})
                for key, metric in result["metrics"].items():
                    values.setdefault(key, []).append(metric["value"])
                if not result["correct"]:
                    flag(f"{name} seed {seed}: incorrect, {report['errors']}")
                print(f"{name} seed {seed}: correct={result['correct']} rounds={result['attempted']} "
                      f"wall={wall:.1f}s " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
            summary = {key: {"median": statistics.median(vals), "spread": spread(vals)}
                       for key, vals in values.items()}
            for key, stat in summary.items():
                if stat["spread"] > metrics[key]["bound"] / 3:
                    flag(f"{name} {key}: spread {stat['spread']:.3f} exceeds a third of its bound {metrics[key]['bound']}")
            entry["sets"].append({"seeds": seeds, "runs": runs, "end_to_end": summary})
            print(f"{name}: " + ", ".join(f"{k} median {v['median']:.4g} spread {v['spread']:.3f}"
                                          for k, v in summary.items()), flush=True)

    for name, entry in record["workloads"].items():
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["second_vs_first"] = {}
        for key, m in metrics.items():
            change = second[key]["median"] / first[key]["median"] - 1
            entry["second_vs_first"][key] = change
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                flag(f"{name} {key}: second median worse than the first by {worse:.3f} > {m['bound']}")
        _, result, _ = run_once(name, seed_sets[0][0], spec["run_seconds"], trace=1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{name}: second vs first median " + ", ".join(
            f"{k} {v:+.3f}" for k, v in entry["second_vs_first"].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
