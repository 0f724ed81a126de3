#!/usr/bin/env python3
"""Benchmark of the mopls program: closed-loop rounds of user commands.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --self-check

One process, one thread, one client: the next round starts when the
previous one ends, until ``--seconds`` have passed.  The program is
imported from ``src/`` of the checkout this file sits in.  The workloads
and their oracles are in ``workloads.py``; the tracer is ``tracer.py``.

``--trace 0`` reports the end-to-end metrics: the median round time, the
round time at the highest percentile with at least ten rounds beyond it,
the set-up time (import, input generation and a warm-up round; the median
of this process and twelve fresh child processes, run between slices
of the loop) and the peak resident memory of this process.  Times are
wall seconds rescaled to a fixed host speed (see ``reference_loop``), the
unit ``ref_s``; ``setup_s`` is rescaled too, although the benchmark
format requires it to carry the unit ``s``.  ``--trace 1``
alternates traced and untraced rounds and reports per-layer metrics: the
median over traced rounds of each layer's per-round self time or count,
and the tracing overhead as the traced minus the untraced median round
time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with the seed, the round count, the tail percentile
and the machine.  ``--self-check`` runs every workload at a tiny size and
checks the oracles and the tracer in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

from tracer import Tracer  # noqa: E402  (the benchmark's own modules sit next to this file)
from workloads import WORKLOADS, Program, Workload, probes  # noqa: E402

#: (name, unit, better) of every metric; BENCHMARK.json lists the same names
END_TO_END = [
    ("round_s_p50", "ref_s", "lower"),
    ("round_s_tail", "ref_s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
TIMED_LAYERS = [
    "bench", "cli", "formats.load", "formats.dump", "core.validate", "construct.build",
    "maximality.scan", "maximality.complete", "graphview.build", "graphview.clique",
    "codes.analyze", "codes.radius", "codes.distance", "verify.bound", "verify.transversal",
    "verify.structure", "search.canonical", "search.census", "search.driver",
]
COUNTS = [
    ("cli.calls", "count", "lower"),
    ("formats.bytes", "bytes", "lower"),
    ("core.validate_calls", "count", "lower"),
    ("core.words_validated", "count", "lower"),
    ("maximality.scan_calls", "count", "lower"),
    ("maximality.empty_cells", "count", "lower"),
    ("maximality.cells_inserted", "count", "lower"),
    ("codes.word_space", "count", "lower"),
    ("search.canonical_calls", "count", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.census_nodes", "count", "lower"),
    ("search.accept_ratio", "ratio", "higher"),
    ("search.checkpoint_bytes", "bytes", "lower"),
]
SETUP_PROBES = 12  # fresh processes timed besides this one


def layer_metric(layer: str) -> str:
    """``cli`` -> ``cli.self_s``; ``formats.load`` -> ``formats.load_s``."""
    return layer + ("_s" if "." in layer else ".self_s")


PER_LAYER = ([(layer_metric(layer), "ref_s", "lower") for layer in TIMED_LAYERS] + COUNTS
             + [("trace.round_s_p50", "ref_s", "lower"), ("trace.overhead_s", "ref_s", "lower")])


def load_program() -> Program:
    """Import mopls from this checkout's sources, never from elsewhere."""
    if not (SRC / "mopls" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    program = Program()
    if Path(program.mopls.__file__).resolve().parent != (SRC / "mopls").resolve():
        raise SystemExit(f"error: imported mopls from {program.mopls.__file__}, not from {SRC}")
    return program


@contextmanager
def work_directory(name: str):
    path = WORK_DIR / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still works there


# A fixed pure-Python computation, timed around every round.  The shared
# host's speed drifts by up to 1.8x within a minute, and this loop slows
# with it (a little more than the program does), so each round time is
# rescaled by REFERENCE_S / (the loop's time around it): seconds at the
# speed where the loop takes REFERENCE_S, the unit ``ref_s``.  Raw wall
# times are in the report line.  A set-up runs in a fresh process, where
# the loop's time around it does not follow the set-up's speed (rescaling
# each set-up that way doubled their spread, and rescaling each by the
# rounds just before and after it in this process raised the spread of
# single set-ups too), so the median set-up is rescaled by the run's median
# round scale instead: the set-ups are spread over the run, and the rounds
# measure the host's speed over the run.
REFERENCE_S = 0.01
_REFERENCE_WORDS = [(i % 31, (i * 7) % 29, (i * 13) % 23, (i * 17) % 19) for i in range(400)]


def reference_loop() -> float:
    """Wall seconds of counting word agreements, the inner loop of validation."""
    started = time.perf_counter()
    clashes = 0
    for a in _REFERENCE_WORDS:
        for b in _REFERENCE_WORDS[:40]:
            clashes += sum(1 for x, y in zip(a, b) if x == y) >= 2
    return time.perf_counter() - started


@dataclass(frozen=True)
class Timed:
    wall: float  # seconds on the clock
    scale: float  # REFERENCE_S over the reference loop's mean time before and after

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def scale_between(before: float, after: float) -> float:
    return 2 * REFERENCE_S / (before + after)


def set_up(name: str, seed: int, tiny: bool = False) -> tuple[Workload, random.Random, float, list[str]]:
    """Import, generate inputs and run the warm-up round; wall seconds."""
    started = time.perf_counter()
    program = load_program()
    cls, full, small = WORKLOADS[name]
    workload = cls(program, **(small if tiny else full))
    rng = random.Random(seed)
    warm = workload.round(rng)
    elapsed = time.perf_counter() - started
    return workload, rng, elapsed, [f"warm-up: {e}" for e in workload.check(warm)]


@dataclass
class Measurement:
    untraced: list[Timed] = field(default_factory=list)
    traced: list[Timed] = field(default_factory=list)  # wall from the root span
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced)

    def add(self, other: Measurement) -> None:
        self.untraced += other.untraced
        self.traced += other.traced
        self.failed += other.failed
        self.errors += other.errors


def measure(workload: Workload, rng: random.Random, seconds: float,
            tracer: Tracer | None = None, min_rounds: int = 1) -> Measurement:
    """Closed loop of rounds for ``seconds``; with a tracer, every other round is traced."""
    m = Measurement()
    started = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - started < seconds:
        traced = tracer is not None and index % 2 == 0
        before = reference_loop()
        if traced:
            tracer.install()
            tracer.begin_round(index)
        t0 = time.perf_counter()
        try:
            result = workload.round(rng)
            errors = None
        except Exception as exc:  # a failing round is counted, the loop goes on
            errors = [f"round raised {exc!r}"]
        wall = time.perf_counter() - t0
        if traced:
            wall = tracer.end_round() / 1e9
            tracer.uninstall()
        (m.traced if traced else m.untraced).append(Timed(wall, scale_between(before, reference_loop())))
        if errors is None:
            try:
                errors = workload.check(result)
            except Exception as exc:
                errors = [f"oracle raised {exc!r}"]
        if errors:
            m.failed += 1
            m.errors.extend(f"round {index}: {e}" for e in errors[:3])
        index += 1
    return m


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest rank with at least ten values above it.

    Below twenty values that rank would fall under the median, so the
    median rank is used instead; the report states the percentile.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - 10, (len(ordered) + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_metrics(tracer: Tracer, m: Measurement) -> dict[str, float]:
    """Medians over traced rounds; times rescaled like the round they are in."""
    scales = [t.scale for t in m.traced]

    def median_of(key: str, scaled: bool = False) -> float:
        return statistics.median(
            totals.get(key, 0) * (scale / 1e9 if scaled else 1) for totals, scale in zip(tracer.rounds, scales))

    out = {layer_metric(layer): median_of(layer + "_ns", scaled=True) for layer in TIMED_LAYERS}
    for name, _, _ in COUNTS:
        out[name] = median_of(name)
    out["search.accept_ratio"] = statistics.median(
        (t["search.nodes"] + t["search.census_nodes"]) / t["search.canonical_calls"]
        if t["search.canonical_calls"] else 0.0
        for t in tracer.rounds)
    traced = statistics.median(t.seconds for t in m.traced)
    out["trace.round_s_p50"] = traced
    out["trace.overhead_s"] = traced - statistics.median(t.seconds for t in m.untraced)
    return out


def probe_setup(name: str, seed: int) -> tuple[float | None, list[str]]:
    """Set-up time of a fresh process running this file with ``--setup-probe``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        return doc["wall_s"], doc["errors"]
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        return None, [f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run(args: argparse.Namespace) -> int:
    with work_directory(args.workload):
        workload, rng, setup, setup_errors = set_up(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"wall_s": setup, "errors": setup_errors}))
            return 0
        tracer = Tracer(probes()) if args.trace else None
        samples = [setup]
        if tracer:
            m = measure(workload, rng, args.seconds, tracer, min_rounds=2)
        else:
            # Host slowdowns last seconds, so probes run back to back agree
            # with each other more than with the next run.  Spreading them
            # between slices of the loop samples the whole run; their time
            # is not part of the measured seconds.  The warm-up round's work
            # depends on its inputs (by up to 20% on `complete`), so each
            # probe draws its inputs from its own seed, derived from the
            # run's seed, and the median covers thirteen inputs.
            m = Measurement()
            for index in range(SETUP_PROBES + 1):
                if index:
                    probe_seed = args.seed * (SETUP_PROBES + 1) + index
                    sample, probe_errors = probe_setup(args.workload, probe_seed)
                    setup_errors += probe_errors
                    if sample is not None:
                        samples.append(sample)
                m.add(measure(workload, rng, args.seconds / (SETUP_PROBES + 1)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the final check
        final_errors = workload.final_check()
    errors = setup_errors + m.errors + [f"final check: {e}" for e in final_errors]

    seed_note = ("the seed drives every generated input" if workload.seed_used
                 else "this workload is deterministic: the seed is recorded and has no effect")
    report = {"workload": args.workload, "seed": args.seed, "seed_note": seed_note,
              "why": workload.why, "size": workload.size, "trace": args.trace,
              "seconds": args.seconds, "rounds": m.attempted, "failed": m.failed,
              "failed_ratio": m.failed / m.attempted, "machine": machine(), "errors": errors[:10]}
    if tracer:
        metrics = layer_metrics(tracer, m)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(OUT_DIR / f"spans-{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed, "seed_note": seed_note})
    else:
        rounds = [t.seconds for t in m.untraced]
        value, percentile = tail(rounds)
        host_scale = statistics.median(t.scale for t in m.untraced)
        metrics = {"round_s_p50": statistics.median(rounds), "round_s_tail": value,
                   "setup_s": statistics.median(samples) * host_scale, "peak_rss_mb": peak_rss_mb}
        units = {name: unit for name, unit, _ in END_TO_END}
        report.update(tail_percentile=percentile,
                      wall_setup_samples_s=samples,
                      wall_setup_s=statistics.median(samples),
                      wall_round_s_p50=statistics.median(t.wall for t in m.untraced),
                      host_slowdown_p50=1 / host_scale)
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


# -- self-check ------------------------------------------------------------------


def self_check() -> int:
    """Tiny sizes of every workload: the oracles pass and catch a wrong output,
    and the tracer sees the right layers and accounts for every nanosecond."""
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(x["name"], x["unit"], x["better"]) for x in spec[key]]
        check(theirs == ours, f"BENCHMARK.json {key} matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads match")

    for name in WORKLOADS:
        with work_directory(f"selfcheck-{name}"):
            workload, rng, _, setup_errors = set_up(name, seed=1, tiny=True)
            check(not setup_errors, f"{name}: warm-up round passes the oracle {setup_errors}")
            tracer = Tracer(probes())
            m = measure(workload, rng, seconds=0, tracer=tracer, min_rounds=4)
            check(m.failed == 0, f"{name}: {m.attempted} rounds pass the oracle {m.errors}")
            final = workload.final_check()
            check(not final, f"{name}: final check passes {final}")
            broken = workload.round(rng)
            first = next(iter(broken.commands))
            broken.commands[first] = replace(broken.commands[first], rc=99)
            check(bool(workload.check(broken)), f"{name}: oracle rejects a wrong exit code")

        check(not hasattr(workload.program.cli.main, "__wrapped__"), f"{name}: tracer uninstalled")
        sums = [sum(v for k, v in totals.items() if k.endswith("_ns")) / 1e9 for totals in tracer.rounds]
        check(sums == [t.wall for t in m.traced], f"{name}: layer self times sum to the traced round time")
        metrics = layer_metrics(tracer, m)
        for layer in workload.active:
            check(metrics[layer_metric(layer)] > 0, f"{name}: {layer} is traced")
        for layer in workload.idle:
            check(metrics[layer_metric(layer)] == 0, f"{name}: {layer} is not called")
        counts = {t.get("search.canonical_calls", 0) for t in tracer.rounds}
        check(len(counts) == 1, f"{name}: canonical check count repeats exactly {counts}")
    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny run of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
