#!/usr/bin/env python3
"""Survey the minimum size of maximal squares at small orders.

For each order the exhaustive ascending-size search proves the least
filled-cell count of any maximal square, and for orders small enough to
census completely it also reports the full size histogram of canonical
maximal squares.  The general lower bound ceil(n^2 / 3) (two layers) is
printed next to each proven minimum; everything beyond that bound is a
computed value with no published reference, so runs of this script are
the provenance for the frozen numbers in the test suite.

Orders above 4 blow up quickly; use --budget to cap the canonical squares
accepted per order (a row's ``nodes`` counts only the squares of completed
levels) and --checkpoint-dir to make interrupted levels resumable.  Each
row gives the order's time on a monotonic clock and the process's peak
resident memory once the order is done (``peak_rss_mb``, Linux
``ru_maxrss``): a high-water mark, so it covers every earlier order of the
run too.

An order or --k below 1, an order past the search's word table limit, or a
path that cannot be written ends with ``error: ...`` and exit 2; a
malformed checkpoint ends the same way with exit 3, as ``mopls search``
does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from mopls.core import lower_bound
from mopls.formats import ParseError, write_atomic
from mopls.search import min_maximal, verify_bound_exhaustive

# full census is cheap up to here; beyond it only the minimum is chased
CENSUS_LIMIT = 3


def survey_order(n: int, k: int, budget: int | None, checkpoint_dir: Path | None) -> dict:
    bound = lower_bound(n) if k == 2 else 1
    started = time.perf_counter()
    if n <= CENSUS_LIMIT:
        report = verify_bound_exhaustive(n, k)
        row = {
            "n": n,
            "k": k,
            "min_size": report.min_size,
            "exact": True,
            "bound": bound,
            "nodes": report.nodes,
            "histogram": report.histogram,
            "minimum_count": len(report.minimum_witnesses),
            "tight_uniform_frequency": report.tight_uniform_frequency,
        }
    else:
        checkpoint = checkpoint_dir / f"min_{n}_{k}.json" if checkpoint_dir else None
        resume = checkpoint is not None and checkpoint.exists()
        result = min_maximal(n, k, budget=budget, checkpoint=checkpoint, resume=resume)
        row = {
            "n": n,
            "k": k,
            "min_size": result.min_size,
            "exact": result.exact,
            "bound": bound,
            "nodes": result.nodes,
            "no_maximal_below": result.no_maximal_below,
            "exhausted_budget": result.exhausted_budget,
        }
    row["seconds"] = round(time.perf_counter() - started, 2)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def survey(args: argparse.Namespace) -> None:
    """Print a row per order as it completes and write ``--out`` at the end."""
    if args.checkpoint_dir:
        args.checkpoint_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    print(f"{'n':>3} {'min F':>6} {'bound':>6} {'exact':>6} {'nodes':>10} {'sec':>8} {'rss MB':>7}  notes")
    for n in range(args.min_n, args.max_n + 1):
        row = survey_order(n, args.k, args.budget, args.checkpoint_dir)
        rows.append(row)
        notes = []
        if "histogram" in row:
            notes.append(f"histogram {row['histogram']}")
            if row["tight_uniform_frequency"] is not None:
                notes.append(f"uniform-frequency minima: {row['tight_uniform_frequency']}")
        if row.get("exhausted_budget"):
            notes.append(f"budget hit, proven >= {row['no_maximal_below']}")
        print(
            f"{row['n']:>3} {str(row['min_size']):>6} {row['bound']:>6} "
            f"{str(row['exact']):>6} {row['nodes']:>10} {row['seconds']:>8.2f} {row['peak_rss_mb']:>7.1f}  "
            + "; ".join(notes)
        )

    if args.out:
        doc = {"k": args.k, "budget": args.budget, "rows": rows}
        write_atomic(args.out, json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--k", type=int, default=2, help="number of entry layers")
    parser.add_argument("--budget", type=int,
                        help="cap on the canonical squares accepted per order above the census limit")
    parser.add_argument("--checkpoint-dir", type=Path, help="directory for resumable level files")
    parser.add_argument("--out", type=Path, help="write the survey as JSON")
    args = parser.parse_args(argv)
    try:
        survey(args)
    except ParseError as exc:  # a malformed checkpoint: exit 3, as the CLI does
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # n or k below 1, past the word table limit, or a bad path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
