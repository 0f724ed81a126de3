#!/usr/bin/env python3
"""Offline search for an orthogonal Latin square pair of order 10.

Orders m with m % 4 == 2 are not prime powers and have no coprime
factorization into prime powers, so the finite-field and product
constructions in the package cannot reach them.  Pairs still exist for
every such m >= 10; this script finds one by randomized search and writes
it as a fully filled 2-layer square in the package's JSON format, to be
bundled under src/mopls/data/ and validated on load.

The search partitions a random Latin square L into transversals: it
enumerates every transversal of L, then looks for m pairwise disjoint ones
covering every cell; labeling the cells of the j-th transversal with
symbol j yields an orthogonal mate.  Enumeration is only feasible for
m <= 12 (a random order-18 square has about 10**9 transversals), so of the
orders 2 mod 4 it reaches m = 10 alone and refuses larger ones at once.

Standalone on purpose: stdlib only and no package imports, so the bundled
data can be regenerated before the package itself is installable.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

# largest order whose transversals can all be enumerated
MAX_ORDER = 12


class Budget(Exception):
    pass


# -- random Latin squares --------------------------------------------------


def _complete_row(m: int, col_free: list[int], rng: random.Random) -> list[int] | None:
    """Random permutation row avoiding used column symbols (Kuhn matching)."""
    match_col = [-1] * m  # symbol -> column
    row = [-1] * m

    def try_assign(c: int, visited: list[bool]) -> bool:
        symbols = [s for s in range(m) if (col_free[c] >> s) & 1]
        rng.shuffle(symbols)
        for s in symbols:
            if visited[s]:
                continue
            visited[s] = True
            if match_col[s] == -1 or try_assign(match_col[s], visited):
                match_col[s] = c
                row[c] = s
                return True
        return False

    cols = list(range(m))
    rng.shuffle(cols)
    for c in cols:
        if not try_assign(c, [False] * m):
            return None
    return row


def random_latin_square(m: int, rng: random.Random) -> list[list[int]]:
    while True:
        col_free = [(1 << m) - 1] * m
        rows = []
        for _ in range(m):
            row = _complete_row(m, col_free, rng)
            if row is None:
                break
            rows.append(row)
            for c, s in enumerate(row):
                col_free[c] &= ~(1 << s)
        else:
            return rows


# -- transversal partition -------------------------------------------------


def all_transversals(square: list[list[int]]) -> list[tuple[int, ...]]:
    """Every transversal, as the tuple of column indices per row."""
    m = len(square)
    found: list[tuple[int, ...]] = []
    path: list[int] = []

    def dfs(r: int, cols_used: int, syms_used: int) -> None:
        if r == m:
            found.append(tuple(path))
            return
        for c in range(m):
            if (cols_used >> c) & 1:
                continue
            s = square[r][c]
            if (syms_used >> s) & 1:
                continue
            path.append(c)
            dfs(r + 1, cols_used | (1 << c), syms_used | (1 << s))
            path.pop()

    dfs(0, 0, 0)
    return found


def partition_into_transversals(
    m: int,
    transversals: list[tuple[int, ...]],
    rng: random.Random,
    node_cap: int,
) -> list[tuple[int, ...]] | None:
    """Pick m pairwise disjoint transversals, which partition the square's cells."""
    by_cell: dict[tuple[int, int], list[int]] = {}
    for idx, t in enumerate(transversals):
        for r, c in enumerate(t):
            by_cell.setdefault((r, c), []).append(idx)
    if len(by_cell) < m * m:
        return None  # some target cell lies on no transversal
    chosen: list[int] = []
    covered: set[tuple[int, int]] = set()
    nodes = 0

    def dfs() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise Budget
        if len(chosen) == m:
            return True
        best_cell, best_opts = None, None
        for cell, idxs in by_cell.items():
            if cell in covered:
                continue
            opts = [
                i for i in idxs
                if all(transversals[i][r] != transversals[j][r]
                       for j in chosen for r in range(m))
            ]
            if best_opts is None or len(opts) < len(best_opts):
                best_cell, best_opts = cell, opts
                if not opts:
                    return False
        if best_opts is None:
            raise RuntimeError("every cell is covered before the partition is complete")
        rng.shuffle(best_opts)
        for i in best_opts:
            chosen.append(i)
            cells = [(r, transversals[i][r]) for r in range(m)]
            covered.update(cells)
            if dfs():
                return True
            chosen.pop()
            covered.difference_update(cells)
        return False

    try:
        if dfs():
            return [transversals[i] for i in chosen]
    except Budget:
        pass
    return None


def mate_from_partition(m: int, parts: list[tuple[int, ...]]) -> list[list[int]]:
    mate = [[-1] * m for _ in range(m)]
    for symbol, t in enumerate(parts):
        for r, c in enumerate(t):
            mate[r][c] = symbol
    return mate


def search_by_transversals(
    m: int, rng: random.Random, deadline: float
) -> tuple[list[list[int]], list[list[int]]] | None:
    while time.monotonic() < deadline:
        left = random_latin_square(m, rng)
        ts = all_transversals(left)
        if len(ts) < m:
            continue
        parts = partition_into_transversals(m, ts, rng, node_cap=200_000)
        if parts is not None:
            return left, mate_from_partition(m, parts)
    return None


# -- validation and output ----------------------------------------------------


def check_pair(left: list[list[int]], mate: list[list[int]]) -> None:
    """Raise ValueError unless left and mate are orthogonal Latin squares."""
    m = len(left)
    symbols = list(range(m))
    for square in (left, mate):
        if len(square) != m or any(len(row) != m for row in square):
            raise ValueError(f"squares are not both {m} x {m}")
        for r in range(m):
            if sorted(square[r]) != symbols:
                raise ValueError(f"row {r} not a permutation")
        for c in range(m):
            if sorted(square[r][c] for r in range(m)) != symbols:
                raise ValueError(f"column {c} not a permutation")
    pairs = {(left[r][c], mate[r][c]) for r in range(m) for c in range(m)}
    if len(pairs) != m * m:
        raise ValueError("superimposed pairs not all distinct")


def write_pair(
    path: Path, left: list[list[int]], mate: list[list[int]], seed: int
) -> None:
    m = len(left)
    doc = {
        "format": "kpls",
        "version": 1,
        "n": m,
        "k": 2,
        "meta": {
            "kind": "orthogonal-latin-square-pair",
            "generator": "scripts/find_ols_literals.py",
            "seed": seed,
        },
        "cells": [
            {"row": r, "col": c, "entries": [left[r][c], mate[r][c]]}
            for r in range(m)
            for c in range(m)
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[10])
    parser.add_argument("--out-dir", type=Path, default=Path("src/mopls/data"))
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--time-cap", type=float, default=900.0,
                        help="seconds per order before giving up")
    args = parser.parse_args(argv)

    failures = []
    for m in args.orders:
        if m % 4 != 2 or m < 10:
            print(f"m={m}: skipped (this script targets m % 4 == 2, m >= 10)")
            continue
        if m > MAX_ORDER:
            print(f"m={m}: FAILED (transversal enumeration reaches only m <= {MAX_ORDER})")
            failures.append(m)
            continue
        out_path = args.out_dir / f"ols_{m}.json"
        if out_path.exists():
            print(f"m={m}: {out_path} already exists, skipping")
            continue
        # what random.Random((args.seed, m)) did before Python 3.11 refused tuple seeds
        rng = random.Random(hash((args.seed, m)) % 2**64)
        start = time.monotonic()
        deadline = start + args.time_cap
        found = search_by_transversals(m, rng, deadline)
        elapsed = time.monotonic() - start
        if found is None:
            print(f"m={m}: FAILED after {elapsed:.1f}s")
            failures.append(m)
            continue
        left, mate = found
        check_pair(left, mate)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        write_pair(out_path, left, mate, args.seed)
        print(f"m={m}: wrote {out_path} after {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
