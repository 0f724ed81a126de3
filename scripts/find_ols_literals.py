#!/usr/bin/env python3
"""Offline search for orthogonal Latin square pairs of orders 2 mod 4.

Orders m with m % 4 == 2 are not prime powers and have no coprime
factorization into prime powers, so the finite-field and product
constructions in the package cannot reach them.  Pairs still exist for
every such m >= 10; this script finds them by randomized search and
writes each pair as a fully filled 2-layer square in the package's JSON
format, to be bundled under src/mopls/data/ and validated on load.

Two search strategies:

* transversal partition (small m): enumerate all transversals of a
  random Latin square L, then look for m pairwise disjoint ones covering
  every cell; labeling the cells of the j-th transversal with symbol j
  yields an orthogonal mate.
* pool cover (mid m): same partition search, but the pool is large, so
  the bookkeeping is vectorized with numpy.
* annealed mate walk (large m): random-walk the mate through Latin
  square space with Jacobson-Matthews box flips, annealing on the number
  of duplicated superimposed pairs until it reaches zero.

Standalone on purpose: no package imports, so the bundled data can be
regenerated before the package itself is installable.  Stdlib only, except
that the pool-cover strategy imports numpy when it runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path


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


# -- strategy 1: transversal partition --------------------------------------


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
    want: int | None = None,
) -> list[tuple[int, ...]] | None:
    """Pick `want` pairwise disjoint transversals covering their cells exactly.

    With the default want=m this partitions the whole square; smaller values
    partition whatever cell set the given transversals live on.
    """
    if want is None:
        want = m
    by_cell: dict[tuple[int, int], list[int]] = {}
    for idx, t in enumerate(transversals):
        for r, c in enumerate(t):
            by_cell.setdefault((r, c), []).append(idx)
    if len(by_cell) < want * m:
        return None  # some target cell lies on no transversal
    chosen: list[int] = []
    covered: set[tuple[int, int]] = set()
    nodes = 0

    def dfs() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise Budget
        if len(chosen) == want:
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
        assert best_opts is not None
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


# -- strategy 2: exact cover over the full transversal pool ------------------
#
# Same idea as strategy 1, but the pool is large (hundreds of thousands
# of transversals around order 14), so the disjointness bookkeeping runs
# on numpy arrays: a boolean alive-mask per transversal, most-constrained
# cell chosen by bincount, conflicts of a chosen transversal killed by a
# vectorized row-wise comparison.


def cover_from_pool(
    m: int,
    pool: list[tuple[int, ...]],
    rng: random.Random,
    node_cap: int,
    deadline: float,
) -> list[tuple[int, ...]] | None:
    import numpy as np

    trans = np.array(pool, dtype=np.int16)  # (T, m): column used in each row
    cell_ids = (np.arange(m, dtype=np.int32) * m + trans).astype(np.int32)
    total = len(pool)
    alive = np.ones(total, dtype=bool)
    uncovered = np.ones(m * m, dtype=bool)
    chosen: list[int] = []
    nodes = 0

    def dfs() -> bool:
        nonlocal nodes, alive
        nodes += 1
        if nodes > node_cap or (nodes % 64 == 0 and time.monotonic() > deadline):
            raise Budget
        if len(chosen) == m:
            return True
        counts = np.bincount(cell_ids[alive].ravel(), minlength=m * m)
        counts[~uncovered] = total + 1
        cell = int(counts.argmin())
        if counts[cell] == 0:
            return False
        row, col = divmod(cell, m)
        cand = np.flatnonzero(alive & (trans[:, row] == col)).tolist()
        rng.shuffle(cand)
        for i in cand:
            kill = alive & (trans == trans[i]).any(axis=1)
            alive &= ~kill
            uncovered[cell_ids[i]] = False
            chosen.append(i)
            if dfs():
                return True
            chosen.pop()
            uncovered[cell_ids[i]] = True
            alive |= kill
        return False

    try:
        if dfs():
            return [pool[i] for i in chosen]
    except Budget:
        pass
    return None


def search_by_pool_cover(
    m: int, rng: random.Random, deadline: float
) -> tuple[list[list[int]], list[list[int]]] | None:
    while time.monotonic() < deadline:
        left = random_latin_square(m, rng)
        pool = all_transversals(left)
        if len(pool) < m:
            continue
        square_deadline = min(deadline, time.monotonic() + 1500)
        while time.monotonic() < square_deadline:
            parts = cover_from_pool(m, pool, rng, node_cap=40_000,
                                    deadline=square_deadline)
            if parts is not None:
                return left, mate_from_partition(m, parts)
    return None


# -- strategy 3: annealed random walk on the mate ----------------------------
#
# The mate starts as a random Latin square and walks the space of Latin
# squares with Jacobson-Matthews moves (flips of a 2x2x2 box in the 0/1
# incidence cube, possibly passing through states with one -1 entry).
# The walk is steered by simulated annealing on the defect count: the
# number of cells in excess of the distinct superimposed pairs, zero
# exactly when the two squares are orthogonal.


class _MateWalk:
    """Jacobson-Matthews walk over mates of a fixed left square.

    Moves preferentially start at a cell whose superimposed pair is
    duplicated; a pure random walk almost never touches the few
    conflicted cells once the defect is small.
    """

    def __init__(self, left: list[list[int]], rng: random.Random):
        self.m = m = len(left)
        self.left = left
        self.rng = rng
        mate = random_latin_square(m, rng)
        # incidence cube; cube[r][c][s] in {-1, 0, 1}, plus one index list
        # per fiber so the positive entries of any line are O(1) to get
        self.cube = [[[0] * m for _ in range(m)] for _ in range(m)]
        self.syms = [[[] for _ in range(m)] for _ in range(m)]  # [r][c] -> s
        self.cols = [[[] for _ in range(m)] for _ in range(m)]  # [r][s] -> c
        self.rows = [[[] for _ in range(m)] for _ in range(m)]  # [c][s] -> r
        self.mult = [0] * (m * m)  # multiplicity of each superimposed pair
        self.cells_of = [[] for _ in range(m * m)]  # pair -> cells holding it
        self.hot: list[int] = []  # pairs that crossed mult >= 2, lazily pruned
        self.defect = 0
        for r in range(m):
            for c in range(m):
                self._flip(r, c, mate[r][c], +1, [])
        self.improper: tuple[int, int, int] | None = None

    def _flip(self, r: int, c: int, s: int, delta: int,
              log: list[tuple[int, int, int, int]]) -> None:
        line = self.cube[r][c]
        was = line[s]
        line[s] = was + delta
        if line[s] == 1:
            self.syms[r][c].append(s)
            self.cols[r][s].append(c)
            self.rows[c][s].append(r)
        elif was == 1:
            self.syms[r][c].remove(s)
            self.cols[r][s].remove(c)
            self.rows[c][s].remove(r)
        p = self.left[r][c] * self.m + s
        v = self.mult[p]
        self.mult[p] = v + delta
        if delta > 0:
            if v >= 1:
                self.defect += 1
                if v == 1:
                    self.hot.append(p)
            if line[s] == 1:
                self.cells_of[p].append((r, c))
        else:
            if v >= 2:
                self.defect -= 1
            if was == 1:
                self.cells_of[p].remove((r, c))
        log.append((r, c, s, delta))

    def step(self, log: list[tuple[int, int, int, int]], targeted: bool) -> None:
        """One box flip; appends its cube changes to log."""
        rng = self.rng
        if self.improper is None:
            r = c = -1
            if targeted:
                while self.hot:
                    p = self.hot[-1]
                    if self.mult[p] >= 2:
                        r, c = rng.choice(self.cells_of[p])
                        break
                    self.hot.pop()
            s0 = -1
            if r < 0:
                r = rng.randrange(self.m)
                c = rng.randrange(self.m)
                s0 = self.syms[r][c][0]
                s = rng.randrange(self.m)
                while s == s0:
                    s = rng.randrange(self.m)
            else:
                # prefer replacement symbols whose new pair is still unused
                s0 = self.syms[r][c][0]
                base = self.left[r][c] * self.m
                best_mult = self.m
                best: list[int] = []
                for cand in range(self.m):
                    if cand == s0:
                        continue
                    v = self.mult[base + cand]
                    if v < best_mult:
                        best_mult, best = v, [cand]
                    elif v == best_mult:
                        best.append(cand)
                s = rng.choice(best)
            c0 = self.cols[r][s][0]
            r0 = self.rows[c][s][0]
        else:
            r, c, s = self.improper
            s0 = rng.choice(self.syms[r][c])
            c0 = rng.choice(self.cols[r][s])
            r0 = rng.choice(self.rows[c][s])
        self._flip(r, c, s, +1, log)
        self._flip(r, c0, s, -1, log)
        self._flip(r0, c, s, -1, log)
        self._flip(r, c, s0, -1, log)
        self._flip(r0, c0, s, +1, log)
        self._flip(r0, c, s0, +1, log)
        self._flip(r, c0, s0, +1, log)
        self._flip(r0, c0, s0, -1, log)
        self.improper = (r0, c0, s0) if self.cube[r0][c0][s0] == -1 else None

    def undo(self, log: list[tuple[int, int, int, int]]) -> None:
        for r, c, s, delta in reversed(log):
            self._flip(r, c, s, -delta, [])
        self.improper = None

    def mate(self) -> list[list[int]]:
        assert self.improper is None
        return [[self.syms[r][c][0] for c in range(self.m)]
                for r in range(self.m)]


def search_by_annealing(
    m: int, rng: random.Random, deadline: float
) -> tuple[list[list[int]], list[list[int]]] | None:
    """Drive a mate walk to zero defect for some random left square.

    Iterated local search: accept non-worsening moves, accept worsening
    ones with small probability, kick the walk with a burst of forced
    random moves when it stagnates, restart wholesale when kicks stop
    helping.
    """
    while time.monotonic() < deadline:
        left = random_latin_square(m, rng)
        walk = _MateWalk(left, rng)
        best = walk.defect
        since_best = 0
        kicks = 0
        it = 0
        while kicks <= 25:
            it += 1
            log: list[tuple[int, int, int, int]] = []
            before = walk.defect
            walk.step(log, targeted=rng.random() < 0.85)
            while walk.improper is not None:
                walk.step(log, targeted=False)
            if walk.defect > before and rng.random() >= 0.02:
                walk.undo(log)
            if walk.defect == 0:
                return left, walk.mate()
            if walk.defect < best:
                best, since_best = walk.defect, 0
            else:
                since_best += 1
            if since_best >= 25_000:
                for _ in range(30):  # kick off the plateau
                    walk.step(log, targeted=False)
                    while walk.improper is not None:
                        walk.step(log, targeted=False)
                kicks += 1
                since_best = 0
            if it % 8192 == 0 and time.monotonic() >= deadline:
                return None
    return None


# -- validation and output ----------------------------------------------------


def check_pair(left: list[list[int]], mate: list[list[int]]) -> None:
    m = len(left)
    for square in (left, mate):
        assert len(square) == m and all(len(row) == m for row in square)
        for r in range(m):
            assert sorted(square[r]) == list(range(m)), f"row {r} not a permutation"
        for c in range(m):
            assert sorted(square[r][c] for r in range(m)) == list(range(m)), \
                f"column {c} not a permutation"
    pairs = {(left[r][c], mate[r][c]) for r in range(m) for c in range(m)}
    assert len(pairs) == m * m, "superimposed pairs not all distinct"


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
    parser.add_argument("--orders", type=int, nargs="+", default=[10, 14, 18, 22, 26])
    parser.add_argument("--out-dir", type=Path, default=Path("src/mopls/data"))
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--time-cap", type=float, default=900.0,
                        help="seconds per order before giving up")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for m in args.orders:
        if m % 4 != 2 or m < 10:
            print(f"m={m}: skipped (this script targets m % 4 == 2, m >= 10)")
            continue
        out_path = args.out_dir / f"ols_{m}.json"
        if out_path.exists():
            print(f"m={m}: {out_path} already exists, skipping")
            continue
        # what random.Random((args.seed, m)) did before Python 3.11 refused tuple seeds
        rng = random.Random(hash((args.seed, m)) % 2**64)
        start = time.monotonic()
        deadline = start + args.time_cap
        if m <= 12:
            found = search_by_transversals(m, rng, deadline)
        elif m <= 16:
            found = search_by_pool_cover(m, rng, deadline)
        else:
            found = search_by_annealing(m, rng, deadline)
        elapsed = time.monotonic() - start
        if found is None:
            print(f"m={m}: FAILED after {elapsed:.1f}s")
            failures.append(m)
            continue
        left, mate = found
        check_pair(left, mate)
        write_pair(out_path, left, mate, args.seed)
        print(f"m={m}: wrote {out_path} after {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
