"""Extension candidates, maximality testing, and greedy completion.

A square is maximal when no empty cell admits any entry tuple, i.e.
every insertion attempt would violate a Latin or word-agreement
constraint.  The candidate test at an empty cell (r, c) reads the
square's :class:`mopls.core.Projections` and factors into

* per layer j, the symbol must be unused in row r and column c of that
  layer (rules out a second agreement with any word sharing the row or
  the column), and
* for each layer pair i < j, the ordered pair (e_i, e_j) must not occur
  at any filled cell (rules out two agreements with words sharing
  neither row nor column).

The layer-pair projections also contain pairs coming from cells in the
same row or column, but those can never reject a tuple that passed the
Latin filters: matching such a pair would need e_i equal to a symbol
already used in this row or column at layer i.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil

from .core import Cell, EntryTuple, KPartialSquare, Projections, SquareError


@dataclass(frozen=True)
class ExtensionWitness:
    """A legal insertion proving a square is not maximal."""

    cell: Cell
    entries: EntryTuple


def _candidates(index: Projections, n: int, k: int, cell: Cell) -> list[EntryTuple]:
    """All entry tuples legal at an empty cell, lexicographically sorted."""
    r, c = cell
    table = index.table
    free = (1 << n) - 1
    allowed = []
    for j in range(2, k + 2):
        mask = free & ~(table[0][j][r] | table[1][j][c])
        if mask == 0:
            return []
        allowed.append(mask)
    out: list[EntryTuple] = []
    prefix: list[int] = []

    def extend(j: int) -> None:
        if j == k:
            out.append(tuple(prefix))
            return
        mask = allowed[j]
        for i, e in enumerate(prefix):
            mask &= ~table[2 + i][2 + j][e]
        while mask:
            low = mask & -mask
            prefix.append(low.bit_length() - 1)
            extend(j + 1)
            prefix.pop()
            mask ^= low

    extend(0)
    return out


def candidate_tuples(square: KPartialSquare, cell: Cell) -> list[EntryTuple]:
    """Entry tuples insertable at ``cell`` without breaking any constraint."""
    if square.is_filled(cell):
        raise SquareError(f"cell {cell} is filled, candidates are undefined")
    return _candidates(square.projections(), square.n, square.k, cell)


def find_extension(square: KPartialSquare) -> ExtensionWitness | None:
    """First legal insertion in row-major cell order, lex-least tuple.

    Returns None exactly when the square is maximal.  Deterministic, so
    repeated calls name the same witness.
    """
    index = square.projections()
    for cell in square.empty_cells():
        cands = _candidates(index, square.n, square.k, cell)
        if cands:
            return ExtensionWitness(cell, cands[0])
    return None


def is_maximal(square: KPartialSquare) -> bool:
    return find_extension(square) is None


def maximalize(
    square: KPartialSquare, policy: str = "lex", seed: int | None = None
) -> KPartialSquare:
    """Extend to a maximal square by greedy insertion.

    ``policy="lex"`` visits empty cells in row-major order and inserts the
    lexicographically least candidate tuple; ``policy="random"`` shuffles
    the cell order and picks candidates uniformly, driven by ``seed``.

    A single pass suffices: insertions only shrink the candidate sets of
    other cells, so a cell seen with no candidates stays uninsertable for
    the rest of the pass.  Already-maximal squares come back unchanged.
    """
    if policy not in ("lex", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed) if policy == "random" else None
    index = square.projections()
    order = list(square.empty_cells())
    if rng is not None:
        rng.shuffle(order)
    cells = dict(square.cells)
    for cell in order:
        cands = _candidates(index, square.n, square.k, cell)
        if not cands:
            continue
        choice = cands[0] if rng is None else rng.choice(cands)
        cells[cell] = choice
        index.add(cell + choice)
    result = KPartialSquare(square.n, square.k, cells)
    # any maximal pair of orthogonal partial Latin squares fills at least
    # a third of the grid; a failure here means a bug, not bad input
    if square.k == 2:
        assert result.filled_count >= ceil(square.n * square.n / 3)
    return result

