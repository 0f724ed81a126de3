"""Extension candidates, maximality testing, and greedy completion.

A square is maximal when no empty cell admits any entry tuple, i.e.
every insertion attempt would violate a Latin or word-agreement
constraint.  The candidate test at an empty cell (r, c) reads the
square's kept :class:`mopls.core.Projections` index and factors into

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

:func:`find_extension` runs that test on every empty cell at once with
numpy.  The complements of the rows it reads are packed into uint64
words, ``ceil(n / 64)`` per mask; each empty cell gets its k
allowed-symbol masks; then a frontier of (cell, layer masks) rows is
expanded one layer at a time: every set bit of the current layer's mask
becomes a row whose later masks lose the symbols that the layer-pair
projections pair with that value, and rows with an empty mask are
dropped.  A cell is extendable when a row of it survives the last layer,
and that depends only on its starting masks, since the layer-pair
projections are shared by all cells.  So in each band of grid rows the
empty cells are grouped into classes of equal starting masks, one
``np.unique`` over a byte-string key per cell, and only the first cell
of each class enters the frontier, with its own index as owner: a
block-diagonal square has a handful of classes however large n is.
The frontier is walked depth first in slices: a band of grid rows at a
time, then at each layer as many rows as expand to about
``_FRONTIER_WORDS`` mask words (at least one row), so the arrays alive
at once stay a few MB per layer whatever n and k are.  Rows stay in
row-major cell order, so the first surviving row names the first
extendable cell (the first of its class is the first of all its cells)
and the scan stops there.  The witness tuple is the
lex-least one at that cell, rank 0 of ``_tuple_of_rank``.  It is still a
per-cell candidate test, independent of the clique search in
:mod:`mopls.graphview` and the covering radius in :mod:`mopls.codes`.

:func:`maximalize` inserts greedily into a copy of the square's index,
and both policies take a cell's tuple by its lex rank: ``_tuple_of_rank``
walks down the layers, skipping the subtree of every lower symbol, whose
size it counts from the k allowed-symbol masks with ``int.bit_count``
(the last layer is one popcount per prefix, the last two layers a single
loop).  The lex policy takes rank 0.  The random policy counts the
cell's legal tuples and draws ``rng.randrange(count)``, the same
``_randbelow(count)`` draw as ``choice`` on a list of ``count`` tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import Cell, EntryTuple, KPartialSquare, SelfCheckError, lower_bound

#: About the most 64-bit mask words one frontier slice may expand to: at
#: layer i a slice holds ``_FRONTIER_WORDS // (n * ceil(n / 64) * (k - 1 - i))``
#: rows (at least one), so each array it makes stays near 2 MB.
_FRONTIER_WORDS = 1 << 18


@dataclass(frozen=True)
class ExtensionWitness:
    """A legal insertion proving a square is not maximal."""

    cell: Cell
    entries: EntryTuple


def _allowed(table: list[list[list[int]]], n: int, k: int, cell: Cell) -> list[int]:
    """Per layer, the mask of symbols unused in the cell's row and column."""
    r, c = cell
    free = (1 << n) - 1
    return [free & ~(table[0][j][r] | table[1][j][c]) for j in range(2, k + 2)]


def _count(table: list[list[list[int]]], masks: list[int], j: int) -> int:
    """Number of legal tuples for layers j, j + 1, ... whose allowed-symbol
    masks, already narrowed by the symbols chosen below layer j, are ``masks``."""
    mask, later = masks[0], masks[1:]
    if not later:
        return mask.bit_count()
    total = 0
    if len(later) == 1:
        last, pair = later[0], table[2 + j][3 + j]
        while mask:
            low = mask & -mask
            total += (last & ~pair[low.bit_length() - 1]).bit_count()
            mask ^= low
        return total
    pairs = table[2 + j][3 + j:]
    while mask:
        low = mask & -mask
        total += _count(table, [m & ~p[low.bit_length() - 1] for m, p in zip(later, pairs)], j + 1)
        mask ^= low
    return total


def _tuple_of_rank(table: list[list[list[int]]], masks: list[int], rank: int) -> EntryTuple | None:
    """The legal tuple of lex rank ``rank``, or None when there are no more
    than ``rank``: at each layer, skip the whole subtrees of lower symbols.
    Rank 0 is the lex-least tuple."""
    out = []
    for j in range(len(masks) - 1):
        mask, later = masks[0], masks[1:]
        pairs = table[2 + j][3 + j:]
        while mask:
            e = (mask & -mask).bit_length() - 1
            if len(later) == 1:
                size = (later[0] & ~pairs[0][e]).bit_count()
            else:
                size = _count(table, [m & ~p[e] for m, p in zip(later, pairs)], j + 1)
            if rank < size:
                break
            rank -= size
            mask &= mask - 1
        else:
            return None
        out.append(e)
        masks = [m & ~p[e] for m, p in zip(later, pairs)]
    mask = masks[0]
    for _ in range(rank):
        mask &= mask - 1
    if not mask:
        return None
    out.append((mask & -mask).bit_length() - 1)
    return tuple(out)


def _packed(rows: list[list[int]], words: int) -> np.ndarray:
    """Equal-length lists of bitmasks as little-endian uint64 words, indexed
    [x, list, word]: ``out[x, i]`` holds ``rows[i][x]``."""
    data = b"".join(mask.to_bytes(8 * words, "little") for row in rows for mask in row)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), -1, words).transpose(1, 0, 2).copy()


def find_extension(square: KPartialSquare) -> ExtensionWitness | None:
    """First legal insertion in row-major cell order, lex-least tuple.

    Returns None exactly when the square is maximal.  Deterministic, so
    repeated calls name the same witness.
    """
    n, k = square.n, square.k
    index = square.projections()
    table = index.table
    words = -(-n // 64)
    full = (1 << n) - 1

    def free(a: int, b: int) -> list[int]:
        """Per value x of coordinate a, the values of b that no word pairs with x."""
        return [full ^ used for used in table[a][b]]

    # row_free[r, j]: the layer-j symbols unused in row r, col_free likewise;
    # pair_free[i][e, j - i - 1]: the layer-j symbols never paired with e at layer i
    row_free = _packed([free(0, 2 + j) for j in range(k)], words)
    col_free = _packed([free(1, 2 + j) for j in range(k)], words)
    pair_free = [_packed([free(2 + i, 2 + j) for j in range(i + 1, k)], words) for i in range(k - 1)]
    filled = index.plane(0, 1)

    def first_survivor(i: int, owner: np.ndarray, masks: np.ndarray) -> int | None:
        """Least owner of a row whose masks for layers i.. leave a legal
        tuple, or None.  Rows come sorted by owner."""
        alive = masks.any(axis=2).all(axis=1)
        owner, masks = owner[alive], masks[alive]
        if i == k - 1 or not len(owner):
            return int(owner[0]) if len(owner) else None
        step = max(1, _FRONTIER_WORDS // (n * words * (k - 1 - i)))
        for start in range(0, len(owner), step):
            chunk = masks[start:start + step]
            bits = np.unpackbits(chunk[:, 0].view(np.uint8), axis=1, bitorder="little")
            row, value = np.nonzero(bits)
            found = first_survivor(
                i + 1, owner[start:start + step][row], chunk[row, 1:] & pair_free[i][value]
            )
            if found is not None:
                return found
        return None

    height = max(1, _FRONTIER_WORDS // (n * k * words))
    for top in range(0, n, height):
        rows, cols = np.nonzero(~filled[top:top + height])
        rows += top
        masks = row_free[rows] & col_free[cols]
        # a cell survives exactly when the first cell with the same masks does,
        # so only the first cell of each class is expanded
        keys = masks.reshape(len(rows), k * words).view(np.dtype((np.void, 8 * k * words)))[:, 0]
        # flagged and read back in order, not sorted: np.sort would page in
        # the integer sort's code, about 0.2 MB of resident memory
        first = np.zeros(len(rows), dtype=bool)
        first[np.unique(keys, return_index=True)[1]] = True
        first = np.flatnonzero(first)
        found = first_survivor(0, first, masks[first])
        if found is not None:
            cell = (int(rows[found]), int(cols[found]))
            entries = _tuple_of_rank(table, _allowed(table, n, k, cell), 0)
            if entries is None:
                raise SelfCheckError(f"the scan found cell {cell} extendable, but it admits no tuple")
            return ExtensionWitness(cell, entries)
    return None


def is_maximal(square: KPartialSquare) -> bool:
    return find_extension(square) is None


def maximalize(
    square: KPartialSquare, policy: str = "lex", seed: int | None = None
) -> KPartialSquare:
    """Extend to a maximal square by greedy insertion.

    ``policy="lex"`` visits empty cells in row-major order and inserts the
    lexicographically least candidate tuple; ``policy="random"`` shuffles
    the cell order and picks candidates uniformly, driven by ``seed``, by
    drawing a rank below the cell's candidate count (see the module
    docstring).

    A single pass suffices: insertions only shrink the candidate sets of
    other cells, so a cell seen with no candidates stays uninsertable for
    the rest of the pass.  Already-maximal squares come back unchanged.
    """
    if policy not in ("lex", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed) if policy == "random" else None
    index = square.projections().copy()
    order = list(square.empty_cells())
    if rng is not None:
        rng.shuffle(order)
    cells = dict(square.cells)
    n, k, table = square.n, square.k, index.table
    for cell in order:
        masks = _allowed(table, n, k, cell)
        if rng is None:
            choice = _tuple_of_rank(table, masks, 0)
        else:
            count = _count(table, masks, 0) if all(masks) else 0
            # the same _randbelow(count) draw as choice() on the listed candidates
            choice = _tuple_of_rank(table, masks, rng.randrange(count)) if count else None
        if choice is None:
            continue
        cells[cell] = choice
        index.add(cell + choice)
    result = KPartialSquare(square.n, square.k, cells)
    # any maximal pair of orthogonal partial Latin squares fills at least
    # a third of the grid; a failure here means a bug, not bad input
    if square.k == 2 and result.filled_count < lower_bound(square.n):
        raise SelfCheckError(
            f"completion filled {result.filled_count} cells, below the bound "
            f"{lower_bound(square.n)} for a maximal pair of order {square.n}"
        )
    return result

