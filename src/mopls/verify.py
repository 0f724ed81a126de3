"""Counting bounds, empty-cell transversals, and structure recovery.

The central fact checked here: a maximal two-layer square with F filled
cells, minimum frequency m (over rows, columns and both entry layers),
and a largest empty-cell transversal of size t in the region avoiding
the minimum-frequency coordinate satisfies

    F >= ceil((n-m-t)^2 / 2 + (n-3m)^2 / 6 + n^2 / 3),

which in particular forces F >= ceil(n^2 / 3).  The verifiers locate m
and t for a concrete square and evaluate the inequality; the structure
verifiers check that squares attaining ceil(n^2 / 3) (respectively
ceil(n^2 / 2) for one layer) decompose into full diagonal blocks of the
predicted near-equal orders.  Both read the square's kept ``Projections``
index, not its cells: frequencies, block classes and their columns and
symbols are popcounts and ORs of its bit rows, and transversals are
sought among the empty cells of one of its coordinate planes.

Maximality is not re-tested inside the structure verifiers: once a
square is confirmed to consist of B complete blocks on disjoint index
ranges covering all rows, columns and symbols, every cross-block cell is
blocked whenever B <= k + 1, which holds for both verified shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .construct import ConstructionPlan, mopls_plan, mpls_plan
from .core import Cell, KPartialSquare, SelfCheckError, SquareError, bits_above, lower_bound
from .maximality import is_maximal


def inequality_rhs(n: int, m: int, t: int) -> int:
    """Fill forced by minimum frequency m and empty-transversal size t.

    Requires 0 <= m <= n and 0 <= t <= n - m (the transversal lives in
    an (n-m) x (n-m) region).
    """
    if not 0 <= m <= n:
        raise ValueError(f"minimum frequency m={m} outside 0..{n}")
    if not 0 <= t <= n - m:
        raise ValueError(f"transversal size t={t} outside 0..{n - m}")
    return ceil((3 * (n - m - t) ** 2 + (n - 3 * m) ** 2 + 2 * n * n) / 6)


# -- bipartite matching on empty cells -----------------------------------------


def _alternate(
    masks: list[int], match_right: list[int], roots: "list[int] | tuple[int, ...]"
) -> tuple[list[tuple[int, int]] | None, int]:
    """Depth-first alternating search from ``roots``, which share one visited mask.

    Returns the (left, right) edges of the first augmenting path found, or
    None, and the mask of right vertices visited.  A left vertex tries its
    unvisited neighbours in ascending order, each the lowest set bit of its
    int mask, and the path is kept on an explicit stack, so it may be as
    long as the region is wide.
    """
    visited = 0
    for root in roots:
        path, via = [root], []  # via[i]: the right vertex path[i] tries for path[i + 1]
        while path:
            options = masks[path[-1]] & ~visited
            if not options:
                path.pop()
                if via:
                    via.pop()
                continue
            low = options & -options
            visited |= low
            v = low.bit_length() - 1
            via.append(v)
            if match_right[v] == -1:
                return list(zip(path, via)), visited
            path.append(match_right[v])
    return None, visited


def _max_matching(masks: list[int], n_right: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """(match_left, match_right, cover_left, cover_right); -1 marks a free vertex.

    Bit v of ``masks[u]`` is the edge (u, v).  Each left vertex in turn
    searches for an augmenting path.  One more search from every free left
    vertex then visits the alternating-reachable set Z, and the cover is
    the left vertices outside Z plus the right vertices in Z.  Under a
    maximum matching that cover is as large as the matching and touches
    every edge (König); otherwise it is larger.
    """
    match_left = [-1] * len(masks)
    match_right = [-1] * n_right
    for root in range(len(masks)):
        for u, v in _alternate(masks, match_right, (root,))[0] or ():
            match_left[u] = v
            match_right[v] = u
    _, reached = _alternate(masks, match_right, [u for u, v in enumerate(match_left) if v == -1])
    cover_left = [u for u, v in enumerate(match_left) if v != -1 and not reached >> v & 1]
    cover_right = [v for v in range(n_right) if reached >> v & 1]
    return match_left, match_right, cover_left, cover_right


@dataclass(frozen=True)
class TransversalReport:
    """A maximum empty-cell transversal with a matching-size cover certificate.

    ``matching`` lists t empty cells, no two sharing a row or column;
    every empty cell of the region touches ``cover_rows`` or
    ``cover_cols``, and the cover has exactly t vertices, so no larger
    transversal exists.  All indices are absolute (square coordinates).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    size: int
    matching: tuple[Cell, ...]
    cover_rows: tuple[int, ...]
    cover_cols: tuple[int, ...]


def max_empty_transversal(
    square: KPartialSquare, rows: "list[int] | tuple[int, ...]", cols: "list[int] | tuple[int, ...]",
    coords: tuple[int, int] = (0, 1),
) -> TransversalReport:
    """Largest set of empty cells in rows x cols, one per row and column.

    The cells are those of the plane of word coordinates ``coords`` = (p, q),
    read off the square's index: (r, c) is filled when some word has w[p] = r
    and w[q] = c.  The default plane is the square's own grid.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"region must be square, got {len(rows)} rows x {len(cols)} cols")
    for idx in (*rows, *cols):
        if not 0 <= idx < square.n:
            raise ValueError(f"index {idx} outside 0..{square.n - 1}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("region rows and cols must be distinct")
    empty = ~square.projections().plane(*coords)[np.ix_(rows, cols)]
    packed = np.packbits(empty, axis=1, bitorder="little")
    size, data = packed.shape[1], packed.tobytes()
    masks = [int.from_bytes(data[i * size:(i + 1) * size], "little") for i in range(len(rows))]
    match_left, _, cover_left, cover_right = _max_matching(masks, len(cols))
    matching = tuple((rows[u], cols[v]) for u, v in enumerate(match_left) if v != -1)
    # a cover as large as the matching that every empty cell touches
    # proves no larger transversal exists (König)
    if len(cover_left) + len(cover_right) != len(matching):
        raise SelfCheckError(
            f"vertex cover of {len(cover_left) + len(cover_right)} lines does not match "
            f"the transversal of {len(matching)} cells"
        )
    covered_left, uncovered = set(cover_left), ~sum(1 << v for v in cover_right)
    for u, missed in enumerate(mask & uncovered for mask in masks):
        if missed and u not in covered_left:
            v = (missed & -missed).bit_length() - 1
            raise SelfCheckError(f"empty cell {(rows[u], cols[v])} touches no line of the vertex cover")
    return TransversalReport(
        rows=rows,
        cols=cols,
        size=len(matching),
        matching=matching,
        cover_rows=tuple(rows[u] for u in cover_left),
        cover_cols=tuple(cols[v] for v in cover_right),
    )


@dataclass(frozen=True)
class Lemma2Report:
    """Diagonalized view of a region and its forced-fill consequences.

    After reordering so the maximum empty transversal occupies the first
    t diagonal positions: ``residual_filled`` says positions t..d-1 form
    a fully filled subarray, and ``freq_ok`` says every residual (i, j)
    has in-region row plus column fill at least 2d - t.
    """

    ok: bool
    d: int
    t: int
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    residual_filled: bool
    freq_ok: bool


def check_lemma2(
    square: KPartialSquare, rows: "list[int] | tuple[int, ...]", cols: "list[int] | tuple[int, ...]"
) -> Lemma2Report:
    """Check the forced-fill property of a d x d region of any square.

    This holds for every array whatsoever, so a False result indicates a
    bug in the matching code rather than an interesting input.
    """
    report = max_empty_transversal(square, rows, cols)
    t, d = report.size, len(report.rows)
    # matched lines first, then the rest in region order
    row_order = tuple(dict.fromkeys([*(r for r, _ in report.matching), *report.rows]))
    col_order = tuple(dict.fromkeys([*(c for _, c in report.matching), *report.cols]))
    filled = square.projections().plane(0, 1)[np.ix_(row_order, col_order)]
    residual_filled = bool(filled[t:, t:].all())
    # in-region fill of each residual row plus that of each residual column
    freq_ok = bool((filled.sum(axis=1)[t:, None] + filled.sum(axis=0)[t:] >= 2 * d - t).all())
    return Lemma2Report(
        ok=residual_filled and freq_ok,
        d=d,
        t=t,
        row_order=row_order,
        col_order=col_order,
        residual_filled=residual_filled,
        freq_ok=freq_ok,
    )


# -- the fill inequality on concrete squares --------------------------------------


def _family_name(coord: int) -> str:
    return ("row", "col")[coord] if coord < 2 else f"layer{coord - 1}"


def locate_min_frequency(square: KPartialSquare) -> tuple[int, int, int]:
    """(coordinate family, index, count) of the least-frequent coordinate.

    Families are scanned in word order (row, col, then entry layers) and
    ties go to the earliest family, then the least index.  In a valid square
    the values that one value pairs with in another coordinate are distinct,
    so a value's count is the popcount of its index row; the last coordinate
    is counted down the columns of its plane with the first.
    """
    index = square.projections()
    last = square.k + 1
    families = [[mask.bit_count() for mask in index.table[a][a + 1]] for a in range(last)]
    families.append(index.plane(last, 0).sum(axis=1).tolist())
    count, fam, idx = min((c, fam, idx) for fam, counts in enumerate(families) for idx, c in enumerate(counts))
    return fam, idx, count


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of the fill inequality on one maximal square."""

    n: int
    filled: int
    min_frequency: int
    family: str
    index: int
    transversal: int
    required: int
    ok: bool
    tight: bool
    attains_lower_bound: bool


def verify_bound(square: KPartialSquare) -> BoundReport:
    """Locate (m, t) for a maximal two-layer square and check the inequality.

    The minimum frequency may sit in any of the four coordinate families.
    The conjugate in which that family plays the first-entry role has the
    same validity, maximality and fill, and its rows and columns are the
    coordinates (p, q): (2, 1) for a row, (0, 2) for a column, (0, 1) for a
    layer.  So the index is read in that plane: the empty transversal is
    sought among the p- and q-values that do not pair with the least-frequent value.
    """
    if square.k != 2:
        raise SquareError(f"fill inequality applies to two layers, got k={square.k}")
    if not is_maximal(square):
        raise SquareError("fill inequality applies to maximal squares only")
    n = square.n
    fam, idx, m = locate_min_frequency(square)
    plane = ((2, 1), (0, 2), (0, 1), (0, 1))[fam]
    rows_with, cols_with = (square.projections().plane(fam, a)[idx] for a in plane)
    if not rows_with.sum() == cols_with.sum() == m:
        raise SelfCheckError(
            f"symbol {idx} fills {rows_with.sum()} rows and {cols_with.sum()} cols of the "
            f"conjugate, not its minimum frequency {m}"
        )
    region = [np.flatnonzero(~with_idx).tolist() for with_idx in (rows_with, cols_with)]
    t = max_empty_transversal(square, *region, plane).size
    required = inequality_rhs(n, m, t)
    filled = square.filled_count
    return BoundReport(
        n=n,
        filled=filled,
        min_frequency=m,
        family=_family_name(fam),
        index=idx,
        transversal=t,
        required=required,
        ok=filled >= required,
        tight=filled == required,
        attains_lower_bound=filled == lower_bound(n),
    )


# -- block structure recovery ------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Result of recovering a full block-diagonal decomposition.

    When ok, ``canonical`` is the relabeled square whose blocks occupy
    consecutive diagonal ranges in ascending size order, and the three
    permutation fields map original indices to canonical ones.
    """

    ok: bool
    reason: str | None
    n: int
    k: int
    block_orders: tuple[int, ...] | None
    row_perm: tuple[int, ...] | None
    col_perm: tuple[int, ...] | None
    layer_perms: tuple[tuple[int, ...], ...] | None
    canonical: KPartialSquare | None
    note: str | None = None


def _fail(square: KPartialSquare, reason: str, note: str | None = None) -> StructureReport:
    return StructureReport(
        ok=False, reason=reason, n=square.n, k=square.k,
        block_orders=None, row_perm=None, col_perm=None, layer_perms=None,
        canonical=None, note=note,
    )


def _row_classes(table: list, k: int) -> list[tuple[int, list[int]]]:
    """Row classes under 'shares a symbol in some layer' of a ``Projections``
    table: (row mask, symbol mask per layer) of each, ascending by size, then
    least row.  Row r (if it has cells) merges every class whose symbol masks
    meet its own, ``table[0][2 + j][r]``, in some layer j.
    """
    classes: list[tuple[int, list[int]]] = []
    for r, first in enumerate(table[0][2]):
        if not first:
            continue
        rows, syms, apart = 1 << r, [table[0][2 + j][r] for j in range(k)], []
        for other_rows, other_syms in classes:
            if any(a & b for a, b in zip(syms, other_syms)):
                rows |= other_rows
                syms = [a | b for a, b in zip(syms, other_syms)]
            else:
                apart.append((other_rows, other_syms))
        classes = apart + [(rows, syms)]
    return sorted(classes, key=lambda c: (c[0].bit_count(), c[0] & -c[0]))


def _verify_block_structure(
    square: KPartialSquare, plan: ConstructionPlan, note: str | None
) -> StructureReport:
    """Check that the square is the plan's blocks, up to relabeling.

    Rows that share a symbol share a class, so classes never overlap in
    symbols; once each class of m rows touches m columns and the orders
    match the plan (which sums to n), the columns overlap iff fewer than n
    are touched.  A class's columns, symbols and fill are ORs and popcounts
    of its rows' index masks.
    """
    n, k = square.n, square.k
    if square.filled_count != plan.filled:
        return _fail(square, f"filled={square.filled_count}, minimum squares have {plan.filled}", note)
    table = square.projections().table
    classes = _row_classes(table, k)
    if len(classes) != len(plan.block_orders):
        return _fail(
            square,
            f"expected {len(plan.block_orders)} blocks, found {len(classes)} row classes",
            note,
        )
    col_masks, covered = [], 0
    for rows, syms in classes:
        m, cols, count = rows.bit_count(), 0, 0
        for r in bits_above(rows, -1):
            cols |= table[0][1][r]
            count += table[0][1][r].bit_count()
        col_masks.append(cols)
        covered |= cols
        if cols.bit_count() != m or any(s.bit_count() != m for s in syms):
            return _fail(square, f"block with rows {list(bits_above(rows, -1))} touches {cols.bit_count()} cols "
                         f"and {[s.bit_count() for s in syms]} symbols per layer, expected {m} each", note)
        if count != m * m:
            return _fail(square, f"block with rows {list(bits_above(rows, -1))} has {count} filled cells, "
                         f"expected {m * m}", note)
    orders = tuple(rows.bit_count() for rows, _ in classes)
    if sorted(orders) != sorted(plan.block_orders):
        return _fail(square, f"block orders {orders} do not match expected {plan.block_orders}", note)
    if covered != (1 << n) - 1:
        return _fail(square, "blocks overlap in columns or symbols", note)
    # build canonical relabeling: ascending blocks onto consecutive ranges
    row_perm = [0] * n
    col_perm = [0] * n
    layer_perms = [[0] * n for _ in range(k)]
    offset = 0
    for (rows, syms), cols in zip(classes, col_masks):
        for perm, labels in ((row_perm, rows), (col_perm, cols), *zip(layer_perms, syms)):
            for pos, x in enumerate(bits_above(labels, -1)):
                perm[x] = offset + pos
        offset += rows.bit_count()
    canonical = square.relabel(row_perm, col_perm, [tuple(p) for p in layer_perms])
    # recheck in canonical coordinates: F = sum of m^2 cells, each with its row,
    # column and entries in one block, fill every block
    block = [b for b, m in enumerate(orders) for _ in range(m)]
    if canonical.filled_count != plan.filled or any(
        len({block[x] for x in (r, c, *entries)}) > 1 for (r, c), entries in canonical.cells.items()
    ):
        return _fail(square, "canonical form fails the diagonal block recheck", note)
    return StructureReport(
        ok=True,
        reason=None,
        n=n,
        k=k,
        block_orders=orders,
        row_perm=tuple(row_perm),
        col_perm=tuple(col_perm),
        layer_perms=tuple(tuple(p) for p in layer_perms),
        canonical=canonical,
        note=note,
    )


def verify_hr_structure(square: KPartialSquare) -> StructureReport:
    """Check that a minimum-fill maximal one-layer square splits into two blocks.

    Expects F = ceil(n^2 / 2); the blocks must be complete Latin squares
    of orders floor(n/2) and ceil(n/2) on disjoint rows, columns and
    symbols.
    """
    if square.k != 1:
        raise SquareError(f"this structure check applies to one layer, got k={square.k}")
    return _verify_block_structure(square, mpls_plan(square.n), note=None)


def verify_min_structure(square: KPartialSquare) -> StructureReport:
    """Check that a minimum-fill maximal two-layer square splits into three blocks.

    Expects F = ceil(n^2 / 3); the blocks must be complete orthogonal
    pairs with orders floor(n/3) or floor(n/3) + 1 summing to n, on
    disjoint rows, columns and per-layer symbols.  For n < 21 squares
    this structure is still verified when present, but such small
    maximal squares are not guaranteed to attain the minimum fill, so a
    note is attached.
    """
    if square.k != 2:
        raise SquareError(f"this structure check applies to two layers, got k={square.k}")
    n = square.n
    note = None if n >= 21 else (
        f"n={n} < 21: minimality of fill ceil(n^2/3) is not guaranteed at this order"
    )
    return _verify_block_structure(square, mopls_plan(n), note)
