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
predicted near-equal orders.

Maximality is not re-tested inside the structure verifiers: once a
square is confirmed to consist of B complete blocks on disjoint index
ranges covering all rows, columns and symbols, every cross-block cell is
blocked whenever B <= k + 1, which holds for both verified shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .construct import ConstructionPlan, mopls_plan, mpls_plan
from .core import Cell, KPartialSquare, SelfCheckError, SquareError, lower_bound
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
    square: KPartialSquare, rows: "list[int] | tuple[int, ...]", cols: "list[int] | tuple[int, ...]"
) -> TransversalReport:
    """Largest set of empty cells in rows x cols, one per row and column."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"region must be square, got {len(rows)} rows x {len(cols)} cols")
    for idx in (*rows, *cols):
        if not 0 <= idx < square.n:
            raise ValueError(f"index {idx} outside 0..{square.n - 1}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("region rows and cols must be distinct")
    masks = [sum(1 << j for j, c in enumerate(cols) if not square.is_filled((r, c))) for r in rows]
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
    col_set = set(report.cols)
    row_set = set(report.rows)
    f_row = {
        r: sum(1 for c in col_set if square.is_filled((r, c))) for r in report.rows
    }
    f_col = {
        c: sum(1 for r in row_set if square.is_filled((r, c))) for c in report.cols
    }
    residual_filled = all(
        square.is_filled((row_order[i], col_order[j]))
        for i in range(t, d)
        for j in range(t, d)
    )
    freq_ok = all(
        f_row[row_order[i]] + f_col[col_order[j]] >= 2 * d - t
        for i in range(t, d)
        for j in range(t, d)
    )
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
    ties go to the earliest family, then the least index.
    """
    freq = square.frequencies()
    families = [freq.row_counts, freq.col_counts, *freq.layer_counts]
    best = (0, 0, families[0][0])
    for fam, counts in enumerate(families):
        for idx, count in enumerate(counts):
            if count < best[2]:
                best = (fam, idx, count)
    return best


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

    The minimum frequency may sit in any of the four coordinate families;
    the square is conjugated so that family plays the first-entry role,
    which changes nothing about validity, maximality or fill.  The region
    searched for the empty transversal is the complement of the rows and
    columns containing the minimum-frequency first entry.
    """
    if square.k != 2:
        raise SquareError(f"fill inequality applies to two layers, got k={square.k}")
    if not is_maximal(square):
        raise SquareError("fill inequality applies to maximal squares only")
    n = square.n
    fam, idx, m = locate_min_frequency(square)
    swap_to_first_entry = [(2, 1, 0, 3), (0, 2, 1, 3), (0, 1, 2, 3), (0, 1, 3, 2)][fam]
    conj = square.conjugate(swap_to_first_entry)
    rows_with = {r for (r, _), entries in conj.cells.items() if entries[0] == idx}
    cols_with = {c for (_, c), entries in conj.cells.items() if entries[0] == idx}
    if not len(rows_with) == len(cols_with) == m:
        raise SelfCheckError(
            f"symbol {idx} fills {len(rows_with)} rows and {len(cols_with)} cols of the "
            f"conjugate, not its minimum frequency {m}"
        )
    region_rows = sorted(set(range(n)) - rows_with)
    region_cols = sorted(set(range(n)) - cols_with)
    t = max_empty_transversal(conj, region_rows, region_cols).size
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


def _recover_blocks(square: KPartialSquare) -> list[set[int]]:
    """Row classes under 'shares a symbol in some layer', via union-find."""
    parent = list(range(square.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: dict[tuple[int, int], int] = {}
    for (r, _), entries in square.cells.items():
        for key in enumerate(entries):
            if key in seen:
                rx, ry = find(seen[key]), find(r)
                if rx != ry:
                    parent[rx] = ry
            else:
                seen[key] = r
    groups: dict[int, set[int]] = {}
    for r, _ in square.cells:
        groups.setdefault(find(r), set()).add(r)
    return sorted(groups.values(), key=lambda g: (len(g), min(g)))


def _verify_block_structure(
    square: KPartialSquare, plan: ConstructionPlan, note: str | None
) -> StructureReport:
    """Check that the square is the plan's blocks, up to relabeling.

    Rows that share a symbol share a class, so classes never overlap in
    symbols; once each class of m rows touches m columns and the orders
    match the plan (which sums to n), the columns overlap iff fewer than n
    are touched.
    """
    n, k = square.n, square.k
    if square.filled_count != plan.filled:
        return _fail(square, f"filled={square.filled_count}, minimum squares have {plan.filled}", note)
    row_sets = _recover_blocks(square)
    if len(row_sets) != len(plan.block_orders):
        return _fail(
            square,
            f"expected {len(plan.block_orders)} blocks, found {len(row_sets)} row classes",
            note,
        )
    block_of = {r: b for b, rows in enumerate(row_sets) for r in rows}
    col_sets: list[set[int]] = [set() for _ in row_sets]
    sym_sets = [[set() for _ in range(k)] for _ in row_sets]  # per block, per layer
    counts = [0] * len(row_sets)
    for (r, c), entries in square.cells.items():
        b = block_of[r]
        col_sets[b].add(c)
        counts[b] += 1
        for syms, e in zip(sym_sets[b], entries):
            syms.add(e)
    for rows, cols, syms, count in zip(row_sets, col_sets, sym_sets, counts):
        m = len(rows)
        if len(cols) != m or any(len(s) != m for s in syms):
            return _fail(
                square,
                f"block with rows {sorted(rows)} touches {len(cols)} cols and "
                f"{[len(s) for s in syms]} symbols per layer, expected {m} each",
                note,
            )
        if count != m * m:
            return _fail(
                square,
                f"block with rows {sorted(rows)} has {count} filled cells, expected {m * m}",
                note,
            )
    orders = tuple(len(rows) for rows in row_sets)
    if sorted(orders) != sorted(plan.block_orders):
        return _fail(square, f"block orders {orders} do not match expected {plan.block_orders}", note)
    if len(set().union(*col_sets)) != n:
        return _fail(square, "blocks overlap in columns or symbols", note)
    # build canonical relabeling: ascending blocks onto consecutive ranges
    row_perm = [0] * n
    col_perm = [0] * n
    layer_perms = [[0] * n for _ in range(k)]
    offset = 0
    for rows, cols, syms in zip(row_sets, col_sets, sym_sets):
        for perm, labels in ((row_perm, rows), (col_perm, cols), *zip(layer_perms, syms)):
            for pos, x in enumerate(sorted(labels)):
                perm[x] = offset + pos
        offset += len(rows)
    canonical = square.relabel(row_perm, col_perm, [tuple(p) for p in layer_perms])
    # exhaustive recheck in canonical coordinates
    offset = 0
    for m in orders:
        for r in range(offset, offset + m):
            for c in range(offset, offset + m):
                entries = canonical.entries_at((r, c))
                if entries is None or any(not offset <= e < offset + m for e in entries):
                    return _fail(square, "canonical form fails the diagonal block recheck", note)
        offset += m
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
