"""Shared fixtures, brute-force oracles, and hypothesis strategies.

The oracles restate the definitions directly with nested loops and
itertools enumeration, independent of the package's optimized paths, so
the tests compare two routes to the same answer.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from mopls import KPartialSquare, Violation
from mopls.core import _classify, lower_bound
from mopls.maximality import _allowed, _tuple_of_rank, maximalize
from mopls.verify import BoundReport, Lemma2Report, StructureReport, inequality_rhs

DATA = Path(__file__).parent / "data"

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# -- oracles -----------------------------------------------------------------


def oracle_agreements(a, b) -> int:
    return sum(x == y for x, y in zip(a, b))


def oracle_valid_words(words, n: int, k: int) -> bool:
    """Definition check: words in range, distinct cells, pairwise agreement <= 1."""
    words = list(words)
    for w in words:
        if len(w) != k + 2 or any(not 0 <= x < n for x in w):
            return False
    for a, b in itertools.combinations(words, 2):
        if oracle_agreements(a, b) > 1:
            return False
    return True


def oracle_valid(square: KPartialSquare) -> bool:
    return oracle_valid_words(square.words(), square.n, square.k)


def oracle_violations(square: KPartialSquare) -> tuple[Violation, ...]:
    """Every violated constraint, comparing each pair of words directly.

    Range violations come first in cell-map order, then one violation
    per clashing pair of sorted words, in pair order; this is the report
    ``validate`` must reproduce.
    """
    n, k = square.n, square.k
    violations = []
    for (r, c), entries in square.cells.items():
        if not (0 <= r < n and 0 <= c < n) or len(entries) != k or any(
            not 0 <= e < n for e in entries
        ):
            violations.append(
                Violation("range", ((r, c),), (), f"cell ({r}, {c}) -> {entries} out of range")
            )
    words = sorted((cell + e, cell) for cell, e in square.cells.items())
    for (wi, ci), (wj, cj) in itertools.combinations(words, 2):
        coords = tuple(p for p, (x, y) in enumerate(zip(wi, wj)) if x == y)
        if len(coords) >= 2:
            violations.append(_classify(wi, wj, ci, cj, coords))
    return tuple(violations)


def oracle_projection_table(words, n: int, width: int) -> list[list]:
    """``Projections.table`` of ``words`` from its definition: entry [a][b][x],
    a < b, has bit y set when some word w has w[a] = x and w[b] = y."""
    table = [[None] * width for _ in range(width)]
    for a, b in itertools.combinations(range(width), 2):
        table[a][b] = [sum({1 << w[b] for w in words if w[a] == x}) for x in range(n)]
    return table


def oracle_candidates(square: KPartialSquare, cell) -> list[tuple]:
    """All entry tuples insertable at an empty cell, in lex order.

    Two words agree in two coordinates exactly when they share the values
    of some coordinate pair, so a tuple is legal when no pair of its word's
    values is in the set of the square's (a, b, w[a], w[b]) values.  The
    tuples are grown one coordinate at a time, and a prefix that already
    shares a pair is not extended.
    """
    width = square.k + 2
    used = {
        (a, b, w[a], w[b]) for w in square.words() for a, b in itertools.combinations(range(width), 2)
    }
    found = []

    def grow(word):
        if len(word) == width:
            found.append(word[2:])
            return
        b = len(word)
        for x in range(square.n):
            if not any((a, b, word[a], x) in used for a in range(b)):
                grow(word + (x,))

    grow(tuple(cell))
    return found


def oracle_find_extension(square: KPartialSquare):
    """(cell, entries) of the first extendable cell in row-major order with its
    lex-least tuple (rank 0), or None, testing one cell at a time."""
    table = square.projections().table
    for cell in square.empty_cells():
        entries = _tuple_of_rank(table, _allowed(table, square.n, square.k, cell), 0)
        if entries is not None:
            return cell, entries
    return None


def oracle_maximalize(square: KPartialSquare, policy: str = "lex", seed=None) -> KPartialSquare:
    """Greedy completion by listing: every cell's full candidate list, then its
    first tuple (lex) or ``rng.choice`` of it (random), over the cell order
    ``maximalize`` uses; the listing loop that count-and-rank selection replaced."""
    rng = random.Random(seed) if policy == "random" else None
    order = list(square.empty_cells())
    if rng is not None:
        rng.shuffle(order)
    cells = dict(square.cells)
    for cell in order:
        cands = oracle_candidates(KPartialSquare(square.n, square.k, cells), cell)
        if cands:
            cells[cell] = cands[0] if rng is None else rng.choice(cands)
    return KPartialSquare(square.n, square.k, cells)


def oracle_is_maximal(square: KPartialSquare) -> bool:
    return all(not oracle_candidates(square, cell) for cell in square.empty_cells())


def oracle_canonical_form(words, n: int, k: int) -> tuple:
    """Least sorted word list over every row, column and per-layer symbol permutation."""
    words = list(words)
    perms = list(itertools.permutations(range(n)))
    return min(
        tuple(sorted(tuple(maps[p][x] for p, x in enumerate(w)) for w in words))
        for maps in itertools.product(perms, repeat=k + 2)
    )


def oracle_canonical_children(parent, candidates, n: int, k: int) -> list[bool]:
    """For each word w of ``candidates``, each above every word of ``parent``,
    whether ``sorted(parent) + [w]`` is the least sorted list over every row,
    column and per-layer symbol permutation: ``oracle_canonical_form``'s
    enumeration, vectorized over the permutations and the candidates.

    A word is coded as its base-n number, which orders words as tuples do.
    """
    width = k + 2
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int16)
    scale = n ** np.arange(width - 1, -1, -1, dtype=np.int16)

    def codes(words) -> np.ndarray:
        return np.array(words, dtype=np.int16).reshape(-1, width) @ scale

    def images(words) -> np.ndarray:  # [s, j]: the code of word j under relabeling s
        words = np.array(words, dtype=np.int16).reshape(-1, width)
        total = np.zeros((1,) * width + (len(words),), dtype=np.int16)
        for p in range(width):
            shape = [1] * width + [len(words)]
            shape[p] = len(perms)
            total = total + (perms[:, words[:, p]] * scale[p]).reshape(shape)
        return total.reshape(len(perms) ** width, len(words))

    parent = sorted(parent)
    moved, added = images(parent), images(candidates)
    lists = np.concatenate(
        [np.broadcast_to(moved[:, None, :], added.shape + (len(parent),)), added[:, :, None]], axis=2
    )
    lists.sort(axis=2)
    targets = np.concatenate(
        [np.broadcast_to(codes(parent), (len(candidates), len(parent))), codes(candidates)[:, None]], axis=1
    )
    diff = lists - targets
    first = (diff != 0).argmax(axis=2)
    smaller = np.take_along_axis(diff, first[..., None], axis=2)[..., 0] < 0
    return [not s for s in smaller.any(axis=0)]


def oracle_tie_scan(words, n: int, k: int) -> list | None:
    """The depth-first scan of a sorted word list from the root, recording
    every node it visits as (depth, label table, used labels, remaining
    positions); None when the scan finds a relabeling that maps the list
    below itself.

    Value x of family p is labelled in slot ``p * n + x``, -1 while
    unassigned.  At depth 0 every word is committed in turn, as with no
    labels each word's least image is 0...0; deeper, each remaining word's
    least image is compared with the list's word at that depth.
    """
    words, order, width = [tuple(w) for w in words], n, k + 2
    nodes: list = []

    def scan(i, left, lab, used) -> bool:
        nodes.append((i, lab[:], used[:], left))
        if i == len(words):
            return False
        realizers = left
        if i:
            realizers = []
            for j in left:
                image = tuple(used[p] if lab[p * order + x] < 0 else lab[p * order + x]
                              for p, x in enumerate(words[j]))
                if image < words[i]:
                    return True
                if image == words[i]:
                    realizers.append(j)
        for j in realizers:
            fresh = [p * order + x for p, x in enumerate(words[j]) if lab[p * order + x] < 0]
            for slot in fresh:
                lab[slot] = used[slot // order]
                used[slot // order] += 1
            found = scan(i + 1, [t for t in left if t != j], lab, used)
            for slot in fresh:
                lab[slot] = -1
                used[slot // order] -= 1
            if found:
                return True
        return False

    smaller = scan(0, list(range(len(words))), [-1] * (width * order), [0] * width)
    return None if smaller else nodes


def complement_edges(graph) -> tuple[list, Counter, Counter]:
    """A complement graph read back from ``to_edge_list`` and ``vertex_label``
    alone: its edges as a list of ((group, vertex), (group, vertex)) pairs, the
    edge count of each group pair (a, b), a < b, and the neighbour count of
    each vertex (group, vertex) in each other group, keyed ((group, vertex), other)."""
    where = {
        graph.vertex_label(g, v): (g, v) for g in range(graph.groups) for v in range(graph.n)
    }
    edges = [(where[x], where[y]) for x, y in graph.to_edge_list()]
    pair_edges: Counter = Counter()
    neighbours: Counter = Counter()
    for a, b in edges:
        pair_edges[a[0], b[0]] += 1
        neighbours[a, b[0]] += 1
        neighbours[b, a[0]] += 1
    return edges, pair_edges, neighbours


def oracle_complement_edges(square: KPartialSquare) -> list:
    """The complement graph's edges from their definition, as sorted
    ((group, vertex), (group, vertex)) pairs: (a, x) and (b, y), a < b, are
    joined when no word has w[a] = x and w[b] = y."""
    words = square.words()
    edges = []
    for a, b in itertools.combinations(range(square.k + 2), 2):
        used = {(w[a], w[b]) for w in words}
        edges += [((a, x), (b, y)) for x in range(square.n) for y in range(square.n) if (x, y) not in used]
    return sorted(edges)


def oracle_min_distance(words) -> int:
    return min(
        sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(words, 2)
    )


def oracle_covering_radius(words, alphabet_size: int, length: int) -> int:
    return max(
        min(sum(x != y for x, y in zip(w, c)) for c in words)
        for w in itertools.product(range(alphabet_size), repeat=length)
    )


def oracle_covering_radius_blocked(words, alphabet_size: int, length: int, block: int = 4096) -> int:
    """:func:`oracle_covering_radius` as a numpy distance matrix between the
    code and each block of the word space, for codes too large to loop over."""
    code = np.array(sorted(words), dtype=np.int64).reshape(-1, length)
    space = alphabet_size**length
    radius = 0
    for start in range(0, space, block):
        index = np.arange(start, min(start + block, space))
        ws = np.stack(np.unravel_index(index, (alphabet_size,) * length), axis=1)
        dist = (ws[:, None, :] != code[None, :, :]).sum(axis=2)
        radius = max(radius, int(dist.min(axis=1).max()))
    return radius


def oracle_max_empty_transversal(square: KPartialSquare, rows, cols) -> int:
    """Largest set of empty cells in the region, no two sharing a row or column."""
    rows = list(rows)
    cols = list(cols)
    empties = [
        (i, j) for i in rows for j in cols if not square.is_filled((i, j))
    ]

    def grow(remaining, used_rows, used_cols):
        best = 0
        for idx, (i, j) in enumerate(remaining):
            if i in used_rows or j in used_cols:
                continue
            best = max(
                best,
                1
                + grow(remaining[idx + 1 :], used_rows | {i}, used_cols | {j}),
            )
        return best

    return grow(empties, frozenset(), frozenset())


def oracle_max_matching(adj, n_right):
    """The recursive augmenting-path matcher the explicit-stack one replaced:
    (match_left, match_right), each left vertex trying its neighbours in
    list order."""
    match_left = [-1] * len(adj)
    match_right = [-1] * n_right

    def augment(u, visited):
        for v in adj[u]:
            if visited[v]:
                continue
            visited[v] = True
            if match_right[v] == -1 or augment(match_right[v], visited):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in range(len(adj)):
        augment(u, [False] * n_right)
    return match_left, match_right


def oracle_min_frequency(square: KPartialSquare) -> tuple[int, int, int]:
    """(family, index, count) of the first least count of ``frequencies``, the
    families in word order (row, col, then entry layers)."""
    freq = square.frequencies()
    families = [freq.row_counts, freq.col_counts, *freq.layer_counts]
    best = (0, 0, families[0][0])
    for fam, counts in enumerate(families):
        for idx, count in enumerate(counts):
            if count < best[2]:
                best = (fam, idx, count)
    return best


def oracle_bound(square: KPartialSquare) -> BoundReport:
    """``verify_bound``'s report of a maximal two-layer square, cell by cell:
    the least frequency from ``frequencies``, the conjugate in which its family
    is the first entry layer, and the largest empty transversal of that
    conjugate's rows and columns free of the least-frequent value.

    The transversal is the size of a maximum matching of the region's empty
    cells by the recursive augmenting-path matcher: the region is up to
    two-thirds of n wide, out of reach of ``oracle_max_empty_transversal``'s
    enumeration above n = 15.
    """
    n = square.n
    fam, idx, m = oracle_min_frequency(square)
    conj = square.conjugate([(2, 1, 0, 3), (0, 2, 1, 3), (0, 1, 2, 3), (0, 1, 3, 2)][fam])
    rows = [r for r in range(n) if all(conj.cells.get((r, c), (None,))[0] != idx for c in range(n))]
    cols = [c for c in range(n) if all(conj.cells.get((r, c), (None,))[0] != idx for r in range(n))]
    empties = [[j for j, c in enumerate(cols) if not conj.is_filled((r, c))] for r in rows]
    t = sum(v != -1 for v in oracle_max_matching(empties, len(cols))[0])
    required = inequality_rhs(n, m, t)
    filled = square.filled_count
    return BoundReport(
        n=n, filled=filled, min_frequency=m, family=("row", "col", "layer1", "layer2")[fam], index=idx,
        transversal=t, required=required, ok=filled >= required, tight=filled == required,
        attains_lower_bound=filled == lower_bound(n),
    )


def oracle_lemma2(square: KPartialSquare, report) -> Lemma2Report:
    """``check_lemma2``'s report for the transversal ``report``, cell by cell:
    matched lines first, then the rest in region order; the residual block
    must be filled, and each residual row's plus column's in-region fill must
    reach 2d - t."""
    t, d = report.size, len(report.rows)
    row_order = tuple(dict.fromkeys([*(r for r, _ in report.matching), *report.rows]))
    col_order = tuple(dict.fromkeys([*(c for _, c in report.matching), *report.cols]))
    f_row = {r: sum(square.is_filled((r, c)) for c in report.cols) for r in report.rows}
    f_col = {c: sum(square.is_filled((r, c)) for r in report.rows) for c in report.cols}
    residual = [(row_order[i], col_order[j]) for i in range(t, d) for j in range(t, d)]
    residual_filled = all(square.is_filled(cell) for cell in residual)
    freq_ok = all(f_row[r] + f_col[c] >= 2 * d - t for r, c in residual)
    return Lemma2Report(
        ok=residual_filled and freq_ok, d=d, t=t, row_order=row_order, col_order=col_order,
        residual_filled=residual_filled, freq_ok=freq_ok,
    )


def oracle_row_classes(square: KPartialSquare) -> list[set[int]]:
    """Row classes under 'shares a symbol in some layer', by union-find over
    the cells, ascending by size, then least row; a row without cells is in none."""
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


def oracle_block_structure(square: KPartialSquare, plan, note) -> StructureReport:
    """The structure report of ``square`` against ``plan``'s blocks, cell by
    cell: ``oracle_row_classes``, each class's column and per-layer symbol sets
    and fill from its cells, the canonical relabeling onto consecutive
    ascending blocks, and a recheck of every block cell of the result."""
    n, k = square.n, square.k

    def fail(reason):
        return StructureReport(
            ok=False, reason=reason, n=n, k=k, block_orders=None, row_perm=None, col_perm=None,
            layer_perms=None, canonical=None, note=note,
        )

    if square.filled_count != plan.filled:
        return fail(f"filled={square.filled_count}, minimum squares have {plan.filled}")
    row_sets = oracle_row_classes(square)
    if len(row_sets) != len(plan.block_orders):
        return fail(f"expected {len(plan.block_orders)} blocks, found {len(row_sets)} row classes")
    block_of = {r: b for b, rows in enumerate(row_sets) for r in rows}
    col_sets = [set() for _ in row_sets]
    sym_sets = [[set() for _ in range(k)] for _ in row_sets]
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
            return fail(
                f"block with rows {sorted(rows)} touches {len(cols)} cols and "
                f"{[len(s) for s in syms]} symbols per layer, expected {m} each"
            )
        if count != m * m:
            return fail(f"block with rows {sorted(rows)} has {count} filled cells, expected {m * m}")
    orders = tuple(len(rows) for rows in row_sets)
    if sorted(orders) != sorted(plan.block_orders):
        return fail(f"block orders {orders} do not match expected {plan.block_orders}")
    if len(set().union(*col_sets)) != n:
        return fail("blocks overlap in columns or symbols")
    perms = [[0] * n for _ in range(k + 2)]
    offset = 0
    for rows, cols, syms in zip(row_sets, col_sets, sym_sets):
        for perm, labels in zip(perms, (rows, cols, *syms)):
            for pos, x in enumerate(sorted(labels)):
                perm[x] = offset + pos
        offset += len(rows)
    canonical = square.relabel(perms[0], perms[1], [tuple(p) for p in perms[2:]])
    offset = 0
    for m in orders:
        for r in range(offset, offset + m):
            for c in range(offset, offset + m):
                entries = canonical.entries_at((r, c))
                if entries is None or any(not offset <= e < offset + m for e in entries):
                    return fail("canonical form fails the diagonal block recheck")
        offset += m
    return StructureReport(
        ok=True, reason=None, n=n, k=k, block_orders=orders, row_perm=tuple(perms[0]),
        col_perm=tuple(perms[1]), layer_perms=tuple(tuple(p) for p in perms[2:]), canonical=canonical,
        note=note,
    )


# -- strategies ----------------------------------------------------------------


@st.composite
def partial_squares(draw, min_n=1, max_n=6, ks=(1, 2, 3), allow_empty=True):
    """Random valid squares grown by seeded random insertion."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.sampled_from(ks))
    seed = draw(st.integers(0, 2**32 - 1))
    fill_goal = draw(st.floats(0.0 if allow_empty else 0.05, 1.0))
    rng = random.Random(seed)
    square = KPartialSquare.empty(n, k)
    cells = [(r, c) for r in range(n) for c in range(n)]
    rng.shuffle(cells)
    for cell in cells:
        if square.filled_count >= fill_goal * n * n:
            break
        options = oracle_candidates(square, cell)
        if options:
            square = square.insert(cell, rng.choice(options))
    return square


@st.composite
def maximal_squares_with_holes(draw, max_n=9, ks=(1, 2, 3, 4)):
    """A seeded random maximal square with 0-3 cells removed, or an empty square."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from(ks))
    if draw(st.booleans()) and draw(st.booleans()):
        return KPartialSquare.empty(n, k)
    square = maximalize(KPartialSquare.empty(n, k), policy="random", seed=draw(st.integers(0, 2**32 - 1)))
    filled = sorted(square.cells)
    for cell in draw(st.lists(st.sampled_from(filled), max_size=3, unique=True)):
        square = square.remove(cell)
    return square


@st.composite
def raw_squares(draw, max_n=5, in_range=True):
    """Arbitrary cell maps behind the unchecked constructor, mostly invalid.

    With ``in_range=False`` rows, columns and symbols may fall one step
    outside 0..n-1 and entry tuples may have the wrong length.
    """
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 3))
    value = st.integers(0, n - 1) if in_range else st.integers(-1, n)
    length = st.just(k) if in_range else st.integers(k - 1, k + 1)
    entries = length.flatmap(lambda m: st.tuples(*[value] * m))
    size = draw(st.integers(0, n * n))
    cells = draw(st.dictionaries(st.tuples(value, value), entries, min_size=size, max_size=size))
    return KPartialSquare(n, k, cells)


@st.composite
def sparse_squares(draw, max_n=130, ks=(1, 2, 3, 4)):
    """Valid squares of orders past one 64-bit mask limb: up to 24 drawn words,
    each kept when it agrees with every kept word in at most one coordinate."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from(ks))
    kept: list[tuple] = []
    for word in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * (k + 2)), max_size=24)):
        if all(oracle_agreements(word, other) <= 1 for other in kept):
            kept.append(word)
    return KPartialSquare(n, k, {w[:2]: w[2:] for w in kept})


@st.composite
def clashing_squares(draw, max_n=130, ks=(1, 2, 3, 4)):
    """Cell maps over at most three drawn values, so that most words agree
    with several others in two or more coordinates."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from(ks))
    value = st.sampled_from(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)))
    cells = draw(st.dictionaries(st.tuples(value, value), st.tuples(*[value] * k), max_size=9))
    return KPartialSquare(n, k, cells)


@st.composite
def square_with_empty_cell(draw, **kwargs):
    square = draw(partial_squares(**kwargs))
    empties = list(square.empty_cells())
    if not empties:
        square = square.remove(next(iter(square.cells)))
        empties = list(square.empty_cells())
    return square, empties[draw(st.integers(0, len(empties) - 1))]


# -- fault injection -----------------------------------------------------------


def write_half_then_fail(self, data, *args, **kwargs):
    """Stands in for ``Path.write_text``: writes half the text, then fails."""
    with open(self, "w") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("simulated disk full")


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="session")
def golden():
    from mopls import from_text_grid

    return {
        name: from_text_grid((DATA / f"{name}.txt").read_text())
        for name in ("mpls_6", "mpls_7", "mopls_9", "mopls3_16")
    }
