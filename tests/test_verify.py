"""Tests for fill bounds, transversal certificates and structure recovery."""

from dataclasses import replace
from fractions import Fraction
from math import ceil
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_block_structure,
    oracle_bound,
    oracle_lemma2,
    oracle_max_empty_transversal,
    oracle_max_matching,
    oracle_min_frequency,
    oracle_row_classes,
    partial_squares,
)
from mopls import verify
from mopls.construct import k_ols, min_mopls, min_mpls, mopls_plan, mpls_plan
from mopls.core import KPartialSquare, SelfCheckError, SquareError, bits_above
from mopls.maximality import maximalize
from mopls.verify import (
    check_lemma2,
    inequality_rhs,
    locate_min_frequency,
    lower_bound,
    max_empty_transversal,
    verify_bound,
    verify_hr_structure,
    verify_min_structure,
)


@st.composite
def squares_with_regions(draw, **kwargs):
    square = draw(partial_squares(**kwargs))
    n = square.n
    d = draw(st.integers(min_value=1, max_value=n))
    rows = sorted(draw(st.permutations(list(range(n))))[:d])
    cols = sorted(draw(st.permutations(list(range(n))))[:d])
    return square, rows, cols


# -- fill bounds -------------------------------------------------------------------


def test_lower_bound_values():
    assert [lower_bound(n) for n in (1, 2, 3, 9, 21, 22, 23, 30)] == [
        1, 2, 3, 27, 147, 162, 177, 300,
    ]


@given(st.integers(min_value=1, max_value=300))
def test_lower_bound_is_ceiling_of_a_third(n):
    assert lower_bound(n) == ceil(Fraction(n * n, 3))


def test_inequality_rhs_values():
    assert inequality_rhs(9, 3, 6) == 27
    assert inequality_rhs(7, 2, 5) == 17
    assert inequality_rhs(3, 0, 3) == 5


@given(st.data())
def test_inequality_rhs_is_ceiling_of_the_quadratic(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    m = data.draw(st.integers(min_value=0, max_value=n))
    t = data.draw(st.integers(min_value=0, max_value=n - m))
    expected = ceil(Fraction(3 * (n - m - t) ** 2 + (n - 3 * m) ** 2 + 2 * n * n, 6))
    assert inequality_rhs(n, m, t) == expected


def test_inequality_rhs_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        inequality_rhs(5, -1, 0)
    with pytest.raises(ValueError):
        inequality_rhs(5, 6, 0)
    with pytest.raises(ValueError):
        inequality_rhs(5, 2, -1)
    with pytest.raises(ValueError):
        inequality_rhs(5, 2, 4)


def test_lower_bound_is_minimum_of_rhs_over_parameters():
    for n in range(1, 25):
        best = min(
            inequality_rhs(n, m, t)
            for m in range(n + 1)
            for t in range(n - m + 1)
        )
        assert best == lower_bound(n)


# -- maximum empty transversal -----------------------------------------------------


@given(squares_with_regions())
def test_transversal_size_matches_brute_force(case):
    square, rows, cols = case
    report = max_empty_transversal(square, rows, cols)
    assert report.size == oracle_max_empty_transversal(square, rows, cols)


@given(squares_with_regions())
def test_transversal_certificates_are_consistent(case):
    square, rows, cols = case
    report = max_empty_transversal(square, rows, cols)
    assert report.rows == tuple(rows)
    assert report.cols == tuple(cols)
    assert len(report.matching) == report.size
    assert len({r for r, _ in report.matching}) == report.size
    assert len({c for _, c in report.matching}) == report.size
    for r, c in report.matching:
        assert r in rows and c in cols
        assert not square.is_filled((r, c))
    # a vertex cover of the empty cells no larger than the matching
    cover_rows, cover_cols = set(report.cover_rows), set(report.cover_cols)
    assert len(cover_rows) + len(cover_cols) == report.size
    for r in rows:
        for c in cols:
            if not square.is_filled((r, c)):
                assert r in cover_rows or c in cover_cols


def test_transversal_of_empty_square_fills_the_diagonal():
    square = KPartialSquare.empty(5, 2)
    report = max_empty_transversal(square, range(5), range(5))
    assert report.size == 5
    assert len(report.matching) == 5


@given(st.integers(1, 12), st.data())
def test_matcher_matches_the_recursive_reference(width, data):
    adj = [sorted(row) for row in data.draw(st.lists(st.sets(st.integers(0, width - 1)), max_size=12))]
    masks = [sum(1 << v for v in row) for row in adj]
    match_left, match_right, cover_left, cover_right = verify._max_matching(masks, width)
    assert (match_left, match_right) == oracle_max_matching(adj, width)
    # a cover as large as the matching that touches every edge
    assert len(cover_left) + len(cover_right) == sum(v != -1 for v in match_left)
    assert all(u in cover_left or v in cover_right for u, row in enumerate(adj) for v in row)


def test_transversal_of_a_wide_empty_region_needs_no_recursion():
    # every augmenting path runs through all earlier rows, 1500 deep
    n = 1500
    report = max_empty_transversal(KPartialSquare.empty(n, 2), range(n), range(n))
    assert report.size == n
    assert sorted(r for r, _ in report.matching) == sorted(c for _, c in report.matching) == list(range(n))
    assert len(report.cover_rows) + len(report.cover_cols) == n


def _with_cover(monkeypatch, cover_left, cover_right):
    """Make ``_max_matching`` return its real matching with the given cover."""
    real = verify._max_matching
    monkeypatch.setattr(verify, "_max_matching", lambda *args: (*real(*args)[:2], cover_left, cover_right))


def test_transversal_checks_its_cover_size(monkeypatch):
    _with_cover(monkeypatch, [], [])
    with pytest.raises(SelfCheckError, match="vertex cover of 0 lines"):
        max_empty_transversal(KPartialSquare.empty(2, 2), range(2), range(2))


def test_transversal_checks_that_its_cover_touches_every_empty_cell(monkeypatch):
    # row 0 and column 0 are as many lines as the matching, but miss cell (1, 1)
    _with_cover(monkeypatch, [0], [0])
    with pytest.raises(SelfCheckError, match=r"empty cell \(1, 1\) touches no line"):
        max_empty_transversal(KPartialSquare.empty(2, 2), range(2), range(2))


def test_transversal_checks_that_no_augmentation_was_skipped(monkeypatch):
    # row 1's own search finds nothing, so the matching is not maximum and
    # the search from the free rows finds a path: the cover comes out larger
    real = verify._alternate

    def skip_row_1(masks, match_right, roots):
        return (None, 0) if roots == (1,) else real(masks, match_right, roots)

    monkeypatch.setattr(verify, "_alternate", skip_row_1)
    with pytest.raises(SelfCheckError, match="vertex cover of 2 lines does not match the transversal of 1 cells"):
        max_empty_transversal(KPartialSquare.empty(2, 2), range(2), range(2))


def test_transversal_rejects_bad_regions():
    square = KPartialSquare.empty(4, 2)
    with pytest.raises(ValueError):
        max_empty_transversal(square, [0], [0, 1])
    with pytest.raises(ValueError):
        max_empty_transversal(square, [0, 4], [0, 1])
    with pytest.raises(ValueError):
        max_empty_transversal(square, [0, 0], [0, 1])


# -- forced fill after diagonalization ---------------------------------------------


@given(squares_with_regions())
def test_forced_fill_holds_for_every_region(case):
    square, rows, cols = case
    report = check_lemma2(square, rows, cols)
    assert report.ok
    assert report.residual_filled and report.freq_ok
    assert report.d == len(rows)
    assert report.t == max_empty_transversal(square, rows, cols).size


@given(squares_with_regions())
def test_forced_fill_diagonalization_is_a_reordering(case):
    square, rows, cols = case
    report = check_lemma2(square, rows, cols)
    assert sorted(report.row_order) == list(rows)
    assert sorted(report.col_order) == list(cols)
    for i in range(report.t):
        assert not square.is_filled((report.row_order[i], report.col_order[i]))
    for i in range(report.t, report.d):
        for j in range(report.t, report.d):
            assert square.is_filled((report.row_order[i], report.col_order[j]))


# -- minimum frequency location ----------------------------------------------------


def test_locate_min_frequency_scans_families_in_word_order():
    empty = KPartialSquare.empty(3, 2)
    assert locate_min_frequency(empty) == (0, 0, 0)
    one_cell = KPartialSquare.from_cells(2, 2, {(0, 0): (0, 0)})
    assert locate_min_frequency(one_cell) == (0, 1, 0)
    col_light = KPartialSquare.from_cells(2, 1, {(0, 0): (0,), (1, 0): (1,)})
    assert locate_min_frequency(col_light) == (1, 1, 0)
    sym_light = KPartialSquare.from_cells(2, 1, {(0, 0): (0,), (1, 1): (0,)})
    assert locate_min_frequency(sym_light) == (2, 1, 0)


@given(partial_squares(min_n=1, max_n=6, ks=(1, 2, 3)))
def test_locate_min_frequency_finds_first_global_minimum(square):
    fam, idx, count = locate_min_frequency(square)
    freq = square.frequencies()
    families = [freq.row_counts, freq.col_counts, *freq.layer_counts]
    assert families[fam][idx] == count
    assert count == min(min(c) for c in families)
    for f2 in range(fam + 1):
        upto = idx if f2 == fam else len(families[f2])
        assert all(c > count for c in families[f2][:upto])


# -- the fill inequality on concrete squares ---------------------------------------


@pytest.mark.parametrize(
    "n, m, t, required",
    [(9, 3, 6, 27), (12, 4, 8, 48), (21, 7, 14, 147), (22, 7, 14, 162), (23, 7, 16, 177)],
)
def test_bound_report_on_minimum_squares(n, m, t, required):
    report = verify_bound(min_mopls(n))
    assert report.n == n
    assert report.min_frequency == m
    assert report.transversal == t
    assert report.required == required
    assert report.filled == lower_bound(n)
    assert report.ok and report.tight and report.attains_lower_bound


def test_bound_requires_two_layers():
    with pytest.raises(SquareError):
        verify_bound(min_mpls(4))


def test_bound_requires_maximal_input():
    with pytest.raises(SquareError):
        verify_bound(KPartialSquare.empty(3, 2))


@settings(max_examples=25)
@given(partial_squares(min_n=2, max_n=6, ks=(2,)), st.integers(0, 2**32 - 1))
def test_bound_holds_on_random_maximal_squares(square, seed):
    maximal = maximalize(square, policy="random", seed=seed)
    report = verify_bound(maximal)
    assert report.ok
    assert report.filled == maximal.filled_count
    assert report.filled >= lower_bound(maximal.n) or not report.attains_lower_bound


def test_bound_checks_the_minimum_frequency_it_builds_on(monkeypatch):
    located = verify.locate_min_frequency
    monkeypatch.setattr(verify, "locate_min_frequency", lambda square: located(square)[:2] + (4,))
    with pytest.raises(SelfCheckError, match="not its minimum frequency 4"):
        verify_bound(min_mopls(9))


# -- structure of minimum one-layer squares ----------------------------------------


@pytest.mark.parametrize("n, orders", [(1, (1,)), (6, (3, 3)), (7, (3, 4))])
def test_hr_structure_on_minimum_squares(n, orders):
    report = verify_hr_structure(min_mpls(n))
    assert report.ok
    assert report.block_orders == orders
    assert report.reason is None and report.note is None


def test_hr_structure_on_transcribed_squares(golden):
    for name, orders in (("mpls_6", (3, 3)), ("mpls_7", (3, 4))):
        report = verify_hr_structure(golden[name])
        assert report.ok and report.block_orders == orders


def test_hr_structure_is_relabel_invariant():
    square = min_mpls(7)
    rng = Random(7)
    for _ in range(5):
        perms = []
        for _ in range(3):
            p = list(range(7))
            rng.shuffle(p)
            perms.append(tuple(p))
        shuffled = square.relabel(perms[0], perms[1], [perms[2]])
        report = verify_hr_structure(shuffled)
        assert report.ok and report.block_orders == (3, 4)


def test_hr_structure_canonical_uses_reported_permutations():
    report = verify_hr_structure(min_mpls(6))
    square = min_mpls(6)
    rebuilt = square.relabel(
        list(report.row_perm), list(report.col_perm), [list(p) for p in report.layer_perms]
    )
    assert rebuilt == report.canonical
    for r in range(3):
        for c in range(3):
            assert report.canonical.entries_at((r, c))[0] < 3
            assert report.canonical.entries_at((r + 3, c + 3))[0] >= 3


def test_hr_structure_rejects_wrong_fill():
    full = k_ols(1, 2)
    report = verify_hr_structure(full)
    assert not report.ok
    assert "minimum squares have 2" in report.reason


def test_hr_structure_rejects_merged_rows():
    square = KPartialSquare.from_cells(2, 1, {(0, 0): (0,), (0, 1): (1,)})
    report = verify_hr_structure(square)
    assert not report.ok
    assert "blocks" in report.reason
    assert report.block_orders is None and report.canonical is None


def test_hr_structure_requires_one_layer():
    with pytest.raises(SquareError):
        verify_hr_structure(min_mopls(9))


# -- structure of minimum two-layer squares ----------------------------------------


@pytest.mark.parametrize(
    "n, orders",
    [(21, (7, 7, 7)), (22, (7, 7, 8)), (23, (7, 8, 8)), (24, (8, 8, 8))],
)
def test_min_structure_case_table(n, orders):
    report = verify_min_structure(min_mopls(n))
    assert report.ok
    assert report.block_orders == orders
    assert report.note is None


def test_min_structure_on_transcribed_square(golden):
    report = verify_min_structure(golden["mopls_9"])
    assert report.ok and report.block_orders == (3, 3, 3)
    assert "not guaranteed" in report.note


def test_min_structure_notes_small_orders():
    report = verify_min_structure(min_mopls(9))
    assert report.ok and "n=9 < 21" in report.note


def test_min_structure_accepts_order_two_diagonal():
    square = KPartialSquare.from_cells(2, 2, {(0, 0): (0, 0), (1, 1): (1, 1)})
    report = verify_min_structure(square)
    assert report.ok and report.block_orders == (1, 1)


def test_min_structure_is_relabel_invariant():
    square = min_mopls(22)
    rng = Random(22)
    for _ in range(5):
        perms = []
        for _ in range(4):
            p = list(range(22))
            rng.shuffle(p)
            perms.append(tuple(p))
        shuffled = square.relabel(perms[0], perms[1], [perms[2], perms[3]])
        report = verify_min_structure(shuffled)
        assert report.ok and report.block_orders == (7, 7, 8)


@pytest.mark.parametrize("square", [min_mpls(7), min_mopls(9), min_mopls(22)], ids=["mpls-7", "mopls-9", "mopls-22"])
def test_structure_canonical_form_keeps_every_cell_in_its_blocks(square):
    verifier = verify_hr_structure if square.k == 1 else verify_min_structure
    report = verifier(square)
    assert report.ok
    assert report.canonical.filled_count == sum(m * m for m in report.block_orders) == square.filled_count


def test_min_structure_rejects_merged_symbol_classes():
    # three complete orthogonal blocks, but the middle one reuses the first
    # block's layer-0 symbols, so their row classes collapse together
    cells = {}

    def put_block(offset, s0, s1):
        for i in range(3):
            for j in range(3):
                cells[(offset + i, offset + j)] = (s0 + (i + j) % 3, s1 + (i + 2 * j) % 3)

    put_block(0, 0, 0)
    put_block(3, 0, 3)
    put_block(6, 6, 6)
    square = KPartialSquare.from_cells(9, 2, cells)
    report = verify_min_structure(square)
    assert not report.ok
    assert "expected 3 blocks" in report.reason


def test_min_structure_rejects_wrong_fill():
    report = verify_min_structure(k_ols(2, 3))
    assert not report.ok
    assert "minimum squares have 3" in report.reason


def test_min_structure_requires_two_layers():
    with pytest.raises(SquareError):
        verify_min_structure(min_mpls(6))


# -- every reachable structure failure, pinned to its exact reason ------------------


def _orders_one_one_five():
    # blocks of orders 1, 1 and 5 on seven of the nine rows: F = 27 = ceil(81 / 3)
    cells = {(0, 0): (0, 0), (1, 1): (1, 1)}
    for (r, c), entries in k_ols(2, 5).cells.items():
        cells[(r + 2, c + 2)] = tuple(e + 2 for e in entries)
    return KPartialSquare.from_cells(9, 2, cells)


STRUCTURE_FAILURES = {
    "fill-hr": (
        verify_hr_structure, k_ols(1, 2),
        "filled=4, minimum squares have 2",
    ),
    "fill-min": (
        verify_min_structure, k_ols(2, 3),
        "filled=9, minimum squares have 3",
    ),
    "block-count": (
        verify_hr_structure, KPartialSquare.from_cells(2, 1, {(0, 0): (1,), (1, 1): (1,)}),
        "expected 2 blocks, found 1 row classes",
    ),
    "block-touches": (
        verify_hr_structure,
        KPartialSquare.from_cells(
            3, 1, {(0, 0): (0,), (0, 1): (2,), (1, 0): (2,), (1, 2): (0,), (2, 0): (1,)}
        ),
        "block with rows [0, 1] touches 3 cols and [2] symbols per layer, expected 2 each",
    ),
    "block-cell-count": (
        verify_hr_structure,
        KPartialSquare.from_cells(4, 1, {
            (0, 0): (3,), (0, 1): (0,), (0, 2): (1,), (1, 0): (2,),
            (2, 0): (0,), (2, 2): (3,), (3, 1): (1,), (3, 2): (0,),
        }),
        "block with rows [0, 2, 3] has 7 filled cells, expected 9",
    ),
    "orders": (
        verify_min_structure, _orders_one_one_five(),
        "block orders (1, 1, 5) do not match expected (3, 3, 3)",
    ),
    "column-overlap": (
        verify_min_structure,
        KPartialSquare.from_cells(3, 2, {(0, 0): (0, 0), (1, 0): (1, 1), (2, 2): (2, 2)}),
        "blocks overlap in columns or symbols",
    ),
}


@pytest.mark.parametrize("case", list(STRUCTURE_FAILURES), ids=list(STRUCTURE_FAILURES))
def test_structure_failure_reasons_are_pinned(case):
    verifier, square, reason = STRUCTURE_FAILURES[case]
    report = verifier(square)
    assert not report.ok
    assert report.reason == reason
    small_order_note = f"n={square.n} < 21: minimality of fill ceil(n^2/3) is not guaranteed at this order"
    assert report.note == (small_order_note if verifier is verify_min_structure else None)
    assert report.n == square.n and report.k == square.k
    assert report.block_orders is report.row_perm is report.col_perm is None
    assert report.layer_perms is report.canonical is None


def _move_cell(cells, n):
    # the first block's corner cell moves to the same row, in the last block's columns
    cells[(0, n - 1)] = cells.pop((0, 0))


def _move_symbol(cells, n):
    # the first block's corner cell takes a last-layer symbol of the last block
    cells[(0, 0)] = cells[(0, 0)][:-1] + (n - 1,)


@pytest.mark.parametrize("edit", [_move_cell, _move_symbol], ids=["cell", "symbol"])
@pytest.mark.parametrize(
    "verifier, square", [(verify_hr_structure, min_mpls(7)), (verify_min_structure, min_mopls(22))], ids=["hr", "min"]
)
def test_structure_recheck_catches_a_canonical_form_off_its_blocks(monkeypatch, edit, verifier, square):
    # a relabeling that puts one cell or one symbol across the blocks fails the
    # recheck of the canonical square the report prints
    relabel = KPartialSquare.relabel

    def misplaced(self, *perms):
        cells = dict(relabel(self, *perms).cells)
        edit(cells, self.n)
        return KPartialSquare(self.n, self.k, cells)

    monkeypatch.setattr(KPartialSquare, "relabel", misplaced)
    report = verifier(square)
    assert not report.ok
    assert report.reason == "canonical form fails the diagonal block recheck"
    assert report.block_orders is report.row_perm is report.col_perm is None
    assert report.layer_perms is report.canonical is None


# -- the index reads against their per-cell oracles ----------------------------------


def _shuffled(square, seed):
    """``square`` under seeded permutations of every coordinate's values and of
    the coordinates themselves, rebuilt from its words."""
    rng = Random(seed)
    width = square.k + 2
    perms = [rng.sample(range(square.n), square.n) for _ in range(width)]
    order = rng.sample(range(width), width)
    words = [[perms[p][x] for p, x in enumerate(w)] for w in square.words()]
    return KPartialSquare.from_words(square.n, square.k, [[w[p] for p in order] for w in words])


def _random_maximal(k):
    return [
        maximalize(KPartialSquare.empty(n, k), policy="random", seed=seed) for n in range(2, 9) for seed in range(3)
    ]


def _every_family_first(square):
    """The conjugates of ``square`` by the transpositions that move its
    least-frequent family to each family in turn."""
    fam = oracle_min_frequency(square)[0]
    for target in range(square.k + 2):
        order = list(range(square.k + 2))
        order[fam], order[target] = order[target], order[fam]
        yield square.conjugate(tuple(order))


def _classes(square):
    return [set(bits_above(rows, -1)) for rows, _ in verify._row_classes(square.projections().table, square.k)]


def _check_structure(verifier, square):
    report = verifier(square)
    plan = (mpls_plan if verifier is verify_hr_structure else mopls_plan)(square.n)
    assert report == oracle_block_structure(square, plan, report.note)
    assert _classes(square) == oracle_row_classes(square)


@pytest.mark.parametrize("n", [9, 10, 12, 15, 21, 30])
def test_index_reads_match_the_oracles_on_relabeled_minimum_squares(n):
    for seed in range(2):
        square = _shuffled(min_mopls(n), seed)
        assert locate_min_frequency(square) == oracle_min_frequency(square)
        assert verify_bound(square) == oracle_bound(square)
        _check_structure(verify_min_structure, square)


def test_index_reads_match_the_oracles_with_the_least_frequency_in_every_family():
    families = set()
    for square in _random_maximal(2):
        for conj in _every_family_first(square):
            families.add(locate_min_frequency(conj)[0])
            assert locate_min_frequency(conj) == oracle_min_frequency(conj)
            assert verify_bound(conj) == oracle_bound(conj)
            _check_structure(verify_min_structure, conj)
    assert families == {0, 1, 2, 3}


@pytest.mark.parametrize("case", list(STRUCTURE_FAILURES), ids=list(STRUCTURE_FAILURES))
def test_structure_failures_match_the_oracle(case):
    verifier, square, _ = STRUCTURE_FAILURES[case]
    _check_structure(verifier, square)


def test_one_layer_structure_matches_the_oracle():
    squares = [_shuffled(min_mpls(n), seed) for n in (1, 2, 5, 6, 7, 10) for seed in range(2)]
    for square in squares + [conj for sq in _random_maximal(1) for conj in _every_family_first(sq)]:
        _check_structure(verify_hr_structure, square)


@given(partial_squares(ks=(1, 2, 3)), st.data())
def test_transversal_in_any_plane_is_that_of_the_conjugate(square, data):
    n, width = square.n, square.k + 2
    p, q = data.draw(st.permutations(range(width)))[:2]
    d = data.draw(st.integers(0, n))
    rows = data.draw(st.permutations(range(n)))[:d]
    cols = data.draw(st.permutations(range(n)))[:d]
    conj = square.conjugate((p, q, *(x for x in range(width) if x not in (p, q))))
    report = max_empty_transversal(square, rows, cols, (p, q))
    assert report == max_empty_transversal(conj, rows, cols)
    assert report.size == oracle_max_empty_transversal(conj, rows, cols)
    # the masks the matcher is given are the empty cells of the region, by position
    masks = [sum(1 << j for j, c in enumerate(cols) if not conj.is_filled((r, c))) for r in rows]
    assert report.matching == tuple(
        (rows[u], cols[v]) for u, v in enumerate(verify._max_matching(masks, d)[0]) if v != -1
    )


def test_transversal_rejects_bad_planes():
    square = KPartialSquare.empty(4, 2)
    for coords in ((1, 1), (0, 4), (-1, 1)):
        with pytest.raises(ValueError, match="coords must be two distinct coordinates in 0..3"):
            max_empty_transversal(square, [0], [0], coords)


@given(partial_squares(), st.data())
def test_forced_fill_matches_the_oracle_on_any_transversal(square, data):
    n = square.n
    d = data.draw(st.integers(0, n))
    rows = data.draw(st.permutations(range(n)))[:d]
    cols = data.draw(st.permutations(range(n)))[:d]
    report = max_empty_transversal(square, rows, cols)
    assert check_lemma2(square, rows, cols) == oracle_lemma2(square, report)
    if report.size:
        # one matched cell fewer leaves an empty cell in the residual block
        short = replace(report, size=report.size - 1, matching=report.matching[:-1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "max_empty_transversal", lambda *args: short)
            got = check_lemma2(square, rows, cols)
        assert got == oracle_lemma2(square, short)
        assert not got.residual_filled and not got.ok
