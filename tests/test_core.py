import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mopls import (
    CellOccupiedError,
    KPartialSquare,
    LatinConflictError,
    OrthogonalityConflictError,
    SquareError,
    Violation,
)
from mopls import core
from mopls.core import Projections, agreement_positions
from mopls.maximality import maximalize
from mopls.verify import locate_min_frequency

from conftest import (
    clashing_squares,
    oracle_candidates,
    oracle_projection_table,
    oracle_valid,
    oracle_violations,
    partial_squares,
    raw_squares,
    sparse_squares,
    square_with_empty_cell,
)


def test_empty_square():
    sq = KPartialSquare.empty(4, 2)
    assert sq.n == 4 and sq.k == 2
    assert sq.filled_count == 0
    assert list(sq.empty_cells()) == [(r, c) for r in range(4) for c in range(4)]
    assert sq.words() == ()


def test_rejects_bad_dimensions():
    with pytest.raises(SquareError):
        KPartialSquare.empty(0, 2)
    with pytest.raises(SquareError):
        KPartialSquare.empty(3, 0)


def test_agreement_positions():
    assert agreement_positions((0, 1, 2, 3), (0, 2, 2, 0)) == (0, 2)
    assert agreement_positions((1, 2), (2, 1)) == ()


def test_insert_and_remove_are_value_like():
    sq = KPartialSquare.empty(3, 2)
    sq2 = sq.insert((0, 0), (0, 0))
    assert sq.filled_count == 0, "insert must not mutate the receiver"
    assert sq2.filled_count == 1
    assert sq2.entries_at((0, 0)) == (0, 0)
    sq3 = sq2.remove((0, 0))
    assert sq3 == sq
    assert sq2.filled_count == 1


def test_insert_occupied_cell():
    sq = KPartialSquare.empty(3, 2).insert((1, 1), (0, 1))
    with pytest.raises(CellOccupiedError):
        sq.insert((1, 1), (2, 2))


def test_insert_out_of_range():
    sq = KPartialSquare.empty(3, 2)
    with pytest.raises(SquareError):
        sq.insert((3, 0), (0, 0))
    with pytest.raises(SquareError):
        sq.insert((0, 0), (0, 3))
    with pytest.raises(SquareError):
        sq.insert((0, 0), (0,))


@pytest.mark.parametrize(
    "cell, entries",
    [((1.7, 0.2), (2.9, 0)), ((1, 0), (2.0, 0)), (("1", 0), (0, 0)), ((1, 0), ("2", 0))],
    ids=["float-cell", "float-entry", "str-cell", "str-entry"],
)
def test_insert_rejects_non_integer_cells_and_entries(cell, entries):
    """Nothing is truncated or parsed: the value reaches validation as given."""
    with pytest.raises(SquareError, match="out of range"):
        KPartialSquare.empty(3, 2).insert(cell, entries)
    with pytest.raises(SquareError, match="out of range"):
        KPartialSquare.from_cells(3, 2, {cell: entries})


def test_insert_latin_conflicts_classified():
    sq = KPartialSquare.empty(3, 2).insert((0, 0), (0, 0))
    with pytest.raises(LatinConflictError):
        sq.insert((0, 1), (0, 1))  # repeats first-layer symbol in row 0
    with pytest.raises(LatinConflictError):
        sq.insert((1, 0), (1, 0))  # repeats second-layer symbol in col 0


@pytest.mark.parametrize(
    "k, cells, message",
    [
        (2, {(0, 0): (0, 5), (0, 1): (0, 6)}, "row 0: layer 1 repeats symbol 0 in cells (0, 0) and (0, 1)"),
        (2, {(0, 0): (5, 0), (0, 1): (6, 0)}, "row 0: layer 2 repeats symbol 0 in cells (0, 0) and (0, 1)"),
        (2, {(0, 3): (4, 1), (2, 3): (4, 7)}, "column 3: layer 1 repeats symbol 4 in cells (0, 3) and (2, 3)"),
        (2, {(0, 3): (1, 4), (2, 3): (7, 4)}, "column 3: layer 2 repeats symbol 4 in cells (0, 3) and (2, 3)"),
        (3, {(0, 3): (1, 2, 8), (2, 3): (4, 5, 8)}, "column 3: layer 3 repeats symbol 8 in cells (0, 3) and (2, 3)"),
        # two layers repeat: the message names the first and its symbol
        (3, {(1, 0): (2, 7, 5), (1, 4): (3, 7, 5)}, "row 1: layer 2 repeats symbol 7 in cells (1, 0) and (1, 4)"),
    ],
)
def test_latin_conflict_names_the_repeating_layer_and_symbol(k, cells, message):
    with pytest.raises(LatinConflictError) as caught:
        KPartialSquare.from_cells(9, k, cells)
    assert str(caught.value) == message


def test_numpy_integer_values_validate_as_ints():
    # 1 << np.int64(66) is 0, so unconverted values would index nothing
    row0, row1 = ((r, np.int64(65)) for r in (0, 1))
    entries = (np.int64(66),)
    clash = "column 65: layer 1 repeats symbol 66"
    with pytest.raises(LatinConflictError, match=clash):
        KPartialSquare.from_cells(70, 1, {row0: entries, row1: entries})
    first = KPartialSquare.empty(70, 1).insert(row0, entries)
    with pytest.raises(LatinConflictError, match=clash):
        first.insert(row1, entries)


def test_insert_orthogonality_conflict_classified():
    sq = KPartialSquare.empty(3, 2).insert((0, 0), (0, 0))
    # different row, column, and per-layer symbols, but the pair repeats
    with pytest.raises(OrthogonalityConflictError):
        sq.insert((1, 1), (0, 0))


def test_single_layer_has_no_orthogonality_conflicts():
    sq = KPartialSquare.empty(3, 1).insert((0, 0), (0,))
    sq = sq.insert((1, 1), (0,))  # same symbol, different row/col: fine for k=1
    assert sq.filled_count == 2


def test_from_cells_round_trip():
    cells = {(0, 0): (0, 0), (1, 1): (1, 2), (2, 2): (2, 1)}
    sq = KPartialSquare.from_cells(3, 2, cells)
    assert dict(sq.cells) == cells
    assert sq == KPartialSquare.from_words(3, 2, sq.words())


def test_from_cells_rejects_invalid():
    with pytest.raises(SquareError):
        KPartialSquare.from_cells(3, 2, {(0, 0): (0, 0), (0, 1): (0, 1)})


def test_words_sorted():
    sq = KPartialSquare.from_cells(3, 2, {(1, 0): (2, 1), (0, 1): (1, 2)})
    assert sq.words() == ((0, 1, 1, 2), (1, 0, 2, 1))


def test_equality_and_hash():
    a = KPartialSquare.from_cells(3, 2, {(0, 0): (0, 0)})
    b = KPartialSquare.empty(3, 2).insert((0, 0), (0, 0))
    assert a == b and hash(a) == hash(b)
    assert a != KPartialSquare.empty(3, 2)
    assert a != KPartialSquare.from_cells(4, 2, {(0, 0): (0, 0)})


@given(partial_squares())
def test_generated_squares_valid_by_definition(square):
    assert oracle_valid(square)
    report = square.validate()
    assert report.ok and not report.violations


def test_from_words_rejects_pairwise_agreement_above_one():
    # same row and same first-layer symbol: agreement in two coordinates
    with pytest.raises(LatinConflictError):
        KPartialSquare.from_words(3, 2, [(0, 0, 0, 0), (0, 1, 0, 1)])
    # distinct rows/cols/symbols per layer, but the entry pair repeats
    with pytest.raises(OrthogonalityConflictError):
        KPartialSquare.from_words(3, 2, [(0, 0, 0, 0), (1, 1, 0, 0)])


def test_from_words_rejects_duplicate_cell():
    with pytest.raises(SquareError):
        KPartialSquare.from_words(3, 1, [(0, 0, 0), (0, 0, 1)])


@given(square_with_empty_cell(max_n=5))
def test_insert_never_accepts_oracle_invalid(pair):
    square, cell = pair
    import itertools

    from conftest import oracle_candidates

    allowed = set(oracle_candidates(square, cell))
    for entries in itertools.product(range(square.n), repeat=square.k):
        if entries in allowed:
            inserted = square.insert(cell, entries)
            assert oracle_valid(inserted)
        else:
            with pytest.raises(SquareError):
                square.insert(cell, entries)


@given(partial_squares(max_n=5), st.integers(0, 10**6))
def test_relabel_preserves_validity_and_fill(square, seed):
    import random

    rng = random.Random(seed)
    n, k = square.n, square.k
    row_perm = list(range(n))
    col_perm = list(range(n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    layer_perms = []
    for _ in range(k):
        p = list(range(n))
        rng.shuffle(p)
        layer_perms.append(tuple(p))
    out = square.relabel(tuple(row_perm), tuple(col_perm), tuple(layer_perms))
    assert out.filled_count == square.filled_count
    assert oracle_valid(out)
    for (r, c), entries in square.cells.items():
        moved = out.entries_at((row_perm[r], col_perm[c]))
        assert moved == tuple(layer_perms[i][e] for i, e in enumerate(entries))


def test_relabel_rejects_non_permutation():
    sq = KPartialSquare.empty(3, 1)
    with pytest.raises(SquareError):
        sq.relabel((0, 0, 1), (0, 1, 2), ((0, 1, 2),))
    # whole floats sort like a permutation, but would become the cells' values
    with pytest.raises(SquareError, match=r"\(0\.0, 1\.0, 2\.0\) is not a permutation of 0\.\.2"):
        sq.relabel((0.0, 1.0, 2.0))
    with pytest.raises(SquareError, match="is not a permutation"):
        sq.relabel(None, None, ((0.0, 1.0, 2.0),))


@given(partial_squares(max_n=5, ks=(1, 2)))
def test_conjugate_swap_layers_involution(square):
    if square.k != 2:
        return
    order = (0, 1, 3, 2)  # swap the two layers
    swapped = square.conjugate(order)
    assert oracle_valid(swapped)
    assert swapped.conjugate(order) == square
    for (r, c), (e1, e2) in square.cells.items():
        assert swapped.entries_at((r, c)) == (e2, e1)


@given(partial_squares(max_n=5, ks=(2,)))
def test_conjugate_row_layer_swap_preserves_word_multiset(square):
    order = (2, 1, 0, 3)  # first layer becomes the row coordinate
    try:
        out = square.conjugate(order)
    except SquareError:
        # collision can only happen if two words agree in the new (row, col),
        # which the word condition forbids, so this must never trigger
        raise AssertionError("conjugation collided on a valid square")
    assert {tuple(w[order[i]] for i in range(4)) for w in square.words()} == set(
        out.words()
    )


def test_conjugate_rejects_bad_order():
    sq = KPartialSquare.empty(3, 2)
    with pytest.raises(SquareError):
        sq.conjugate((0, 1, 2))
    with pytest.raises(SquareError):
        sq.conjugate((0, 0, 2, 3))
    with pytest.raises(SquareError, match=r"coord_order must permute 0..3, got \(1\.0, 0, 2, 3\)"):
        sq.conjugate((1.0, 0, 2, 3))


@given(partial_squares(max_n=6))
def test_frequencies_recount(square):
    prof = square.frequencies()
    n, k = square.n, square.k
    rows = [0] * n
    cols = [0] * n
    layers = [[0] * n for _ in range(k)]
    for (r, c), entries in square.cells.items():
        rows[r] += 1
        cols[c] += 1
        for i, e in enumerate(entries):
            layers[i][e] += 1
    assert list(prof.row_counts) == rows
    assert list(prof.col_counts) == cols
    assert [list(x) for x in prof.layer_counts] == layers
    assert prof.filled == square.filled_count
    everything = rows + cols + [x for layer in layers for x in layer]
    assert locate_min_frequency(square)[2] == min(everything)


def test_repr_mentions_shape():
    sq = KPartialSquare.empty(5, 3)
    assert "5" in repr(sq) and "3" in repr(sq)


def test_validate_names_offending_cells():
    # raw constructor skips checks, so validate can see the conflicts
    row_clash = KPartialSquare(3, 2, {(0, 0): (0, 0), (0, 1): (0, 1)})
    report = row_clash.validate()
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind == "latin-row"
    assert set(violation.cells) == {(0, 0), (0, 1)}
    assert violation.coords == (0, 2)

    pair_clash = KPartialSquare(3, 2, {(0, 0): (0, 0), (1, 1): (0, 0)})
    violation = pair_clash.validate().violations[0]
    assert violation.kind == "orthogonality"
    assert violation.coords == (2, 3)

    out_of_range = KPartialSquare(2, 1, {(0, 0): (5,)})
    violation = out_of_range.validate().violations[0]
    assert violation.kind == "range"
    assert violation.cells == ((0, 0),)


@pytest.mark.parametrize(
    "cells",
    [{(0, 0): (1.0,)}, {(0.0, 1): (2,)}, {(0, 0): (0,), (1, 1): (2.5,)}, {("a", 0): (0,), (0, 0): (1,)},
     {(0, 0): 5}, {5: (0,)}],
)
def test_non_integer_values_are_range_violations(cells):
    report = KPartialSquare(3, 1, cells).validate()
    assert [v.kind for v in report.violations] == ["range"]
    with pytest.raises(SquareError) as caught:
        KPartialSquare.from_cells(3, 1, cells)
    assert type(caught.value) is SquareError


@pytest.mark.parametrize(
    "cells, kinds",
    [({(0, 0): 5}, ["range"]),
     # the unsortable cell is reported and skipped; (0, 0) and (0, 1) still clash
     ({("a", 0): (1,), (0, 0): (1,), (0, 1): (1,)}, ["range", "latin-row"])],
    ids=["entries-not-a-sequence", "non-numeric-row-beside-a-clash"],
)
def test_validate_reports_unsortable_cells_without_raising(cells, kinds):
    assert [v.kind for v in KPartialSquare(3, 1, cells).validate().violations] == kinds


@given(st.one_of(partial_squares(), raw_squares(), raw_squares(in_range=False), clashing_squares(), sparse_squares()))
# the last word agrees in two coordinates with each of the three before it,
# and symbol 66 lies in the second limb of a 64-bit mask
@example(KPartialSquare(70, 2, {(0, 5): (1, 66), (1, 0): (2, 66), (2, 5): (2, 3), (3, 5): (2, 66)}))
# at n = 2000 the fill scatters in two slices of pairs, and only the second
# slice's pair (2, 3) holds the clash
@example(KPartialSquare(2000, 2, {(0, 5): (1, 1999), (1, 6): (1, 1999), (7, 7): (0, 0)}))
def test_validate_matches_the_pairwise_reference(square):
    report = square.validate()
    assert report.violations == oracle_violations(square)
    assert report.ok == (not report.violations)


@given(sparse_squares())
def test_validate_keeps_the_index_of_its_words(square):
    table = square.projections().table
    assert table == oracle_projection_table(square.words(), square.n, square.k + 2)


def _random_valid_square(n, k, seed):
    """Up to 60 random words kept while each agrees with every kept word in
    at most one coordinate, or, for small orders, a random maximal square."""
    rng = random.Random(seed)
    if n * n * k <= 65 * 65 * 2 and seed % 2:
        return maximalize(KPartialSquare.empty(n, k), policy="random", seed=seed)
    kept = []
    for _ in range(60):
        word = tuple(rng.randrange(n) for _ in range(k + 2))
        if all(sum(x == y for x, y in zip(word, other)) <= 1 for other in kept):
            kept.append(word)
    return KPartialSquare(n, k, {w[:2]: w[2:] for w in kept})


def _must_not_add(self, word):
    raise AssertionError("Projections.add called")


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_array_built_index_matches_its_definition(n, k):
    # n = 63, 64 and 65 sit at a mask's 64-bit limb edge, 129 spans three limbs
    for seed in range(4):
        square = _random_valid_square(n, k, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Projections, "add", _must_not_add)
            assert square.validate() == core.ValidationReport(ok=True, violations=())
        table = square.projections().table
        assert table == oracle_projection_table(square.words(), n, k + 2)


@pytest.mark.parametrize("n", [1, 9, 65, 130])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_plane_is_the_scatter_of_the_words(n, k):
    # n = 9 is no whole number of bytes, 65 and 130 span two and three limbs
    for square in (KPartialSquare.empty(n, k), *(_random_valid_square(n, k, seed) for seed in range(2))):
        words = np.array(square.words(), dtype=np.intp).reshape(-1, k + 2)
        index = square.projections()
        for a, b in permutations(range(k + 2), 2):
            scatter = np.zeros((n, n), dtype=bool)
            scatter[words[:, a], words[:, b]] = True
            plane = index.plane(a, b)
            assert plane.dtype == bool and np.array_equal(plane, scatter)
        for a, b in [(0, 0), (k + 1, k + 1), (-1, 1), (0, k + 2)]:
            with pytest.raises(ValueError, match="two distinct coordinates"):
                index.plane(a, b)


def test_a_fill_that_meets_a_clash_in_its_last_slice_records_nothing():
    words = np.array([(0, 1, 2, 3), (4, 4, 2, 3), (1, 0, 0, 0)])  # the first two share pair (2, 3) only
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_FILL_CELLS", 1)  # one coordinate pair a slice
        index = Projections(5, 4)
        assert not index.fill(words)
        assert index.table == Projections(5, 4).table
        assert index.fill(words[1:])
    assert index.table == oracle_projection_table(words[1:].tolist(), 5, 4)


@pytest.mark.parametrize("seed", [0, 2])
def test_the_index_of_an_order_2000_square_is_array_built(seed):
    # one (n, 64 * limbs) bool grid per pair is 4 MB here, so the fill scatters
    # its six coordinate pairs in more than one slice
    square = _random_valid_square(2000, 2, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Projections, "add", _must_not_add)
        assert square.validate().ok
    assert square.projections().table == oracle_projection_table(square.words(), 2000, 4)


@pytest.mark.parametrize(
    "k, cells",
    [
        (1, {}),
        (3, {}),
        (1, {(0, 0): (True,), (1, 1): (False,)}),
        (1, {(0, True): (1,), (1, 0): (True,)}),
        (2, {(np.int64(0), 0): (1, 2), (1, np.int32(1)): (np.uint8(2), 0)}),
        # numpy reads int64 beside uint64 as float64, so these take the per-cell pass
        (2, {(0, 0): (np.int64(1), np.uint64(2)), (1, 1): (0, 0)}),
    ],
    ids=["empty-k1", "empty-k3", "bool-entries", "bool-column", "numpy-ints", "numpy-ints-read-as-floats"],
)
def test_every_valid_map_is_indexed_by_one_fill(k, cells):
    square = KPartialSquare(3, k, cells)
    fill, calls = Projections.fill, []

    def counted_fill(self, words):
        calls.append(words.shape)
        return fill(self, words)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Projections, "add", _must_not_add)
        patch.setattr(Projections, "fill", counted_fill)
        assert square.validate().ok
    assert calls == [(len(cells), k + 2)]
    assert square.projections().table == oracle_projection_table(square.words(), 3, k + 2)


@pytest.mark.parametrize(
    "k, cells",
    [
        (1, {(0, 0): (True,), (1, 1): (False,)}),
        (1, {(0, True): (1,), (1, 0): (True,)}),  # (1, 0) and (0, 1) repeat symbol 1 in column 1
        (2, {(np.int64(0), 0): (1, 2), (1, np.int32(1)): (np.uint8(2), 0)}),
        (2, {(0, 0): (np.int64(1), 2), (0, 1): (np.int64(1), 0)}),
        (2, {(0, 0): (1, 3)}),
        (2, {(0, 0): (1, -1), (1, 1): (0, 0)}),
        (2, {(0, 0): (1, 2**70)}),
        (2, {(0, 0): (1,), (1, 1): (0, 0)}),
        (2, {(0, 0): (1, 2, 0), (1, 1): (0, 0)}),
        (2, {(0, 0): (1, 2), (0, 1): (1, 0)}),  # row 0 repeats symbol 1
        (2, {(0, 0): (1, 2), (1, 0): (0, 2)}),  # column 0 repeats symbol 2
        (2, {(0, 0): (1, 2), (1, 1): (1, 2), (2, 2): (0, 0)}),  # an orthogonal pair repeats
        (3, {(0, 0): (0, 1, 2), (1, 2): (1, 1, 2), (2, 1): (2, 1, 2)}),  # three words share one pair
    ],
)
def test_validate_reports_every_input_as_the_pairwise_reference(k, cells):
    square = KPartialSquare(3, k, cells)
    report = square.validate()
    assert report.violations == oracle_violations(square)
    assert report.ok == (not report.violations)
    if report.ok:
        assert square.projections().table == oracle_projection_table(square.words(), 3, k + 2)


@pytest.mark.parametrize(
    "cells",
    [{(0, 0): [1, 2], (1, 1): (0, 0)}, {(0, 0): (1.0, 2), (1, 1): (0, 0)}, {(0, 0, 0): (1, 2), (1, 1): (0, 0)}],
    ids=["entries-a-list", "a-float-entry", "a-three-tuple-cell"],
)
def test_validate_reports_a_non_integer_word_as_out_of_range(cells):
    first = next(iter(cells))
    assert KPartialSquare(3, 2, cells).validate().violations == (
        Violation("range", (first,), (), f"cell {first} -> {cells[first]} out of range"),
    )


@given(st.one_of(partial_squares(max_n=5), raw_squares()), st.data())
def test_insert_raises_the_class_of_the_first_reference_violation(square, data):
    empties = list(square.empty_cells())
    if not empties:
        return
    cell = data.draw(st.sampled_from(empties))
    entries = data.draw(st.tuples(*[st.integers(0, square.n - 1)] * square.k))
    merged = {**square.cells, cell: entries}
    reference = oracle_violations(KPartialSquare(square.n, square.k, merged))
    if not reference:
        assert dict(square.insert(cell, entries).cells) == merged
        return
    expected = {
        "latin-row": LatinConflictError,
        "latin-col": LatinConflictError,
        "orthogonality": OrthogonalityConflictError,
    }[reference[0].kind]
    with pytest.raises(SquareError) as caught:
        square.insert(cell, entries)
    assert type(caught.value) is expected
    with pytest.raises(SquareError) as loaded:
        KPartialSquare.from_cells(square.n, square.k, merged)
    assert str(caught.value) == str(loaded.value)


def _must_not_validate(self):
    raise AssertionError("validate called")


@given(square_with_empty_cell(max_n=5), st.data())
def test_insert_checks_only_the_new_word_against_the_kept_index(pair, data):
    square, cell = pair
    options = oracle_candidates(square, cell)
    if not options:
        return
    entries = data.draw(st.sampled_from(options))
    table = square.projections().table
    before = [[None if column is None else list(column) for column in row] for row in table]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KPartialSquare, "validate", _must_not_validate)
        child = square.insert(cell, entries)
        assert square.projections().table == before
        fresh = Projections(square.n, square.k + 2)
        for word in child.words():
            fresh.add(word)
        assert child.projections().table == fresh.table
