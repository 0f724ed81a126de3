import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mopls import KPartialSquare, SelfCheckError, SquareError, find_extension, is_maximal, maximalize
from mopls import core, maximality
from mopls.construct import k_mopls_diagonal, min_mopls
from mopls.formats import load_square
from mopls.verify import lower_bound, verify_bound

from conftest import (
    DATA,
    maximal_squares_with_holes,
    oracle_candidates,
    oracle_find_extension,
    oracle_is_maximal,
    oracle_maximalize,
    oracle_valid,
    partial_squares,
    raw_squares,
)


def _witness(square):
    found = find_extension(square)
    return None if found is None else (found.cell, found.entries)


@given(partial_squares(max_n=5))
def test_is_maximal_matches_brute_force(square):
    assert is_maximal(square) == oracle_is_maximal(square)


@given(st.one_of(maximal_squares_with_holes(), partial_squares(max_n=6, ks=(1, 2, 3, 4))))
def test_find_extension_matches_the_per_cell_reference(square):
    assert _witness(square) == oracle_find_extension(square)


@pytest.mark.parametrize("words", [1, 7, 40])
@given(square=maximal_squares_with_holes(max_n=7))
def test_find_extension_does_not_depend_on_the_block_size(words, square):
    # with a budget this small a block holds one to a few cells, so every
    # block boundary falls inside the square
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maximality, "_FRONTIER_WORDS", words)
        assert _witness(square) == oracle_find_extension(square)


@pytest.mark.parametrize("blocks", [(20, 21, 23), (21, 21, 23), (23, 23, 24)], ids=["64", "65", "70"])
def test_find_extension_matches_the_reference_across_mask_words(blocks):
    # order 64 fills one 64-bit mask word exactly; 65 and 70 spill into a second
    square = k_mopls_diagonal(sum(blocks), 2, blocks)
    n = square.n
    cases = [square, KPartialSquare.empty(n, 2)]
    cases += [square.remove(cell) for cell in ((0, 0), (n // 2, n // 2), (n - 1, n - 1))]
    for case in cases:
        assert _witness(case) == oracle_find_extension(case)
    assert _witness(square) is None


def _shuffled(square, seed):
    """A seeded relabeling of ``square`` and a seeded coordinate conjugate of it."""
    rng = random.Random(seed)
    n, width = square.n, square.k + 2
    relabeled = square.relabel(*(rng.sample(range(n), n) for _ in range(2)),
                               [rng.sample(range(n), n) for _ in range(square.k)])
    return relabeled.conjugate(tuple(rng.sample(range(width), width)))


@pytest.mark.parametrize(
    "square",
    [min_mopls(30), k_mopls_diagonal(8, 1, (4, 4)), k_mopls_diagonal(16, 3, (4, 4, 4, 4)),
     k_mopls_diagonal(15, 4, (5, 5, 5))],
    ids=["min-mopls-30", "k1", "k3", "k4"],
)
def test_find_extension_matches_the_reference_on_shuffled_block_squares(square):
    # block-diagonal squares have the largest classes of cells with equal masks;
    # relabeling and conjugating scatter each class over the grid
    for seed in range(6):
        shuffled = _shuffled(square, seed)
        assert _witness(shuffled) is None
        holes = random.Random(seed).sample(sorted(shuffled.cells), 1 + seed % 3)
        holed = KPartialSquare(shuffled.n, shuffled.k, {
            cell: entries for cell, entries in shuffled.cells.items() if cell not in holes
        })
        assert _witness(holed) == oracle_find_extension(holed)


def test_find_extension_matches_the_reference_across_row_slabs():
    # at n = 300 a row slab holds 87 rows, so each class of equal cells spans
    # four slabs; a hole in the first block is the first extendable cell, here
    # the first cell of the second slab
    square = min_mopls(300)
    assert _witness(square) is None
    holed = square.remove((87, 0))
    assert _witness(holed) == oracle_find_extension(holed)
    assert _witness(holed)[0] == (87, 0)


@pytest.mark.parametrize("n, k", [(300, 3), (300, 4), (2000, 2)])
def test_find_extension_memory_stays_bounded_at_large_orders(n, k):
    # one cell of an empty square expands to n ** (k - 1) frontier rows and
    # admits n ** k tuples: the scan must slice the one and stop at the
    # first of the other
    square = KPartialSquare.empty(n, k)
    tracemalloc.start()
    try:
        witness = _witness(square)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == ((0, 0), (0,) * k)
    assert peak < 64 * 2**20


def test_find_extension_matches_the_reference_on_every_conjugate():
    square = min_mopls(9)
    for order in permutations(range(4)):
        conjugate = square.conjugate(order)
        assert _witness(conjugate) is None
        for cell in (min(conjugate.cells), max(conjugate.cells)):
            holed = conjugate.remove(cell)
            assert _witness(holed) == oracle_find_extension(holed)


def test_find_extension_returns_first_row_major_lex_least():
    # (0, 0) filled; the first extendable cell in row-major order is (0, 1)
    sq = KPartialSquare.empty(2, 2).insert((0, 0), (0, 0))
    witness = find_extension(sq)
    assert witness is not None
    assert witness.cell == (0, 1)
    assert witness.entries == oracle_candidates(sq, (0, 1))[0]


def test_a_loaded_square_builds_its_index_once(monkeypatch):
    built = []
    build = core.Projections.__init__

    def counted(self, *args):
        built.append(args[:2])
        build(self, *args)

    monkeypatch.setattr(core.Projections, "__init__", counted)
    square = load_square(DATA / "mopls_9.txt")
    assert find_extension(square) is None and is_maximal(square)
    assert verify_bound(square).ok
    assert built == [(9, 4)]


@given(st.one_of(raw_squares(), raw_squares(in_range=False)))
def test_find_extension_on_an_unchecked_invalid_square_raises_its_first_violation(square):
    if square.validate().ok:
        return
    with pytest.raises(SquareError) as caught:
        find_extension(square)
    with pytest.raises(SquareError) as loaded:
        KPartialSquare.from_cells(square.n, square.k, square.cells)
    assert (type(caught.value), str(caught.value)) == (type(loaded.value), str(loaded.value))


def test_find_extension_none_when_maximal(golden):
    for square in golden.values():
        assert find_extension(square) is None
        assert is_maximal(square)


def test_order_two_diagonal_pair_is_maximal():
    # at (0, 1) the row forces entries (1, 1), but (1, 1) already appears
    # at cell (1, 1); symmetrically for (1, 0), so two cells suffice
    sq = KPartialSquare.from_cells(2, 2, {(0, 0): (0, 0), (1, 1): (1, 1)})
    assert oracle_candidates(sq, (0, 1)) == []
    assert oracle_candidates(sq, (1, 0)) == []
    assert is_maximal(sq)
    assert not is_maximal(sq.remove((1, 1)))


@given(partial_squares(max_n=6))
def test_maximalize_output_is_maximal_and_contains_input(square):
    out = maximalize(square)
    assert oracle_valid(out)
    assert is_maximal(out)
    for cell, entries in square.cells.items():
        assert out.entries_at(cell) == entries
    if square.k == 2:
        assert out.filled_count >= lower_bound(square.n)


@given(partial_squares(max_n=5))
def test_maximalize_lex_is_deterministic(square):
    assert maximalize(square) == maximalize(square)


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
def test_maximalize_random_is_seed_reproducible(n, seed):
    empty = KPartialSquare.empty(n, 2)
    a = maximalize(empty, policy="random", seed=seed)
    b = maximalize(empty, policy="random", seed=seed)
    assert a == b
    assert is_maximal(a)


@given(
    st.one_of(
        st.builds(KPartialSquare.empty, st.integers(1, 9), st.integers(1, 4)),
        partial_squares(max_n=7, ks=(1, 2, 3, 4)),
        maximal_squares_with_holes(),
    ),
    st.sampled_from(["lex", "random"]),
    st.integers(0, 2**32 - 1),
)
def test_maximalize_matches_the_listing_reference(square, policy, seed):
    assert maximalize(square, policy, seed).cells == oracle_maximalize(square, policy, seed).cells


@given(st.one_of(partial_squares(max_n=6, ks=(1, 2, 3, 4)), maximal_squares_with_holes(max_n=6)))
def test_every_rank_names_the_candidate_of_that_rank(square):
    table = square.projections().table
    for cell in square.empty_cells():
        listed = oracle_candidates(square, cell)
        masks = maximality._allowed(table, square.n, square.k, cell)
        count = maximality._count(table, masks, 0)
        assert count == len(listed)
        assert [maximality._tuple_of_rank(table, masks, rank) for rank in range(count + 1)] == listed + [None]


def test_maximalize_checks_its_fill_explicitly(monkeypatch):
    # lex takes each cell's first candidate, random counts them
    monkeypatch.setattr(maximality, "_tuple_of_rank", lambda *args: None)
    monkeypatch.setattr(maximality, "_count", lambda *args: 0)
    for policy in ("lex", "random"):
        with pytest.raises(SelfCheckError, match="below the bound"):
            maximalize(KPartialSquare.empty(3, 2), policy, seed=1)


def test_find_extension_checks_its_witness_tuple(monkeypatch):
    monkeypatch.setattr(maximality, "_tuple_of_rank", lambda *args: None)
    with pytest.raises(SelfCheckError, match=r"found cell \(0, 0\) extendable, but it admits no tuple"):
        find_extension(KPartialSquare.empty(3, 2))


def test_maximalize_rejects_unknown_policy():
    with pytest.raises(ValueError):
        maximalize(KPartialSquare.empty(3, 2), policy="mystery")


def test_maximal_squares_stay_maximal_after_relabel(golden):
    square = golden["mopls_9"]
    relabeled = square.relabel(
        (4, 3, 8, 0, 2, 7, 1, 6, 5),
        (2, 0, 1, 5, 8, 7, 6, 4, 3),
        ((1, 0, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 8, 7, 6)),
    )
    assert is_maximal(relabeled)
