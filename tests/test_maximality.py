import pytest
from hypothesis import given
from hypothesis import strategies as st

from mopls import KPartialSquare, SquareError, find_extension, is_maximal, maximalize
from mopls.maximality import candidate_tuples
from mopls.verify import lower_bound

from conftest import (
    oracle_candidates,
    oracle_is_maximal,
    oracle_valid,
    partial_squares,
    square_with_empty_cell,
)


@given(square_with_empty_cell(max_n=5))
def test_candidate_tuples_match_brute_force(pair):
    square, cell = pair
    assert sorted(candidate_tuples(square, cell)) == sorted(
        oracle_candidates(square, cell)
    )


def test_candidate_tuples_rejects_filled_cell():
    sq = KPartialSquare.empty(3, 2).insert((0, 0), (0, 0))
    with pytest.raises(SquareError):
        candidate_tuples(sq, (0, 0))


@given(partial_squares(max_n=5))
def test_is_maximal_matches_brute_force(square):
    assert is_maximal(square) == oracle_is_maximal(square)


def test_find_extension_returns_first_row_major_lex_least():
    # (0, 0) filled; the first extendable cell in row-major order is (0, 1)
    sq = KPartialSquare.empty(2, 2).insert((0, 0), (0, 0))
    witness = find_extension(sq)
    assert witness is not None
    assert witness.cell == (0, 1)
    assert witness.entries == min(candidate_tuples(sq, (0, 1)))


def test_find_extension_none_when_maximal(golden):
    for square in golden.values():
        assert find_extension(square) is None
        assert is_maximal(square)


def test_order_two_diagonal_pair_is_maximal():
    # at (0, 1) the row forces entries (1, 1), but (1, 1) already appears
    # at cell (1, 1); symmetrically for (1, 0), so two cells suffice
    sq = KPartialSquare.from_cells(2, 2, {(0, 0): (0, 0), (1, 1): (1, 1)})
    assert candidate_tuples(sq, (0, 1)) == []
    assert candidate_tuples(sq, (1, 0)) == []
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
