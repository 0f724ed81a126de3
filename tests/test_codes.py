"""Tests for the code view of squares and the distance/radius computations."""

import time
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_covering_radius,
    oracle_covering_radius_blocked,
    oracle_min_distance,
    partial_squares,
)
from mopls.codes import (
    Code,
    WORD_SPACE_LIMIT,
    check_code_equivalence,
    code_to_json,
    covering_radius,
    min_distance,
    to_code,
)
from mopls.construct import k_ols, min_mpls, min_mopls
from mopls.core import KPartialSquare
from mopls.maximality import is_maximal, maximalize

import json


# -- code construction ---------------------------------------------------------------


def test_to_code_reads_off_sorted_words():
    square = KPartialSquare.from_cells(3, 2, {(1, 0): (2, 1), (0, 1): (1, 2)})
    code = to_code(square)
    assert code.alphabet_size == 3
    assert code.length == 4
    assert code.words == ((0, 1, 1, 2), (1, 0, 2, 1))


def test_code_rejects_malformed_word_lists():
    with pytest.raises(ValueError):
        Code(3, 4, ((0, 1, 2),))
    with pytest.raises(ValueError):
        Code(3, 3, ((0, 1, 3),))
    with pytest.raises(ValueError):
        Code(3, 3, ((0, 1, 2), (0, 1, 2)))


@pytest.mark.parametrize(
    "alphabet, length, words, message",
    [
        (3, 3, ((0, 1, 2), (1, 2, 0), (0, 1)), "word (0, 1) has length 2, expected 3"),
        (3, 3, ((0, 1, 2), (2, 1, 3), (0, 1)), "word (2, 1, 3) outside alphabet of size 3"),
        (3, 3, ((0, 1, 2), (0, 1), (2, 1, 3)), "word (0, 1) has length 2, expected 3"),
        (3, 3, ((0, -1, 2), (1, 1, 1)), "word (0, -1, 2) outside alphabet of size 3"),
        (3, 2, ((0, 1), (0, 1, 2), (1, 1)), "word (0, 1, 2) has length 3, expected 2"),
        (3, 3, ((0, 1, 2), (1, 2, 0), (0, 1, 2)), "duplicate codewords"),
    ],
    ids=["short", "letter-before-length", "length-before-letter", "negative", "long", "duplicate"],
)
def test_code_names_the_first_malformed_word(alphabet, length, words, message):
    with pytest.raises(ValueError) as caught:
        Code(alphabet, length, words)
    assert str(caught.value) == message


# -- minimum distance ----------------------------------------------------------------


@given(partial_squares(min_n=2, max_n=6, ks=(1, 2, 3), allow_empty=False))
def test_min_distance_matches_brute_force(square):
    assume(square.filled_count >= 2)
    code = to_code(square)
    assert min_distance(code) == oracle_min_distance(code.words)


@st.composite
def codes_with_shared_pairs(draw):
    """Random codes over small or large alphabets whose letters mostly come
    from a pool of at most three values, so that words often agree in two
    or more coordinates and runs of several words share one value pair."""
    length = draw(st.integers(1, 6))
    alphabet = draw(st.sampled_from([2, 3, 7, 2**16 + 1, 2**40]))
    pool = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=3))
    letter = st.one_of(st.sampled_from(pool), st.integers(0, alphabet - 1))
    words = draw(st.lists(st.tuples(*[letter] * length), min_size=2, max_size=40, unique=True))
    return Code(alphabet, length, tuple(sorted(words)))


@pytest.mark.parametrize("shift", [1, 5, 1 << 20])
@given(code=codes_with_shared_pairs())
def test_min_distance_matches_the_pairwise_reference_on_random_codes(shift, code):
    # the distance depends on which letters agree, not on their values:
    # translating every letter keeps the code's distance
    distance = oracle_min_distance(code.words)
    assert min_distance(code) == distance
    shifted = Code(
        code.alphabet_size + shift,
        code.length,
        tuple(tuple(x + shift for x in w) for w in code.words),
    )
    assert min_distance(shifted) == distance


@pytest.mark.parametrize(
    "words, distance",
    [
        (((0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 3, 3)), 2),  # three words share one pair
        (((0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 3, 2), (0, 0, 4, 4)), 1),  # agreeing in three
        (((5, 9, 1, 0), (5, 9, 1, 1), (0, 0, 0, 0)), 1),
        (((0, 1, 2, 3), (0, 2, 3, 1), (1, 1, 0, 0)), 3),  # no pair repeats, one coordinate does
        (((0, 1, 2, 3), (1, 2, 3, 0)), 4),
        (((2**17, 0, 1), (2**17, 0, 2), (2**17 + 1, 0, 1)), 1),
        # the length-4 parity code over 3 letters: every coordinate pair's
        # value pairs repeat, and no two words agree in three places
        (tuple(w + (-sum(w) % 3,) for w in product(range(3), repeat=3)), 2),
    ],
)
def test_min_distance_of_words_sharing_pairs(words, distance):
    assert min_distance(Code(2**17 + 2, len(words[0]), tuple(sorted(words)))) == distance
    assert oracle_min_distance(words) == distance


def test_min_distance_compares_words_apart_in_their_run():
    # (0, 1, 1, 1, 1) and (2, 1, 1, 1, 1) agree in four coordinates, but for
    # every coordinate pair they share, a word between them in word order
    # shares it too, and agrees with each of them in two coordinates only,
    # so comparing only neighbours in word order within a shared pair misses them
    middle = []
    for p, q in combinations(range(1, 5), 2):
        word = [1] + [10 + len(middle) * 4 + i for i in range(4)]
        word[p] = word[q] = 1
        middle.append(tuple(word))
    words = tuple(sorted([(0, 1, 1, 1, 1), (2, 1, 1, 1, 1), *middle]))
    assert min_distance(Code(40, 5, words)) == oracle_min_distance(words) == 1


def test_min_distance_needs_two_codewords():
    with pytest.raises(ValueError):
        min_distance(Code(2, 3, ((0, 0, 0),)))


def test_min_distance_on_a_code_larger_than_one_block():
    words = tuple(sorted(product(range(2), repeat=10)))
    assert min_distance(Code(2, 10, words)) == 1


def test_min_distance_counts_past_one_byte():
    # words longer than 255 letters: a uint8 count would wrap, and the
    # 44850 coordinate pairs must not each cost a sort of their own
    started = time.perf_counter()
    assert min_distance(Code(2, 300, ((0,) * 300, (1,) * 300))) == 300
    assert min_distance(Code(2, 300, ((0,) * 300, (0,) * 299 + (1,)))) == 1
    assert time.perf_counter() - started < 1.0


def test_square_codes_have_distance_above_layer_count():
    square = min_mopls(9)
    assert min_distance(to_code(square)) == 3


# -- covering radius -----------------------------------------------------------------


@settings(max_examples=30)
@given(partial_squares(min_n=2, max_n=5, ks=(1, 2), allow_empty=False))
def test_covering_radius_matches_brute_force(square):
    code = to_code(square)
    assert covering_radius(code) == oracle_covering_radius(
        code.words, code.alphabet_size, code.length
    )


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_covering_radius_is_at_most_the_length(n, length, data):
    words = data.draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * length), min_size=1, max_size=8))
    radius = covering_radius(Code(n, length, tuple(sorted(words))))
    assert 0 <= radius <= length
    assert radius == oracle_covering_radius(words, n, length)


def test_covering_radius_extremes():
    assert covering_radius(Code(2, 3, ((0, 0, 0),))) == 3
    full = tuple(sorted(product(range(2), repeat=2)))
    assert covering_radius(Code(2, 2, full)) == 0
    for length in (1, 2, 3, 6):  # one letter: the single word is the code
        assert covering_radius(Code(1, length, ((0,) * length,))) == 0


@pytest.mark.parametrize("n, length", [(2, 1), (2, 5), (3, 3), (3, 5), (4, 4)])
def test_breadth_first_search_reaches_the_word_that_differs_everywhere(n, length):
    # every codeword avoids the symbol n - 1, so the word (n-1, ..., n-1)
    # differs from each of them in every coordinate: the search has to take
    # length steps, one substitution on each axis, before that row is full
    zero = (0,) * length
    codes = [
        {zero},
        {(v,) + zero[1:] for v in range(n - 1)},
        {zero[1:] + (v,) for v in range(n - 1)},
        {zero[:p] + (n - 2,) + zero[p + 1:] for p in range(length)},
    ]
    for code in codes:
        words = tuple(sorted(code))
        radius = covering_radius(Code(n, length, words))
        assert radius == length == oracle_covering_radius(words, n, length)


def _limb_edge_codes(n, length):
    """(code, radius) pairs over n letters whose words sit at the 64-bit limb edges.

    The sparse codes leave some letter out of every coordinate, so their
    radius is ``length``.  The others cover every letter in one coordinate,
    so every word agrees with a codeword somewhere: radius ``length - 1``.
    """
    edges = sorted({0, 1, 62, 63, 64, 65, 127, 128, n - 2, n - 1} & set(range(n)))
    top = (n - 1,) * (length - 1)
    return [
        ({(n - 1,) * length}, length),
        ({(e,) * (length - 1) + (f,) for e, f in zip(edges, reversed(edges))}, length),
        ({(e,) + top[1:] + (e,) for e in edges}, length),
        ({(0,) * (length - 1) + (v,) for v in range(n)}, length - 1),
        ({(v,) + top for v in range(n)}, length - 1),
    ]


@pytest.mark.parametrize("n, length", [(63, 2), (64, 2), (65, 2), (128, 2), (129, 2), (65, 3)])
def test_covering_radius_across_limb_edges(n, length):
    # rows of more than 64 letters span several uint64 limbs: a seed bit in
    # any limb, a row that is full in every limb and the short last limb
    # all have to agree with the brute-force distances
    for words, radius in _limb_edge_codes(n, length):
        words = tuple(sorted(words))
        expected = oracle_covering_radius_blocked(words, n, length)
        if len(words) * n**length <= 10**5:
            assert expected == oracle_covering_radius(words, n, length)
        assert covering_radius(Code(n, length, words)) == expected == radius


@settings(max_examples=30)
@given(partial_squares(min_n=1, max_n=3, ks=(3,), allow_empty=False))
def test_covering_radius_of_three_layer_squares_matches_brute_force(square):
    code = to_code(square)
    assert covering_radius(code) == oracle_covering_radius(code.words, square.n, 5)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 65, 130])
def test_covering_radius_of_length_one_codes(n):
    # a single coordinate has no prefix axes: the radius is 0 when every
    # letter is a codeword and 1 otherwise
    every = tuple((v,) for v in range(n))
    assert covering_radius(Code(n, 1, every)) == 0
    for some in ((every[1:], every[:-1]) if n > 1 else ()):
        assert covering_radius(Code(n, 1, some)) == 1 == oracle_covering_radius(some, n, 1)


def test_covering_radius_of_empty_code_is_undefined():
    with pytest.raises(ValueError):
        covering_radius(Code(2, 2, ()))


def test_covering_radius_word_space_guard():
    huge = Code(105, 4, ((0, 0, 0, 0),))
    assert 105**4 > WORD_SPACE_LIMIT
    with pytest.raises(ValueError):
        covering_radius(huge)


# -- the nine-word configuration ------------------------------------------------------


def test_order_three_pair_code_is_perfect():
    code = to_code(k_ols(2, 3))
    assert len(code.words) == 9
    assert code.length == 4
    assert min_distance(code) == 3
    assert covering_radius(code) == 1


# -- maximality through the code view --------------------------------------------------


@settings(max_examples=30)
@given(partial_squares(min_n=2, max_n=5, ks=(1, 2), allow_empty=False))
def test_code_report_is_consistent_on_arbitrary_squares(square):
    report = check_code_equivalence(square)
    assert report.consistent
    assert report.size == square.filled_count
    assert report.length == square.k + 2
    assert report.maximal == is_maximal(square)


@settings(max_examples=20)
@given(partial_squares(min_n=4, max_n=6, ks=(2,)), st.integers(0, 2**32 - 1))
def test_maximal_two_layer_codes_have_distance_three_radius_two(square, seed):
    maximal = maximalize(square, policy="random", seed=seed)
    report = check_code_equivalence(maximal)
    assert report.rule == "maximal iff distance 3 and radius 2"
    assert report.consistent
    assert report.maximal
    assert report.min_distance == 3
    assert report.covering_radius == 2


def test_small_orders_use_the_one_directional_rule():
    report = check_code_equivalence(min_mpls(6))
    assert report.rule == "maximal implies radius <= 1"
    assert report.consistent and report.maximal
    assert report.covering_radius == 1


def test_single_cell_report_has_no_distance():
    square = KPartialSquare.from_cells(4, 2, {(0, 0): (0, 0)})
    report = check_code_equivalence(square)
    assert report.min_distance is None
    assert report.covering_radius == 4
    assert not report.maximal
    assert report.consistent


# -- serialization ---------------------------------------------------------------------


def test_code_to_json_document():
    code = to_code(k_ols(2, 3))
    doc = json.loads(code_to_json(code))
    assert doc["format"] == "code"
    assert doc["version"] == 1
    assert doc["alphabet_size"] == 3
    assert doc["length"] == 4
    assert doc["size"] == 9
    assert doc["words"] == [list(w) for w in code.words]
    assert doc["words"] == sorted(doc["words"])
