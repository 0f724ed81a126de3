from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import assume, given

from mopls import KPartialSquare, SelfCheckError, complement, has_clique, is_maximal, min_mopls
from mopls import graphview
from mopls.codes import covering_radius, to_code
from mopls.verify import lower_bound

from conftest import complement_edges, maximal_squares_with_holes, oracle_complement_edges, partial_squares


@given(partial_squares(max_n=5))
def test_edges_match_definition(square):
    edges, _, _ = complement_edges(complement(square))
    assert sorted(edges) == oracle_complement_edges(square)


@given(partial_squares(max_n=5))
def test_same_group_never_adjacent(square):
    edges, _, _ = complement_edges(complement(square))
    assert all(a[0] != b[0] for a, b in edges)


@given(partial_squares(max_n=6))
def test_density_identity(square):
    _, pair_edges, _ = complement_edges(complement(square))
    n, filled = square.n, square.filled_count
    pairs = list(combinations(range(square.k + 2), 2))
    assert set(pair_edges) <= set(pairs)
    for pair in pairs:
        assert Fraction(pair_edges[pair], n * n) == 1 - Fraction(filled, n * n)


@given(partial_squares(max_n=6))
def test_degree_splits_evenly(square):
    _, _, neighbours = complement_edges(complement(square))
    prof = square.frequencies()
    counts = [prof.row_counts, prof.col_counts, *prof.layer_counts]
    for g in range(square.k + 2):
        for v in range(square.n):
            per_group = square.n - counts[g][v]
            others = [other for other in range(square.k + 2) if other != g]
            assert sum(neighbours[(g, v), other] for other in others) == (square.k + 1) * per_group
            for other in others:
                assert neighbours[(g, v), other] == per_group


@given(partial_squares(max_n=5))
def test_clique_free_iff_maximal(square):
    assert (has_clique(complement(square)) is None) == is_maximal(square)


def assert_legal_insertion(square, clique):
    """The clique names one vertex per group and inserts into the square."""
    assert [g for g, _ in clique] == list(range(square.k + 2))
    vertices = [v for _, v in clique]
    square.insert((vertices[0], vertices[1]), tuple(vertices[2:]))


@given(partial_squares(max_n=5))
def test_found_clique_reads_back_as_legal_insertion(square):
    clique = complement(square).find_clique()
    if clique is not None:
        assert_legal_insertion(square, clique)


@given(maximal_squares_with_holes(ks=(1, 2, 3, 4)))
def test_three_checkers_agree_up_to_four_layers(square):
    maximal = is_maximal(square)
    clique = has_clique(complement(square))
    assert (clique is None) == maximal
    if square.cells:  # a word at distance above k from every codeword inserts
        assert (covering_radius(to_code(square)) <= square.k) == maximal
    if clique is not None:
        assert_legal_insertion(square, clique)


@given(maximal_squares_with_holes(max_n=6, ks=(1, 2, 3, 4)))
def test_clique_check_in_one_row_slices(square):
    # a product budget below n sends one (row, vertex) pair per slice
    expected = complement(square).find_clique()
    with patch.object(graphview, "_PRODUCT_CELLS", 1):
        assert complement(square).find_clique() == expected


def test_order_99_minimum_square_is_clique_free_until_a_cell_goes():
    square = min_mopls(99)
    assert has_clique(complement(square)) is None
    holed = square.remove(sorted(square.cells)[len(square.cells) // 2])
    clique = has_clique(complement(holed))
    assert clique is not None
    assert_legal_insertion(holed, clique)


def test_a_clique_that_is_no_insertion_raises_self_check_error():
    holed = min_mopls(9).remove((0, 0))
    graph = complement(holed)
    word = [v for _, v in graph.find_clique()]
    # the matrices still see the hole, but the index the witness is checked
    # against now fills it
    graph._projections = graph._projections.copy()
    graph._projections.add(word)
    with pytest.raises(SelfCheckError, match="not a legal insertion"):
        graph.find_clique()


def test_edge_list_and_dot_output():
    square = KPartialSquare.from_cells(2, 1, {(0, 0): (0,)})
    graph = complement(square)
    edges = graph.to_edge_list()
    assert len(edges) == 3 * (4 - 1)  # 3 group pairs, n^2 - F edges each
    assert ("r0", "c0") not in edges and ("r0", "c1") in edges
    dot = graph.to_dot()
    assert dot.startswith("graph complement {")
    assert dot.rstrip().endswith("}")
    assert dot.count("subgraph cluster_") == 3
    assert '"r0" -- "c1";' in dot


def test_vertex_labels():
    square = KPartialSquare.empty(2, 2)
    graph = complement(square)
    labels = {
        graph.vertex_label(g, v) for g in range(4) for v in range(2)
    }
    assert labels == {"r0", "r1", "c0", "c1", "s0_0", "s0_1", "s1_0", "s1_1"}


def test_maximal_golden_graphs_are_clique_free(golden):
    for square in golden.values():
        assert has_clique(complement(square)) is None


def test_has_clique_function_matches_the_method(golden):
    for square in golden.values():
        graph = complement(square)
        assert has_clique(graph) is None
        assert graph.find_clique() is None
    partial = complement(KPartialSquare.empty(2, 1))
    witness = has_clique(partial)
    assert witness == partial.find_clique()
    assert witness is not None


@given(partial_squares(min_n=2, max_n=6, ks=(2,)))
def test_sparse_two_layer_squares_always_have_a_clique(square):
    # fill below the maximality threshold leaves every density above 2/3,
    # so an insertion, hence a clique, must exist
    assume(square.filled_count < lower_bound(square.n))
    graph = complement(square)
    _, pair_edges, _ = complement_edges(graph)
    n = square.n
    assert all(
        Fraction(pair_edges[a, b], n * n) > Fraction(2, 3) for a, b in combinations(range(4), 2)
    )
    assert has_clique(graph) is not None
