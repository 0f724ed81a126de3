import pytest
from hypothesis import given
from hypothesis import strategies as st

from mopls import (
    ConstructionError,
    SelfCheckError,
    is_maximal,
    k_mols_field,
    k_mopls_diagonal,
    k_ols,
    min_mopls,
    min_mpls,
    mopls_plan,
    mpls_plan,
    product,
)
from mopls import construct
from mopls.construct import as_prime_power, gf_tables, prime_power_factors
from mopls.verify import lower_bound

from conftest import oracle_valid

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def test_prime_power_factors():
    assert prime_power_factors(1) == []
    assert prime_power_factors(12) == [(2, 2), (3, 1)]
    assert prime_power_factors(360) == [(2, 3), (3, 2), (5, 1)]


def test_as_prime_power():
    assert as_prime_power(7) == (7, 1)
    assert as_prime_power(8) == (2, 3)
    assert as_prime_power(9) == (3, 2)
    assert as_prime_power(12) is None
    assert as_prime_power(1) is None


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_gf_tables_are_fields(q):
    add, mul = gf_tables(q)
    for a in range(q):
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
    # additive and multiplicative inverses exist
    for a in range(q):
        assert sorted(add[a]) == list(range(q))
        if a:
            assert sorted(mul[a]) == list(range(q))
    # associativity spot check on all triples for small q
    if q <= 9:
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q,k", [(3, 2), (4, 3), (5, 4), (7, 2), (8, 7), (9, 2)])
def test_k_mols_field_full_and_valid(q, k):
    sq = k_mols_field(q, k)
    assert sq.n == q and sq.k == k
    assert sq.filled_count == q * q
    assert oracle_valid(sq)


def test_k_mols_field_rejects_bad_k():
    with pytest.raises(ConstructionError):
        k_mols_field(5, 5)  # at most q-1 layers exist
    with pytest.raises(ConstructionError):
        k_mols_field(5, 0)
    with pytest.raises(ConstructionError):
        k_mols_field(6, 2)  # not a prime power


def test_product_combines_orders():
    left = k_ols(2, 3)
    right = k_ols(2, 7)
    combined = product(left, right)
    assert combined.n == 21
    assert combined.filled_count == 21 * 21
    assert oracle_valid(combined)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 15, 20, 21])
def test_k_ols_pairs(m):
    sq = k_ols(2, m)
    assert sq.n == m and sq.k == 2
    assert sq.filled_count == m * m
    assert oracle_valid(sq)


@pytest.mark.parametrize("k,m", [(3, 4), (4, 5), (3, 28)])
def test_k_ols_more_layers(k, m):
    sq = k_ols(k, m)
    assert sq.k == k and sq.filled_count == m * m
    assert oracle_valid(sq)


def test_k_ols_known_impossible():
    with pytest.raises(ConstructionError):
        k_ols(2, 2)
    with pytest.raises(ConstructionError):
        k_ols(2, 6)


def test_k_ols_unavailable_order():
    # no bundled pair for this order in the data files
    with pytest.raises(ConstructionError):
        k_ols(2, 54)


def test_k_ols_single_layer_any_order():
    sq = k_ols(1, 6)
    assert sq.filled_count == 36
    assert oracle_valid(sq)


def test_mopls_plan_orders():
    assert mopls_plan(9).block_orders == (3, 3, 3)
    assert mopls_plan(21).block_orders == (7, 7, 7)
    assert mopls_plan(22).block_orders == (7, 7, 8)
    assert mopls_plan(23).block_orders == (7, 8, 8)
    assert mopls_plan(1).block_orders == (1,)
    assert mopls_plan(2).block_orders == (1, 1)
    assert mopls_plan(3).block_orders == (1, 1, 1)


def test_mpls_plan_orders():
    assert mpls_plan(6).block_orders == (3, 3)
    assert mpls_plan(7).block_orders == (3, 4)
    assert mpls_plan(1).block_orders == (1,)


@given(st.integers(1, 60))
def test_mopls_plan_sums_and_split(n):
    plan = mopls_plan(n)
    assert sum(plan.block_orders) == n
    assert all(b > 0 for b in plan.block_orders)
    assert max(plan.block_orders) - min(plan.block_orders) <= 1
    assert len(plan.block_orders) <= 3


def test_plan_filled():
    plan = mopls_plan(22)
    assert plan.filled == 7 * 7 + 7 * 7 + 8 * 8


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11, 12, 13, 14, 15] + list(range(21, 31)))
def test_min_mopls_fill_and_maximality(n):
    sq = min_mopls(n)
    assert sq.n == n and sq.k == 2
    assert sq.filled_count == lower_bound(n)
    assert is_maximal(sq)
    assert oracle_valid(sq)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 16, 17, 18, 19, 20])
def test_min_mopls_unreachable_orders_raise(n):
    # these orders need a block of size 2 or 6, where no pair exists
    with pytest.raises(ConstructionError):
        min_mopls(n)


def test_min_mopls_raises_exactly_where_a_block_has_no_pair_here():
    # blocks of order 2 or 6 have no pair; blocks of order 14 or 18 (2 mod 4,
    # above the bundled 10) have none bundled
    raised = set()
    for n in range(1, 61):
        try:
            min_mopls(n)
        except ConstructionError:
            raised.add(n)
    assert raised == {*range(4, 9), *range(16, 21), *range(40, 45), *range(52, 57)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14])
def test_min_mpls_fill_and_maximality(n):
    sq = min_mpls(n)
    assert sq.n == n and sq.k == 1
    assert sq.filled_count == (n * n + 1) // 2
    assert is_maximal(sq)
    assert oracle_valid(sq)


def test_k_mopls_diagonal_blocks():
    sq = k_mopls_diagonal(16, 3, [4, 4, 4, 4])
    assert sq.n == 16 and sq.k == 3
    assert sq.filled_count == 4 * 16
    assert oracle_valid(sq)
    # entries of block b stay inside its row/col/symbol window
    for (r, c), entries in sq.cells.items():
        block = r // 4
        assert c // 4 == block
        assert all(e // 4 == block for e in entries)


def test_k_mopls_diagonal_validates_blocks():
    with pytest.raises(ConstructionError):
        k_mopls_diagonal(10, 2, [3, 3])  # orders do not sum to n
    with pytest.raises(ConstructionError):
        k_mopls_diagonal(6, 2, [6, 0])
    with pytest.raises(ConstructionError):
        k_mopls_diagonal(8, 2, [2, 6])  # no pair of order 2 exists
    # int() would read each of these as 3, 3, 3 and build the square
    for orders in (["3", "3", "3"], [3.0, 3, 3], [3.9, 3, 3]):
        with pytest.raises(ConstructionError, match="block orders must be positive"):
            k_mopls_diagonal(9, 2, orders)


def test_min_mopls_error_names_blocking_order():
    with pytest.raises(ConstructionError) as exc:
        min_mopls(6)
    assert "2" in str(exc.value)


@pytest.mark.parametrize("build, n", [(min_mopls, 9), (min_mpls, 6)], ids=["mopls", "mpls"])
def test_construction_checks_maximality_explicitly(monkeypatch, build, n):
    monkeypatch.setattr(construct, "is_maximal", lambda square: False)
    with pytest.raises(SelfCheckError, match="not maximal"):
        build(n)


@pytest.mark.parametrize("build, n", [(min_mopls, 9), (min_mpls, 6)], ids=["mopls", "mpls"])
def test_construction_checks_its_fill_explicitly(monkeypatch, build, n):
    blocks = construct.k_mopls_diagonal
    monkeypatch.setattr(
        construct, "k_mopls_diagonal", lambda *args: blocks(*args).remove((0, 0))
    )
    with pytest.raises(SelfCheckError, match="filled"):
        build(n)
