"""Constructions: orthogonal Latin square families and block-diagonal squares.

The minimum-size constructions all follow one pattern: split the order n
into consecutive blocks, fill each diagonal block with a complete Latin
structure on its own symbol range, and leave everything else empty.  A
cell in the row range of one block and the column range of another only
admits symbols from the remaining blocks, and with few enough blocks any
candidate tuple is forced to reuse a within-block entry pair, so the
square is maximal.  With k entry layers this works for up to k + 1
blocks; the per-layer fill is minimized by using as many blocks as that
allows (two for plain partial Latin squares, three for orthogonal pairs).

Full blocks come from k_ols: finite fields for prime-power orders, the
coprime product for composite orders with large enough factors, and
bundled search results (see scripts/find_ols_literals.py) for the orders
2 mod 4 that neither method reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import ceil

from .core import Cell, EntryTuple, KPartialSquare, SelfCheckError, _indices, lower_bound
from .formats import ParseError, from_json
from .maximality import is_maximal


class ConstructionError(ValueError):
    """Requested object is outside this module's constructive range."""


# -- finite fields -----------------------------------------------------------


def prime_power_factors(m: int) -> list[tuple[int, int]]:
    """Factor m > 1 into [(p, a), ...] with distinct primes p."""
    factors = []
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            factors.append((p, a))
        p += 1
    if rest > 1:
        factors.append((rest, 1))
    return factors


def as_prime_power(m: int) -> tuple[int, int] | None:
    if m < 2:
        return None
    factors = prime_power_factors(m)
    return factors[0] if len(factors) == 1 else None


def _poly_mul(u: tuple[int, ...], v: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _poly_mod(u: tuple[int, ...], d: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of u by monic d, coefficients low to high."""
    u = list(u)
    deg_d = len(d) - 1
    for i in range(len(u) - 1, deg_d - 1, -1):
        coef = u[i] % p
        if coef:
            for j in range(deg_d + 1):
                u[i - deg_d + j] = (u[i - deg_d + j] - coef * d[j]) % p
    return tuple(x % p for x in u[:deg_d])


def _digits(x: int, p: int, count: int) -> tuple[int, ...]:
    """The ``count`` lowest base-p digits of x, least significant first."""
    return tuple(x // p**i % p for i in range(count))


def _monic_polys(p: int, degree: int):
    for code in range(p**degree):
        yield _digits(code, p, degree) + (1,)


def _find_irreducible(p: int, a: int) -> tuple[int, ...]:
    for cand in _monic_polys(p, a):
        if all(any(_poly_mod(cand, div, p)) for d in range(1, a // 2 + 1) for div in _monic_polys(p, d)):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {a} over GF({p})")


@lru_cache(maxsize=None)
def gf_tables(q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Addition and multiplication tables of the field with q elements.

    Elements are indexed 0..q-1; for q = p**a with a > 1 index x encodes
    the polynomial with base-p digits of x as coefficients, so 0 and 1
    are the additive and multiplicative identities in every case.
    """
    pp = as_prime_power(q)
    if pp is None:
        raise ConstructionError(f"{q} is not a prime power")
    p, a = pp
    if a == 1:
        add = tuple(tuple((i + j) % p for j in range(p)) for i in range(p))
        mul = tuple(tuple((i * j) % p for j in range(p)) for i in range(p))
        return add, mul

    modulus = _find_irreducible(p, a)
    elems = [_digits(x, p, a) for x in range(q)]
    index_of = {u: x for x, u in enumerate(elems)}
    add = tuple(
        tuple(index_of[tuple((u[t] + v[t]) % p for t in range(a))] for v in elems)
        for u in elems
    )
    mul = tuple(
        tuple(index_of[_poly_mod(_poly_mul(u, v, p), modulus, p)] for v in elems)
        for u in elems
    )
    return add, mul


def k_mols_field(q: int, k: int) -> KPartialSquare:
    """k pairwise orthogonal Latin squares of prime-power order q.

    Layer t is L_t(i, j) = a_t * i + j in the field, with the a_t the
    first k nonzero elements; requires 1 <= k <= q - 1.
    """
    if not 1 <= k <= q - 1:
        raise ConstructionError(f"field construction needs 1 <= k <= q-1, got k={k}, q={q}")
    add, mul = gf_tables(q)
    cells: dict[Cell, EntryTuple] = {}
    multipliers = list(range(1, k + 1))
    for i in range(q):
        for j in range(q):
            cells[(i, j)] = tuple(add[mul[a][i]][j] for a in multipliers)
    return KPartialSquare.from_cells(q, k, cells)


# -- products and dispatch ----------------------------------------------------


def product(left: KPartialSquare, right: KPartialSquare) -> KPartialSquare:
    """Direct product of two fully filled k-layer squares.

    Indices combine as (x, y) -> x * right.n + y in every coordinate
    role; orthogonality survives the product, so k complete layers of
    orders m1 and m2 yield k complete layers of order m1 * m2.
    """
    if left.k != right.k:
        raise ConstructionError("product needs equal layer counts")
    m1, m2, k = left.n, right.n, left.k
    if left.filled_count != m1 * m1 or right.filled_count != m2 * m2:
        raise ConstructionError("product needs fully filled squares")
    cells: dict[Cell, EntryTuple] = {}
    for (r1, c1), e1 in left.cells.items():
        for (r2, c2), e2 in right.cells.items():
            cells[(r1 * m2 + r2, c1 * m2 + c2)] = tuple(
                e1[j] * m2 + e2[j] for j in range(k)
            )
    return KPartialSquare.from_cells(m1 * m2, k, cells)


def _load_bundled_pair(m: int) -> KPartialSquare:
    res = resources.files("mopls").joinpath("data", f"ols_{m}.json")
    try:
        text = res.read_text()
    except FileNotFoundError:
        raise ConstructionError(
            f"no orthogonal pair of order {m} is bundled, "
            f"and scripts/find_ols_literals.py reaches only m <= 12"
        ) from None
    try:
        square = from_json(text)
    except ParseError as exc:
        raise ConstructionError(f"bundled pair of order {m} is corrupt: {exc}") from exc
    if square.n != m or square.k != 2 or square.filled_count != m * m:
        raise ConstructionError(f"bundled pair of order {m} has wrong shape")
    return square


@lru_cache(maxsize=None)
def k_ols(k: int, m: int) -> KPartialSquare:
    """k pairwise orthogonal Latin squares of order m, fully superimposed.

    Routes: trivial orders, cyclic square for k = 1, finite field for
    prime powers, coprime product when every prime-power factor exceeds
    k, and bundled literals for k = 2 at orders 2 mod 4 (>= 10).  Raises
    ConstructionError for orders none of these reach (including the
    genuinely nonexistent k = 2 orders 2 and 6).
    """
    if k < 1:
        raise ConstructionError(f"layer count must be positive, got k={k}")
    if m < 1:
        raise ConstructionError(f"order must be positive, got m={m}")
    if m == 1:
        return KPartialSquare.from_cells(1, k, {(0, 0): (0,) * k})
    if k == 1:
        cells = {(i, j): ((i + j) % m,) for i in range(m) for j in range(m)}
        return KPartialSquare.from_cells(m, 1, cells)
    if as_prime_power(m) and k <= m - 1:
        return k_mols_field(m, k)
    factors = prime_power_factors(m)
    if len(factors) > 1 and k <= min(p**a for p, a in factors) - 1:
        parts = [k_mols_field(p**a, k) for p, a in factors]
        square = parts[0]
        for part in parts[1:]:
            square = product(square, part)
        return square
    if k == 2 and m % 4 == 2 and m >= 10:
        return _load_bundled_pair(m)
    if k == 2 and m in (2, 6):
        raise ConstructionError(f"no pair of orthogonal Latin squares of order {m} exists")
    raise ConstructionError(
        f"no construction for {k} orthogonal Latin squares of order {m} is available here"
    )


# -- block-diagonal assemblies --------------------------------------------------


@dataclass(frozen=True)
class ConstructionPlan:
    """Block layout: consecutive index ranges shared by rows, columns and symbols."""

    n: int
    k: int
    block_orders: tuple[int, ...]

    @property
    def filled(self) -> int:
        return sum(m * m for m in self.block_orders)


def _near_equal_plan(n: int, k: int) -> ConstructionPlan:
    """k + 1 near-equal blocks in ascending order, empty ones dropped."""
    if n < 1:
        raise ConstructionError(f"order must be positive, got n={n}")
    s, r = divmod(n, k + 1)
    orders = (s,) * (k + 1 - r) + (s + 1,) * r
    return ConstructionPlan(n, k, tuple(m for m in orders if m > 0))


def mopls_plan(n: int) -> ConstructionPlan:
    """Three near-equal blocks; orders (s, s, s), (s, s, s+1) or (s, s+1, s+1)."""
    return _near_equal_plan(n, 2)


def mpls_plan(n: int) -> ConstructionPlan:
    """Two near-equal blocks of orders floor(n/2) and ceil(n/2)."""
    return _near_equal_plan(n, 1)


def k_mopls_diagonal(n: int, k: int, block_orders: tuple[int, ...] | list[int]) -> KPartialSquare:
    """Diagonal blocks of complete k-layer squares on disjoint index ranges.

    Validates the result but asserts nothing about maximality; that holds
    when the block count is at most k + 1 and is the caller's claim to
    check.  Raises ConstructionError if some block order is unreachable.
    """
    orders = _indices(block_orders)
    if orders is None:
        raise ConstructionError(f"block orders must be positive, got {tuple(block_orders)}")
    block_orders = orders
    if sum(block_orders) != n:
        raise ConstructionError(
            f"block orders {block_orders} sum to {sum(block_orders)}, expected n={n}"
        )
    if any(m < 1 for m in block_orders):
        raise ConstructionError(f"block orders must be positive, got {block_orders}")
    cells: dict[Cell, EntryTuple] = {}
    offset = 0
    for m in block_orders:
        block = k_ols(k, m)
        for (r, c), entries in block.cells.items():
            cells[(offset + r, offset + c)] = tuple(offset + e for e in entries)
        offset += m
    return KPartialSquare.from_cells(n, k, cells)


def _minimum(plan: ConstructionPlan, least: int) -> KPartialSquare:
    """The diagonal blocks of ``plan``; raise SelfCheckError unless they fill
    ``least`` cells, as the plan says, and form a maximal square."""
    n = plan.n
    try:
        square = k_mopls_diagonal(n, plan.k, plan.block_orders)
    except ConstructionError as exc:
        raise ConstructionError(
            f"minimum construction for n={n} needs blocks {plan.block_orders}: {exc}"
        ) from exc
    if not square.filled_count == least == plan.filled:
        raise SelfCheckError(
            f"order-{n} construction filled {square.filled_count} cells; "
            f"its plan fills {plan.filled} and the minimum is {least}"
        )
    if not is_maximal(square):
        raise SelfCheckError(f"order-{n} construction is not maximal")
    return square


def min_mopls(n: int) -> KPartialSquare:
    """A maximal orthogonal pair of order n filling ceil(n^2 / 3) cells.

    No maximal orthogonal pair fills fewer cells, and for n >= 21 (and
    the orders below 16 this construction reaches) none fills fewer than
    this one, so the result attains the minimum there.  Orders whose
    near-equal split needs a block of order 2 or 6 (no pair exists) or
    14, 18, 22, ... (2 mod 4, none bundled) raise ConstructionError:
    n = 4..8, 16..20 and 12j+4..12j+8 for every j >= 3 (40..44, ...).
    """
    return _minimum(mopls_plan(n), lower_bound(n))


def min_mpls(n: int) -> KPartialSquare:
    """A maximal partial Latin square of order n filling ceil(n^2 / 2) cells.

    Two diagonal Latin blocks on complementary symbol ranges; this is the
    smallest possible fill for a maximal partial Latin square.
    """
    return _minimum(mpls_plan(n), ceil(n * n / 2))
