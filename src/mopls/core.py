"""Core types for k-layer orthogonal partial Latin squares.

A partial Latin square (PLS) of order n is an n x n array over the symbol
set {0, ..., n-1} in which each symbol occurs at most once in every row
and at most once in every column; cells may be empty.  Superimposing k
partial Latin squares that share the same filled cells gives a k-layer
square: each filled cell holds an ordered k-tuple of entries, and any two
filled cells, read as (row, column, entry_1, ..., entry_k) word tuples,
must agree in at most one coordinate position.

For k = 2 the word condition is exactly classical orthogonality (no
ordered entry pair occurs in two cells) together with per-layer
Latin-ness; for k = 1 it degenerates to plain Latin-ness.  Because the
layers are stored superimposed, the "same filled cells" requirement of
the two-square presentation holds by construction.

Squares are value-like: ``insert`` and ``remove`` return new squares and
never mutate their input, so instances can be shared freely across
threads or worker processes.  The only state a square gains is the
:class:`Projections` index it validated with, kept lazily and then only
read: ``insert`` adds the new word to a copy of it, which the child keeps.

Indices and symbols are 0-based throughout the API.  The text-grid format
in :mod:`mopls.formats` is 1-based, matching the usual printed form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, combinations
from math import ceil
from typing import Iterable, Iterator, Mapping

import numpy as np

Cell = tuple[int, int]
EntryTuple = tuple[int, ...]
#: A filled cell flattened to (row, col, entry_1, ..., entry_k).
Word = tuple[int, ...]

#: :meth:`Projections.fill` scatters at most this many bool cells (16 MB) at once,
#: at least one coordinate pair: all pairs at once for k = 2 up to n = 1664.
_FILL_CELLS = 1 << 24


class SquareError(ValueError):
    """An invalid square, or an edit that would make one."""


class SelfCheckError(SquareError):
    """A built square or a printed certificate failed its own check (fill
    count, maximality, a transversal's König cover): a bug in the program,
    not bad input."""


class CellOccupiedError(SquareError):
    """Insertion into a cell that is already filled."""


class LatinConflictError(SquareError):
    """A symbol would repeat within a row or column of some layer."""


class OrthogonalityConflictError(SquareError):
    """Two words would agree in two or more coordinate positions."""


def lower_bound(n: int) -> int:
    """Least possible fill of a maximal two-layer square of order n."""
    return ceil(n * n / 3)


def agreement_positions(a: Word, b: Word) -> tuple[int, ...]:
    """Coordinate positions where two equal-length words agree."""
    return tuple(i for i, (x, y) in enumerate(zip(a, b)) if x == y)


def bits_above(mask: int, floor: int) -> Iterator[int]:
    """The positions of the set bits of ``mask`` above ``floor``, ascending."""
    mask >>= floor + 1
    base = floor + 1
    while mask:
        low = mask & -mask
        yield base + low.bit_length() - 1
        mask ^= low
        # iterating via shifts keeps the big ints small
        skip = low.bit_length()
        mask >>= skip
        base += skip


def _as_tuple(value: object) -> object:
    """``tuple(value)``, or ``value`` itself when it is not iterable, so that
    ``validate`` reports it instead of the conversion raising."""
    try:
        return tuple(value)
    except TypeError:
        return value


def _indices(values: Iterable[object]) -> tuple[int, ...] | None:
    """``values`` as plain ints (``operator.index``), or None if one is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return None


def _integer_word(cell: object, entries: object, n: int, k: int) -> tuple[Word | None, bool]:
    """The word of a cell whose row, column and entries are all integers, as
    plain ints (``operator.index``), else None, and whether it is in range:
    k entries, every value in 0..n-1.

    Only integer words can be sorted, compared and indexed; a cell holding
    anything else is reported as a range violation and compared with nothing.
    """
    if not (isinstance(cell, tuple) and len(cell) == 2 and isinstance(entries, tuple)):
        return None, False
    word = cell + entries
    if any(type(x) is not int for x in word):  # plain ints skip the conversion
        word = _indices(word)
        if word is None:
            return None, False
    return word, len(entries) == k and min(word) >= 0 and max(word) < n


def _word_array(cells: Mapping[Cell, EntryTuple], n: int, k: int) -> np.ndarray | None:
    """The words of a cell map, in map order, as one (F, k + 2) int64 array
    when every cell is a 2-tuple and every entry tuple a k-tuple, all of
    integers (plain, ``bool`` or numpy: dtype kind ``"iub"``) in 0..n-1; else None.

    The type and length checks each run as one ``set(map(...))`` pass.
    """
    keys, values = cells.keys(), cells.values()
    if not cells:
        return np.empty((0, k + 2), dtype=np.int64)
    if (
        set(map(type, chain(keys, values))) != {tuple}
        or set(map(len, keys)) != {2}
        or set(map(len, values)) != {k}
    ):
        return None
    try:  # every cell, then every entry tuple
        flat = np.array(list(chain.from_iterable(chain(keys, values))))
    except ValueError:  # a value that is itself a sequence
        return None
    if flat.ndim != 1 or flat.dtype.kind not in "iub" or flat.min() < 0 or flat.max() >= n:
        return None
    cut = 2 * len(cells)
    return np.concatenate((flat[:cut].reshape(-1, 2), flat[cut:].reshape(-1, k)), axis=1, dtype=np.int64)


@dataclass(frozen=True)
class Violation:
    """One violated pairwise constraint, naming the offending cells.

    ``kind`` is one of ``latin-row``, ``latin-col``, ``orthogonality`` or
    ``range``; ``coords`` lists the agreeing word coordinates (empty for
    range violations).
    """

    kind: str
    cells: tuple[Cell, ...]
    coords: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FrequencyProfile:
    """Fill counts of a square.

    ``filled`` is the total number of filled cells; ``row_counts`` and
    ``col_counts`` give filled cells per row/column; ``layer_counts[j][s]``
    counts occurrences of symbol ``s`` in layer ``j``.
    """

    filled: int
    row_counts: tuple[int, ...]
    col_counts: tuple[int, ...]
    layer_counts: tuple[tuple[int, ...], ...]


def _classify(w1: Word, w2: Word, c1: Cell, c2: Cell, coords: tuple[int, ...]) -> Violation:
    # coords has >= 2 entries; cells are distinct so 0 and 1 cannot both agree
    line, layer = coords[:2]
    if line < 2:
        kind, name = (("latin-row", "row"), ("latin-col", "column"))[line]
        return Violation(
            kind, (c1, c2), coords,
            f"{name} {w1[line]}: layer {layer - 1} repeats symbol {w1[layer]} "
            f"in cells {c1} and {c2}",
        )
    return Violation(
        "orthogonality", (c1, c2), coords,
        f"cells {c1} and {c2} agree in entry coordinates {coords}",
    )


class Projections:
    """Coordinate-pair projections of a set of words, as bitmasks.

    ``table[a][b][x]`` is the set of y such that some word w has w[a] = x
    and w[b] = y.  Two words agree in two coordinates exactly when they
    share a value pair in some projection, so these tables record every
    constraint of a square (the strength-2 orthogonal-array view).
    Only the pairs a < b are recorded: ``table[a][b]`` is None for b <= a,
    as the pair (b, a) holds the same value pairs transposed.  Values must
    lie in 0..n-1.
    """

    __slots__ = ("table", "_pairs")

    def __init__(self, n: int, width: int):
        self.table = [
            [None] * (a + 1) + [[0] * n for _ in range(a + 1, width)] for a in range(width)
        ]
        # (a, b, table[a][b]) for every a < b, walked as one flat loop per word
        self._pairs = [(a, b, self.table[a][b]) for a, b in combinations(range(width), 2)]

    def add(self, word: Word) -> bool:
        """Record ``word`` in every projection; True when it agrees with some
        word recorded before in two coordinates."""
        clash = False
        for a, b, column in self._pairs:
            x = word[a]
            seen = column[x]
            bit = 1 << word[b]
            if seen & bit:
                clash = True
            else:
                column[x] = seen | bit
        return clash

    def fill(self, words: np.ndarray) -> bool:
        """Record every row of ``words``, an (F, width) int array of values in
        0..n-1, into this empty index; False, recording nothing, when two
        rows share the value pair of some coordinate pair.

        A fixed number of numpy calls per slice of coordinate pairs, whatever
        F is: one scatter into a (pairs, n, 64 * limbs) bool grid of at most
        ``_FILL_CELLS`` cells, one count (a pair's grid holds fewer than F
        cells exactly when two words share a value pair there), one
        ``packbits`` into little-endian 64-bit limbs, read back with one
        ``tolist`` per limb.
        """
        n = len(self.table[0][1])
        row = 64 * -(-n // 64)
        step = max(1, _FILL_CELLS // (n * row))
        masks: list[int] = []
        for start in range(0, len(self._pairs), step):
            a, b, _ = zip(*self._pairs[start:start + step])
            grid = np.zeros((len(a), n, row), dtype=bool)
            grid[np.arange(len(a)), words[:, a], words[:, b]] = True
            if np.count_nonzero(grid) < len(a) * len(words):
                return False
            limbs = np.packbits(grid, axis=2, bitorder="little").view("<u8").reshape(len(a) * n, -1)
            part = limbs[:, -1].tolist()
            for j in range(limbs.shape[1] - 2, -1, -1):
                part = [high << 64 | low for high, low in zip(part, limbs[:, j].tolist())]
            masks += part
        for p, (_, _, column) in enumerate(self._pairs):
            column[:] = masks[p * n:(p + 1) * n]
        return True

    def plane(self, a: int, b: int) -> np.ndarray:
        """The n x n bool plane of two distinct coordinates: [x, y] is True when
        some word has w[a] = x and w[b] = y, so plane(b, a) is its transpose."""
        if a == b or not 0 <= min(a, b) <= max(a, b) < len(self.table):
            raise ValueError(f"coords must be two distinct coordinates in 0..{len(self.table) - 1}, got {(a, b)}")
        lines = self.table[min(a, b)][max(a, b)]
        n, size = len(lines), -(-len(lines) // 8)
        data = np.frombuffer(b"".join(mask.to_bytes(size, "little") for mask in lines), np.uint8)
        grid = np.unpackbits(data.reshape(n, size), axis=1, count=n, bitorder="little").view(bool)
        return grid if a < b else grid.T

    def copy(self) -> "Projections":
        """An independent index of the same words."""
        clone = Projections(len(self.table[0][1]), len(self.table))
        for (_, _, mine), (_, _, theirs) in zip(clone._pairs, self._pairs):
            mine[:] = theirs
        return clone


class KPartialSquare:
    """An order-n array whose filled cells hold k-tuples of entries.

    Invariants (checked by :meth:`validate`, preserved by :meth:`insert`):

    * per layer, every symbol occurs at most once in each row and column;
    * any two filled cells' (row, col, entries...) words agree in at most
      one coordinate position.
    """

    __slots__ = ("n", "k", "_cells", "_index")

    def __init__(self, n: int, k: int, cells: Mapping[Cell, EntryTuple] | None = None):
        if n < 1:
            raise SquareError(f"order must be positive, got n={n}")
        if k < 1:
            raise SquareError(f"layer count must be positive, got k={k}")
        self.n = n
        self.k = k
        self._cells: dict[Cell, EntryTuple] = dict(cells) if cells else {}
        self._index: Projections | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def empty(cls, n: int, k: int) -> "KPartialSquare":
        return cls(n, k)

    @classmethod
    def from_cells(cls, n: int, k: int, cells: Mapping[Cell, EntryTuple]) -> "KPartialSquare":
        """Build and validate a square from a cell map; raises on invalid input."""
        square = cls(n, k, {_as_tuple(c): _as_tuple(e) for c, e in cells.items()})
        square.projections()
        return square

    @classmethod
    def from_words(cls, n: int, k: int, words: Iterable[Word]) -> "KPartialSquare":
        """Build and validate a square from (row, col, entries...) words."""
        cells: dict[Cell, EntryTuple] = {}
        for w in words:
            w = tuple(w)
            if len(w) != k + 2:
                raise SquareError(f"word {w} has length {len(w)}, expected {k + 2}")
            cell = (w[0], w[1])
            if cell in cells:
                raise SquareError(f"two words share cell {cell}")
            cells[cell] = w[2:]
        return cls.from_cells(n, k, cells)

    # -- read access -------------------------------------------------

    @property
    def cells(self) -> Mapping[Cell, EntryTuple]:
        """The filled-cell map.  Treat as read-only."""
        return self._cells

    @property
    def filled_count(self) -> int:
        return len(self._cells)

    def entries_at(self, cell: Cell) -> EntryTuple | None:
        return self._cells.get(cell)

    def is_filled(self, cell: Cell) -> bool:
        return cell in self._cells

    def empty_cells(self) -> Iterator[Cell]:
        """Empty cells in row-major order."""
        for r in range(self.n):
            for c in range(self.n):
                if (r, c) not in self._cells:
                    yield (r, c)

    def words(self) -> tuple[Word, ...]:
        """All filled cells as sorted (row, col, entries...) words."""
        return tuple(sorted((r, c) + e for (r, c), e in self._cells.items()))

    def projections(self) -> Projections:
        """The index this square validated with, read-only; an unchecked square
        is validated on first use and raises as :meth:`from_cells` does."""
        if self._index is None:
            report = self.validate()
            if not report.ok:
                first = report.violations[0]
                exc = {
                    "latin-row": LatinConflictError,
                    "latin-col": LatinConflictError,
                    "orthogonality": OrthogonalityConflictError,
                }.get(first.kind, SquareError)
                raise exc(first.message)
        return self._index

    # -- edits (value-like: return new squares) ------------------------

    def insert(self, cell: Cell, entries: EntryTuple) -> "KPartialSquare":
        """Return a new square with ``entries`` placed at ``cell``.

        Raises :class:`CellOccupiedError`, :class:`LatinConflictError` or
        :class:`OrthogonalityConflictError` when the insertion would break
        an invariant, and :class:`SquareError` when the cell or an entry is
        out of range, not an integer, or the tuple has the wrong length.
        With a kept index only the new word is checked; otherwise the whole square is.
        """
        cell = _as_tuple(cell)
        if cell in self._cells:
            raise CellOccupiedError(f"cell {cell} is already filled")
        entries = _as_tuple(entries)
        cells = {**self._cells, cell: entries}
        word, in_range = _integer_word(cell, entries, self.n, self.k)
        index = self._index.copy() if self._index is not None and in_range else None
        if index is None or index.add(word):
            return KPartialSquare.from_cells(self.n, self.k, cells)
        child = KPartialSquare(self.n, self.k, cells)
        child._index = index
        return child

    def remove(self, cell: Cell) -> "KPartialSquare":
        """Return a new square with ``cell`` emptied (inverse of insert)."""
        if cell not in self._cells:
            raise SquareError(f"cell {cell} is empty, nothing to remove")
        updated = dict(self._cells)
        del updated[cell]
        return KPartialSquare(self.n, self.k, updated)

    def relabel(
        self,
        row_perm: "list[int] | tuple[int, ...] | None" = None,
        col_perm: "list[int] | tuple[int, ...] | None" = None,
        layer_perms: "list[list[int] | tuple[int, ...]] | None" = None,
    ) -> "KPartialSquare":
        """Permute rows, columns, and symbols independently per layer.

        Each permutation maps old index to new (``perm[old] == new``);
        None leaves that family unchanged.  These relabelings preserve
        both invariants and maximality, so the result skips revalidation.
        """
        n, k = self.n, self.k
        if layer_perms is None:
            layer_perms = [range(n)] * k
        elif len(layer_perms) != k:
            raise SquareError(f"need {k} layer permutations, got {len(layer_perms)}")
        perms = []
        for p in (row_perm, col_perm, *layer_perms):
            p = tuple(range(n) if p is None else p)
            q = _indices(p)
            if q is None or sorted(q) != list(range(n)):
                raise SquareError(f"{p} is not a permutation of 0..{n - 1}")
            perms.append(q)
        rp, cp, *lps = perms
        cells = {
            (rp[r], cp[c]): tuple(lps[j][e] for j, e in enumerate(entries))
            for (r, c), entries in self._cells.items()
        }
        return KPartialSquare(n, k, cells)

    def conjugate(self, coord_order: tuple[int, ...]) -> "KPartialSquare":
        """Permute the k+2 coordinate roles of every word.

        ``coord_order[i]`` names the old coordinate that becomes new
        coordinate ``i``.  Rows, columns and entry layers have equal
        status under the word-agreement condition, so any conjugate of a
        valid square is valid (and maximality is preserved).
        """
        order = _indices(coord_order)
        if order is None or sorted(order) != list(range(self.k + 2)):
            raise SquareError(f"coord_order must permute 0..{self.k + 1}, got {coord_order}")
        cells: dict[Cell, EntryTuple] = {}
        for w in self.words():
            new = tuple(w[i] for i in order)
            cell = (new[0], new[1])
            if cell in cells:
                # two words mapping to one cell means the input was invalid
                raise SquareError(f"conjugate collapses two words onto cell {cell}")
            cells[cell] = new[2:]
        return KPartialSquare(self.n, self.k, cells)

    # -- validation and accounting -------------------------------------

    def validate(self) -> ValidationReport:
        """Check both invariants; report-valued, never raises.  Keeps the index if valid.

        Only :meth:`Projections.fill` builds the index, from :func:`_word_array`'s
        array or, when that gives up, from the words of one per-cell pass that
        names every range violation.  Clashes are named in sorted word order: a
        word is compared with the earlier ones when adding it to the empty index
        clashes, or always after a range violation, as such values are no bits.
        """
        n, k = self.n, self.k
        violations: list[Violation] = []
        index = Projections(n, k + 2)
        array = _word_array(self._cells, n, k)
        if array is None:
            words = []
            for cell, entries in self._cells.items():
                word, in_range = _integer_word(cell, entries, n, k)
                if not in_range:
                    violations.append(Violation("range", (cell,), (), f"cell {cell} -> {entries} out of range"))
                if word is not None:
                    words.append((word, cell))
            array = None if violations else np.array([w for w, _ in words], dtype=np.int64)
        if array is not None:
            if index.fill(array):
                self._index = index
                return ValidationReport(ok=True, violations=())
            words = list(zip(map(tuple, array.tolist()), self._cells))
        words.sort()
        clashes: list[tuple[int, int, Violation]] = []
        for j, (wj, cj) in enumerate(words):
            if violations or index.add(wj):
                for i, (wi, ci) in enumerate(words[:j]):
                    coords = agreement_positions(wi, wj)
                    if len(coords) >= 2:
                        clashes.append((i, j, _classify(wi, wj, ci, cj, coords)))
        clashes.sort(key=lambda clash: clash[:2])
        violations.extend(v for _, _, v in clashes)
        return ValidationReport(ok=not violations, violations=tuple(violations))

    def frequencies(self) -> FrequencyProfile:
        """Row, column and per-layer symbol frequencies."""
        n, k = self.n, self.k
        row_counts = [0] * n
        col_counts = [0] * n
        layer_counts = [[0] * n for _ in range(k)]
        for (r, c), entries in self._cells.items():
            row_counts[r] += 1
            col_counts[c] += 1
            for j, e in enumerate(entries):
                layer_counts[j][e] += 1
        return FrequencyProfile(
            filled=len(self._cells),
            row_counts=tuple(row_counts),
            col_counts=tuple(col_counts),
            layer_counts=tuple(tuple(lc) for lc in layer_counts),
        )

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KPartialSquare):
            return NotImplemented
        return (self.n, self.k, self._cells) == (other.n, other.k, other._cells)

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self._cells.items())))

    def __repr__(self) -> str:
        return f"KPartialSquare(n={self.n}, k={self.k}, filled={len(self._cells)})"
