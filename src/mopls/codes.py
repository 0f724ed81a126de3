"""The filled cells of a square as a code over an n-letter alphabet.

Each filled cell reads as a word (row, col, entry_1, ..., entry_k) of
length k + 2.  Two distinct filled cells agree in at most one coordinate,
so the code has minimum Hamming distance at least k + 1.  A word is a
legal insertion exactly when it is at distance at least k + 1 from every
codeword, so the square is maximal precisely when no such word exists,
i.e. when the covering radius is at most k.

For two layers and n > 3 this sharpens to a biconditional used as the
third independent maximality checker: maximal if and only if the minimum
distance is exactly 3 and the covering radius exactly 2.  (Distance 4
needs every row, column and symbol to appear at most once, and covering
radius 1 forces the unique 9-word perfect configuration at n = 3.)

:func:`min_distance` uses the same strength-2 view as
:class:`mopls.core.Projections`: two distinct words agree in two or more
coordinates only when they share the value pair of some coordinate
pair.  A coordinate pair whose value pairs are all distinct is skipped;
a valid square has no other, so its distance costs one set per
coordinate pair, and only words that share a value pair are compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .core import KPartialSquare, Word
from .maximality import is_maximal

#: Exhaustive covering-radius scans are limited to this many words (at k = 2, n <= 102).
WORD_SPACE_LIMIT = 11 * 10**7

@dataclass(frozen=True)
class Code:
    """A set of equal-length words over {0, ..., alphabet_size - 1}."""

    alphabet_size: int
    length: int
    words: tuple[Word, ...]  # sorted lexicographically

    def __post_init__(self) -> None:
        words = self.words
        letters = set(chain.from_iterable(words))
        if set(map(len, words)) - {self.length} or not all(0 <= x < self.alphabet_size for x in letters):
            for w in words:  # name the first bad word
                if len(w) != self.length:
                    raise ValueError(f"word {w} has length {len(w)}, expected {self.length}")
                if any(not 0 <= x < self.alphabet_size for x in w):
                    raise ValueError(f"word {w} outside alphabet of size {self.alphabet_size}")
        if len(set(words)) != len(words):
            raise ValueError("duplicate codewords")


def to_code(square: KPartialSquare) -> Code:
    return Code(
        alphabet_size=square.n, length=square.k + 2, words=square.words()
    )


def min_distance(code: Code) -> int:
    """Least Hamming distance between distinct codewords; needs two of them.

    Words that share no coordinate value are ``length`` apart.  Otherwise, for
    each coordinate pair whose value pairs repeat, each word is compared with
    the earlier words of its value pair, until two agree in ``length - 1`` places.
    """
    words = code.words
    if len(words) < 2:
        raise ValueError(f"minimum distance needs at least 2 codewords, have {len(words)}")
    length = code.length
    columns = list(zip(*words))
    if all(len(set(column)) == len(words) for column in columns):
        return length
    most = 1  # the most coordinates two distinct words agree in
    for a, b in combinations(range(length), 2):
        if len(set(zip(columns[a], columns[b]))) == len(words):
            continue
        buckets: dict[tuple[int, int], list[Word]] = {}
        for w in words:
            bucket = buckets.setdefault((w[a], w[b]), [])
            for v in bucket:
                most = max(most, sum(x == y for x, y in zip(v, w)))
            if most == length - 1:
                return 1
            bucket.append(w)
    return length - most


def covering_radius(code: Code) -> int:
    """Greatest distance from any word of the full space to the code.

    Exhaustive over all alphabet_size ** length words, computed as a
    breadth-first search over Hamming space.  The words within distance d
    of the code are kept as bits: one packed row along the last coordinate
    for each prefix of the other coordinates, in the narrowest unsigned
    integer that holds n bits, or in uint64 limbs above 64 letters.  One
    step adds every word one substitution away: on each other axis a word
    is reached once any word of its line is (an OR-reduction along that
    axis), and on the last axis every non-empty row becomes full.  The
    radius is the number of steps until every row is full.
    """
    if not code.words:
        raise ValueError("covering radius of an empty code is undefined")
    n, length = code.alphabet_size, code.length
    space = n**length
    if space > WORD_SPACE_LIMIT:
        raise ValueError(
            f"word space {n}^{length} = {space} exceeds the scan limit {WORD_SPACE_LIMIT}"
        )
    width = 8
    while width < min(n, 64):
        width *= 2
    dtype = np.dtype(f"uint{width}")
    limbs = -(-n // width)
    full = np.full(limbs, (1 << width) - 1, dtype=dtype)
    full[-1] = (1 << (n - width * (limbs - 1))) - 1
    words = np.fromiter(
        chain.from_iterable(code.words), dtype=np.int64, count=len(code.words) * length
    ).reshape(-1, length)
    last = words[:, -1]
    # limb-major, so that a step's work across limbs runs over whole planes
    reached = np.zeros((limbs,) + (n,) * (length - 1), dtype=dtype)
    # two codewords may share a limb, so their bits are OR-ed in, not
    # assigned; the shift stays in the row type, since NumPy 1.x promotes
    # uint64 with int64 to float64
    index = (last // width,) + tuple(words[:, :-1].T)
    np.bitwise_or.at(reached, index, dtype.type(1) << (last % width).astype(dtype))
    planes = reached.reshape(limbs, -1)
    full_rows = full.reshape((limbs,) + (1,) * (length - 1))
    radius = 0
    while not (np.bitwise_and.reduce(planes, axis=1) == full).all():
        lines = [np.bitwise_or.reduce(reached, axis=a, keepdims=True) for a in range(1, length)]
        nonempty = reached.any(axis=0)
        for line in lines:
            reached |= line
        np.copyto(reached, full_rows, where=nonempty)
        radius += 1
    return radius


@dataclass(frozen=True)
class CodeReport:
    """Code parameters of a square next to its directly computed maximality.

    ``consistent`` applies the rule matching the square's shape: for two
    layers above order 3, maximality must coincide with (distance 3,
    radius 2); otherwise maximality must imply radius at most k.
    ``min_distance`` is None below two words and ``covering_radius`` None
    for the empty square, which is never maximal.
    """

    n: int
    k: int
    size: int
    length: int
    min_distance: int | None
    covering_radius: int | None
    maximal: bool
    rule: str
    consistent: bool


def check_code_equivalence(square: KPartialSquare) -> CodeReport:
    code = to_code(square)
    maximal = is_maximal(square)
    md = min_distance(code) if len(code.words) >= 2 else None
    radius = covering_radius(code) if code.words else None
    if square.k == 2 and square.n > 3:
        rule = "maximal iff distance 3 and radius 2"
        consistent = maximal == (md == 3 and radius == 2)
    else:
        rule = f"maximal implies radius <= {square.k}"
        consistent = (not maximal) or radius <= square.k
    return CodeReport(
        n=square.n,
        k=square.k,
        size=len(code.words),
        length=code.length,
        min_distance=md,
        covering_radius=radius,
        maximal=maximal,
        rule=rule,
        consistent=consistent,
    )


def code_to_json(code: Code) -> str:
    doc = {
        "format": "code",
        "version": 1,
        "alphabet_size": code.alphabet_size,
        "length": code.length,
        "size": len(code.words),
        "words": [list(w) for w in code.words],
    }
    return json.dumps(doc, indent=2) + "\n"
