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
pair.  One sort per coordinate pair finds the repeated pairs; a valid
square has none, so its distance costs O(F * C(L, 2)) for F words of
length L, and only words that share a pair are ever compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import KPartialSquare, Word
from .maximality import is_maximal

#: Exhaustive covering-radius scans are limited to this many words.
WORD_SPACE_LIMIT = 10**7

#: About the most keys ``min_distance`` sorts, and letters it compares, at
#: once: 8 MB of int64 each.
_DISTANCE_BLOCK = 1 << 20


@dataclass(frozen=True)
class Code:
    """A set of equal-length words over {0, ..., alphabet_size - 1}."""

    alphabet_size: int
    length: int
    words: tuple[Word, ...]  # sorted lexicographically

    def __post_init__(self) -> None:
        for w in self.words:
            if len(w) != self.length:
                raise ValueError(f"word {w} has length {len(w)}, expected {self.length}")
            if any(not 0 <= x < self.alphabet_size for x in w):
                raise ValueError(f"word {w} outside alphabet of size {self.alphabet_size}")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate codewords")


def to_code(square: KPartialSquare) -> Code:
    return Code(
        alphabet_size=square.n, length=square.k + 2, words=square.words()
    )


def _agreement(ranks: np.ndarray, first: np.ndarray, second: np.ndarray) -> int:
    """The most coordinates in which word ``first[i]`` agrees with word
    ``second[i]`` (distinct words), each unordered pair compared once, in
    blocks of at most ``_DISTANCE_BLOCK`` letters."""
    size, length = ranks.shape
    pairs = np.unique(np.minimum(first, second) * size + np.maximum(first, second))
    step = max(1, _DISTANCE_BLOCK // length)
    return max(
        int((ranks[block // size] == ranks[block % size]).sum(axis=1).max())
        for block in (pairs[start:start + step] for start in range(0, len(pairs), step))
    )


def min_distance(code: Code) -> int:
    """Least Hamming distance between distinct codewords; needs two of them.

    Two distinct words agree in two or more coordinates only if they share
    the value pair of some coordinate pair, so each pair's projection is
    sorted once, as a key of the two coordinates' value ranks (no alphabet
    can overflow it).  When no projection repeats, no two words agree in
    two coordinates: the distance is ``length - 1`` when some single
    coordinate repeats and ``length`` otherwise.  Else only the words inside
    a run of one repeated value pair are compared, each with the one
    ``shift`` places on in its run, for shift = 1, 2, ... while some run is
    longer than the shift.  Coordinate pairs are sorted in blocks of about
    ``_DISTANCE_BLOCK`` keys.
    """
    if len(code.words) < 2:
        raise ValueError(f"minimum distance needs at least 2 codewords, have {len(code.words)}")
    values = np.array(code.words)
    size, length = values.shape
    # ranks[w, p]: the rank of word w's letter p among the distinct letters at
    # p; stable like the key sort below, so one sort routine is paged in
    order = np.argsort(values, axis=0, kind="stable")
    rising = np.diff(np.take_along_axis(values, order, axis=0), axis=0) != 0
    ranks = np.zeros((size, length), dtype=np.int64)
    np.put_along_axis(ranks, order[1:], np.cumsum(rising, axis=0), axis=0)
    most = 0 if rising.all() else 1  # the most coordinates two distinct words agree in
    pairs = np.array(list(combinations(range(length), 2)), dtype=np.intp).reshape(-1, 2)
    step = max(1, _DISTANCE_BLOCK // size)
    for start in range(0, len(pairs), step):
        a, b = pairs[start:start + step].T
        keys = ranks[:, a] * size + ranks[:, b]
        order = np.argsort(keys, axis=0, kind="stable")
        # the runs of equal keys, one column after another, each in word order
        cut = np.ones(keys.shape, dtype=bool)
        cut[1:] = np.diff(np.take_along_axis(keys, order, axis=0), axis=0) != 0
        if cut.all():
            continue
        lengths = np.diff(np.append(np.flatnonzero(cut.T), cut.size))
        run = np.repeat(np.arange(len(lengths)), lengths)
        run_length = np.repeat(lengths, lengths)
        word = order.T.ravel()
        shift = 1
        while most < length - 1:
            longer = run_length > shift
            if not longer.any():
                break
            word, run, run_length = word[longer], run[longer], run_length[longer]
            inside = run[shift:] == run[:-shift]
            most = max(most, _agreement(ranks, word[:-shift][inside], word[shift:][inside]))
            shift += 1
    return length - most


def covering_radius(code: Code) -> int:
    """Greatest distance from any word of the full space to the code.

    Exhaustive over all alphabet_size ** length words, computed as a
    Hamming distance transform: starting from 0 at codewords, relax each
    coordinate axis once, in ascending order (one substitution costs 1).
    After the axes 0..j the entry of a word is its least distance, counted
    on those axes, to a codeword that agrees with it on all later axes, so
    one pass ends at the exact distances.
    """
    if not code.words:
        raise ValueError("covering radius of an empty code is undefined")
    n, length = code.alphabet_size, code.length
    space = n**length
    if space > WORD_SPACE_LIMIT:
        raise ValueError(
            f"word space {n}^{length} = {space} exceeds the scan limit {WORD_SPACE_LIMIT}"
        )
    # no distance exceeds length, which numpy caps at 64 axes: int8 holds them
    dist = np.full((n,) * length, length, dtype=np.int8)
    index = tuple(np.fromiter((w[p] for w in code.words), dtype=np.int64) for p in range(length))
    dist[index] = 0
    for axis in range(length):
        np.minimum(dist, dist.min(axis=axis, keepdims=True) + 1, out=dist)
    return int(dist.max())


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
