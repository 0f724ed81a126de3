"""Exhaustive ascending-size search over canonical squares.

A valid square is a set of words (row, col, entries...) that pairwise
agree in at most one coordinate, so squares of a given order are exactly
the cliques of a compatibility graph on the n**(k+2) possible words, and
a square is maximal when no word is compatible with all of its words.

The enumeration is orderly: squares are kept only in canonical form (the
lexicographically least sorted word list reachable by permuting rows,
columns, and each layer's symbols independently; coordinate roles are
never exchanged), and a canonical square of size F is grown only from
the canonical square obtained by deleting its largest word.  Removing
the largest word of a canonical square always leaves a canonical square:
a relabeling shrinking the remainder would, after re-inserting the image
of the deleted word, shrink the whole sorted list.  Each level is
completed before the next begins, so the first level containing a
maximal square proves the minimum size exactly, and completing level F
with no maximal square proves every maximal square exceeds F.

Canonicity is decided exactly.  A first-appearance cut rejects a list
in which some value first appears above its family's next unused label:
relabeling in order of first appearance keeps the earlier words and
lowers that one.  Otherwise a depth-first scan over partial relabelings
compares each remaining word's least image with the next word of the
list, one coordinate at a time: an image below it proves a smaller list
exists and ends the scan, an image above it drops the word, and each
word whose image equals it is committed in turn, one position deeper.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import combinations, product
from math import ceil, inf
from pathlib import Path

from .core import KPartialSquare, SquareError, Word
from .formats import ParseError

CHECKPOINT_VERSION = 1


def _word_table(n: int, k: int) -> list[Word]:
    return list(product(range(n), repeat=k + 2))


def _compat_masks(words: list[Word]) -> list[int]:
    """``masks[i]`` has bit j set when words i and j agree in at most one coordinate."""
    width = len(words[0])
    n = 1 + max(map(max, words))
    having = [[0] * n for _ in range(width)]
    for i, w in enumerate(words):
        for p, x in enumerate(w):
            having[p][x] |= 1 << i
    full = (1 << len(words)) - 1
    pairs = list(combinations(range(width), 2))
    masks = []
    for w in words:
        clash = 0  # the words agreeing with w in some pair (a, b), w included
        for a, b in pairs:
            clash |= having[a][w[a]] & having[b][w[b]]
        masks.append(full & ~clash)
    return masks


def _bits_above(mask: int, floor: int):
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


# -- canonical forms under row/col/per-layer symbol permutations ------------------


def _smaller_exists(i: int, left: list[int], target: list[Word],
                    pairs: list[tuple[tuple[int, int], ...]], lab: list[int], nxt: list[int]) -> bool:
    """True when the words ``left`` can map below ``target[i:]`` under some
    completion of the relabeling that maps the committed words onto ``target[:i]``.

    ``lab[p * n + x]`` labels value x of family p (row, col, each layer),
    -1 while unassigned; labels go out in order 0..nxt[p]-1, so a word's
    least image gives each unassigned value nxt[p].  ``pairs[j]`` lists the
    (family, slot) pairs of ``target[j]``.  A module-level function, as a
    recursive closure would leave a reference cycle behind every call.
    """
    if i == len(target):
        return False  # reached full equality, not strictly smaller
    if i:
        goal = target[i]
        realizers = []
        for j in left:
            for p, s in pairs[j]:
                v = lab[s]
                if v < 0:
                    v = nxt[p]
                if v != goal[p]:
                    if v < goal[p]:
                        return True
                    break
            else:
                realizers.append(j)
    else:
        realizers = left  # with no labels every least image is 0...0 = target[0]
    for j in realizers:
        fresh = []
        for p, s in pairs[j]:
            if lab[s] < 0:
                lab[s] = nxt[p]
                nxt[p] += 1
                fresh.append((p, s))
        found = _smaller_exists(i + 1, [t for t in left if t != j], target, pairs, lab, nxt)
        for p, s in fresh:
            lab[s] = -1
            nxt[p] -= 1
        if found:
            return True
    return False


def is_canonical(words: "tuple[Word, ...] | list[Word]") -> bool:
    """True when no relabeling yields a strictly smaller sorted word list."""
    target = sorted(words)
    if not target:
        return True
    width = len(target[0])
    nxt = [0] * width  # the first-appearance cut
    for w in target:
        for p, x in enumerate(w):
            if x > nxt[p]:
                return False
            if x == nxt[p]:
                nxt[p] += 1
    n = max(nxt)
    pairs = [tuple((p, p * n + x) for p, x in enumerate(w)) for w in target]
    return not _smaller_exists(
        0, list(range(len(target))), target, pairs, [-1] * (width * n), [0] * width
    )


def canonical_form(words: "tuple[Word, ...] | list[Word]") -> tuple[Word, ...]:
    """The least sorted word list over all relabelings (canonical representative)."""
    source = tuple(sorted(words))
    if not source:
        return ()
    width = len(source[0])
    n = 1 + max(map(max, source))
    # every state committed the same images so far, so they share nxt
    nxt = [0] * width
    states = {((-1,) * (width * n), frozenset(source))}
    output: list[Word] = []
    for _ in source:
        images = [
            (tuple(nxt[p] if lab[p * n + x] < 0 else lab[p * n + x] for p, x in enumerate(w)),
             lab, remaining, w)
            for lab, remaining in states
            for w in remaining
        ]
        best = min(image for image, _, _, _ in images)
        output.append(best)
        states = set()
        for image, lab, remaining, w in images:
            if image == best:
                new_lab = list(lab)
                for p, x in enumerate(w):
                    new_lab[p * n + x] = best[p]
                states.add((tuple(new_lab), remaining - {w}))
        nxt = [max(c, v + 1) for c, v in zip(nxt, best)]
    return tuple(output)


# -- search driver ------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the ascending-size scan for a maximal square.

    ``min_size`` is exact when ``exact`` is set (all smaller levels were
    completed); ``no_maximal_below`` is the proven lower bound either
    way.  ``nodes`` counts canonical squares accepted during this run.
    """

    n: int
    k: int
    min_size: int | None
    witness: KPartialSquare | None
    exact: bool
    no_maximal_below: int
    levels_completed: int
    nodes: int
    budget: int | None
    exhausted_budget: bool


class _Budget(Exception):
    pass


def _save_checkpoint(path: Path, n: int, k: int, level: int,
                     queue: list[tuple[tuple[int, ...], int]], nodes: int) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "n": n,
        "k": k,
        "level": level,
        "nodes": nodes,
        "queue": [list(words) for words, _ in queue],
    }
    # an interrupted save leaves the previous checkpoint whole
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(doc) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _is_index(value: object, limit: float = inf) -> bool:
    return type(value) is int and 0 <= value < limit


def _load_checkpoint(path: Path, n: int, k: int, compat: list[int]):
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"checkpoint {path} is not readable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"checkpoint {path} is not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise SquareError(f"unsupported checkpoint version {doc.get('version')!r}")
    raw_queue = doc.get("queue")
    fields_ok = all(_is_index(doc.get(field)) for field in ("n", "k", "level", "nodes"))
    queue_ok = isinstance(raw_queue, list) and all(
        isinstance(ix, list) and all(_is_index(i, len(compat)) for i in ix) for ix in raw_queue
    )
    if not (fields_ok and queue_ok):
        raise ParseError(
            f"checkpoint {path} needs non-negative integers n, k, level and nodes "
            f"and a queue of word-index lists in 0..{len(compat) - 1}"
        )
    if doc["n"] != n or doc["k"] != k:
        raise SquareError(
            f"checkpoint is for n={doc['n']}, k={doc['k']}, not n={n}, k={k}"
        )
    queue = []
    full = (1 << len(compat)) - 1
    for indices in raw_queue:
        mask = full
        for i in indices:
            mask &= compat[i]
        queue.append((tuple(indices), mask))
    return doc["level"], queue, doc["nodes"]


def _to_square(n: int, k: int, words: list[Word]) -> KPartialSquare:
    return KPartialSquare.from_words(n, k, words)


def min_maximal(
    n: int,
    k: int = 2,
    budget: int | None = None,
    checkpoint: "str | Path | None" = None,
    resume: bool = False,
) -> SearchResult:
    """Find the least filled-cell count of any maximal square of order n.

    Levels are enumerated in ascending size; the run stops at the first
    level containing a maximal square, which is then the exact minimum.
    ``budget`` caps accepted canonical squares for this run; when it is
    exhausted the result reports the proven bound so far.  ``checkpoint``
    names a JSON file written at each completed level; with ``resume``
    the run restarts from the last completed level in that file.
    """
    table = _word_table(n, k)
    compat = _compat_masks(table)
    full = (1 << len(table)) - 1

    level_num = 0
    queue: list[tuple[tuple[int, ...], int]] = [((), full)]
    nodes = 0
    cp_path = Path(checkpoint) if checkpoint else None
    if resume:
        if cp_path is None or not cp_path.exists():
            raise SquareError("resume requested but no checkpoint file found")
        level_num, queue, nodes = _load_checkpoint(cp_path, n, k, compat)

    spent = 0
    exhausted_budget = False
    min_size = None
    witness = None

    while queue:
        maximal_here = [entry for entry in queue if entry[1] == 0]
        if maximal_here:
            min_size = level_num
            words = [table[i] for i in maximal_here[0][0]]
            witness = _to_square(n, k, words)
            break
        next_queue: list[tuple[tuple[int, ...], int]] = []
        try:
            for words_idx, mask in queue:
                floor = words_idx[-1] if words_idx else -1
                for w in _bits_above(mask, floor):
                    child = words_idx + (w,)
                    if is_canonical([table[i] for i in child]):
                        if budget is not None and spent >= budget:
                            raise _Budget
                        spent += 1
                        next_queue.append((child, mask & compat[w]))
        except _Budget:
            exhausted_budget = True
            if cp_path is not None:
                _save_checkpoint(cp_path, n, k, level_num, queue, nodes)
            break
        level_num += 1
        nodes += len(next_queue)
        queue = next_queue
        if cp_path is not None:
            _save_checkpoint(cp_path, n, k, level_num, queue, nodes)

    if min_size is not None:
        completed = min_size  # levels 1..min_size fully enumerated
        no_below = min_size
        exact = True
        if k == 2 and min_size < ceil(n * n / 3):
            raise SquareError(
                f"found a maximal square of size {min_size} below the proven "
                f"bound {ceil(n * n / 3)}; this indicates a search bug"
            )
    else:
        completed = level_num
        no_below = level_num + 1
        exact = False
    return SearchResult(
        n=n,
        k=k,
        min_size=min_size,
        witness=witness,
        exact=exact,
        no_maximal_below=no_below,
        levels_completed=completed,
        nodes=nodes,
        budget=budget,
        exhausted_budget=exhausted_budget,
    )


@dataclass(frozen=True)
class ExhaustiveReport:
    """Full census of canonical maximal squares of one order.

    ``histogram`` maps filled-cell count to the number of canonical
    maximal squares of that size; ``minimum_witnesses`` holds every
    canonical maximal square of the least size.
    """

    n: int
    k: int
    histogram: dict[int, int]
    min_size: int | None
    minimum_witnesses: tuple[KPartialSquare, ...]
    nodes: int
    all_satisfy_bound: bool
    tight_uniform_frequency: bool | None


def verify_bound_exhaustive(n: int, k: int = 2) -> ExhaustiveReport:
    """Enumerate every canonical square and census the maximal ones.

    Intended for tiny orders; confirms that no maximal square fills
    fewer than ceil(n^2 / 3) cells (for k = 2) and reports whether the
    minimum-size squares have all frequencies equal to n / 3 (only
    decided when n is divisible by 3 and the minimum meets n^2 / 3).
    """
    table = _word_table(n, k)
    compat = _compat_masks(table)
    full = (1 << len(table)) - 1

    queue: list[tuple[tuple[int, ...], int]] = [((), full)]
    level = 0
    nodes = 0
    histogram: dict[int, int] = {}
    min_size: int | None = None
    minimum_witnesses: list[KPartialSquare] = []

    while queue:
        for words_idx, mask in queue:
            if mask == 0 and words_idx:
                histogram[level] = histogram.get(level, 0) + 1
                if min_size is None:
                    min_size = level
                if level == min_size:
                    minimum_witnesses.append(
                        _to_square(n, k, [table[i] for i in words_idx])
                    )
        next_queue = []
        for words_idx, mask in queue:
            floor = words_idx[-1] if words_idx else -1
            for w in _bits_above(mask, floor):
                child = words_idx + (w,)
                if is_canonical([table[i] for i in child]):
                    next_queue.append((child, mask & compat[w]))
        nodes += len(next_queue)
        queue = next_queue
        level += 1

    bound = ceil(n * n / 3) if k == 2 else 1
    all_ok = all(size >= bound for size in histogram) if k == 2 else True
    tight: bool | None = None
    if k == 2 and n % 3 == 0 and min_size == n * n // 3:
        tight = all(
            set(sq.frequencies().row_counts) == {n // 3}
            and set(sq.frequencies().col_counts) == {n // 3}
            and all(set(lc) == {n // 3} for lc in sq.frequencies().layer_counts)
            for sq in minimum_witnesses
        )
    return ExhaustiveReport(
        n=n,
        k=k,
        histogram=dict(sorted(histogram.items())),
        min_size=min_size,
        minimum_witnesses=tuple(minimum_witnesses),
        nodes=nodes,
        all_satisfy_bound=all_ok,
        tight_uniform_frequency=tight,
    )
