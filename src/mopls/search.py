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

Canonicity is decided by a depth-first scan over partial relabelings
that tracks, per remaining word, the least image reachable under the
current partial assignment; a branch is cut as soon as that least image
passes the word the canonical list requires next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from math import ceil, inf
from pathlib import Path

from .core import KPartialSquare, SquareError, Word
from .formats import ParseError

CHECKPOINT_VERSION = 1


def _agreement(a: Word, b: Word) -> int:
    return sum(1 for x, y in zip(a, b) if x == y)


def _word_table(n: int, k: int) -> list[Word]:
    return list(product(range(n), repeat=k + 2))


def _compat_masks(words: list[Word]) -> list[int]:
    total = len(words)
    masks = [0] * total
    for i in range(total):
        for j in range(i + 1, total):
            if _agreement(words[i], words[j]) <= 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
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


def _min_image(word: Word, maps: list[dict[int, int]], used: list[set[int]]) -> Word:
    """Least image of one word under any completion of the partial maps.

    Coordinates belong to distinct families (row, col, each layer), so
    the minimum is attained coordinate-wise: keep assigned values, give
    unassigned ones the smallest value unused in their family.
    """
    out = []
    for p, x in enumerate(word):
        if x in maps[p]:
            out.append(maps[p][x])
        else:
            v = 0
            while v in used[p]:
                v += 1
            out.append(v)
    return tuple(out)


def _commit(word: Word, image: Word, maps: list[dict[int, int]], used: list[set[int]]):
    new_maps = [dict(m) for m in maps]
    new_used = [set(u) for u in used]
    for p, x in enumerate(word):
        if x not in new_maps[p]:
            new_maps[p][x] = image[p]
            new_used[p].add(image[p])
    return new_maps, new_used


def is_canonical(words: "tuple[Word, ...] | list[Word]") -> bool:
    """True when no relabeling yields a strictly smaller sorted word list."""
    target = tuple(sorted(words))
    if not target:
        return True
    width = len(target[0])

    def smaller_exists(i, maps, used, remaining) -> bool:
        if i == len(target):
            return False  # reached full equality, not strictly smaller
        best: Word | None = None
        realizers: list[Word] = []
        for w in remaining:
            img = _min_image(w, maps, used)
            if best is None or img < best:
                best, realizers = img, [w]
            elif img == best:
                realizers.append(w)
        assert best is not None
        if best < target[i]:
            return True
        if best > target[i]:
            return False
        for w in realizers:
            new_maps, new_used = _commit(w, best, maps, used)
            if smaller_exists(i + 1, new_maps, new_used, remaining - {w}):
                return True
        return False

    return not smaller_exists(
        0, [{} for _ in range(width)], [set() for _ in range(width)], frozenset(target)
    )


def canonical_form(words: "tuple[Word, ...] | list[Word]") -> tuple[Word, ...]:
    """The least sorted word list over all relabelings (canonical representative)."""
    source = tuple(sorted(words))
    if not source:
        return ()
    width = len(source[0])
    states = [([{} for _ in range(width)], [set() for _ in range(width)], frozenset(source))]
    output: list[Word] = []
    for _ in range(len(source)):
        best: Word | None = None
        chosen: list[tuple[int, Word]] = []  # (state index, word)
        for si, (maps, used, remaining) in enumerate(states):
            for w in remaining:
                img = _min_image(w, maps, used)
                if best is None or img < best:
                    best, chosen = img, [(si, w)]
                elif img == best:
                    chosen.append((si, w))
        assert best is not None
        output.append(best)
        next_states = []
        seen = set()
        for si, w in chosen:
            maps, used, remaining = states[si]
            new_maps, new_used = _commit(w, best, maps, used)
            key = (
                tuple(tuple(sorted(m.items())) for m in new_maps),
                remaining - {w},
            )
            if key not in seen:
                seen.add(key)
                next_states.append((new_maps, new_used, remaining - {w}))
        states = next_states
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
    path.write_text(json.dumps(doc) + "\n")


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
