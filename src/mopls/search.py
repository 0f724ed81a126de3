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
with no maximal square proves every maximal square exceeds F.  The
census visits the same squares depth first, each square's words in
ascending order, which within each size is the level order.

Canonicity is decided exactly.  A first-appearance cut rejects a list
in which some value first appears above its family's next unused label:
relabeling in order of first appearance keeps the earlier words and
lowers that one.  Otherwise a depth-first scan over partial relabelings
compares each remaining word's least image with the next word of the
list, one coordinate at a time: an image below it proves a smaller list
exists and ends the scan, an image above it drops the word, and each
word whose image equals it is committed in turn, one position deeper.

The search driver asks about every child C of a canonical parent P in
turn, and C's scan would repeat P's.  So C is decided from the scan of P
and its one new word w, the largest.  C can be canonical only if P is.
When P is canonical its scan finds nothing smaller, so it visits every
tie node (depth, labels, remaining words); these nodes form P's tie tree.
Every branch of C's scan either passes through a tie node of P, where w
may be the word whose least image falls below the list, or commits w at
some depth.  So C is canonical exactly when w's least image at no tie
node falls below the list's word at that depth (at a leaf, where P maps
onto itself, below w itself), and the scan finishes without a smaller
list from each tie node where w's image equals that word.  One walk,
``_smaller_with``, decides this, and the scans it commits are C's new
nodes: C's tree is P's with w among every node's remaining words, plus
those scans.  The first s + 1 nodes of the tree of a P of s words, kept
in order, are the identity relabeling at depths 0..s, where value x of
family p has the least image min(x, used[p]).  So the words whose image
falls below the list there, and the words whose image ties it, are a few
ANDs and ORs of per-family value masks, for every word of the table at
once.  The leaf of that path is the first-appearance cut, and every word
ties at its root.  The other nodes are walked by label, in any order.
The level driver keeps the trees of the current queue entry's prefixes
on a stack and grows each from the one below it.  The queue is in
lexicographic order, so siblings share their parent's tree and an entry
regrows only what it does not share with the one before.  Only the words
that pass a parent's identity path are tried, each by ``is_canonical``
with the parent's tree.  A parent with no candidate word gets no tree.
So a child later expanded is walked twice, to accept it and to grow its
tree.  The census's depth-first driver holds one path's trees and expands
an accepted child at once, so it decides a child with candidates by
growing its tree, and calls ``is_canonical`` only on the others.
The value masks (shared with the compatibility masks) and the (family,
slot) pairs the scans index labels by are computed once per search, with
the table's order as the slot width.  ``is_canonical`` without a tree
sorts the list and grows its tree word by word from the empty list's:
the list is canonical when it has one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, product
from math import inf
from operator import or_
from pathlib import Path
from typing import Sequence

from .core import KPartialSquare, SelfCheckError, Word, bits_above, lower_bound
from .formats import ParseError, read_json, write_atomic

CHECKPOINT_VERSION = 1

#: The most words a search's word table holds: its compatibility masks take
#: one bit per pair of words, 12.5 MB here.  Every order up to 10 fits for
#: k = 2, and up to 6 for k = 3.
WORD_TABLE_LIMIT = 10**4


def _word_table(n: int, k: int) -> list[Word]:
    """Every word of order n, in lexicographic order; raises ValueError for
    n < 1, k < 1 or more than ``WORD_TABLE_LIMIT`` words."""
    if n < 1:
        raise ValueError(f"order must be positive, got n={n}")
    if k < 1:
        raise ValueError(f"layer count must be positive, got k={k}")
    if n ** (k + 2) > WORD_TABLE_LIMIT:
        raise ValueError(
            f"order {n} with k={k} has {n}^{k + 2} words; a search holds at most {WORD_TABLE_LIMIT}"
        )
    return list(product(range(n), repeat=k + 2))


def _compat_masks(words: list[Word], having: list[list[int]]) -> list[int]:
    """``masks[i]`` has bit j set when words i and j agree in at most one
    coordinate; ``having`` is the value masks of ``_word_index(words, ...)``."""
    full = (1 << len(words)) - 1
    pairs = list(combinations(range(len(words[0])), 2))
    masks = []
    for w in words:
        clash = 0  # the words agreeing with w in some pair (a, b), w included
        for a, b in pairs:
            clash |= having[a][w[a]] & having[b][w[b]]
        masks.append(full & ~clash)
    return masks


# -- canonical forms under row/col/per-layer symbol permutations ------------------


def _smaller_exists(i: int, left: list[int], target: Sequence[Word],
                    pairs: Sequence[tuple[tuple[int, int], ...]], lab: list[int], nxt: list[int],
                    nodes: list | None = None) -> bool:
    """True when the words ``left`` can map below ``target[i:]`` under some
    completion of the relabeling that maps the committed words onto ``target[:i]``.

    ``lab[p * n + x]`` labels value x of family p (row, col, each layer),
    -1 while unassigned; labels go out in order 0..nxt[p]-1, so a word's
    least image gives each unassigned value nxt[p].  ``pairs[j]`` lists the
    (family, slot) pairs of ``target[j]``.  ``nodes``, when given, receives
    every node the scan visits as (depth, label table, nxt, remaining
    words), uncopied: ``_commit`` commits each tying word on fresh lists, so
    a node owns its lists and nothing writes to them afterwards.  A
    module-level function, as a recursive closure would leave a reference
    cycle behind every call.
    """
    if nodes is not None:
        nodes.append((i, lab, nxt, left))
    if i == len(target):
        return False  # reached full equality, not strictly smaller
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
    for j in realizers:
        if _commit((i, lab, nxt, [t for t in left if t != j]), pairs[j], target, pairs, nodes):
            return True
    return False


def _commit(node: tuple, wp: tuple, target: Sequence[Word], pairs: tuple, nodes: list | None = None) -> bool:
    """``_smaller_exists`` once the word with pairs ``wp`` takes ``node``'s position: the one
    code that commits a word, on copies of the node's lists, which the new node owns."""
    i, lab, used, left = node
    lab = lab[:]
    used = used[:]
    for p, s in wp:
        if lab[s] < 0:
            lab[s] = used[p]
            used[p] += 1
    return _smaller_exists(i + 1, left, target, pairs, lab, used, nodes)


def _word_index(words: "Sequence[Word]", order: int) -> tuple:
    """What the scans look up about a word set, built once per word table.

    (order, slots, having, below, atleast): ``slots[w]`` is word w's bit,
    its position in ``words``, and its (family, slot) pairs, slot
    ``p * order + x`` for value x of family p; ``order`` must exceed every
    value.  ``having[p][x]`` masks the words whose value in family p is x;
    ``below[p][c]`` and ``atleast[p][c]``, for c in 0..order + 1, mask the
    words whose value in family p is below c and at least c.
    """
    having = [[0] * order for _ in words[0]]
    for i, w in enumerate(words):
        for p, x in enumerate(w):
            having[p][x] |= 1 << i
    full = (1 << len(words)) - 1
    below = [list(accumulate(row + [0], or_, initial=0)) for row in having]
    atleast = [[full & ~m for m in row] for row in below]
    slots = {w: (i, tuple((p, p * order + x) for p, x in enumerate(w))) for i, w in enumerate(words)}
    return order, slots, having, below, atleast


def _smaller_with(tree: tuple, words: "Sequence[Word]", grown: list | None = None) -> bool:
    """True when some relabeling maps the sorted list ``words`` below itself,
    where ``tree`` is the tie tree of ``words[:-1]`` and its word set holds
    the last word w.

    w's bit in ``passing`` decides the identity path; each other node is
    walked by label, and the first where w's image falls below the list
    settles it.  Then w is committed at every node where it ties the list,
    and each such scan, recorded into ``grown`` when given, must find
    nothing smaller.
    """
    passing, path, rest, pairs, slots, _, _ = tree
    w = words[-1]  # the one new word
    bit, wp = slots[w]
    if not passing >> bit & 1:
        return True  # w maps below a word on the identity path, or fails the cut
    ties = [node for tie, node in path if tie >> bit & 1]
    for i, lab, used, left in rest:
        goal = words[i]
        for p, s in wp:
            v = lab[s]
            if v < 0:
                v = used[p]
            if v != goal[p]:
                if v < goal[p]:
                    return True  # w maps below word i (at a leaf, below itself)
                break
        else:
            ties.append((i, lab, used, left))
    pairs += (wp,)
    for node in ties:  # w takes position i and the scan finishes from there
        if _commit(node, wp, words, pairs, grown):
            return True
    return False


def _tie_tree(prefix: "Sequence[Word]", index: tuple, parent: tuple | None = None):
    """The exact scan of a list, kept to decide and to grow its children.

    ``index`` is ``_word_index`` of a word set that holds the list and
    every new word to be tried after it.  None when the list fails the
    first-appearance cut or is not canonical.  Otherwise (passing, path,
    rest, pairs, slots, leaf, fails): the scan's nodes, each (depth, label
    table, used labels, remaining words), are ``path``'s and ``leaf``, in
    the scan's order, and ``rest``, in any order.  Those at depths 0..s,
    s = len(prefix), are the identity relabeling, where a value x of
    family p has the least image ``min(x, used[p])``; so ``passing`` masks
    the words whose image falls below the list at none of them (at the
    leaf, below the word itself: the first-appearance cut), ``fails`` those
    whose image falls below it before the leaf, and ``path`` pairs the
    nodes at depths 0..s-1 with the masks of the words whose image ties
    the list there (every word, at the root).  ``pairs`` holds the (family,
    slot) pairs of the list's words; ``slots`` is the index's.

    The tree is grown from ``parent``, the tree of ``prefix[:-1]``, by the
    last word w: w joins every node's remaining words, and the scans that
    ``_smaller_with`` commits where w's image ties the list come before the
    parent's nodes in ``rest``.  Without a parent it is grown word by word
    from the empty list's tree, the one tree not grown.
    """
    order, slots, having, below, atleast = index
    full = (1 << len(slots)) - 1
    if parent is None:
        tree = (full & ~reduce(or_, (row[1] for row in atleast)), (), [], (), slots,
                (0, [-1] * (len(having) * order), [0] * len(having), []), 0)
        for end in range(1, len(prefix) + 1):
            tree = _tie_tree(prefix[:end], index, tree)
            if tree is None:
                return None
        return tree
    grown: list = []
    if _smaller_with(parent, prefix, grown):
        return None
    _, path, rest, pairs, _, leaf, fails = parent
    w = prefix[-1]
    wp = slots[w][1]
    s = len(pairs)
    pairs += (wp,)
    used = leaf[2]
    tie = -1  # the words whose image ties w at the old leaf, all at first
    for p, g in enumerate(w):
        fails |= tie & below[p][g]
        tie &= having[p][g] if g < used[p] else atleast[p][g]  # every value from g up maps to g
    path = tuple((t, (i, lab, nxt, left + [s])) for t, (i, lab, nxt, left) in path + ((tie, leaf),))
    _commit(leaf, wp, prefix, pairs, grown)  # w ties itself at the old leaf
    leaf = grown.pop()
    cut = reduce(or_, (row[u + 1] for row, u in zip(atleast, leaf[2])))
    # the new nodes first: a walk meets a rejecting node sooner
    rest = grown + [(i, lab, nxt, left + [s]) for i, lab, nxt, left in rest]
    return full & ~(fails | cut), path, rest, pairs, slots, leaf, fails


def is_canonical(words: "Sequence[Word]", tree: tuple | None = None) -> bool:
    """True when no relabeling yields a strictly smaller sorted word list.

    ``tree``, when given, is ``_tie_tree`` of ``words[:-1]`` for a sorted
    list ``words`` whose last word w is above the others and in the tree's
    word set; the searches pass each parent's tree to decide its children
    from their one new word.  ``_smaller_with``, the walk that also grows
    trees, decides it, exact for every such w, also one the driver drops by
    the masks.  Nothing is recorded: the driver grows only the trees of the
    parents it expands.  Without a tree the list is sorted and its tree
    grown word by word: the list is canonical when it has one.
    """
    if tree is None:
        words = sorted(map(tuple, words))
        if not words:
            return True
        order = 1 + max(map(max, words))
        return _tie_tree(words, _word_index(words, order)) is not None
    return not _smaller_with(tree, words)


# -- search driver ------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the ascending-size scan for a maximal square.

    ``min_size`` is exact when ``exact`` is set (all smaller levels were
    completed); ``no_maximal_below`` is the proven lower bound either
    way.  ``nodes`` counts the canonical squares of every completed level
    above the empty square, including the levels a resumed run read from its
    checkpoint; a level the budget cut short adds nothing.  So it differs
    from ``budget``, which caps the canonical squares accepted in this run,
    those of the cut level included.
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


def _levels(table: list[Word], compat: list[int], index: tuple, level: int = 0,
            queue: "list[tuple[tuple[int, ...], int]] | None" = None, budget: int | None = None):
    """Yield ``(level, queue)`` for the given level and each level grown from it.

    A queue lists the canonical squares of one size in enumeration order,
    each as (word indices, mask of the words compatible with all of them);
    it defaults to the empty square.  The next level holds their canonical
    children, each square grown only by words above its last.  Stops after
    an empty level; raises ``_Budget`` instead of accepting more than
    ``budget`` children.  ``index`` is the table's ``_word_index``."""
    if queue is None:
        queue = [((), (1 << len(table)) - 1)]
    held: tuple[int, ...] = ()  # the last entry whose trees were grown
    stack = [_tie_tree((), index)]  # stack[j] is the tree of held[:j]
    spent = 0
    while True:
        yield level, queue
        if not queue:
            return
        next_queue = []
        for words_idx, mask in queue:
            floor = words_idx[-1] if words_idx else -1
            if not mask >> (floor + 1):
                continue  # no candidate, so no tree
            words = [table[i] for i in words_idx]
            while held[:len(stack) - 1] != words_idx[:len(stack) - 1]:
                stack.pop()  # down to the prefix shared with the last entry grown
            held = words_idx
            for end in range(len(stack), len(words) + 1):
                tree = _tie_tree(words[:end], index, stack[-1])
                if tree is None:
                    break
                stack.append(tree)
            if len(stack) <= len(words):
                continue  # a non-canonical parent, only ever read from a checkpoint
            tree = stack[-1]
            for w in bits_above(mask & tree[0], floor):  # the words passing its identity path
                if is_canonical(words + [table[w]], tree):
                    if budget is not None and spent >= budget:
                        raise _Budget
                    spent += 1
                    next_queue.append((words_idx + (w,), mask & compat[w]))
        level += 1
        queue = next_queue


def _depth_first(table: list[Word], compat: list[int], index: tuple):
    """Yield ``(words, mask)``, a word list and the mask of the words compatible
    with all of it, for every canonical square above the empty one, in
    lexicographic order of word indices, so within each size in ``_levels``'
    order.  The stack holds one frame per square of the current path: its
    tree and its untried candidates.  A child with a candidate above its new
    word is decided by growing its tree and is expanded at once; any other
    child by ``is_canonical`` with its parent's tree."""
    full = (1 << len(table)) - 1
    root = _tie_tree((), index)
    stack = [([], full, root, bits_above(full & root[0], -1))]
    while stack:
        words, mask, tree, candidates = stack[-1]
        w = next(candidates, None)
        if w is None:
            stack.pop()  # every child tried: backtrack
            continue
        child, child_mask = words + [table[w]], mask & compat[w]
        if child_mask >> (w + 1):
            grown = _tie_tree(child, index, tree)
            if grown is None:
                continue
            stack.append((child, child_mask, grown, bits_above(child_mask & grown[0], w)))
        elif not is_canonical(child, tree):
            continue
        yield child, child_mask


def _save_checkpoint(path: Path, n: int, k: int, level: int,
                     queue: list[tuple[tuple[int, ...], int]], nodes: int) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "n": n,
        "k": k,
        "level": level,
        "nodes": nodes,
        "queue": [words for words, _ in queue],  # json writes the tuples as lists
    }
    write_atomic(path, json.dumps(doc, check_circular=False) + "\n")


def _is_index(value: object, limit: float = inf) -> bool:
    return type(value) is int and 0 <= value < limit


def _load_checkpoint(path: Path, n: int, k: int, compat: list[int]):
    """(level, queue, nodes) read from ``path``.  Each queue entry is checked
    (ascending word indices, no clash), but not that the queue is whole, so
    an edited checkpoint can claim a bound the search never checked."""
    doc = read_json(path, "checkpoint")
    if not isinstance(doc, dict):
        raise ParseError(f"checkpoint {path} is not a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != CHECKPOINT_VERSION:  # True == 1.0 == 1
        raise ParseError(f"unsupported checkpoint version {doc.get('version')!r}")
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
        raise ParseError(
            f"checkpoint is for n={doc['n']}, k={doc['k']}, not n={n}, k={k}"
        )
    level, queue = doc["level"], []
    full = (1 << len(compat)) - 1
    for indices in raw_queue:
        if len(indices) != level or sorted(set(indices)) != indices:
            raise ParseError(f"checkpoint {path} queue entry {indices} is not {level} ascending word indices")
        mask = full
        for i in indices:
            if not mask >> i & 1:
                raise ParseError(f"checkpoint {path} queue entry {indices}: word {i} clashes with an earlier word")
            mask &= compat[i]
        queue.append((tuple(indices), mask))
    return level, queue, doc["nodes"]


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
    ``budget`` caps the canonical squares accepted in this run, those of a
    level it cuts short included; when it is exhausted the result reports
    the proven bound so far, and its ``nodes`` counts only the squares of
    completed levels.  ``checkpoint`` names a JSON file written once at
    each completed level, and at the level it started from when the budget
    stops the run before it completes one; with ``resume`` the run
    restarts from the last completed level in that file.
    Raises ValueError for n < 1, k < 1, a budget below 0 or a word table above
    ``WORD_TABLE_LIMIT``.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    table = _word_table(n, k)
    index = _word_index(table, n)
    compat = _compat_masks(table, index[2])

    start, queue, nodes = 0, None, 0
    cp_path = Path(checkpoint) if checkpoint else None
    if resume:
        if cp_path is None or not cp_path.exists():
            raise ParseError("resume requested but no checkpoint file found")
        start, queue, nodes = _load_checkpoint(cp_path, n, k, compat)

    exhausted_budget = False
    min_size = None
    witness = None
    try:
        for level_num, queue in _levels(table, compat, index, start, queue, budget):
            if level_num > start:
                nodes += len(queue)
                if cp_path is not None:
                    _save_checkpoint(cp_path, n, k, level_num, queue, nodes)
            maximal = next((words for words, mask in queue if mask == 0), None)
            if maximal is not None:
                min_size = level_num
                witness = KPartialSquare.from_words(n, k, [table[i] for i in maximal])
                break
    except _Budget:
        exhausted_budget = True
        if cp_path is not None and level_num == start:  # else its last level wrote it
            _save_checkpoint(cp_path, n, k, level_num, queue, nodes)

    exact = min_size is not None
    if exact and k == 2 and min_size < lower_bound(n):
        raise SelfCheckError(
            f"found a maximal square of size {min_size} below the proven "
            f"bound {lower_bound(n)}; this indicates a search bug"
        )
    return SearchResult(
        n=n,
        k=k,
        min_size=min_size,
        witness=witness,
        exact=exact,
        no_maximal_below=level_num if exact else level_num + 1,
        levels_completed=level_num,  # the run ends on the last level it completed
        nodes=nodes,
        budget=budget,
        exhausted_budget=exhausted_budget,
    )


@dataclass(frozen=True)
class ExhaustiveReport:
    """Full census of canonical maximal squares of one order.

    ``histogram`` maps filled-cell count to the number of canonical
    maximal squares of that size; ``minimum_witnesses`` holds every
    canonical maximal square of the least size, in lexicographic order of
    word indices; ``nodes`` counts the canonical squares above the empty
    one.  The depth-first census gives the report the level queue gave.
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

    The squares are visited depth first, holding only the current path's
    tie trees, and the report is the one a level-by-level enumeration
    gives.  Intended for tiny orders; confirms that no maximal square fills
    fewer than ceil(n^2 / 3) cells (for k = 2) and reports whether the
    minimum-size squares have all frequencies equal to n / 3 (only
    decided when n is divisible by 3 and the minimum meets n^2 / 3).
    Raises ValueError for n < 1, k < 1 or a word table above ``WORD_TABLE_LIMIT``.
    """
    table = _word_table(n, k)
    index = _word_index(table, n)
    nodes = 0
    maximal: dict[int, list[list[Word]]] = {}  # the maximal squares by size
    for words, mask in _depth_first(table, _compat_masks(table, index[2]), index):
        nodes += 1
        if not mask:
            maximal.setdefault(len(words), []).append(words)
    histogram = {size: len(found) for size, found in sorted(maximal.items())}
    min_size = min(histogram, default=None)
    minimum_witnesses = [KPartialSquare.from_words(n, k, words) for words in maximal.get(min_size, ())]

    all_ok = all(size >= lower_bound(n) for size in histogram) if k == 2 else True
    tight: bool | None = None
    if k == 2 and n % 3 == 0 and min_size == n * n // 3:
        tight = all(
            set(f.row_counts) == set(f.col_counts) == {n // 3}
            and all(set(lc) == {n // 3} for lc in f.layer_counts)
            for f in (sq.frequencies() for sq in minimum_witnesses)
        )
    return ExhaustiveReport(
        n=n,
        k=k,
        histogram=histogram,
        min_size=min_size,
        minimum_witnesses=tuple(minimum_witnesses),
        nodes=nodes,
        all_satisfy_bound=all_ok,
        tight_uniform_frequency=tight,
    )
