"""Tests for canonical forms and the exhaustive minimum-size search."""

import copy
import hashlib
import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    oracle_agreements,
    oracle_canonical_children,
    oracle_canonical_form,
    oracle_is_maximal,
    oracle_tie_scan,
    partial_squares,
    write_half_then_fail,
)
from mopls import search
from mopls.cli import main
from mopls.core import KPartialSquare, SelfCheckError, bits_above, lower_bound
from mopls.formats import ParseError
from mopls.maximality import is_maximal
from mopls.search import is_canonical, min_maximal, verify_bound_exhaustive

# orders where brute force over every relabeling stays fast:
# (3!)**4 = 1296 relabelings at n = 3, k = 2 and (4!)**3 = 13824 at n = 4, k = 1
oracle_sized_squares = st.one_of(
    partial_squares(min_n=2, max_n=3, ks=(2,)), partial_squares(min_n=2, max_n=4, ks=(1,))
)


# -- canonical forms ----------------------------------------------------------------


def test_empty_word_list_is_canonical():
    assert is_canonical([]) is True


def test_single_word_canonicalizes_to_zeros():
    assert is_canonical([(1, 1, 1, 1)]) is False
    assert is_canonical([(0, 0, 0, 0)]) is True


@given(oracle_sized_squares, st.data())
def test_is_canonical_matches_the_brute_force_oracle(square, data):
    words = list(square.words())
    least = oracle_canonical_form(words, square.n, square.k)
    assert is_canonical(data.draw(st.permutations(words))) == (least == tuple(words))
    assert is_canonical(list(least))


@pytest.mark.parametrize("search_fn", [min_maximal, verify_bound_exhaustive])
@pytest.mark.parametrize("n", [0, -1])
def test_non_positive_order_is_a_value_error(search_fn, n):
    with pytest.raises(ValueError, match="order must be positive"):
        search_fn(n)


@pytest.mark.parametrize("search_fn", [min_maximal, verify_bound_exhaustive])
def test_a_word_table_past_the_limit_is_a_value_error(search_fn):
    # the orders the tests and the order-5 survey search fit; order 11 would
    # hold 11^4 words, whose compatibility masks take 27 MB
    assert len(search._word_table(5, 2)) == 625 and len(search._word_table(3, 3)) == 243
    with pytest.raises(ValueError, match="a search holds at most"):
        search_fn(11)
    for n, k in [(2, 0), (2, -1), (3, -2)]:
        with pytest.raises(ValueError, match=f"layer count must be positive, got k={k}"):
            search_fn(n, k)


def _canonical_parents(n, k, levels=None):
    """The canonical squares of at most ``levels`` words (of every size when
    None), in enumeration order, as word-index tuples."""
    table = search._word_table(n, k)
    index = search._word_index(table, n)
    parents = []
    for level, queue in search._levels(table, search._compat_masks(table, index[2]), index):
        if levels is not None and level > levels:
            break
        parents += [words for words, _ in queue]
    return table, parents


@pytest.mark.parametrize("n, k", [(2, 2), (3, 1)])
def test_batch_oracle_matches_the_brute_force_oracle(n, k):
    table, parents = _canonical_parents(n, k)
    for ix in parents:
        parent = [table[i] for i in ix]
        above = table[ix[-1] + 1 if ix else 0:]
        verdicts = oracle_canonical_children(parent, above, n, k)
        assert verdicts == [oracle_canonical_form(parent + [w], n, k) == tuple(parent + [w]) for w in above]


@pytest.mark.parametrize("n, k, levels", [(2, 2, None), (3, 2, None), (2, 1, None), (3, 1, None), (4, 1, 3)])
def test_children_match_the_oracle_across_cache_hits_and_misses(n, k, levels):
    """Every word above a canonical parent's last, compatible or not, makes a
    child; two children of each parent in turn make a miss, then a hit."""
    table, parents = _canonical_parents(n, k, levels)
    expected = {}
    pending = []
    for ix in parents:
        above = range(ix[-1] + 1 if ix else 0, len(table))
        verdicts = oracle_canonical_children([table[i] for i in ix], [table[w] for w in above], n, k)
        expected.update((ix + (w,), verdict) for w, verdict in zip(above, verdicts))
        pending.append([ix + (w,) for w in above])
    assert any(expected.values()) and not all(expected.values())
    while any(pending):
        for children in pending:
            for child in children[:2]:
                assert is_canonical([table[i] for i in child]) == expected[child], child
            del children[:2]


# the canonical parents whose tie trees are checked word by word
TREE_LEVELS = [(2, 1, None), (3, 1, None), (2, 2, None), (3, 2, None), (4, 1, 4)]


@pytest.mark.parametrize("n, k, levels", TREE_LEVELS)
def test_a_parent_tree_decides_every_word_above_its_last(n, k, levels):
    """The tree's masks and its walk by label together are exact for every
    table word above the parent's last: the words the identity masks reject,
    the words they pass, and words that clash with the parent."""
    table, parents = _canonical_parents(n, k, levels)
    index = search._word_index(table, n)
    seen = set()  # (passes the masks, canonical)
    for ix in parents:
        parent = [table[i] for i in ix]
        tree = search._tie_tree(parent, index)
        above = range(ix[-1] + 1 if ix else 0, len(table))
        verdicts = oracle_canonical_children(parent, [table[w] for w in above], n, k)
        for w, verdict in zip(above, verdicts):
            assert is_canonical(parent + [table[w]], tree) == verdict, ix + (w,)
            seen.add((bool(tree[0] >> w & 1), verdict))
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("n, k, levels", TREE_LEVELS)
def test_the_scan_walks_the_identity_relabeling_first(n, k, levels):
    """The tie masks stand for the scan's first s + 1 nodes: node i is at
    depth i, with words i.. left and each value of the first i words labelled
    by itself."""
    table, parents = _canonical_parents(n, k, levels)
    index = search._word_index(table, n)
    width = k + 2
    for ix in parents:
        words = [table[i] for i in ix]
        s = len(words)
        nodes = oracle_tie_scan(words, n, k)
        assert nodes is not None
        _, path, rest, _, _, leaf, _ = search._tie_tree(words, index)
        assert [node for _, node in path] == nodes[:s] and leaf == nodes[s]
        assert sorted(rest) == sorted(nodes[s + 1:])  # the other nodes, in any order
        for i, (depth, lab, used, left) in enumerate(nodes[:s + 1]):
            values = [{w[p] for w in words[:i]} for p in range(width)]
            assert (depth, list(left)) == (i, list(range(i, s)))
            assert used == [len(v) for v in values]
            assert lab == [x if x in values[p] else -1 for p in range(width) for x in range(n)]


# every canonical node of these is checked against the scan from the root
GROWTH_LEVELS = [(1, 1, None), (2, 1, None), (3, 1, None), (4, 1, 7),
                 (2, 2, None), (3, 2, None), (4, 2, 5), (2, 3, None), (3, 3, None)]


def _scan_nodes(tree):
    """The identity path and its leaf in scan order, then the other nodes sorted."""
    _, path, rest, _, _, leaf, _ = tree
    return [node for _, node in path] + [leaf], sorted(rest)


def _oracle_nodes(words, n, k):
    nodes = oracle_tie_scan(words, n, k)
    return nodes[:len(words) + 1], sorted(nodes[len(words) + 1:])


@pytest.mark.parametrize("n, k, levels", GROWTH_LEVELS)
def test_a_grown_tree_is_the_scan_from_the_root(n, k, levels):
    """Each canonical node's tree, grown from its parent's as the driver grows
    it, holds the nodes of the oracle's scan from the root: the identity path
    in the scan's order, the other nodes as a multiset."""
    table, parents = _canonical_parents(n, k, levels)
    index = search._word_index(table, n)
    trees = {(): search._tie_tree([], index)}
    for ix in parents[1:]:
        words = [table[i] for i in ix]
        trees[ix] = tree = search._tie_tree(words, index, trees[ix[:-1]])
        assert tree is not None and _scan_nodes(tree) == _oracle_nodes(words, n, k), ix
    assert _scan_nodes(trees[()]) == _oracle_nodes([], n, k)
    assert search._tie_tree(words, index) == tree  # grown word by word from the empty list


@pytest.mark.parametrize("n, k, levels", TREE_LEVELS + [(4, 2, 3), (2, 3, None), (3, 3, 3)])
def test_growth_fails_exactly_where_the_parent_tree_rejects_the_word(n, k, levels):
    """Every word above a canonical parent's last, compatible or not."""
    table, parents = _canonical_parents(n, k, levels)
    index = search._word_index(table, n)
    outcomes = set()
    for ix in parents:
        parent = [table[i] for i in ix]
        tree = search._tie_tree(parent, index)
        for w in range(ix[-1] + 1 if ix else 0, len(table)):
            child = parent + [table[w]]
            canonical = is_canonical(child, tree)
            assert (search._tie_tree(child, index, tree) is not None) == canonical, ix + (w,)
            outcomes.add(canonical)
    assert outcomes == {False, True}


def _recorded_nodes(tree):
    _, path, rest, _, _, leaf, _ = tree
    return path, leaf, rest


@pytest.mark.parametrize("n, levels, entries", [(3, None, None), (4, 4, 50)])
def test_deciding_and_growing_children_never_writes_to_a_parent_tree(n, levels, entries):
    """A committed node owns its lists, so nothing writes to a recorded scan
    node later: deciding every word above each parent's last and growing
    each accepted child's tree, which shares the parent's nodes' lists,
    leaves the parent trees' nodes as they were."""
    table, parents = _canonical_parents(n, 2, levels)
    if entries is not None:
        parents = [ix for ix in parents if len(ix) == levels][:entries]
        assert len(parents) == entries
    index = search._word_index(table, n)
    trees = [(ix, search._tie_tree([table[i] for i in ix], index)) for ix in parents]
    before = [copy.deepcopy(_recorded_nodes(tree)) for _, tree in trees]
    grown = 0
    for ix, tree in trees:
        words = [table[i] for i in ix]
        for w in range(ix[-1] + 1 if ix else 0, len(table)):
            if is_canonical(words + [table[w]], tree):
                assert search._tie_tree(words + [table[w]], index, tree) is not None, ix + (w,)
                grown += 1
    assert grown > len(trees)
    assert [_recorded_nodes(tree) for _, tree in trees] == before


def _oracle_children(table, compat, queue, n, k):
    """The compatible children above each parent's last word that the
    brute-force oracle keeps, as the next level's queue in enumeration order."""
    children = []
    for ix, mask in queue:
        above = list(bits_above(mask, ix[-1] if ix else -1))
        if above:
            verdicts = oracle_canonical_children([table[i] for i in ix], [table[w] for w in above], n, k)
            children += [(ix + (w,), mask & compat[w]) for w, keep in zip(above, verdicts) if keep]
    return children


@pytest.mark.parametrize("n, k, levels", [(2, 1, None), (2, 2, None), (3, 1, None), (3, 2, None), (4, 1, 3)])
def test_levels_hold_the_oracle_children_of_the_level_before(n, k, levels):
    """The driver decides each child with its parent's tie tree, so every level
    it yields checks the trees it passed, not only ``is_canonical`` alone."""
    table = search._word_table(n, k)
    index = search._word_index(table, n)
    compat = search._compat_masks(table, index[2])
    before = None
    for level, queue in search._levels(table, compat, index):
        if before is not None:
            assert queue == _oracle_children(table, compat, before, n, k), level
        if level == levels:
            break
        before = queue


# a relabeling lowers this list, which passes the first-appearance cut
NON_CANONICAL_PREFIX = [(0, 0, 0, 0), (0, 1, 1, 1), (1, 1, 2, 2)]


@pytest.mark.parametrize("bad_first", [True, False], ids=["non-canonical-first", "canonical-first"])
def test_resume_grows_only_the_canonical_lists_of_a_checkpoint(tmp_path, bad_first):
    table = search._word_table(3, 2)
    compat = search._compat_masks(table, search._word_index(table, 3)[2])
    good = [(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 2)]
    assert oracle_canonical_form(good, 3, 2) == tuple(good)
    assert oracle_canonical_form(NON_CANONICAL_PREFIX, 3, 2) < tuple(NON_CANONICAL_PREFIX)
    lists = [tuple(table.index(w) for w in words) for words in (NON_CANONICAL_PREFIX, good)]
    if not bad_first:
        lists.reverse()
    cp = tmp_path / "level.json"
    cp.write_text(json.dumps({"version": 1, "n": 3, "k": 2, "level": 3, "nodes": 0, "queue": lists}))
    masks = dict(search._load_checkpoint(cp, 3, 2, compat)[1])
    bad_ix, good_ix = lists if bad_first else lists[::-1]
    assert list(bits_above(masks[bad_ix], bad_ix[-1]))  # it has children to reject
    expected = _oracle_children(table, compat, [(good_ix, masks[good_ix])], 3, 2)
    assert expected
    # the budget admits level 4 whole, so the checkpoint keeps it
    result = min_maximal(3, budget=len(expected), checkpoint=cp, resume=True)
    doc = json.loads(cp.read_text())
    assert doc["level"] == 4 and result.nodes == len(expected)
    assert doc["queue"] == [list(ix) for ix, _ in expected]


def test_resume_skips_the_entries_whose_prefix_is_not_canonical(tmp_path):
    """Entries out of order, one whose first three words a relabeling
    lowers and one whose first two fail the first-appearance cut, between
    two canonical ones: the driver regrows the shared prefixes' trees and
    grows only the canonical entries, as the oracle does."""
    table = search._word_table(3, 2)
    compat = search._compat_masks(table, search._word_index(table, 3)[2])
    good = [(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 2)]
    entries = [
        good + [(1, 1, 2, 0)],
        NON_CANONICAL_PREFIX + [(1, 2, 0, 1)],
        [(0, 0, 0, 0), (0, 2, 2, 2), (1, 0, 1, 2), (2, 1, 0, 2)],
        good + [(2, 1, 0, 2)],
    ]
    lists = [tuple(table.index(w) for w in words) for words in entries]
    cp = tmp_path / "level.json"
    cp.write_text(json.dumps({"version": 1, "n": 3, "k": 2, "level": 4, "nodes": 0, "queue": lists}))
    queue = search._load_checkpoint(cp, 3, 2, compat)[1]
    assert all(list(bits_above(mask, ix[-1])) for ix, mask in queue)  # each has children to try
    expected = _oracle_children(table, compat, [queue[0], queue[3]], 3, 2)
    assert expected
    result = min_maximal(3, budget=len(expected), checkpoint=cp, resume=True)
    doc = json.loads(cp.read_text())
    assert (doc["level"], result.nodes, result.exhausted_budget) == (5, len(expected), True)
    assert doc["queue"] == [list(ix) for ix, _ in expected]


def test_child_of_a_non_canonical_prefix_is_not_canonical():
    # both lists pass the first-appearance cut, but a relabeling lowers the
    # prefix, and with it every list that extends the prefix by a larger word
    prefix = [(0, 0, 0, 0), (0, 1, 1, 1), (1, 1, 2, 2)]
    child = prefix + [(1, 2, 0, 1)]
    assert oracle_canonical_form(prefix, 3, 2) < tuple(prefix)
    assert oracle_canonical_form(child, 3, 2) < tuple(child)
    for words in (child, child, prefix[:2] + [(1, 2, 2, 2)], child):
        assert is_canonical(words) == (oracle_canonical_form(words, 3, 2) == tuple(words))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_compat_masks_match_pairwise_agreement(n, k):
    table = search._word_table(n, k)
    expected = [
        sum(1 << j for j, b in enumerate(table) if j != i and oracle_agreements(a, b) <= 1)
        for i, a in enumerate(table)
    ]
    assert search._compat_masks(table, search._word_index(table, n)[2]) == expected


def test_canonical_square_stays_canonical_after_largest_word_removed():
    result = verify_bound_exhaustive(3, 2)
    for witness in result.minimum_witnesses:
        words = list(witness.words())
        assert is_canonical(words)
        assert is_canonical(words[:-1])


# -- minimum maximal size -----------------------------------------------------------


def test_min_maximal_order_two():
    result = min_maximal(2)
    assert result.min_size == 2
    assert result.exact is True
    assert result.no_maximal_below == 2
    assert result.levels_completed == 2
    assert result.nodes == 6
    assert result.witness.filled_count == 2
    assert is_maximal(result.witness)


def test_min_maximal_order_three():
    result = min_maximal(3)
    assert result.min_size == 3
    assert result.exact is True
    assert result.nodes == 25
    assert is_maximal(result.witness)
    assert is_canonical(result.witness.words())


def test_min_maximal_single_layer():
    result = min_maximal(2, k=1)
    assert result.min_size == 2
    assert result.nodes == 5


def test_min_maximal_checks_its_minimum_against_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(search, "lower_bound", lambda n: n * n + 1)
    with pytest.raises(SelfCheckError, match="size 2 below the proven bound 5"):
        min_maximal(2)
    assert main(["search", "min", "--n", "2"]) == 1
    assert "this indicates a search bug" in capsys.readouterr().err


def _search_peak_rss_mb(n):
    """The peak RSS of a fresh interpreter that runs the full order-n search.

    Read from the kernel's high-water mark of the new process image, as
    ``ru_maxrss`` keeps the forking test process's own peak across exec."""
    code = (f"from mopls.search import min_maximal; assert min_maximal({n}).exact; "
            "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, check=True)
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS from /proc")
def test_the_order_four_search_holds_few_trees_at_once():
    """The driver keeps the trees of one queue entry's prefixes alive, not a
    level's: keeping every expanded parent's tree of a level put the full
    order-four search 81 MB above the order-three search's peak, and one
    entry's prefixes put it 14 MB above."""
    assert _search_peak_rss_mb(4) - _search_peak_rss_mb(3) < 30


def test_budget_interrupt_reports_partial_progress():
    result = min_maximal(3, budget=4)
    assert result.exhausted_budget is True
    assert result.exact is False
    assert result.min_size is None and result.witness is None
    assert result.no_maximal_below == result.levels_completed + 1
    assert result.budget == 4


def test_zero_budget_proves_nothing():
    result = min_maximal(3, budget=0)
    assert result.exhausted_budget is True
    assert result.levels_completed == 0
    assert result.no_maximal_below == 1


def test_negative_budget_is_refused_before_the_word_table_is_built():
    # order 30's word table is past the limit, so the budget is checked first
    with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
        min_maximal(30, 2, budget=-5)
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        min_maximal(3, 2, budget=-1)


def test_generous_budget_matches_unbudgeted_run():
    capped = min_maximal(3, budget=10**6)
    free = min_maximal(3)
    assert capped.exhausted_budget is False
    assert (capped.min_size, capped.nodes, capped.levels_completed) == (
        free.min_size,
        free.nodes,
        free.levels_completed,
    )


# the canonical squares the uninterrupted order-3 search accepts, its nodes
ACCEPTED_AT_ORDER_THREE = {1: 57, 2: 25}


@cache
def _uninterrupted(k):
    """The order-3 search, which a budget of every square it accepts does not stop."""
    total = ACCEPTED_AT_ORDER_THREE[k]
    assert min_maximal(3, k, budget=total).exhausted_budget is False
    return min_maximal(3, k)


@pytest.mark.parametrize("k, budget", [(k, b) for k, total in ACCEPTED_AT_ORDER_THREE.items() for b in range(total)])
def test_every_budget_stop_resumes_to_the_uninterrupted_result(tmp_path, k, budget):
    """Every budget below the squares the order-3 search accepts stops it,
    inside a level or at a level boundary, and the resume finishes it."""
    whole = _uninterrupted(k)
    assert whole.nodes == ACCEPTED_AT_ORDER_THREE[k] and whole.exact
    cp = tmp_path / "cp.json"
    stopped = min_maximal(3, k, budget=budget, checkpoint=cp)
    assert stopped.exhausted_budget is True and stopped.exact is False
    assert stopped.min_size is None and stopped.witness is None
    assert stopped.no_maximal_below == stopped.levels_completed + 1
    resumed = min_maximal(3, k, checkpoint=cp, resume=True)
    assert resumed.exhausted_budget is False and resumed.exact is True
    assert resumed.witness.words() == whole.witness.words()
    assert ((resumed.min_size, resumed.nodes, resumed.levels_completed, resumed.no_maximal_below)
            == (whole.min_size, whole.nodes, whole.levels_completed, whole.no_maximal_below))


def test_checkpoint_resume_completes_an_interrupted_run(tmp_path):
    cp = tmp_path / "level.json"
    partial = min_maximal(3, budget=4, checkpoint=cp)
    assert partial.exhausted_budget and cp.exists()
    resumed = min_maximal(3, checkpoint=cp, resume=True)
    fresh = min_maximal(3)
    assert resumed.min_size == fresh.min_size == 3
    assert resumed.nodes == fresh.nodes
    assert resumed.levels_completed == fresh.levels_completed
    assert is_maximal(resumed.witness)


def test_nodes_count_the_completed_levels_across_a_resume(tmp_path, capsys):
    # levels 1-4 of order 4 hold 1, 5, 19 and 168 canonical squares; a budget
    # stop inside a level counts none of it, and a resumed run keeps counting
    # from the checkpoint's total
    cp = str(tmp_path / "cp.json")
    assert main(["search", "min", "--n", "4", "--budget", "30", "--checkpoint", cp]) == 0
    assert capsys.readouterr().out.startswith("n=4 k=2 nodes=25 levels_completed=3\n")
    assert main(["search", "min", "--n", "4", "--budget", "200", "--checkpoint", cp, "--resume"]) == 0
    assert capsys.readouterr().out.startswith("n=4 k=2 nodes=193 levels_completed=4\n")


def _count_checkpoint_saves(monkeypatch):
    saves = []
    save = search._save_checkpoint

    def counted(*args):
        saves.append(args[3])  # the level
        save(*args)

    monkeypatch.setattr(search, "_save_checkpoint", counted)
    return saves


def test_a_budget_stop_writes_each_completed_level_once(tmp_path, monkeypatch):
    saves = _count_checkpoint_saves(monkeypatch)
    cp = tmp_path / "level.json"
    result = min_maximal(3, budget=4, checkpoint=cp)
    assert result.exhausted_budget and result.levels_completed == 1
    assert saves == [1]
    assert cp.read_bytes() == b'{"version": 1, "n": 3, "k": 2, "level": 1, "nodes": 1, "queue": [[0]]}\n'


def test_a_zero_budget_still_leaves_a_checkpoint_to_resume(tmp_path, monkeypatch):
    saves = _count_checkpoint_saves(monkeypatch)
    cp = tmp_path / "level.json"
    min_maximal(3, budget=0, checkpoint=cp)
    assert saves == [0]
    assert json.loads(cp.read_text())["queue"] == [[]]
    resumed, fresh = min_maximal(3, checkpoint=cp, resume=True), min_maximal(3)
    assert (resumed.min_size, resumed.nodes, resumed.levels_completed) == (3, fresh.nodes, fresh.levels_completed)
    assert resumed.witness.words() == fresh.witness.words()


def test_a_stopped_and_resumed_order_four_search_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    """The stdout, result and checkpoint of the benchmark's order-4 search and
    of its resume, as SHA-256 digests of the bytes the search wrote before
    its identity path was decided by masks."""
    monkeypatch.chdir(tmp_path)
    runs = [
        (["--budget", "1219"], ("d046d414f639b000", "78545d2851957eac", "7fca3c46db0f7e36")),
        (["--resume", "--budget", "6330"], ("e8caad8c7e3059a2", "7b86c88cdbffaf32", "65b306cd47a64cad")),
    ]
    for extra, digests in runs:
        argv = ["search", "min", "--n", "4", *extra, "--checkpoint", "cp.json", "--out", "result.json"]
        assert main(argv) == 0
        out = [capsys.readouterr().out.encode(), Path("result.json").read_bytes(), Path("cp.json").read_bytes()]
        assert tuple(hashlib.sha256(data).hexdigest()[:16] for data in out) == digests, extra


def test_each_checkpoint_is_the_json_of_its_list_of_lists_document(tmp_path, monkeypatch):
    """The queue's index tuples go to ``json`` as they are, and the bytes are
    those of the document with every entry a list."""
    written = []
    save = search._save_checkpoint

    def checked(path, n, k, level, queue, nodes):
        save(path, n, k, level, queue, nodes)
        doc = {"version": 1, "n": n, "k": k, "level": level, "nodes": nodes,
               "queue": [list(words) for words, _ in queue]}
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode(), level
        written.append(level)

    monkeypatch.setattr(search, "_save_checkpoint", checked)
    result = min_maximal(4, budget=1219, checkpoint=tmp_path / "cp.json")
    assert result.exhausted_budget and written == [1, 2, 3, 4, 5]


def _fail(*args, **kwargs):
    raise OSError("simulated failure")


@pytest.mark.parametrize(
    "owner, name, failing",
    [(json, "dumps", _fail), (Path, "write_text", write_half_then_fail)],
    ids=["dumps-raises", "write-stops-half-way"],
)
def test_failed_checkpoint_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, owner, name, failing):
    cp = tmp_path / "level.json"
    min_maximal(3, budget=4, checkpoint=cp)
    before = cp.read_bytes()
    monkeypatch.setattr(owner, name, failing)
    with pytest.raises(OSError, match="simulated"):
        min_maximal(3, checkpoint=cp, resume=True)
    monkeypatch.undo()
    assert cp.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["level.json"]
    assert min_maximal(3, checkpoint=cp, resume=True).nodes == min_maximal(3).nodes


def test_resume_requires_an_existing_checkpoint(tmp_path):
    with pytest.raises(ParseError):
        min_maximal(3, checkpoint=tmp_path / "missing.json", resume=True)
    with pytest.raises(ParseError):
        min_maximal(3, resume=True)


def test_resume_rejects_mismatched_checkpoint(tmp_path):
    cp = tmp_path / "level.json"
    min_maximal(3, budget=4, checkpoint=cp)
    with pytest.raises(ParseError):
        min_maximal(2, checkpoint=cp, resume=True)


def test_resume_rejects_a_too_deeply_nested_checkpoint(tmp_path):
    cp = tmp_path / "level.json"
    cp.write_text("[" * 100_000)
    with pytest.raises(ParseError, match="not readable JSON"):
        min_maximal(3, checkpoint=cp, resume=True)


def test_resume_rejects_a_checkpoint_that_is_not_an_object(tmp_path):
    cp = tmp_path / "level.json"
    cp.write_text("[1, 2]")
    with pytest.raises(ParseError, match="is not a JSON object"):
        min_maximal(3, checkpoint=cp, resume=True)


def test_resume_rejects_unknown_checkpoint_version(tmp_path):
    cp = tmp_path / "level.json"
    min_maximal(3, budget=4, checkpoint=cp)
    doc = json.loads(cp.read_text())
    doc["version"] = 99
    cp.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        min_maximal(3, checkpoint=cp, resume=True)


# -- exhaustive census --------------------------------------------------------------


def _census_from_levels(n, k):
    """The census report as the level queue assembles it: every canonical
    square of each level in turn, the maximal ones counted by size."""
    table = search._word_table(n, k)
    index = search._word_index(table, n)
    nodes, histogram, witnesses = 0, {}, []
    for level, queue in search._levels(table, search._compat_masks(table, index[2]), index):
        nodes += len(queue) if level else 0
        for ix, mask in queue:
            if mask == 0 and ix:
                histogram[level] = histogram.get(level, 0) + 1
                if level == min(histogram):
                    witnesses.append(KPartialSquare.from_words(n, k, [table[i] for i in ix]))
    least = min(histogram)
    tight = None
    if k == 2 and n % 3 == 0 and least == n * n // 3:
        third = {n // 3}
        tight = all(set(f.row_counts) == set(f.col_counts) == third and all(set(c) == third for c in f.layer_counts)
                    for f in (sq.frequencies() for sq in witnesses))
    return search.ExhaustiveReport(n, k, histogram, least, tuple(witnesses), nodes,
                                   k != 2 or least >= lower_bound(n), tight)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_the_depth_first_census_matches_the_level_queue(n, k):
    report, oracle = verify_bound_exhaustive(n, k), _census_from_levels(n, k)
    assert report == oracle
    assert list(report.histogram) == sorted(oracle.histogram)
    assert [sq.words() for sq in report.minimum_witnesses] == [sq.words() for sq in oracle.minimum_witnesses]
    assert report.tight_uniform_frequency is (True if (n, k) == (3, 2) else None)


@pytest.mark.parametrize("n, k, histogram, nodes", [
    (3, 1, {5: 1, 7: 2, 9: 1}, 80),
    (4, 1, {8: 1, 10: 3, 12: 32, 13: 6, 14: 5, 16: 2}, 9877),
    (2, 3, {2: 6}, 7),
    (3, 3, {3: 11, 4: 30, 6: 1}, 90),
])
def test_census_layer_counts(n, k, histogram, nodes):
    report = verify_bound_exhaustive(n, k)
    assert (report.histogram, report.nodes) == (histogram, nodes)


def test_census_order_two():
    report = verify_bound_exhaustive(2, 2)
    assert report.histogram == {2: 5}
    assert report.min_size == 2
    assert len(report.minimum_witnesses) == 5
    assert report.all_satisfy_bound is True
    assert report.tight_uniform_frequency is None
    assert report.nodes == 6


def test_census_order_three():
    report = verify_bound_exhaustive(3, 2)
    assert report.histogram == {3: 1, 6: 5, 9: 1}
    assert report.min_size == 3
    assert len(report.minimum_witnesses) == 1
    assert report.all_satisfy_bound is True
    assert report.tight_uniform_frequency is True
    assert report.nodes == 113


def test_census_single_layer_order_two():
    report = verify_bound_exhaustive(2, 1)
    assert report.histogram == {2: 1, 4: 1}
    assert report.min_size == 2
    assert report.tight_uniform_frequency is None


def test_census_witnesses_are_canonical_maximal_and_distinct():
    report = verify_bound_exhaustive(3, 2)
    seen = set()
    for witness in report.minimum_witnesses:
        assert witness.filled_count == report.min_size
        assert oracle_is_maximal(witness)
        assert is_canonical(witness.words())
        assert witness.words() not in seen
        seen.add(witness.words())


def test_census_minimum_agrees_with_the_ascending_search():
    for n in (2, 3):
        assert verify_bound_exhaustive(n, 2).min_size == min_maximal(n, 2).min_size


def test_census_triple_witness_is_a_diagonal_of_singletons():
    report = verify_bound_exhaustive(3, 2)
    witness = report.minimum_witnesses[0]
    freq = witness.frequencies()
    assert set(freq.row_counts) == {1}
    assert set(freq.col_counts) == {1}
    assert all(set(counts) == {1} for counts in freq.layer_counts)
