"""End-to-end tests for the command-line interface and its exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import DATA, write_half_then_fail
from mopls import cli, construct, verify
from mopls.cli import build_parser, main
from mopls.construct import min_mopls, min_mpls, k_ols
from mopls.core import KPartialSquare
from mopls.formats import MAX_LAYERS, MAX_ORDER, from_text_grid, load_square, save_square, to_json
from mopls.maximality import is_maximal


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "nine.json"
    save_square(min_mopls(9), path)
    return path


# -- construct ---------------------------------------------------------------------


def test_construct_min_mopls_prints_a_grid(capsys):
    assert main(["construct", "min-mopls", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert from_text_grid(out, k=2) == min_mopls(9)


def test_construct_writes_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "nine.json"
    assert main(["construct", "min-mopls", "--n", "9", "--out", str(out)]) == 0
    assert load_square(out) == min_mopls(9)
    manifest = json.loads((tmp_path / "nine.json.manifest.json").read_text())
    assert manifest["tool"] == "mopls"
    assert manifest["parameters"]["n"] == 9
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert "wall_time_seconds" in manifest


def test_construct_format_override(tmp_path):
    out = tmp_path / "grid.txt"
    assert main(["construct", "min-mpls", "--n", "6", "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["n"] == 6


def test_construct_diagonal_blocks(capsys):
    assert main([
        "construct", "k-mopls", "--n", "16", "--k", "3", "--blocks", "4,4,4,4",
    ]) == 0
    square = from_text_grid(capsys.readouterr().out, k=3)
    assert square.filled_count == 64


def test_construct_diagonal_requires_blocks(capsys):
    assert main(["construct", "k-mopls", "--n", "16", "--k", "3"]) == 4


def test_construct_infeasible_order_exits_4(capsys):
    assert main(["construct", "min-mopls", "--n", "6"]) == 4
    assert "error:" in capsys.readouterr().err


def test_construct_order_without_a_bundled_pair_exits_4(capsys):
    # the literal search script stops at order 12, so the message must not
    # send the user there for the missing order 18
    assert main(["construct", "min-mopls", "--n", "54"]) == 4
    assert capsys.readouterr().err == (
        "error: minimum construction for n=54 needs blocks (18, 18, 18): "
        "no orthogonal pair of order 18 is bundled, "
        "and scripts/find_ols_literals.py reaches only m <= 12\n"
    )


def test_construct_impossible_pair_exits_4(capsys):
    assert main(["construct", "k-ols", "--k", "2", "--n", "6"]) == 4


def test_construct_maximal_is_seed_deterministic(capsys):
    assert main(["construct", "maximal", "--n", "5", "--k", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["construct", "maximal", "--n", "5", "--k", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert is_maximal(from_text_grid(first, k=2))


# -- verify ------------------------------------------------------------------------


def test_verify_maximal_accepts_a_maximal_square(square_file, capsys):
    assert main(["verify", "maximal", str(square_file)]) == 0
    assert "maximal" in capsys.readouterr().out


def test_verify_maximal_rejects_an_extendable_square(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(to_json(min_mopls(9).remove((0, 0))))
    assert main(["verify", "maximal", str(path)]) == 1
    assert "extendable at" in capsys.readouterr().out


def test_verify_maximal_reports_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "maximal", str(path)]) == 3
    assert "malformed" in capsys.readouterr().out


def test_verify_maximal_rejects_a_non_integer_field_as_malformed(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text('{"format": "kpls", "version": 1, "n": 2.7, "k": 1, "cells": []}')
    assert main(["verify", "maximal", str(path)]) == 3
    assert "n and k must be integers, got n=2.7" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["true", "1.5"], ids=["bool", "float"])
def test_verify_maximal_rejects_a_non_integer_entry_as_malformed(tmp_path, capsys, entry):
    path = tmp_path / "entry.json"
    path.write_text(
        '{"format": "kpls", "version": 1, "n": 2, "k": 1, '
        f'"cells": [{{"row": 0, "col": 0, "entries": [{entry}]}}]}}'
    )
    assert main(["verify", "maximal", str(path)]) == 3
    assert "every entry must be an integer" in capsys.readouterr().out


def test_verify_maximal_rejects_an_oversized_order_at_once(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"format": "kpls", "version": 1, "n": 100000000, "k": 2, "cells": []}')
    started = time.perf_counter()
    assert main(["verify", "maximal", str(path)]) == 3
    assert time.perf_counter() - started < 0.5
    assert f"exceeds the supported maximum {MAX_ORDER}" in capsys.readouterr().out


def test_verify_maximal_rejects_an_oversized_layer_count_at_once(tmp_path, capsys):
    path = tmp_path / "layers.json"
    path.write_text('{"format": "kpls", "version": 1, "n": 2, "k": 100000, "cells": []}')
    started = time.perf_counter()
    assert main(["verify", "maximal", str(path)]) == 3
    assert time.perf_counter() - started < 0.5
    assert f"k=100000 exceeds the supported maximum {MAX_LAYERS}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["construct", "maximal", "--n", "5", "--k", "100000"],
    ["construct", "maximal", "--n", "100000000"],
    ["search", "min", "--n", "2", "--k", "100000"],
    ["search", "min", "--n", "100000000"],
], ids=["construct-k", "construct-n", "search-k", "search-n"])
def test_oversized_order_or_layer_count_flag_is_a_usage_error_at_once(argv, capsys):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert time.perf_counter() - started < 0.5
    limit = MAX_LAYERS if "--k" in argv else MAX_ORDER
    assert f"exceeds the supported maximum {limit}" in capsys.readouterr().err


def test_verify_maximal_batch_with_threads(square_file, tmp_path, capsys):
    other = tmp_path / "six.txt"
    save_square(min_mpls(6), other)
    code = main(["verify", "maximal", str(square_file), str(other), "--threads", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(": maximal (") == 2


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools a test asks for, through a fake pool that
    maps serially: no worker is started."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def _pin_cpus(monkeypatch, affinity, count):
    """Make this process see ``affinity`` as its usable CPUs (no affinity call
    when None) and ``count`` as the host's."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_verify_maximal_caps_workers_at_the_file_count(square_file, tmp_path, monkeypatch, pool_sizes, capsys):
    _pin_cpus(monkeypatch, 64, 64)
    other = tmp_path / "six.txt"
    save_square(min_mpls(6), other)
    assert main(["verify", "maximal", str(square_file), str(other), "--threads", "100000"]) == 0
    assert pool_sizes == [2]
    assert capsys.readouterr().out.count(": maximal (") == 2


@pytest.mark.parametrize(
    "affinity, count, sizes",
    [(3, 64, [3]), (1, 64, []), (None, 3, [3]), (None, 1, []), (None, None, [])],
)
def test_verify_maximal_caps_workers_at_the_cpu_count(
    square_file, monkeypatch, pool_sizes, capsys, affinity, count, sizes
):
    # five files and --threads 10000 ask for one worker per CPU this process may
    # use (the host's count where the platform has no affinity call), and for no
    # pool on one CPU or when the count is unknown
    _pin_cpus(monkeypatch, affinity, count)
    assert main(["verify", "maximal", *[str(square_file)] * 5, "--threads", "10000"]) == 0
    assert pool_sizes == sizes
    assert capsys.readouterr().out.count(": maximal (") == 5


def test_verify_maximal_batch_reports_every_file(square_file, tmp_path, capsys):
    broken = tmp_path / "bad.txt"
    broken.write_text("not a grid\n")
    partial = tmp_path / "partial.json"
    partial.write_text(to_json(min_mopls(9).remove((0, 0))))
    undecodable = tmp_path / "bin.txt"
    undecodable.write_bytes(b"\xff\xfe\x00bad")
    files = [str(broken), str(square_file), str(partial), str(undecodable)]
    assert main(["verify", "maximal", *files]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == files
    assert "malformed" in lines[0]
    assert ": maximal (" in lines[1]
    assert "extendable at" in lines[2]
    assert "malformed: cannot read" in lines[3]
    assert main(["verify", "maximal", str(partial), str(square_file)]) == 1
    assert main(["verify", "bound", str(undecodable)]) == 3


def test_verify_maximal_json_lists_one_object_per_file(square_file, tmp_path, capsys):
    partial = tmp_path / "partial.json"
    partial.write_text(to_json(min_mopls(9).remove((0, 0))))
    missing = tmp_path / "nosuch.json"
    files = [str(square_file), str(partial), str(missing)]
    assert main(["verify", "maximal", *files, "--json"]) == 3
    assert json.loads(capsys.readouterr().out) == [
        {"path": files[0], "exit_code": 0, "witness": None, "error": None},
        {"path": files[1], "exit_code": 1, "witness": {"cell": [0, 0], "entries": [0, 0]}, "error": None},
        {"path": files[2], "exit_code": 3, "witness": None,
         "error": f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"},
    ]


@pytest.mark.parametrize("what", ["bound", "structure", "hr", "lemma2"])
def test_verify_of_one_square_refuses_a_second_file(what, square_file, tmp_path, capsys):
    # the second file is never read: it does not exist
    extra = ["--rows", "0,1", "--cols", "0,1"] if what == "lemma2" else []
    assert main(["verify", what, str(square_file), str(tmp_path / "nosuch.json"), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: verify {what} takes one square file, got 2\n"
    assert captured.out == ""


def test_verify_bound_passes_on_minimum_square(square_file, capsys):
    assert main(["verify", "bound", str(square_file)]) == 0
    assert "ok=True" in capsys.readouterr().out


def test_verify_bound_json_report(square_file, capsys):
    assert main(["verify", "bound", str(square_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["required"] == 27
    assert doc["min_frequency"] == 3


def test_verify_bound_rejects_non_maximal_input(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(to_json(min_mopls(9).remove((0, 0))))
    assert main(["verify", "bound", str(path)]) == 1


def test_verify_structure_reports_blocks(square_file, capsys):
    assert main(["verify", "structure", str(square_file)]) == 0
    out = capsys.readouterr().out
    assert "block_orders=(3, 3, 3)" in out
    assert "note:" in out


def test_verify_structure_fails_on_full_pair(tmp_path, capsys):
    path = tmp_path / "full.json"
    save_square(k_ols(2, 3), path)
    assert main(["verify", "structure", str(path)]) == 1
    assert "reason:" in capsys.readouterr().out


def test_verify_hr_on_single_layer_minimum(tmp_path, capsys):
    path = tmp_path / "six.txt"
    save_square(min_mpls(6), path)
    assert main(["verify", "hr", str(path)]) == 0
    assert "block_orders=(3, 3)" in capsys.readouterr().out


def test_verify_hr_rejects_two_layer_input(square_file, capsys):
    assert main(["verify", "hr", str(square_file)]) == 1


@pytest.mark.parametrize("what, square, status, expected", [
    ("structure", min_mopls(9), 0,
     "ok=True block_orders=(3, 3, 3)\n"
     "note: n=9 < 21: minimality of fill ceil(n^2/3) is not guaranteed at this order\n"),
    ("structure", min_mopls(21), 0, "ok=True block_orders=(7, 7, 7)\n"),
    ("structure", KPartialSquare.from_cells(3, 2, {(0, 0): (0, 0), (1, 0): (1, 1), (2, 2): (2, 2)}), 1,
     "ok=False block_orders=None\n"
     "reason: blocks overlap in columns or symbols\n"
     "note: n=3 < 21: minimality of fill ceil(n^2/3) is not guaranteed at this order\n"),
    ("hr", min_mpls(7), 0, "ok=True block_orders=(3, 4)\n"),
    ("hr", KPartialSquare.from_cells(2, 1, {(0, 0): (1,), (1, 1): (1,)}), 1,
     "ok=False block_orders=None\n"
     "reason: expected 2 blocks, found 1 row classes\n"),
], ids=["structure-small-order", "structure-ok", "structure-overlap", "hr-ok", "hr-block-count"])
def test_verify_structure_and_hr_output_is_pinned(what, square, status, expected, tmp_path, capsys):
    path = tmp_path / "square.json"
    save_square(square, path)
    assert main(["verify", what, str(path)]) == status
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_verify_lemma2_region(square_file, capsys):
    code = main([
        "verify", "lemma2", str(square_file),
        "--rows", "3,4,5,6,7,8", "--cols", "3,4,5,6,7,8",
    ])
    assert code == 0
    assert "ok=True" in capsys.readouterr().out


def test_verify_lemma2_requires_region_flags(square_file, capsys):
    assert main(["verify", "lemma2", str(square_file)]) == 2


def test_verify_lemma2_rejects_non_integer_region(square_file):
    assert main([
        "verify", "lemma2", str(square_file), "--rows", "a,b", "--cols", "0,1",
    ]) == 3


# -- search ------------------------------------------------------------------------


def test_search_min_order_two(capsys):
    assert main(["search", "min", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "min_size=2" in out and "exact=True" in out


@pytest.mark.parametrize("n", ["0", "-1"])
def test_search_min_non_positive_order_is_a_usage_error(n, capsys):
    assert main(["search", "min", "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_min_past_the_word_table_limit_is_a_usage_error_at_once(capsys):
    # order 30 would need about 82 GB of compatibility masks
    started = time.perf_counter()
    assert main(["search", "min", "--n", "30", "--budget", "1"]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: order 30 with k=2 has 30^4 words") and captured.out == ""


def test_search_min_negative_budget_is_a_usage_error(capsys):
    assert main(["search", "min", "--n", "2", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --budget must be at least 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["construct", "maximal", "--n", "0"],
    ["construct", "maximal", "--n", "3", "--k", "0"],
    ["search", "min", "--n", "2", "--k", "0"],
    ["construct", "min-mopls", "--n", "-3"],
    ["construct", "k-ols", "--n", "0"],
    ["construct", "min-mpls", "--n", "0"],
], ids=["maximal-n", "maximal-k", "search-k", "min-mopls-n", "k-ols-n", "min-mpls-n"])
def test_non_positive_order_or_layer_count_is_a_usage_error(argv, monkeypatch, capsys):
    def must_not_build(*args, **kwargs):
        raise AssertionError("built something for a non-positive --n or --k")

    for name in ("min_mopls", "min_mpls", "k_ols", "k_mopls_diagonal", "maximalize", "min_maximal"):
        monkeypatch.setattr(cli, name, must_not_build)
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag = "--k" if "--k" in argv else "--n"
    value = argv[argv.index(flag) + 1]
    assert captured.err == f"error: {flag} must be at least 1, got {value}\n"
    assert captured.out == ""


def test_search_min_json_includes_witness(capsys):
    assert main(["search", "min", "--n", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_size"] == 2
    assert doc["witness"]["n"] == 2
    assert len(doc["witness"]["cells"]) == 2


def test_search_min_writes_result_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["search", "min", "--n", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["min_size"] == 2
    assert (tmp_path / "result.json.manifest.json").exists()


def test_search_min_budget_and_resume(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    assert main([
        "search", "min", "--n", "3", "--budget", "4", "--checkpoint", str(cp),
    ]) == 0
    assert "exhausted" in capsys.readouterr().out
    assert main([
        "search", "min", "--n", "3", "--checkpoint", str(cp), "--resume",
    ]) == 0
    assert "min_size=3" in capsys.readouterr().out


def _drop_n(text):
    doc = json.loads(text)
    del doc["n"]
    return json.dumps(doc)


def _index_out_of_range(text):
    doc = json.loads(text)
    doc["queue"] = [[999]]
    return json.dumps(doc)


def _queue(level, queue):
    def corrupt(text):
        doc = json.loads(text)
        doc["level"], doc["queue"] = level, queue
        return json.dumps(doc)
    return corrupt


def _truncate(text):
    return text[: len(text) // 2]


def _not_an_object(text):
    return "[1, 2]"


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_n, _index_out_of_range, _truncate, _not_an_object,
        # the maximal 3-word square (0,0,0,0), (1,1,1,1), (2,2,2,2) claimed at level 5
        _queue(5, [[0, 40, 80]]),
        _queue(2, [[40, 0]]),
        _queue(2, [[0, 1]]),  # (0,0,0,0) and (0,0,0,1) share a cell
    ],
    ids=["missing-n", "index-out-of-range", "truncated", "not-an-object",
         "entry-shorter-than-its-level", "entry-unsorted", "entry-clashing"],
)
def test_search_min_corrupt_checkpoint_is_malformed_input(tmp_path, capsys, corrupt):
    cp = tmp_path / "cp.json"
    assert main(["search", "min", "--n", "3", "--budget", "4", "--checkpoint", str(cp)]) == 0
    cp.write_text(corrupt(cp.read_text()))
    assert main(["search", "min", "--n", "3", "--checkpoint", str(cp), "--resume"]) == 3
    assert "error: checkpoint" in capsys.readouterr().err


def test_search_min_resume_without_checkpoint_fails(tmp_path, capsys):
    code = main([
        "search", "min", "--n", "3", "--checkpoint", str(tmp_path / "nope.json"), "--resume",
    ])
    assert code == 3


@pytest.mark.parametrize("field, value", [("version", 99), ("n", 2)], ids=["version", "order"])
def test_search_min_foreign_checkpoint_is_malformed_input(tmp_path, capsys, field, value):
    cp = tmp_path / "cp.json"
    assert main(["search", "min", "--n", "3", "--budget", "4", "--checkpoint", str(cp)]) == 0
    doc = json.loads(cp.read_text())
    doc[field] = value
    cp.write_text(json.dumps(doc))
    assert main(["search", "min", "--n", "3", "--checkpoint", str(cp), "--resume"]) == 3
    assert "error: " in capsys.readouterr().err


# JSON true and 1.0 compare equal to 1 in Python, but neither is an integer
# version of a file
NEAR_ONE_VERSIONS = pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")], ids=["bool", "float"])


@NEAR_ONE_VERSIONS
def test_a_square_file_version_that_only_equals_one_is_malformed_input(tmp_path, capsys, version, shown):
    square = tmp_path / "square.json"
    square.write_text('{"format": "kpls", "version": %s, "n": 2, "k": 1, "cells": []}' % version)
    assert main(["verify", "maximal", str(square)]) == 3
    assert f"malformed: unsupported version {shown}\n" in capsys.readouterr().out


@NEAR_ONE_VERSIONS
def test_a_checkpoint_version_that_only_equals_one_is_malformed_input(tmp_path, capsys, version, shown):
    cp = tmp_path / "cp.json"
    assert main(["search", "min", "--n", "3", "--budget", "4", "--checkpoint", str(cp)]) == 0
    capsys.readouterr()
    cp.write_text(cp.read_text().replace('"version": 1', f'"version": {version}'))
    assert main(["search", "min", "--n", "3", "--checkpoint", str(cp), "--resume"]) == 3
    assert capsys.readouterr().err == f"error: unsupported checkpoint version {shown}\n"


# -- code and export ----------------------------------------------------------------


def test_code_analyze_consistent(square_file, capsys):
    assert main(["code", "analyze", str(square_file)]) == 0
    out = capsys.readouterr().out
    assert "min_distance=3" in out and "covering_radius=2" in out
    assert "consistent=True" in out


def test_code_analyze_reaches_order_57(tmp_path, capsys):
    # 57^4 words: past the scan limit of 10^7 words, within that of 1.1 * 10^8
    path = tmp_path / "fifty-seven.json"
    save_square(min_mopls(57), path)
    assert main(["code", "analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "min_distance=3 covering_radius=2" in out and "consistent=True" in out


def test_code_analyze_refuses_a_word_space_past_its_limit(tmp_path, capsys):
    path = tmp_path / "hundred-five.json"
    save_square(min_mopls(105), path)
    assert main(["code", "analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: word space 105^4 = 121550625 exceeds the scan limit 110000000\n"


def test_code_analyze_of_the_empty_square_has_no_covering_radius(tmp_path, capsys):
    path = tmp_path / "empty.json"
    save_square(KPartialSquare.empty(4, 2), path)
    assert main(["code", "analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "min_distance=None covering_radius=None" in out and "consistent=True" in out


def test_code_analyze_json(square_file, capsys):
    assert main(["code", "analyze", str(square_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rule"] == "maximal iff distance 3 and radius 2"
    assert doc["consistent"] is True


def test_code_export_writes_words_and_manifest(square_file, tmp_path, capsys):
    out = tmp_path / "code.json"
    assert main(["code", "export", str(square_file), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "code" and doc["size"] == 27
    manifest = json.loads((tmp_path / "code.json.manifest.json").read_text())
    digest = hashlib.sha256(square_file.read_bytes()).hexdigest()
    assert manifest["inputs"][0]["sha256"] == digest


def test_code_export_requires_out(square_file, capsys):
    assert main(["code", "export", str(square_file)]) == 2


@pytest.mark.parametrize("argv", [
    ["construct", "min-mopls", "--n", "9"],
    ["search", "min", "--n", "2"],
])
def test_empty_out_prints_to_stdout(argv, tmp_path, monkeypatch, capsys):
    # an empty --out is no --out: the same output, and no file written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    expected = capsys.readouterr()
    assert main(argv + ["--out", ""]) == 0
    assert capsys.readouterr() == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["code", "export"], ["export", "graph"]])
def test_empty_out_is_a_missing_out(command, square_file, capsys):
    assert main(command + [str(square_file), "--out", ""]) == 2
    assert capsys.readouterr().err == f"{' '.join(command)} requires --out\n"


def test_export_graph_dot(square_file, tmp_path, capsys):
    out = tmp_path / "graph.dot"
    assert main(["export", "graph", str(square_file), "--out", str(out)]) == 0
    assert out.read_text().startswith("graph")


def test_export_graph_edge_list(square_file, tmp_path, capsys):
    out = tmp_path / "graph.json"
    code = main([
        "export", "graph", str(square_file), "--out", str(out), "--format", "edges",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "complement-graph"
    # six ordered group pairs, each contributing one edge per empty cell
    assert len(doc["edges"]) == 6 * (81 - 27)


# -- written files ------------------------------------------------------------------

GOLDEN = DATA / "golden"

#: every kind of file the CLI writes: command line -> output file; the
#: commands that read a square read ``in.json``, a copy of the golden
#: ``min-mopls-9.json``
GOLDEN_RUNS = {
    "construct-json": (["construct", "min-mopls", "--n", "9", "--out", "min-mopls-9.json"], "min-mopls-9.json"),
    "construct-text": (["construct", "min-mopls", "--n", "9", "--out", "min-mopls-9.txt"], "min-mopls-9.txt"),
    "construct-format-json": (
        ["construct", "min-mopls", "--n", "9", "--format", "json", "--out", "min-mopls-9.dat"], "min-mopls-9.dat"),
    "construct-maximal-lex": (
        ["construct", "maximal", "--n", "9", "--k", "2", "--out", "maximal-9-k2-lex.txt"], "maximal-9-k2-lex.txt"),
    "construct-maximal-k2": (
        ["construct", "maximal", "--n", "9", "--k", "2", "--seed", "7", "--out", "maximal-9-k2-seed7.txt"],
        "maximal-9-k2-seed7.txt"),
    "construct-maximal-k3": (
        ["construct", "maximal", "--n", "7", "--k", "3", "--seed", "7", "--out", "maximal-7-k3-seed7.txt"],
        "maximal-7-k3-seed7.txt"),
    "search-min": (["search", "min", "--n", "2", "--out", "search-min-2.json"], "search-min-2.json"),
    "code-export": (["code", "export", "in.json", "--out", "code-9.json"], "code-9.json"),
    "graph-dot": (["export", "graph", "in.json", "--format", "dot", "--out", "graph-9.dot"], "graph-9.dot"),
    "graph-edges": (["export", "graph", "in.json", "--format", "edges", "--out", "graph-9.json"], "graph-9.json"),
}


def without_times(manifest: str) -> str:
    """A manifest with its wall time and finishing timestamp blanked."""
    manifest = re.sub(r'"wall_time_seconds": [0-9.]+', '"wall_time_seconds": 0', manifest)
    return re.sub(r'"finished_at": "[^"]*"', '"finished_at": ""', manifest)


@pytest.mark.parametrize("argv, out", list(GOLDEN_RUNS.values()), ids=list(GOLDEN_RUNS))
def test_written_files_match_the_golden_files(argv, out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_bytes((GOLDEN / "min-mopls-9.json").read_bytes())
    assert main(argv) == 0
    assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes()
    manifest = out + ".manifest.json"
    assert without_times((tmp_path / manifest).read_text()) == (GOLDEN / manifest).read_text()


def test_failed_output_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "square.json"
    assert main(["construct", "min-mopls", "--n", "9", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    assert main(["construct", "min-mpls", "--n", "6", "--out", str(out)]) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err == f"error: cannot write {out}: simulated disk full\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_output_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.json"
    assert main(["construct", "min-mopls", "--n", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "nodir").exists()


def test_text_grid_above_its_order_limit_is_an_unwritable_output(tmp_path, capsys):
    out = tmp_path / "big.txt"
    assert main(["construct", "min-mopls", "--n", "39", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: text grid supports n <= 35, got n=39; use JSON\n"
    assert not out.exists()


def test_explicit_text_format_above_its_order_limit_fails_on_stdout_too(capsys):
    assert main(["construct", "min-mopls", "--n", "39", "--format", "text"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: text grid supports n <= 35, got n=39; use JSON\n"
    assert captured.out == ""
    assert main(["construct", "min-mopls", "--n", "39"]) == 0  # auto falls back to JSON
    assert json.loads(capsys.readouterr().out)["n"] == 39


def test_construction_that_fails_its_own_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(construct, "is_maximal", lambda square: False)
    assert main(["construct", "min-mopls", "--n", "9"]) == 1
    assert capsys.readouterr().err == "error: order-9 construction is not maximal\n"


def test_verify_whose_own_check_fails_exits_1(square_file, monkeypatch, capsys):
    real = verify._max_matching
    monkeypatch.setattr(verify, "_max_matching", lambda *args: (*real(*args)[:2], [], []))
    assert main(["verify", "bound", str(square_file)]) == 1
    assert capsys.readouterr().err == "error: vertex cover of 0 lines does not match the transversal of 6 cells\n"


# -- parser-level behavior ------------------------------------------------------------


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "min-mopls"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mopls" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["--version"], ["search", "min", "--help"], ["frobnicate"],
     ["construct", "min-mopls"], ["search", "min", "--n", "two"], ["verify", "maximal"]],
    ids=["help", "version", "subcommand-help", "unknown-command", "missing-flag", "bad-integer", "no-files"],
)
def test_shared_parser_prints_what_a_fresh_parser_prints(argv, capsys):
    printed = []
    for parse in (main, main, build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        printed.append((exc.value.code, capsys.readouterr()))
    assert printed[0][0] in (0, 2)
    assert printed.count(printed[0]) == len(printed)


def test_module_entrypoint_runs_in_a_subprocess(tmp_path):
    def run(module, *argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, timeout=120
        )

    proc = run("mopls.cli", "construct", "min-mopls", "--n", "9")
    assert proc.returncode == 0
    assert from_text_grid(proc.stdout, k=2) == min_mopls(9)
    # the package runs as the same command line
    package = run("mopls", "construct", "min-mopls", "--n", "9")
    assert (package.returncode, package.stdout, package.stderr) == (0, proc.stdout, proc.stderr)
    version = run("mopls", "--version")
    assert (version.returncode, version.stdout) == (0, "mopls 0.1.0\n")
