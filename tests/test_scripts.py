"""The offline scripts load and run under the supported Python versions."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_find_ols_literals_gives_up_at_its_time_cap(tmp_path, capsys):
    script = _load("find_ols_literals")
    assert script.main(["--orders", "10", "--out-dir", str(tmp_path), "--time-cap", "0"]) == 1
    assert "m=10: FAILED" in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


def test_find_ols_literals_refuses_orders_it_cannot_enumerate(tmp_path, capsys):
    # order 14 would mean listing the transversals of a random order-14
    # square; the script refuses at once instead of running to its cap
    script = _load("find_ols_literals")
    out_dir = tmp_path / "out"
    assert script.main(["--orders", "14", "--out-dir", str(out_dir)]) == 1
    assert "m=14: FAILED" in capsys.readouterr().out
    assert not out_dir.exists()


def test_a_missing_bundled_pair_names_the_scripts_reach():
    # construct's advice for an order without a bundled pair quotes the
    # script's limit, so it must move with MAX_ORDER
    from mopls.construct import ConstructionError, k_ols

    with pytest.raises(ConstructionError) as caught:
        k_ols(2, 14)
    limit = _load("find_ols_literals").MAX_ORDER
    assert str(caught.value).endswith(f"scripts/find_ols_literals.py reaches only m <= {limit}")


def test_survey_refuses_an_order_past_the_word_table_limit(capsys):
    script = _load("survey_min_maximal")
    assert script.main(["--min-n", "30", "--max-n", "30"]) == 2
    assert capsys.readouterr().err.startswith("error: order 30 with k=2 has 30^4 words")


def test_survey_refuses_a_layer_count_below_one(capsys):
    script = _load("survey_min_maximal")
    assert script.main(["--min-n", "2", "--max-n", "3", "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: layer count must be positive, got k=-1\n"
    assert "histogram" not in captured.out


def test_survey_refuses_a_negative_budget(capsys):
    script = _load("survey_min_maximal")
    assert script.main(["--min-n", "4", "--max-n", "4", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: budget must be at least 0, got -1\n"
    assert "budget hit" not in captured.out


def test_survey_reports_a_path_it_cannot_write(tmp_path, capsys):
    script = _load("survey_min_maximal")
    out = tmp_path / "missing" / "survey.json"
    assert script.main(["--min-n", "2", "--max-n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    taken = tmp_path / "taken"
    taken.write_text("")
    assert script.main(["--min-n", "2", "--max-n", "2", "--checkpoint-dir", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(taken) in captured.err
    assert captured.out == ""


def test_survey_exits_3_on_a_malformed_checkpoint_as_the_cli_does(tmp_path, capsys):
    from mopls.cli import main as cli_main

    script = _load("survey_min_maximal")
    (tmp_path / "min_4_2.json").write_text('{"version": 1, "n": 4')
    assert script.main(["--min-n", "4", "--max-n", "4", "--checkpoint-dir", str(tmp_path)]) == 3
    survey_err = capsys.readouterr().err
    assert survey_err.startswith("error: checkpoint ") and "is not readable JSON" in survey_err
    argv = ["search", "min", "--n", "4", "--checkpoint", str(tmp_path / "min_4_2.json"), "--resume"]
    assert cli_main(argv) == 3
    assert capsys.readouterr().err == survey_err


def test_survey_rows_carry_their_time_and_the_peak_rss(tmp_path, monkeypatch, capsys):
    script = _load("survey_min_maximal")
    ticks = iter([10.0, 10.25, 20.0, 20.5, 30.0, 31.0])
    monkeypatch.setattr(script.time, "perf_counter", lambda: next(ticks))
    out = tmp_path / "survey.json"
    assert script.main(["--min-n", "2", "--max-n", "4", "--budget", "30", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["seconds"] for row in rows] == [0.25, 0.5, 1.0]
    peaks = [row["peak_rss_mb"] for row in rows]
    assert 0 < peaks[0] <= peaks[1] <= peaks[2]  # a high-water mark
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["MB", "notes"]
    assert lines[3].split()[5:7] == ["1.00", f"{peaks[2]:.1f}"]


def _bundled_pair() -> tuple[list[list[int]], list[list[int]]]:
    doc = json.loads((SCRIPTS.parent / "src" / "mopls" / "data" / "ols_10.json").read_text())
    left = [[0] * doc["n"] for _ in range(doc["n"])]
    mate = [[0] * doc["n"] for _ in range(doc["n"])]
    for cell in doc["cells"]:
        left[cell["row"]][cell["col"]], mate[cell["row"]][cell["col"]] = cell["entries"]
    return left, mate


def test_find_ols_literals_check_pair_accepts_the_bundled_pair():
    _load("find_ols_literals").check_pair(*_bundled_pair())


def test_find_ols_literals_check_pair_rejects_a_repeated_superimposed_pair():
    script = _load("find_ols_literals")
    left, _ = _bundled_pair()
    # both squares are Latin, but superimposing a square on itself repeats
    # each pair (s, s) ten times
    with pytest.raises(ValueError, match="superimposed pairs not all distinct"):
        script.check_pair(left, [row[:] for row in left])


def test_find_ols_literals_check_pair_rejects_a_square_that_is_not_latin():
    script = _load("find_ols_literals")
    left, mate = _bundled_pair()
    mate[3][5] = mate[3][4]
    with pytest.raises(ValueError, match="row 3 not a permutation"):
        script.check_pair(left, mate)


def _bench_run(value: float, attempted: int, failed: int) -> tuple[dict, dict]:
    report = {"machine": {"python": "3.x"}}
    metrics = {
        metric: {"value": value, "unit": "u"}
        for metric in ("round_s_p50", "round_s_tail", "setup_s", "peak_rss_mb")
    }
    return report, {"attempted": attempted, "failed": failed, "metrics": metrics}


def test_bench_pairs_summarize_counts_wins_losses_and_quartiles():
    script = _load("bench_pairs")
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 12.0, 14.0]
    change = [9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 11.0, 10.0, 12.0, 12.0]  # 7 wins, 1 loss, 2 ties
    runs = {
        workload: {
            "parent": [_bench_run(v, attempted=20, failed=i % 2) for i, v in enumerate(parent)],
            "change": [_bench_run(v, attempted=21, failed=0) for v in change],
        }
        for workload in script.WORKLOADS
    }
    summary = script.summarize(runs, {"parent": "aaa", "change": "bbb"})
    assert (summary["parent_sha"], summary["change_sha"]) == ("aaa", "bbb")
    assert summary["host"]["python"] == "3.x"
    entry = summary["workloads"]["certify"]
    assert (entry["parent_attempted"], entry["parent_failed"]) == (200, 5)
    assert (entry["change_attempted"], entry["change_failed"]) == (210, 0)
    metric = entry["round_s_p50"]
    assert metric["unit"] == "u"
    assert (metric["change_wins"], metric["change_loses"]) == (7, 1)
    assert metric["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0, "runs": parent}
    assert metric["change"] == {"median": 9.0, "q1": 9.0, "q3": 10.75, "runs": change}
    assert metric["median_change_pct"] == -10.0
