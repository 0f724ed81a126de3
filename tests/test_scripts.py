"""The offline scripts load and run under the supported Python versions."""

import importlib.util
from pathlib import Path

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
