import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mopls").glob("*.py"))


def test_program_checks_do_not_use_assert():
    # `python -O` strips assert statements, so a run-time check written as
    # one would silently stop checking; raise SelfCheckError instead
    assert {"core.py", "graphview.py", "codes.py"} <= {path.name for path in SOURCES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
