import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mopls").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_program_checks_do_not_use_assert():
    # `python -O` strips assert statements, so a run-time check written as
    # one would silently stop checking; raise SelfCheckError instead (or, in
    # a standalone script, an exception of its own)
    assert {"core.py", "graphview.py", "codes.py"} <= {path.name for path in SOURCES}
    assert "find_ols_literals.py" in {path.name for path in SCRIPTS}
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in SOURCES + SCRIPTS
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_each_square_keeps_one_index():
    # a square keeps the Projections index it validated with; only validation
    # builds one and only a copy duplicates it, so no module rebuilds a
    # square's constraints, and only core sets a square's kept index
    built, kept = set(), set()

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and "Projections" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            built.add((path.name, function))
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        assigned = [t for target in targets if target for t in ast.walk(target)]
        if any(isinstance(t, ast.Attribute) and t.attr == "_index" for t in assigned):
            kept.add(path.name)
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    assert built == {("core.py", "validate"), ("core.py", "copy")}
    assert kept == {"core.py"}
