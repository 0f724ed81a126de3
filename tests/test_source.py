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


def _nodes(path):
    """Every node of a source file, with the name of the innermost function
    that holds it (None at module level)."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(path.read_text(), filename=str(path)), None)


def _callers(name):
    """(file, function) of every call in the package to ``name``, a plain or attribute name."""
    return {
        (path.name, function)
        for path in SOURCES
        for node, function in _nodes(path)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_each_square_keeps_one_index():
    # a square keeps the Projections index it validated with; only validation
    # builds one and only a copy duplicates it, so no module rebuilds a
    # square's constraints (the complement graph, the candidate scan and the
    # verifiers read planes of it), and only core sets a square's kept index
    kept = set()
    for path in SOURCES:
        for node, _ in _nodes(path):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            assigned = [t for target in targets if target for t in ast.walk(target)]
            if any(isinstance(t, ast.Attribute) and t.attr == "_index" for t in assigned):
                kept.add(path.name)
    assert _callers("Projections") == {("core.py", "validate"), ("core.py", "copy")}
    assert kept == {"core.py"}


def test_only_the_index_reads_its_rows_as_planes():
    # Projections.plane is the one reader from index rows to a bool plane, so
    # the bound, the candidate scan and the complement graph take a square's
    # constraints from its index: only the code view and the conjugate read its words
    functions = {node.name for path in SOURCES for node, _ in _nodes(path) if isinstance(node, ast.FunctionDef)}
    assert "plane" in functions and "_grid" not in functions
    assert _callers("words") == {("codes.py", "to_code"), ("core.py", "conjugate")}


def test_only_validation_fills_an_index():
    # Projections.fill is the one builder of a kept index: validate's
    # word-by-word pass names violations and never builds one
    assert _callers("fill") == {("core.py", "validate")}


def test_one_walk_decides_a_child_and_grows_its_tree():
    # is_canonical and tree growth share _smaller_with, so the search holds
    # the label comparison twice: in the scan and in that one walk
    assert _callers("_smaller_with") == {("search.py", "is_canonical"), ("search.py", "_tie_tree")}
    compared = sorted(
        function
        for node, function in _nodes(ROOT / "src" / "mopls" / "search.py")
        if isinstance(node, ast.Compare) and ast.unparse(node) == "v < goal[p]"
    )
    assert compared == ["_smaller_exists", "_smaller_with"]


def test_only_commit_writes_labels():
    # _commit is the one code that commits a word: it writes into copies of a
    # node's label table and used-label counts, so no scan assigns and undoes
    # in place, and a recorded scan node owns lists that nothing writes to
    written = sorted(
        function
        for node, function in _nodes(ROOT / "src" / "mopls" / "search.py")
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in getattr(node, "targets", None) or [node.target]
        for part in ast.walk(target)
        if isinstance(part, ast.Subscript) and ast.unparse(part.value) in ("lab", "used", "nxt")
    )
    assert written == ["_commit", "_commit"]
    assert _callers("_smaller_exists") == {("search.py", "_commit")}


def test_ci_runs_the_tier_1_command():
    # the workflow's test step is ROADMAP's Tier-1 line, word for word
    tier1 = (ROOT / "ROADMAP.md").read_text().split("**Tier-1 verify:** `", 1)[1].split("`", 1)[0]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert f"run: {tier1}\n" in workflow


def test_covering_radius_reads_only_the_code():
    # the third maximality checker stays independent of the other two: the
    # radius comes from the code's words alone, never from the candidate
    # scan or from a square's Projections index
    maximality = ast.parse((ROOT / "src" / "mopls" / "maximality.py").read_text())
    scan = {
        node.name
        for node in maximality.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node, function in _nodes(ROOT / "src" / "mopls" / "codes.py")
        if function == "covering_radius" and isinstance(node, (ast.Name, ast.Attribute))
    }
    assert {"is_maximal", "find_extension"} <= scan
    assert {"code", "words"} <= used
    assert used & (scan | {"maximality", "Projections", "projections", "_index"}) == set()
