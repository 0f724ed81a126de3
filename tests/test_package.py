import subprocess
import sys

import pytest

import mopls

#: The package's public names, as its root exported them when it imported every module.
PUBLIC = sorted("""
    BoundReport CellOccupiedError Code CodeReport ComplementGraph ConstructionError
    ConstructionPlan ExtensionWitness FrequencyProfile KPartialSquare LatinConflictError
    Lemma2Report OrthogonalityConflictError ParseError SearchResult SelfCheckError SquareError
    StructureReport TransversalReport ValidationReport Violation __version__
    check_code_equivalence check_lemma2 complement covering_radius find_extension from_json
    from_text_grid has_clique inequality_rhs is_canonical is_maximal k_mols_field
    k_mopls_diagonal k_ols load_square lower_bound max_empty_transversal maximalize
    min_distance min_maximal min_mopls min_mpls mopls_plan mpls_plan product save_square
    to_code to_json to_text_grid verify_bound verify_bound_exhaustive verify_hr_structure
    verify_min_structure
""".split())
SUBMODULES = ["cli", "codes", "construct", "core", "formats", "graphview", "maximality", "search", "verify"]


def _loaded_after(statement):
    """The ``mopls`` submodules a fresh interpreter holds after running ``statement``."""
    code = f"import sys\n{statement}\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('mopls.'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


def test_importing_the_package_imports_no_module():
    assert _loaded_after("import mopls") == []
    assert _loaded_after("import mopls.core") == ["mopls.core"]
    assert _loaded_after("from mopls import lower_bound") == ["mopls.core"]


def test_the_root_exports_each_public_name_from_its_defining_module():
    assert len(PUBLIC) == 55
    assert mopls.__all__ == PUBLIC
    for name in PUBLIC:
        if name != "__version__":
            value = getattr(mopls, name)
            assert value.__module__.startswith("mopls.")
            assert getattr(sys.modules[value.__module__], name) is value
    bound = {}
    exec("from mopls import *", bound)
    assert sorted(bound.keys() - {"__builtins__"}) == PUBLIC
    assert bound["__version__"] == mopls.__version__


def test_the_root_reaches_every_submodule():
    for name in SUBMODULES:
        assert getattr(mopls, name) is sys.modules[f"mopls.{name}"]


def test_dir_lists_the_public_names_and_submodules():
    listed = dir(mopls)
    assert listed == sorted(listed)
    assert set(PUBLIC + SUBMODULES) <= set(listed)


@pytest.mark.parametrize("name", ["_save_checkpoint", "Projections", "main", "no_such_name"])
def test_any_other_name_is_missing(name):
    # perfbench's tracer probes every mopls namespace with getattr(ns, name, None)
    assert getattr(mopls, name, None) is None
    with pytest.raises(AttributeError, match=f"module 'mopls' has no attribute '{name}'"):
        getattr(mopls, name)
