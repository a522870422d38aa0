"""Static checks that keep dead code out of the package."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "cubechar").glob("*.py"))
NON_INIT = [p for p in MODULES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _loaded_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", NON_INIT, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [name for name in imported if name not in _loaded_names(tree)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text())
    private = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert [name for name in private if name not in _loaded_names(tree)] == []


@pytest.fixture(scope="module")
def referenced_names() -> set:
    """Names loaded as variables or read as attributes anywhere in the package
    or its tests; `__init__` exports do not count."""
    names = set()
    for path in NON_INIT + TESTS:
        tree = ast.parse(path.read_text())
        names |= _loaded_names(tree)
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names


@pytest.mark.parametrize("path", NON_INIT, ids=lambda p: p.stem)
def test_no_orphan_public_names(path, referenced_names):
    tree = ast.parse(path.read_text())
    public = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [name for name in public if name not in referenced_names] == []


#: The builders whose tables are bijections by construction, and so may skip
#: the constructor's check; a new caller needs the same argument.
TRUSTED_CALLERS = {
    "inverse",
    "compose",
    "conjugate",
    "block_product",
    "identity",
    "all_permutations",
    "flip_perm",
}


def _callers_of(tree, name: str) -> list:
    """The innermost enclosing function of every call to `name` (None at
    module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def test_unchecked_permutations_come_from_allowlisted_builders():
    callers = [
        (path.stem, owner)
        for path in MODULES
        for owner in _callers_of(ast.parse(path.read_text()), "_trusted_permutation")
    ]
    assert callers
    assert [c for c in callers if c[1] not in TRUSTED_CALLERS] == []


#: The operations that dense tables and product forms share, as methods.
PERMUTATION_METHODS = {"apply", "compose", "inverse", "cycle_type", "fixed_point_count"}


def test_permutation_operations_are_methods_only():
    """perm has no module-level twin of the shared methods; both permutation
    classes define all five, and ProductFormPermutation reaches its tails
    through them, never through a tail's image table (only the head's table
    is read, to list the head's cycles)."""
    tree = ast.parse(next(p for p in MODULES if p.stem == "perm").read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert functions & PERMUTATION_METHODS == set()
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("CubePermutation", "ProductFormPermutation"):
        methods = {node.name for node in classes[name].body if isinstance(node, ast.FunctionDef)}
        assert PERMUTATION_METHODS <= methods
    reads = [
        ast.unparse(node)
        for node in ast.walk(classes["ProductFormPermutation"])
        if isinstance(node, ast.Attribute) and node.attr == "images"
    ]
    assert set(reads) <= {"self.head.images"}


#: The callers of `pow_iv` outside certreal: a single power, and the two
#: alt-trace divisors m! * m^alpha.  Every sum of powers goes through
#: `power_sum_iv`, so a new caller needs the same argument.
POW_IV_CALLERS = {"enclosure", "alt_trace_from_distribution", "alt_trace_closed_form"}


def test_interval_powers_outside_certreal_come_from_allowlisted_callers():
    callers = [
        (path.stem, owner)
        for path in MODULES
        if path.stem != "certreal"
        for owner in _callers_of(ast.parse(path.read_text()), "pow_iv")
    ]
    assert callers
    assert [c for c in callers if c[1] not in POW_IV_CALLERS] == []


#: Who in the package may call each brute-force oracle.  The oracles sit
#: beside their fast paths and are compared with them in tests; a criterion
#: that compares them names itself here, and no fast path calls one.
ORACLE_CALLERS = {
    "psd_witness": set(),
    "noninteger_witness_scan": set(),
    "stirling2_recurrence": set(),
    "signed_derangement_sum_bruteforce": {"criterion_derangement_sums"},
    "signed_fixcount_distribution": {"criterion_alt_trace_oracle", "alt_trace_bruteforce"},
}


@pytest.mark.parametrize("oracle", sorted(ORACLE_CALLERS))
def test_oracles_are_called_only_by_allowlisted_callers(oracle):
    trees = [ast.parse(path.read_text()) for path in MODULES]
    assert any(isinstance(node, ast.FunctionDef) and node.name == oracle for tree in trees for node in tree.body)
    assert {owner for tree in trees for owner in _callers_of(tree, oracle)} == ORACLE_CALLERS[oracle]
