"""Checks that keep dead code and needless imports out of the package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "cubechar").glob("*.py"))
NON_INIT = [p for p in MODULES if p.name != "__init__.py"]


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


MODULE_STEMS = {p.stem for p in MODULES}


def _reads(tree) -> tuple:
    """(names, attributes) a tree reads, each a Counter: bare names and
    `module.name` lookups of a package module count as names, and every
    `.attribute` counts as an attribute."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in MODULE_STEMS:
                names[node.attr] += 1
    return names, attributes


@pytest.fixture(scope="module")
def package_reads() -> tuple:
    """What the package's own modules read; `__init__` exports and the tests
    do not count as callers."""
    names, attributes = Counter(), Counter()
    for path in NON_INIT:
        n, a = _reads(ast.parse(path.read_text()))
        names += n
        attributes += a
    return names, attributes


def _public_definitions(tree):
    """(qualified name, node, 0 or 1) for every public function and class,
    and every public method of a public class: 0 where a caller reads it as
    a name, 1 where it reads it as an attribute.  Dunders are private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, 0
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method, 1


@pytest.mark.parametrize("path", NON_INIT, ids=lambda p: p.stem)
def test_no_orphan_public_names(path, package_reads):
    """Every public name has a caller in the package outside its own body,
    unless it is a brute-force oracle listed in ORACLE_CALLERS: a unit test
    alone does not keep a name alive."""
    orphans = [
        qualname
        for qualname, node, kind in _public_definitions(ast.parse(path.read_text()))
        if package_reads[kind][node.name] - _reads(node)[kind][node.name] <= 0
        and qualname not in ORACLE_CALLERS
    ]
    assert orphans == []


#: The builders whose tables are bijections by construction, and so may skip
#: the constructor's check; a new caller needs the same argument.
TRUSTED_CALLERS = {
    "inverse",
    "compose",
    "conjugate",
    "block_product",
    # a bijection repeated on disjoint offset blocks
    "embed_head",
    "identity",
    "all_permutations",
    "flip_perm",
    "random_permutation",
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


def test_no_module_reads_the_environment():
    """No configuration knob: no module imports os (or anything from it),
    and none reads `environ` or `getenv`, so every verdict depends on the
    arguments alone."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name) for a in node.names if a.name.split(".")[0] == "os"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os":
                found.append((path.stem, node.module))
            elif isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv"}:
                found.append((path.stem, node.attr))
            elif isinstance(node, ast.Name) and node.id in {"environ", "getenv"}:
                found.append((path.stem, node.id))
    assert found == []


#: mpmath's global contexts and the global mpf type: state shared with any
#: other mpmath user in the process.
MPMATH_GLOBALS = {"mp", "iv", "mpf"}


def test_only_certreal_imports_mpmath():
    """certreal is the package's one interval layer: no other module imports
    mpmath, and certreal reads none of mpmath's globals, by attribute
    (`mpmath.mp`) or by import (`from mpmath import iv`)."""
    importers, reads = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "mpmath":
                        importers.add(path.stem)
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
                importers.add(path.stem)
                reads += [(path.stem, alias.name) for alias in node.names if alias.name in MPMATH_GLOBALS | {"*"}]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases and node.attr in MPMATH_GLOBALS:
                    reads.append((path.stem, ast.unparse(node)))
    assert importers == {"certreal"}
    assert reads == []


def _decorator_name(node) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def test_certreal_keeps_no_state_beyond_the_context_cache():
    """certreal's module-level names are int or str constants, and
    _make_context is its only cache: a per-call map (such as the exponent
    enclosures of one power sum) must not become a process-wide cache that
    grows with each exponent seen."""
    tree = ast.parse(next(p for p in MODULES if p.stem == "certreal").read_text())
    assigned = [
        node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None
    ]
    assert assigned
    assert [
        ast.unparse(value)
        for value in assigned
        if not (isinstance(value, ast.Constant) and type(value.value) in (int, str))
    ] == []
    cached = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
        if _decorator_name(decorator) in {"lru_cache", "cache"}
    ]
    assert cached == ["_make_context"]


def test_certreal_sets_a_context_precision_only_where_it_builds_the_context():
    """No step of certreal assigns `.prec` outside _make_context: a power
    that needs guard bits passes its working precision to libmp, so a
    cached context keeps the precision it was built with."""
    tree = ast.parse(next(p for p in MODULES if p.stem == "certreal").read_text())
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                found.extend(
                    (owner, ast.unparse(t))
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Attribute) and t.attr == "prec"
                )
            visit(child, owner)

    visit(tree, None)
    assert found == [("_make_context", "ctx.prec")]


#: Who in the package may call each brute-force oracle.  The oracles sit
#: beside their fast paths and are compared with them in tests; a criterion
#: that compares them names itself here, and no fast path calls one.
ORACLE_CALLERS = {
    "alt_trace_bruteforce": set(),
    "psd_check_exact": {"criterion_gram_psd"},
    "psd_witness": set(),
    "quadratic_form": set(),
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


def test_import_leaves_numpy_out():
    """numpy is imported inside the functions that use it, so a cold
    `import cubechar` does not pay for it."""
    src = str(MODULES[0].parents[1])
    code = "import sys, cubechar; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "False\n"
