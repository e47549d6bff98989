"""Every module-level import in the package is used by its module, every
module-level private helper is used somewhere in the package, and only linalg
touches its private elimination routines."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spencerbench"


def unused_imports(source):
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import re\n"
              "from math import gcd, lcm\n"
              "re.compile('x')\n"
              "lcm(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "gcd")]


# stdlib modules that cost start-up time: dataclasses alone pulls in
# inspect, ast, dis and tokenize (see the start-up probes in test_cli.py)
HEAVY_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def heavy_imports(source):
    """(line, module) of each import of a HEAVY_STDLIB module in source, at
    any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] in HEAVY_STDLIB]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] in HEAVY_STDLIB):
            found.append((node.lineno, node.module))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_another_heavy_stdlib_module(path):
    assert heavy_imports(path.read_text(encoding="utf-8")) == []


def test_a_heavy_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, dataclasses\n"
              "from dataclasses import dataclass\n"
              "from .typing import local\n"
              "def late():\n"
              "    import inspect\n"
              "    from typing import Any\n")
    assert heavy_imports(source) == [
        (2, "dataclasses"), (3, "dataclasses"), (6, "inspect"), (7, "typing")]


def referenced_names(node):
    """Every name that the code under node reads, calls or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def unused_private_definitions(sources):
    """(module, line, name) of each module-level ``def _name`` or ``class _Name``
    in sources ({module: source}) that no code refers to outside the
    definition itself."""
    bodies = {module: ast.parse(source).body for module, source in sources.items()}
    uses = [(node, referenced_names(node)) for body in bodies.values() for node in body]
    found = []
    for module, body in bodies.items():
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(node.name in names for other, names in uses if other is not node)):
                found.append((module, node.lineno, node.name))
    return sorted(found)


def test_no_unused_private_definition():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unused_private_definitions(sources) == []


def test_an_unused_private_helper_is_found():
    sources = {
        "a": ("def _called():\n    return 1\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Unused:\n    pass\n"
              "def __getattr__(name):\n    return name\n"
              "def public():\n    return _called()\n"),
        "b": ("from .a import _imported\n"
              "import a\n"
              "def _imported():\n    return a._by_attribute\n"
              "def _by_attribute():\n    return 2\n"),
    }
    assert unused_private_definitions(sources) == [("a", 3, "_recursive"), ("a", 5, "_Unused")]


ELIMINATION_INTERNALS = {"_eliminate", "_blocks", "_rref"}


def test_only_linalg_references_its_elimination_internals():
    """Every other module eliminates through the public OperatorMatrix methods."""
    found = {path.stem: sorted(referenced_names(ast.parse(path.read_text(encoding="utf-8")))
                               & ELIMINATION_INTERNALS)
             for path in SRC.glob("*.py") if path.stem != "linalg"}
    assert {module: names for module, names in found.items() if names} == {}
    linalg = referenced_names(ast.parse((SRC / "linalg.py").read_text(encoding="utf-8")))
    assert ELIMINATION_INTERNALS <= linalg


def test_cohomology_reaches_every_mirror_through_tensor_map():
    """One chain-map construction for every mirror kind, and no diagonal
    instance: the signed identity and the induced maps both come from
    MirrorTransform.tensor_map."""
    names = referenced_names(ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8")))
    assert "diagonal_blocks" not in names
    assert "tensor_map" in names


def test_only_mirror_names_the_induced_maps_and_cmd_mirror_builds_no_delta():
    """Every other module reaches a mirror's maps on S^j through
    MirrorTransform.tensor_map, and the mirror command reads the sign
    identity off intertwining_check instead of comparing operators itself."""
    naming = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "mirror"
                    and "induced_tensor_map" in referenced_names(
                        ast.parse(path.read_text(encoding="utf-8"))))
    assert naming == []
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (cmd_mirror,) = [node for node in cli.body
                     if isinstance(node, ast.FunctionDef) and node.name == "cmd_mirror"]
    assert "delta_matrix" not in referenced_names(cmd_mirror)
    assert "intertwining_check" in referenced_names(cmd_mirror)


MATRIX_STATE = {"nums", "den"}
MUTATING_METHODS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__",
                    "__delitem__"}
MATRIX_CONSTRUCTORS = {("linalg", "OperatorMatrix.__init__"),
                       ("linalg", "OperatorMatrix.from_numerators")}


def _unpacked(target):
    """The single targets inside an assignment or del target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _unpacked(elt)
    elif isinstance(target, ast.Starred):
        yield from _unpacked(target.value)
    else:
        yield target


def _is_matrix_state(node):
    """node is x.nums or x.den, or an item of one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in MATRIX_STATE


def matrix_state_writes(source):
    """(scope, line) of each write to a ``.nums`` or ``.den`` attribute in
    source: an assignment (plain, unpacked, augmented or annotated) to one or
    to one of its items, a del of either, a mutating dict method called on
    one, or a setattr naming one. scope is the dotted name of the enclosing
    function or class, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, (ast.Assign, ast.Delete)):
                hit = any(_is_matrix_state(t) for target in child.targets
                          for t in _unpacked(target))
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                hit = _is_matrix_state(child.target)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                hit = child.func.attr in MUTATING_METHODS and _is_matrix_state(child.func.value)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                hit = child.func.id == "setattr" and any(
                    isinstance(arg, ast.Constant) and arg.value in MATRIX_STATE
                    for arg in child.args[1:2])
            else:
                hit = False
            if hit:
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_matrix_is_written_after_it_is_built():
    """Only the two OperatorMatrix constructors set a matrix's numerators
    and denominator; every other function builds a new matrix, so a cached
    matrix can be shared."""
    found = {path.stem: [(scope, line) for scope, line in
                         matrix_state_writes(path.read_text(encoding="utf-8"))
                         if (path.stem, scope) not in MATRIX_CONSTRUCTORS]
             for path in SRC.glob("*.py")}
    assert {module: writes for module, writes in found.items() if writes} == {}


def test_a_matrix_state_write_is_found():
    source = ("class OperatorMatrix:\n"
              "    def set(self, r, c, v):\n"
              "        self.den, self.nums = 1, {}\n"
              "def place(target, nums):\n"
              "    target.nums[(0, 0)] = 1\n"
              "    target.den *= 2\n"
              "    del target.nums[(0, 0)]\n"
              "    target.nums.update(nums)\n"
              "    setattr(target, 'den', 3)\n"
              "    nums = dict(target.nums)\n"
              "    nums.update({})\n"
              "    return target.den\n")
    assert matrix_state_writes(source) == [
        ("OperatorMatrix.set", 3), ("place", 5), ("place", 6), ("place", 7), ("place", 8),
        ("place", 9)]
