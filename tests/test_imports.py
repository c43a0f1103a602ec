"""Every module and test imports only names it uses, every public name in
the package is reachable from the package itself, the README or the
benchmark's tracer, every private name from the package itself, no
module reads integers by a rule of its own, nor any lattice module with
an int() cast, and every annotation in the package resolves."""

import ast
import importlib
import inspect
import re
import types
import typing
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports names to re-export them, not to use them
SOURCES = sorted(
    path for path in [*ROOT.glob("src/godeaux/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import List, Tuple\nnp.zeros(List)\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(node):
    """Names read, attributes taken and names imported anywhere under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def _definitions(tree):
    """(qualified name, node) of each top-level name of a module and each
    method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _unreferenced(modules):
    """(module.name, name) of each definition in `modules` (module name ->
    source) that no code in `modules` refers to outside the definition
    itself."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    everywhere = Counter(ref for tree in trees.values() for ref in _references(tree))
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = qualified.rpartition(".")[2]
            if everywhere[name] == Counter(_references(node))[name]:
                yield f"{module}.{qualified}", name


def unreachable_names(modules, readme, traced):
    """module.name of each unreferenced public definition in `modules` that
    neither `readme` nor the `traced` names mention."""
    mentioned = set(re.findall(r"\w+", readme)) | set(traced)
    return [qualified for qualified, name in _unreferenced(modules)
            if not name.startswith("_") and name not in mentioned]


def unreferenced_private_names(modules):
    """module.name of each unreferenced private top-level name or private
    method in `modules`; dunder methods are called by Python itself."""
    return [qualified for qualified, name in _unreferenced(modules)
            if name.startswith("_") and not name.endswith("__")]


def traced_functions():
    """Function names of TRACED_FUNCTIONS in perfbench/tracing.py, read without
    importing it: the tracer looks each one up by name, so none may go."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TRACED_FUNCTIONS":
            return {pair.elts[1].value for pair in node.value.elts}
    raise AssertionError("perfbench/tracing.py defines no TRACED_FUNCTIONS")


def test_unreachable_names_are_found():
    modules = {
        "a": "def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "class C:\n    def method(self):\n        pass\n\n    def _private(self):\n        pass\n",
        "b": "from .a import used\nLIMIT = 3\nused()\n",
    }
    assert unreachable_names(modules, "", ()) == ["a.recursive", "a.C", "a.C.method", "b.LIMIT"]
    assert unreachable_names(modules, "C.method() and LIMIT", ("recursive",)) == []


def package_modules():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(ROOT.glob("src/godeaux/*.py"))}


def test_every_public_name_has_a_caller():
    modules = package_modules()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unreachable = unreachable_names(modules, readme, traced_functions())
    assert not unreachable, (
        "no caller in src/, README.md or TRACED_FUNCTIONS: " + ", ".join(unreachable)
    )


def test_unreferenced_private_names_are_found():
    modules = {
        "a": "_LIMIT = 3\n_UNUSED = 4\n\ndef _helper():\n    return _LIMIT\n\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n\n"
             "class C:\n    def __post_init__(self):\n        self._check()\n"
             "        getattr(self, f\"_{self.kind}\")()\n\n"
             "    def _check(self):\n        pass\n\n    def _dispatched(self):\n        pass\n",
        "b": "from .a import _helper\n_helper()\n",
    }
    assert unreferenced_private_names(modules) == ["a._UNUSED", "a._recursive", "a.C._dispatched"]


def test_every_private_name_has_a_caller():
    unreferenced = unreferenced_private_names(package_modules())
    assert not unreferenced, "no reference in src/: " + ", ".join(unreferenced)


def own_integer_rules(source: str):
    """(line, what) of each argparse ``type=int`` and each ``.isdigit``,
    ``.isdecimal`` or ``.isnumeric`` call: all three string predicates and
    int itself accept non-ASCII digits, and int also '_' and '+'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.keyword) and node.arg == "type"
                and isinstance(node.value, ast.Name) and node.value.id == "int"):
            found.append((node.value.lineno, "type=int"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("isdigit", "isdecimal", "isnumeric")):
            found.append((node.lineno, f".{node.func.attr}("))
    return sorted(found)


def test_own_integer_rules_are_found():
    source = ('p.add_argument("--n", type=int)\nif s.isdigit() or s[0].isnumeric():\n'
              '    p.add_argument("--m", type=integer, default=int("3"))\n')
    assert own_integer_rules(source) == [(1, "type=int"), (2, ".isdigit("), (2, ".isnumeric(")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/godeaux/*.py")), ids=lambda path: path.name)
def test_every_integer_is_read_by_the_shared_rules(path):
    # the rules live in scalars.py; a reader with its own drifts from them
    assert own_integer_rules(path.read_text(encoding="utf-8")) == []


def int_casts(source: str):
    """Line of each call of the builtin int: it truncates a float, takes
    True as 1 and rereads a numeric string, where scalars.exact_int
    refuses all three."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int")


def test_int_casts_are_found():
    assert int_casts("n = int(x)\nm = exact_int(y)\nk = [int(\n  z)]\nt = x.int(3)\n") == [1, 3]


@pytest.mark.parametrize("name", ["abelian", "snf", "covers", "groups", "wpoly"])
def test_lattice_modules_cast_no_integer(name):
    # their integer values enter through scalars.exact_int and nothing else
    source = (ROOT / "src" / "godeaux" / f"{name}.py").read_text(encoding="utf-8")
    assert int_casts(source) == []


def annotated_objects(module):
    """(qualified name, object) of each function and class the module
    defines and each method of its classes, memoized functions unwrapped
    through ``__wrapped__``: the objects whose annotations name the types."""
    def unwrap(obj):
        obj = getattr(obj, "__func__", obj)  # staticmethod and classmethod
        return getattr(obj, "__wrapped__", obj)

    for name, obj in vars(module).items():
        obj = unwrap(obj)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                member = unwrap(member)
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_annotations_that_do_not_resolve_are_found():
    module = types.ModuleType("probe")
    exec("from __future__ import annotations\n"
         "def good(x: int) -> str: ...\ndef bad() -> Missing: ...\n"
         "class C:\n    def method(self) -> C: ...\n    def broken(self, y: Absent): ...\n",
         vars(module))
    broken = []
    for name, obj in annotated_objects(module):
        try:
            typing.get_type_hints(obj)
        except NameError:
            broken.append(name)
    assert broken == ["probe.bad", "probe.C.broken"]


@pytest.mark.parametrize("name", sorted(p.stem for p in ROOT.glob("src/godeaux/*.py")))
def test_every_annotation_resolves(name):
    # an annotation names a type the module binds, so typing.get_type_hints
    # resolves it; a name the module never imports raises NameError
    module = importlib.import_module(f"godeaux.{name}" if name != "__init__" else "godeaux")
    broken = {}
    for qualname, obj in annotated_objects(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            broken[qualname] = str(exc)
    assert not broken
