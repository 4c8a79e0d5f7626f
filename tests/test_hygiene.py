"""Source hygiene checks that need no import of the package."""
import ast
import copy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmcnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
ORACLES = ROOT / "tests" / "oracles.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _reads(tree: ast.AST) -> set[str]:
    """Names the tree loads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    }


#: public names the scan may find unread, with the reason each stays
UNREAD_ALLOWED = {
    "nets.PointSet.fractions": "perfbench/tracer.py patches it by name, and "
    "tests/oracles.discrepancy_coeff reads it",
}


def _units(module: str, source: str):
    """(owner, node) per top-level statement; a top-level class is split into
    its methods and properties, owned by (module, class, name), and the rest
    of the class, owned by (module, class).  Dunders, which the language
    reads, and statements that define no name are owned by None."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
            if isinstance(node, ast.ClassDef):
                rest = copy.copy(node)
                rest.body = []
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        yield (module, node.name, item.name), item
                    else:
                        rest.body.append(item)
                node = rest
            yield (module, node.name), node
        else:
            yield None, node


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unread_names(modules: dict[str, str], reader: str, scanned) -> list[str]:
    """Top-level functions and classes of `modules`, and methods and
    properties of their top-level classes, whose name passes `scanned` and
    that nothing reads outside their own definition: no other statement of
    any module, nor the source `reader`.  A class's own methods do not count
    as reading it."""
    defined, reads = [], []
    for module, source in modules.items():
        for owner, node in _units(module, source):
            if owner is not None and scanned(owner[-1]):
                defined.append(owner)
            reads.append((owner, _reads(node)))
    outside = _reads(ast.parse(reader))
    return [
        ".".join(owner)
        for owner in defined
        if owner[-1] not in outside
        and not any(
            owner[-1] in r
            for unit, r in reads
            if unit is None or unit[: len(owner)] != owner
        )
    ]


def unread_public_names(modules: dict[str, str], reader: str) -> list[str]:
    return unread_names(modules, reader, lambda name: not name.startswith("_"))


def unread_private_names(modules: dict[str, str], reader: str) -> list[str]:
    return unread_names(modules, reader, lambda name: name.startswith("_"))


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport math as m\nfrom a import b\nm.pi\n") == [
        "os (line 1)",
        "b (line 3)",
    ]


def test_scan_flags_an_unread_public_name():
    modules = {
        "a": "def used(): pass\ndef recursive(): recursive()\n"
        "def _private(): pass\nclass Shown: pass\n",
        "b": "from a import used\nx = used()\n",
    }
    assert unread_public_names(modules, "import a\na.Shown()\n") == ["a.recursive"]


def test_scan_flags_an_unread_method():
    modules = {
        "a": "class C:\n"
        "    def used(self): return self.helper()\n"
        "    def helper(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "    @property\n"
        "    def unread(self): return C\n"
        "    def _private(self): pass\n"
        "class D(C):\n"
        "    @classmethod\n"
        "    def make(cls): return D()\n",
    }
    # only D's base list reads C, and only D's own method reads D
    assert unread_public_names(modules, "obj.used()\nobj.make()\n") == [
        "a.C.recursive",
        "a.C.unread",
        "a.D",
    ]


def test_scan_flags_an_unread_private_name():
    modules = {
        "a": "def _used(): pass\ndef _recursive(): _recursive()\ndef _unread(): pass\n"
        "def public(): return _used()\n"
        "class C:\n"
        "    def __init__(self): self._helper()\n"
        "    def _helper(self): pass\n"
        "    def _own(self): return self._own()\n"
        "    def __repr__(self): return ''\n"
        "class _Unread: pass\n",
    }
    # dunders are never flagged; public names are the other scan's business
    assert unread_private_names(modules, "") == [
        "a._recursive",
        "a._unread",
        "a.C._own",
        "a._Unread",
    ]
    assert unread_public_names(modules, "") == ["a.public", "a.C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Private names the source imports from a module of the package, by a
    relative import or one from `qmcnet`."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "qmcnet")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_flags_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .haar import _roots, level_prefix\n"
        "from qmcnet.nets import _dual_frequencies\n"
        "from . import _private\n"
        "from numpy import _globals\n"
        "def f():\n"
        "    from .field import _inner\n"
    )
    assert private_imports(source) == [
        "from .haar import _roots (line 2)",
        "from qmcnet.nets import _dual_frequencies (line 3)",
        "from . import _private (line 4)",
        "from .field import _inner (line 7)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    # a private name is its module's own business: what another module
    # needs is public, or lives in a lower layer
    assert private_imports(path.read_text()) == []


#: modules whose results depend on their inputs alone
DETERMINISTIC = ("field", "nets", "cs", "families", "haar", "norms")


def random_reads(source: str) -> list[str]:
    """The random-number names the source reads: `random` (numpy's or the
    standard library's module) and `default_rng`."""
    return sorted(_reads(ast.parse(source)) & {"random", "default_rng"})


def test_scan_flags_a_random_number_read():
    assert random_reads("import numpy as np\nrng = np.random.default_rng(0)\n") == [
        "default_rng",
        "random",
    ]
    assert random_reads("from numpy.random import default_rng\ndefault_rng(1)\n") == [
        "default_rng"
    ]
    assert random_reads('"""random draws"""\nx = 1\n') == []


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_deterministic_modules_draw_no_random_numbers(name):
    assert random_reads((SRC / f"{name}.py").read_text()) == []


def test_public_names_are_read():
    # the package's own routes or the acceptance criteria read every public
    # function, class, method and property; exports in __init__.py do not count
    modules = {p.stem: p.read_text() for p in MODULES}
    assert sorted(unread_public_names(modules, ACCEPTANCE.read_text())) == sorted(
        UNREAD_ALLOWED
    )


def test_private_names_are_read():
    # every private function, class, method and property is read by the
    # package itself or by the acceptance criteria
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unread_private_names(modules, ACCEPTANCE.read_text()) == []


def test_oracles_are_read_by_tests():
    # every function and class of tests/oracles.py is read by some test
    # module, or by another oracle, so a deleted test leaves no orphan behind
    readers = "\n".join(p.read_text() for p in TESTS if p.name.startswith("test_"))
    assert unread_names({"oracles": ORACLES.read_text()}, readers, lambda name: True) == []
