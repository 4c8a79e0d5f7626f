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


PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def defined_names(source: str) -> set[str]:
    """Names a module binds at top level, and Class.method for each method
    and property of its top-level classes (`_units`)."""
    names = {".".join(owner[1:]) for owner, _ in _units("", source) if owner}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def package_reads(source: str) -> list[tuple[str, str]]:
    """(module, name) for each name of the package the source reads: the
    names of `from qmcnet.<mod> import ...`, those of `from qmcnet import
    ...` and the attributes read off them, and ("qmcnet.<mod>", "Class.method")
    for each triple of a module-level `METHODS` tuple."""
    tree = ast.parse(source)
    reads, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module == "qmcnet":
            for a in node.names:
                reads.append(("qmcnet", a.name))
                aliases[a.asname or a.name] = f"qmcnet.{a.name}"
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").startswith("qmcnet."):
            reads += [(node.module, a.name) for a in node.names]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "METHODS" for t in node.targets):
            reads += [(f"qmcnet.{m}", f"{c}.{f}") for m, c, f in ast.literal_eval(node.value)]
    reads += [
        (aliases[n.value.id], n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases
    ]
    return reads


def missing_package_names(readers: dict[str, str], modules: dict[str, str]) -> list[str]:
    """`reader: module.name` for each `package_reads` name of the reader
    sources that `modules` (dotted name -> source, "qmcnet" for the
    package's __init__) do not define; a `from qmcnet import` name may also
    be a module."""
    defined = {mod: defined_names(source) for mod, source in modules.items()}
    return [
        f"{reader}: {mod}.{name}"
        for reader, source in readers.items()
        for mod, name in package_reads(source)
        if name not in defined.get(mod, ()) and f"{mod}.{name}" not in modules
    ]


def test_scan_flags_a_missing_package_name():
    modules = {
        "qmcnet": "from .cs import CodeSpace\n__version__ = '1'\n",
        "qmcnet.cs": "class CodeSpace:\n    def words(self): pass\ndef dual_code(c): pass\n",
        "qmcnet.walsh": "def theta(): pass\n",
    }
    reader = (
        "METHODS = (('cs', 'CodeSpace', 'words'), ('cs', 'CodeSpace', 'dual'))\n"
        "def job():\n"
        "    from qmcnet import walsh, haar\n"
        "    from qmcnet.cs import dual_code, zero_patterns\n"
        "    walsh.theta(), walsh.v_gamma_lambda()\n"
        "from qmcnet import __version__, CodeSpace\n"
    )
    assert missing_package_names({"r.py": reader}, modules) == [
        "r.py: qmcnet.haar",
        "r.py: qmcnet.cs.zero_patterns",
        "r.py: qmcnet.cs.CodeSpace.dual",
        "r.py: qmcnet.walsh.v_gamma_lambda",
    ]


def test_perfbench_reads_only_names_that_exist():
    # perfbench imports the package inside its jobs and tracer.py patches
    # methods by name, so a removed name would fail only the run that reads it
    readers = {p.name: p.read_text() for p in PERFBENCH}
    modules = {"qmcnet": (SRC / "__init__.py").read_text()}
    modules |= {f"qmcnet.{p.stem}": p.read_text() for p in MODULES}
    assert ("qmcnet.cs", "CodeSpace.words") in package_reads(readers["tracer.py"])
    assert missing_package_names(readers, modules) == []
