"""Source hygiene checks that need no import of the package."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmcnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


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


def unread_public_names(modules: dict[str, str], reader: str) -> list[str]:
    """Public top-level functions and classes of `modules` that no other
    top-level statement of any module reads, nor the source `reader`."""
    defined, reads = [], []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                if not node.name.startswith("_"):
                    defined.append(owner)
            reads.append((owner, _reads(node)))
    outside = _reads(ast.parse(reader))
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in outside
        and not any(name in r for owner, r in reads if owner != (module, name))
    ]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text()) == []


def test_public_names_are_read():
    # the package's own routes or the acceptance criteria read every public
    # function and class; exports in __init__.py do not count
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unread_public_names(modules, ACCEPTANCE.read_text()) == []
