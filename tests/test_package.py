"""The package holds the product path: no public name only unit tests call.

Every public top-level function and class of `src/airmv/*.py`, and every
public method, must be named by the package's own code outside its
definition or by the acceptance suite. A method or property counts as named
only through an attribute access (`obj.name`) on something other than an
imported module: a local variable or `np.zeros` of the same name is not a
caller. The console entry point `cli.main` is the one exemption. A
test-only helper or oracle belongs in `tests/`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = {"cli.main"}


def _names(node: ast.AST) -> Counter:
    """Every identifier a subtree refers to: names, attributes, imports."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def _modules(tree: ast.Module) -> set[str]:
    """The names `import x` and `import x as y` bind in a module."""
    return {
        alias.asname or alias.name.split(".", 1)[0]
        for n in ast.walk(tree) if isinstance(n, ast.Import)
        for alias in n.names
    }


def _members(node: ast.AST, modules: set[str]) -> Counter:
    """Attribute accesses `obj.name` of a subtree, `module.name` left out."""
    return Counter(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and not (isinstance(n.value, ast.Name) and n.value.id in modules)
    )


def _public(node: ast.AST) -> bool:
    defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
    return defines and not node.name.startswith("_")


def _public_defs(tree: ast.Module):
    """(qualified name, node, is a member) of the public top-level defs and
    methods."""
    for node in filter(_public, tree.body):
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in filter(_public, node.body):
                yield f"{node.name}.{item.name}", item, True


def unreferenced_names() -> list[str]:
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "airmv").glob("*.py"))
        if path.stem != "__init__"
    }
    acceptance = ROOT / "tests" / "test_acceptance.py"
    trees = [ast.parse(acceptance.read_text(encoding="utf-8")), *modules.values()]
    names, members = Counter(), Counter()
    for tree in trees:
        names += _names(tree)
        members += _members(tree, _modules(tree))
    missing = []
    for module, tree in modules.items():
        imported = _modules(tree)
        for qualname, node, member in _public_defs(tree):
            name = f"{module}.{qualname}"
            if member:
                refs = members - _members(node, imported)
            else:
                refs = names - _names(node)
            if name not in ENTRY_POINTS and refs[node.name] <= 0:
                missing.append(name)
    return missing


def test_every_public_name_has_a_product_caller():
    assert unreferenced_names() == []


def test_the_scan_sees_a_test_only_name(tmp_path, monkeypatch):
    """A public function nothing else names is reported; a recursive call
    inside its own body does not count as a caller. A property is reported
    when only a local variable and `np.zeros` share its name."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from airmv.a import Box, used\n\nBox().read()\n"
    )
    (pkg / "__init__.py").write_text("from .a import Box, orphan, used\n")
    (pkg / "a.py").write_text(
        "import numpy as np\n\n"
        "def used():\n    return 1\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else used()\n\n"
        "class Box:\n"
        "    def read(self):\n        return self.size\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    @property\n    def zeros(self):\n"
        "        zeros = np.zeros(2)\n        return zeros\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert unreferenced_names() == ["a.orphan", "a.Box.zeros"]
