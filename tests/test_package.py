"""The package holds the product path: no public name only unit tests call.

Every public top-level function and class of `src/airmv/*.py`, and every
public method, must be named by the package's own code outside its
definition or by the acceptance suite. A method or property counts as named
only through an attribute access (`obj.name`) on something other than an
imported module: a local variable or `np.zeros` of the same name is not a
caller. The console entry point `cli.main` is the one exemption. A
test-only helper or oracle belongs in `tests/`.

The Monte Carlo modules (`MONTE_CARLO`) reach nothing of `airmv.theory`,
directly or through other package modules, so simulation and theory stay
independent checks of each other.

Backend construction has one home, `aggregation.backend`: no other module
names a backend (`BACKENDS`) but the one that defines it and the
re-exports of `__init__`, and no `lru_cache` wraps a class.
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


MONTE_CARLO = ("aggregation", "simulate", "channel", "baselines", "median")


def _package_imports(tree: ast.Module) -> set[str]:
    """The airmv modules a module imports: `from .x import`, `from . import
    x`, `from airmv.x import` and `import airmv.x`."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            parts = (n.module or "").split(".")
            if n.level == 0 and parts[0] != "airmv":
                continue
            parts = parts[1:] if n.level == 0 else [p for p in parts if p]
            if parts:
                out.add(parts[0])
            else:
                out.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Import):
            for alias in n.names:
                parts = alias.name.split(".")
                if parts[0] == "airmv" and len(parts) > 1:
                    out.add(parts[1])
    return out


def theory_importers() -> list[str]:
    """The Monte Carlo modules that reach `airmv.theory`, directly or through
    other package modules."""
    pkg = ROOT / "src" / "airmv"
    graph = {
        path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(pkg.glob("*.py"))
    }
    found = []
    for module in MONTE_CARLO:
        seen, todo = set(), [module]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
        if "theory" in seen:
            found.append(module)
    return found


def test_the_monte_carlo_is_independent_of_the_theory():
    assert theory_importers() == []


def test_the_scan_sees_a_planted_theory_import(tmp_path, monkeypatch):
    """Direct, relative-module and transitive imports of the theory are
    reported; a module that only shares a name with it is not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "aggregation": "from .decoding import powers\n",
        "decoding": "from .huffman import theory\n",
        "huffman": "import numpy as np\n",
        "simulate": "from . import theory\n",
        "channel": "import airmv.theory as th\n",
        "baselines": "from airmv.theory import cer\n",
        "median": "from .helpers import x\n",
        "helpers": "from .theory import cer\n",
        "theory": "import numpy as np\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert theory_importers() == ["simulate", "channel", "baselines", "median"]


# Each backend and the module that defines it.
BACKENDS = {
    "ProbeAggregator": "aggregation",
    "goldenbaum_aggregate": "baselines",
    "obda_aggregate": "baselines",
}


def _is_lru_cache(node: ast.AST) -> bool:
    """`lru_cache` or `cache`, bare, as a module attribute or called with
    its options."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("lru_cache", "cache")


def backend_builders() -> list[str]:
    """`module.name` for each backend a module names outside its homes, and
    `module.lru_cache(name)` for each package class an lru_cache wraps."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "airmv").glob("*.py"))
    }
    classes = {
        n.name for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef)
    }
    found = []
    for module, tree in trees.items():
        names = _names(tree)
        found += [
            f"{module}.{name}" for name, home in BACKENDS.items()
            if names[name] and module not in ("aggregation", home, "__init__")
        ]
        for n in ast.walk(tree):
            if isinstance(n, ast.ClassDef):
                wrapped = [n.name] if any(map(_is_lru_cache, n.decorator_list)) else []
            elif isinstance(n, ast.Call) and _is_lru_cache(n.func):
                wrapped = [c for arg in n.args for c in _names(arg) if c in classes]
            else:
                continue
            found += [f"{module}.lru_cache({c})" for c in wrapped]
    return found


def test_backends_are_built_in_one_home():
    assert backend_builders() == []


def test_the_scan_sees_a_planted_backend_build(tmp_path, monkeypatch):
    """A backend named outside its homes, by import or by module attribute,
    and an lru_cache around a class, called or as a decorator, are
    reported; the homes, the re-exports, a docstring and a cached function
    are not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "__init__": "from .aggregation import ProbeAggregator\n"
                    "from .baselines import obda_aggregate\n",
        "aggregation": "from .baselines import goldenbaum_aggregate, obda_aggregate\n\n"
                       "class ProbeAggregator:\n    pass\n",
        "baselines": "def goldenbaum_aggregate():\n    pass\n\n"
                     "def obda_aggregate():\n    pass\n",
        "channel": '"""Feeds ProbeAggregator."""\n',
        "huffman": "import functools\n\n"
                   "@functools.lru_cache(maxsize=None)\ndef table(K):\n    return K\n\n"
                   "@functools.cache\nclass Grid:\n    pass\n",
        "median": "from . import baselines\n\n"
                  "def mv():\n    return baselines.goldenbaum_aggregate\n",
        "simulate": "from functools import lru_cache\n"
                    "from .aggregation import ProbeAggregator\n\n"
                    "_engine = lru_cache(maxsize=1)(ProbeAggregator)\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert backend_builders() == [
        "huffman.lru_cache(Grid)",
        "median.goldenbaum_aggregate",
        "simulate.ProbeAggregator",
        "simulate.lru_cache(ProbeAggregator)",
    ]
