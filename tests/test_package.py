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
re-exports of `__init__`. Nothing in the package caches: no module uses
functools' `lru_cache` or `cache`. Nothing in the package imports scipy, a
test dependency only, and importing the CLI loads none of it.

Each rule that several engines enforce is stated once: its refusal is
raised in one module (`RULES`), whose function the others call.

Each module but `__init__` declares `__all__`, and the functions and
classes it lists are exactly its public top-level ones; any other name it
lists is a top-level constant. Each module but `__init__`, whose imports
are the package's exports, reads every name it imports.
"""

import ast
import os
import subprocess
import sys
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


# Each backend, or statistic that a backend signs, and the module that
# defines it.
BACKENDS = {
    "ProbeAggregator": "aggregation",
    "goldenbaum_estimate": "baselines",
    "obda_received": "baselines",
}


def backend_builders() -> list[str]:
    """`module.name` for each backend a module names outside its homes."""
    found = []
    for path in sorted((ROOT / "src" / "airmv").glob("*.py")):
        names = _names(ast.parse(path.read_text(encoding="utf-8")))
        found += [
            f"{path.stem}.{name}" for name, home in BACKENDS.items()
            if names[name] and path.stem not in ("aggregation", home, "__init__")
        ]
    return found


def test_backends_are_built_in_one_home():
    assert backend_builders() == []


def test_the_scan_sees_a_planted_backend_build(tmp_path, monkeypatch):
    """A backend named outside its homes, by import or by module attribute,
    is reported; the homes, the re-exports and a docstring are not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "__init__": "from .aggregation import ProbeAggregator\n"
                    "from .baselines import obda_received\n",
        "aggregation": "from .baselines import goldenbaum_estimate, obda_received\n\n"
                       "class ProbeAggregator:\n    pass\n",
        "baselines": "def goldenbaum_estimate():\n    pass\n\n"
                     "def obda_received():\n    pass\n",
        "channel": '"""Feeds ProbeAggregator."""\n',
        "median": "from . import baselines\n\n"
                  "def mv():\n    return baselines.goldenbaum_estimate\n",
        "simulate": "from functools import lru_cache\n"
                    "from .aggregation import ProbeAggregator\n\n"
                    "_engine = lru_cache(maxsize=1)(ProbeAggregator)\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert backend_builders() == ["median.goldenbaum_estimate", "simulate.ProbeAggregator"]


CACHES = ("lru_cache", "cache")


def cache_uses() -> list[str]:
    """`module:line` of each import or attribute access of functools'
    `lru_cache` or `cache` in the package."""
    found = []
    for path in sorted((ROOT / "src" / "airmv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functools = {
            alias.asname or alias.name
            for n in ast.walk(tree) if isinstance(n, ast.Import)
            for alias in n.names if alias.name == "functools"
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "functools":
                hit = any(alias.name in CACHES for alias in n.names)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                hit = n.attr in CACHES and n.value.id in functools
            else:
                continue
            if hit:
                found.append(f"{path.stem}:{n.lineno}")
    return found


def test_nothing_in_the_package_caches():
    assert cache_uses() == []


def test_the_scan_sees_a_planted_cache(tmp_path, monkeypatch):
    """An imported `lru_cache` or `cache`, and functools' own under any
    alias, are reported; other functools names and a variable named cache
    are not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "aggregation": "from functools import reduce\n\ncache = {}\n",
        "huffman": "import functools as ft\n\n"
                   "@ft.lru_cache(maxsize=None)\ndef table(K):\n    return K\n",
        "median": "import functools\n\n"
                  "@functools.cache\nclass Grid:\n    pass\n",
        "simulate": "from functools import lru_cache as memo, partial\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert cache_uses() == ["huffman:3", "median:3", "simulate:1"]


def scipy_imports() -> list[str]:
    """`module:line` of each `import scipy...` or `from scipy... import` in
    the package."""
    found = []
    for path in sorted((ROOT / "src" / "airmv").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                names = [n.module or ""]
            else:
                continue
            if any(name.split(".", 1)[0] == "scipy" for name in names):
                found.append(f"{path.stem}:{n.lineno}")
    return found


def test_nothing_in_the_package_imports_scipy():
    assert scipy_imports() == []


def test_the_scan_sees_a_planted_scipy_import(tmp_path, monkeypatch):
    """`import scipy`, a submodule import under any alias, `from scipy...`
    and an import inside a function are reported; a module or a relative
    import that only shares the name is not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "aggregation": "import numpy as np, scipy\n",
        "channel": "import scipy_like\nfrom . import scipy\nfrom .scipy import expm\n",
        "huffman": "import scipy.linalg as sl\n",
        "median": "def f():\n    from scipy.special import erf\n    return erf\n",
        "theory": "from scipy import linalg\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert scipy_imports() == ["aggregation:1", "huffman:1", "median:2", "theory:1"]


def test_importing_the_cli_loads_no_scipy():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, airmv.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _top_level(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(public functions and classes, every other name bound) at the top
    level of a module."""
    defs = {n.name for n in filter(_public, tree.body)}
    bound = {
        t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
        if isinstance(t, ast.Name)
    }
    return defs, bound


def export_mismatches() -> list[str]:
    """`module.name` for each public function or class a module's `__all__`
    leaves out and each name it lists that the module does not define;
    `module.__all__` for a module without one."""
    found = []
    for path in sorted((ROOT / "src" / "airmv").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        listed = [
            ast.literal_eval(n.value) for n in tree.body
            if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
        ]
        if not listed:
            found.append(f"{path.stem}.__all__")
            continue
        defs, bound = _top_level(tree)
        names = set(listed[0])
        found += [f"{path.stem}.{name}" for name in sorted(defs ^ (names - bound))]
    return found


def test_all_lists_exactly_the_public_definitions():
    assert export_mismatches() == []


def test_the_scan_sees_a_planted_export_mismatch(tmp_path, monkeypatch):
    """A public function left out of `__all__`, a listed name the module
    does not define and a module without `__all__` are reported; a listed
    constant, a private function and `__init__` are not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "__init__": "from .a import used\n",
        "a": '__all__ = ["LIMIT", "Box", "used", "gone"]\n\nLIMIT = 3\n\n'
             "class Box:\n    pass\n\n"
             "def used():\n    pass\n\n"
             "def _helper():\n    pass\n\n"
             "def forgotten():\n    pass\n",
        "b": "def main():\n    pass\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert export_mismatches() == ["a.forgotten", "a.gone", "b.__all__"]


def unused_imports() -> list[str]:
    """`module.name` for each name that a module but `__init__` imports and
    never reads; `from __future__` imports are compiler directives."""
    found = []
    for path in sorted((ROOT / "src" / "airmv").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                bound = [alias.asname or alias.name.split(".", 1)[0] for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                bound = [alias.asname or alias.name for alias in n.names]
            else:
                continue
            found += [f"{path.stem}.{name}" for name in bound if name not in read]
    return found


def test_every_import_is_read():
    assert unused_imports() == []


def test_the_scan_sees_a_planted_unused_import(tmp_path, monkeypatch):
    """An import that is never read, one only rebound and an alias whose
    original name alone appears are reported; names read in a function, an
    annotation or as a module's attribute base, `from __future__` and
    `__init__` are not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "__init__": "from .a import f\n",
        "a": "from __future__ import annotations\n\n"
             "import math\nimport numpy as np\nimport os.path\n\n"
             "from .b import Box, helper as aid, spare, stale\n\n"
             "stale = 3\n\n"
             "def f(x: Box) -> float:\n"
             "    return math.pi + np.ones(2).sum() + os.path.sep.count('/') + helper\n",
        "b": "def g():\n    from .a import f\n    return 1\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert unused_imports() == ["a.aid", "a.spare", "a.stale", "b.f"]


# Each shared rule: the phrasings its refusal has had, and the one module
# that may raise it.
RULES = {
    "noise variance": (("noise variance must be nonnegative", "sigma2 must be nonnegative"),
                       "channel"),
    "vote positions": (("out of range for M=",), "decoding"),
}


def _raised_texts(tree: ast.Module) -> list[str]:
    """The literal text of each argument of each `raise X(...)` in a module,
    an f-string's fields left out."""
    return [
        "".join(c.value for c in ast.walk(arg)
                if isinstance(c, ast.Constant) and isinstance(c.value, str))
        for n in ast.walk(tree)
        if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
        for arg in n.exc.args
    ]


def rule_statements() -> dict[str, list[str]]:
    """The modules that raise each rule's refusal, in any of its phrasings."""
    found = {rule: [] for rule in RULES}
    for path in sorted((ROOT / "src" / "airmv").glob("*.py")):
        texts = _raised_texts(ast.parse(path.read_text(encoding="utf-8")))
        for rule, (phrasings, _) in RULES.items():
            if any(p in text for text in texts for p in phrasings):
                found[rule].append(path.stem)
    return found


def test_each_shared_rule_is_stated_once():
    assert rule_statements() == {rule: [home] for rule, (_, home) in RULES.items()}


def test_the_scan_sees_a_planted_second_statement(tmp_path, monkeypatch):
    """A second module raising a rule's refusal, in either wording, plain
    or as an f-string split over two literals, is reported; a docstring
    naming it and a raise of another message are not."""
    pkg = tmp_path / "src" / "airmv"
    pkg.mkdir(parents=True)
    plants = {
        "channel": "def check(s):\n    if not s >= 0:\n"
                   "        raise ValueError('noise variance must be nonnegative')\n",
        "decoding": "def pos(M, p):\n"
                    "    raise ValueError(f'vote positions {p!r} out of range for M={M}')\n",
        "theory": "def model(s):\n    if s < 0:\n"
                  "        raise ValueError('sigma2 must be nonnegative')\n",
        "aggregation": '"""The noise variance must be nonnegative."""\n\n'
                       "def f(ell, M):\n"
                       "    raise ValueError(f'vote position {ell} out of range ' f'for M={M}')\n",
        "simulate": "def g():\n    raise ValueError('need at least one trial')\n",
    }
    for name, text in plants.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert rule_statements() == {"noise variance": ["channel", "theory"],
                                 "vote positions": ["aggregation", "decoding"]}
