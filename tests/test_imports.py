"""Every name a library module imports is used in that module, every
private top-level or class-body name is used somewhere in the package,
every public re-export has a caller, only ``algebra`` builds an
``Envelope``, no module labels a ``TermSource``, no module reads the
built-in ``sum``, the package imports nothing from outside the standard
library, and its syntax parses at the oldest Python that pyproject.toml
declares.

No linter ships with the project, so these stdlib checks catch the imports
and helpers a refactor leaves behind.  ``__init__.py`` is skipped by the
import check: its imports are the public re-exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "peakseq"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detects_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == ["math", "sep"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports that are not in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


def test_detects_non_stdlib_import():
    source = "import math, numpy.linalg\nfrom scipy import linalg\nfrom os import path\nfrom .core import solve\n"
    assert non_stdlib_imports(source) == ["numpy", "scipy"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_stdlib_only(path):
    assert non_stdlib_imports(path.read_text()) == []


def python_floor() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_detects_syntax_past_the_floor():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), feature_version=python_floor())


def _defined(stmt) -> list[str]:
    """Names a statement defines: a function, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _units(module: str, text: str):
    """(owner, defined names, reference kind, nodes, scope) for each
    top-level statement; a class statement splits into its header and one
    unit per body statement, so a member is checked against the rest of its
    own class.  A top-level name is referenced as a ``"name"`` and a member
    as an ``"attr"``.  ``scope`` is (module, statement index) with the
    member index appended for a member: a unit's own references are those
    whose scope starts with its own, so the class's name is checked against
    everything outside the class."""
    for i, stmt in enumerate(ast.parse(text).body):
        if isinstance(stmt, ast.ClassDef):
            header = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            yield module, [stmt.name], "name", header, (module, i)
            for j, member in enumerate(stmt.body):
                yield f"{module}.{stmt.name}", _defined(member), "attr", [member], (module, i, j)
        else:
            yield module, _defined(stmt), "name", [stmt], (module, i)


def _referenced(nodes) -> set[tuple[str, str]]:
    """(kind, name) for each name the nodes read: ``"name"`` for a bare
    name or an import, ``"attr"`` for an attribute."""
    refs = set()
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.Name):
            refs.add(("name", node.id))
        elif isinstance(node, ast.Attribute):
            refs.add(("attr", node.attr))
        elif isinstance(node, ast.ImportFrom):
            refs.update(("name", alias.name) for alias in node.names)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level name (one leading
    underscore) that no other statement of any module reads as a bare name
    or imports, and ``module.Class.name`` for each private name a class body
    defines that no other statement reads as an attribute."""
    units = [unit for module, text in sources.items() for unit in _units(module, text)]
    refs = [(scope, _referenced(nodes)) for _, _, _, nodes, scope in units]
    unused = []
    for owner, names, kind, _, own in units:
        outside = [r for scope, r in refs if scope[: len(own)] != own]
        for name in names:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any((kind, name) in r for r in outside):
                unused.append(f"{owner}.{name}")
    return sorted(unused)


def test_detects_unreferenced_private_name():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n_CONST = 1\n_UNUSED = 2\n",
        "b": "from .a import _used\nprint(_used(), _CONST)\n",
        "c": ("class K:\n    def __init__(self):\n        self._live()\n\n    def _live(self):\n        pass\n\n"
              "    def _stale(self):\n        return self._stale()\n"),
        "d": "class _Dead:\n    def make(self):\n        return _Dead()\n",
        "e": "class K2:\n    def _dead(self):\n        pass\n",
    }
    assert unreferenced_private_names(sources) == [
        "a._UNUSED", "a._dead", "c.K._stale", "d._Dead", "e.K2._dead",
    ]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


def envelope_builders(sources: dict[str, str]) -> list[str]:
    """Each module that calls ``Envelope(...)``, by bare name or as an attribute."""
    builders = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "Envelope" or getattr(func, "attr", None) == "Envelope":
                    builders.add(module)
    return sorted(builders)


def test_detects_envelope_built_outside_algebra():
    sources = {
        "a": "from .core import Envelope\nENV = Envelope(h=f, beta=g, mono=m)\n",
        "b": "from . import core\n\ndef f():\n    return core.Envelope(h, b, m)\n",
        "c": "from .core import Envelope\n\ndef g(env: Envelope) -> Envelope:\n    return env.h\n",
    }
    assert envelope_builders(sources) == ["a", "b"]


def test_only_algebra_builds_envelopes():
    # Every bundled family comes from algebra's constructors:
    # AffineParams.constant_envelope, line_family and the combinators.
    assert envelope_builders({p.stem: p.read_text() for p in MODULES}) == ["algebra"]


def labelled_sources(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each ``TermSource(...)`` call, by bare name or as an
    attribute, that passes a label: a ``description=`` keyword or a second
    positional argument."""
    return sorted(f"{module}:{node.lineno}" for module, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call)
                  and "TermSource" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                  and (len(node.args) > 1 or any(kw.arg == "description" for kw in node.keywords)))


def test_detects_labelled_term_source():
    sources = {
        "a": 'from .core import TermSource\nSRC = TermSource(eval=f, description="label")\n',
        "b": 'from . import core\n\ndef f():\n    return core.TermSource(g, "label")\n',
        "c": "from .core import TermSource\nSRC = TermSource(f, upper=g, lower=h)\nENV = Envelope(h, b, m)\n",
    }
    assert labelled_sources(sources) == ["a:2", "b:4"]


def test_no_module_labels_a_term_source():
    # TermSource.description is a caller's label: the library neither sets
    # nor reads one, so a label set here would be state that nothing reads.
    assert labelled_sources({p.stem: p.read_text() for p in PACKAGE}) == []


def builtin_sum_reads(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each read of the bare name ``sum``: a call of the
    built-in or the built-in passed on as a value."""
    return sorted(f"{module}:{node.lineno}" for module, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load))


def test_detects_builtin_sum():
    sources = {
        "a": "def f(r):\n    return sum(r)\n",
        "b": "totals = list(map(sum, rows))\n",
        "c": "import math\nx = math.fsum(r) + obj.sum\n",
    }
    assert builtin_sum_reads(sources) == ["a:2", "b:1"]


def test_no_builtin_sum():
    # From Python 3.12 on, sum compensates its rounding, so a float sum
    # through it differs in the last bits between versions.  Every sum in
    # the package adds left to right from 0.0, as the product kernel does.
    assert builtin_sum_reads({p.stem: p.read_text() for p in PACKAGE}) == []


# Where a public name counts as called: the package, the benchmark harness,
# and the acceptance gate with the property suite it imports.
CALLERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_properties.py"]


def uncalled_exports(exports: list[str], sources: list[str]) -> list[str]:
    """Each of ``exports`` that no top-level statement of ``sources`` reads,
    as a bare name or an attribute, other than the one that defines it.  An
    import alone is not a read."""
    read = set()
    for text in sources:
        for stmt in ast.parse(text).body:
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            read |= names - set(_defined(stmt))
    return sorted(set(exports) - read)


def test_detects_export_without_caller():
    sources = [
        "def solve():\n    return solve()\n\nclass Tie:\n    pass\n\ndef helper():\n    return Tie()\n",
        "import pkg\npkg.helper()\n",
        "from pkg import solve, Tie\n",
    ]
    assert uncalled_exports(["Tie", "helper", "solve"], sources) == ["solve"]


def test_every_export_has_a_caller():
    init = ast.parse((SRC / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert uncalled_exports(exports, [p.read_text() for p in CALLERS]) == []
