"""Source hygiene: every name a library module imports is used in it, every
private module-level function or class and every module-level constant is
used somewhere in the library, every public function, class, method and
property is used in the library or the benchmark (re-exports from
``__init__.py`` do not count), every error class is named in the library
outside ``errors.py`` or in the benchmark, no module solves or inverts a
matrix around ``linalg._cholesky`` or takes an eigendecomposition, only
``linalg.py`` takes a singular value decomposition, only
``PopulationDesign`` splits a score three ways, only ``scores._split_span``
takes a QR factorisation, every JSON parse refuses
non-finite numbers, and no module imports SciPy."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asymlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
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
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _references(node: ast.AST) -> Counter:
    """How often a subtree reads each name, as a bare name, an attribute or an
    import."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _referenced(node: ast.AST) -> set[str]:
    """Every name a subtree reads, as a bare name, an attribute or an import."""
    return set(_references(node))


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes named ``_x`` (not dunders) that no
    top-level statement of any of ``sources`` other than their own
    definition refers to."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    found = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(other is not node and name in _referenced(other) for _, other in statements):
            found.append(f"{module}: {name} (line {node.lineno})")
    return found


def unreferenced_public_definitions(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Module-level functions and classes of ``sources`` not named ``_x``, and
    the methods and properties of those classes not named ``_x``, that no
    part of ``readers`` other than their own definition refers to."""
    read = sum((_references(ast.parse(source)) for source in readers.values()), Counter())
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                named += [(method, f"{node.name}.{method.name}") for method in methods]
            for definition, label in named:
                name = definition.name
                if not name.startswith("_") and read[name] <= _references(definition)[name]:
                    found.append(f"{module}: {label} (line {definition.lineno})")
    return found


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level names bound by assignment (not dunders) that no statement
    of any of ``sources`` reads, as a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                name = getattr(target, "id", "__")
                if not name.startswith("__") and name not in read:
                    found.append(f"{module}: {name} (line {node.lineno})")
    return found


def unnamed_error_classes(errors_source: str, others: dict[str, str]) -> list[str]:
    """Classes defined in ``errors_source`` that no module of ``others`` refers to."""
    named = set().union(*(_referenced(ast.parse(source)) for source in others.values()))
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef) and node.name not in named
    ]


# a positive-definite solve, singularity test or rank cut-off beside
# ``linalg._cholesky``: any eigendecomposition, and outside ``linalg.py``
# (whose ``_full_column_rank`` is the one rank rule for a rectangular
# matrix) any singular value decomposition
OTHER_SOLVES = re.compile(
    r"linalg\.(inv|pinv|solve|cholesky|lstsq)\b|\beig(h|vals|valsh)?\b|cho_solve|_near_singular"
)
OTHER_RANK_RULES = re.compile(r"\bsvd(vals)?\b")


def other_solves(source: str, name: str) -> list[str]:
    """Lines of ``source``, the module file ``name``, that name a matrix
    solve, inverse, eigenvalue or (outside ``linalg.py``) singular value
    routine other than ``_cholesky``."""
    patterns = [OTHER_SOLVES] if name == "linalg.py" else [OTHER_SOLVES, OTHER_RANK_RULES]
    return [
        f"line {number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if any(pattern.search(line) for pattern in patterns)
    ]


def test_the_check_sees_another_solve():
    source = (
        "import numpy as np\n\n"
        "x = np.linalg.solve(a, b)\n"
        "y = _cholesky(a, b)\n"
        "z = np.linalg.inv(a) @ np.linalg.eigvalsh(a)\n"
        "q, r = np.linalg.qr(a)\n"
        "w, v = np.linalg.eigh(a)  # weighted eigenvalues\n"
        "e = scipy.linalg.eig(a) + np.linalg.eigvals(a)\n"
        "s = np.linalg.svd(a, compute_uv=False)\n"
    )
    assert other_solves(source, "iv.py") == [
        "line 3: x = np.linalg.solve(a, b)",
        "line 5: z = np.linalg.inv(a) @ np.linalg.eigvalsh(a)",
        "line 7: w, v = np.linalg.eigh(a)  # weighted eigenvalues",
        "line 8: e = scipy.linalg.eig(a) + np.linalg.eigvals(a)",
        "line 9: s = np.linalg.svd(a, compute_uv=False)",
    ]
    # linalg.py's one singular value decomposition is its rank rule
    assert other_solves(source, "linalg.py") == other_solves(source, "iv.py")[:-1]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_positive_definite_solve_is_the_cholesky_helper(path):
    assert other_solves(path.read_text(), path.name) == []


# the methods that split a score three ways; ``PopulationDesign`` alone defines them
SPLIT_METHODS = ("bases", "orthocomplement_parts")


def split_definitions(sources: dict[str, str]) -> list[str]:
    """Every class-level definition or assignment of a name in
    ``SPLIT_METHODS`` in ``sources``, as "module: Class.name"."""
    found = []
    for module, source in sources.items():
        for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                found += [f"{module}: {cls.name}.{n}" for n in names if n in SPLIT_METHODS]
    return found


def test_the_check_sees_a_second_split_route():
    source = (
        "class PopulationDesign:\n"
        "    def bases(self):\n        pass\n\n"
        "    def orthocomplement_parts(self, values):\n        pass\n\n"
        "class IvDesign(PopulationDesign):\n"
        "    @cached_property\n    def bases(self):\n        pass\n\n"
        "    def _spans(self):\n        pass\n\n"
        "class Other:\n    orthocomplement_parts = staticmethod(split)\n"
    )
    assert split_definitions({"a.py": source}) == [
        "a.py: PopulationDesign.bases",
        "a.py: PopulationDesign.orthocomplement_parts",
        "a.py: IvDesign.bases",
        "a.py: Other.orthocomplement_parts",
    ]


def test_one_split_route():
    sources = {path.name: path.read_text() for path in MODULES}
    assert split_definitions(sources) == [
        "scores.py: PopulationDesign.bases",
        "scores.py: PopulationDesign.orthocomplement_parts",
    ]


def qr_sites(sources: dict[str, str]) -> list[str]:
    """Every reference to a QR factorisation in ``sources`` (an attribute
    ``qr``, as in ``np.linalg.qr``, or an imported name ``qr``), as
    "module: definition" for the top-level function or class it lies in, or
    "module: -" at module level."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = getattr(top, "name", "-")
            for node in ast.walk(top):
                named = isinstance(node, ast.ImportFrom) and "qr" in {a.name for a in node.names}
                if named or (isinstance(node, ast.Attribute) and node.attr == "qr"):
                    found.append(f"{module}: {owner}")
    return found


def test_the_check_sees_a_second_qr_route():
    sources = {
        "scores.py": (
            "def _split_span(dist, a, b):\n    return np.linalg.qr(a)[0]\n\n"
            "def iv_design(dist, model):\n    return np.linalg.qr(b, mode='complete')[0]\n"
        ),
        "iv.py": "from numpy.linalg import qr\n",
    }
    assert qr_sites(sources) == ["scores.py: _split_span", "scores.py: iv_design", "iv.py: -"]


def test_one_qr_route():
    # every orthonormal basis comes from ``scores._split_span``, which owns
    # the constant; a second QR would have to lead with it on its own
    sources = {path.name: path.read_text() for path in MODULES}
    assert set(qr_sites(sources)) == {"scores.py: _split_span"}


# the hook with which ``config`` refuses NaN, Infinity and overflowing numbers
STRICT_JSON_HOOKS = {"parse_constant": "_finite_number", "parse_float": "_finite_number"}


def lax_json_parses(source: str) -> list[str]:
    """Calls of ``json.load`` or ``json.loads`` in ``source`` that do not pass
    the strict hook by keyword, as both the constant and the float hook, and
    imports of those functions from ``json``, which would let a call go
    unseen."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            names = [alias.name for alias in node.names if alias.name in ("load", "loads")]
            found += [f"line {node.lineno}: from json import {name}" for name in names]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json":
                hooks = {kw.arg: getattr(kw.value, "id", None) for kw in node.keywords}
                if any(hooks.get(key) != hook for key, hook in STRICT_JSON_HOOKS.items()):
                    found.append(f"line {node.lineno}: json.{func.attr}")
    return found


def test_the_check_sees_a_lax_json_parse():
    source = (
        "import json\n"
        "from json import loads\n\n"
        "a = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)\n"
        "b = json.loads(text)\n"
        "c = json.loads(text, parse_constant=_finite_number)\n"
        "d = json.loads(text, parse_constant=print, parse_float=_finite_number)\n"
        "e = json.dumps(a)\n"
    )
    assert lax_json_parses(source) == [
        "line 2: from json import loads",
        "line 5: json.loads",
        "line 6: json.loads",
        "line 7: json.loads",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_json_parse_refuses_non_finite_numbers(path):
    assert lax_json_parses(path.read_text()) == []


def scipy_imports(source: str) -> list[str]:
    """Every ``import scipy...`` and ``from scipy... import`` in ``source``,
    at any depth, a function body included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    return found


def test_the_check_sees_a_scipy_import():
    source = (
        "import numpy as np\n"
        "import math, scipy.optimize as opt\n"
        "from scipy.linalg import solve\n"
        "from . import scipy_free\n"
        "import scipyx\n\n"
        "def margin(m):\n"
        "    from scipy.optimize import linprog  # scipy in a comment\n"
        "    return linprog\n"
    )
    assert scipy_imports(source) == [
        "line 2: scipy.optimize",
        "line 3: scipy.linalg",
        "line 8: scipy.optimize",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy is the one runtime dependency; SciPy serves the test oracles only
    assert scipy_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom .dist import expectation, variance\n\nvariance(math.pi)\n"
    assert unused_imports(source) == ["expectation (line 2)"]


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n",
        "b.py": "from .a import _used\n\nclass _Kept:\n    pass\n\nx = [_Kept]\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py: _recursive (line 4)"]


def test_the_check_sees_an_unreferenced_public_definition():
    sources = {
        "a.py": (
            "def used():\n    pass\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "def _private():\n    pass\n\n"
            "class Kept:\n"
            "    def method(self):\n        return self.other()\n\n"
            "    def other(self):\n        pass\n\n"
            "    @property\n    def stale(self):\n        return 1\n\n"
            "    def __len__(self):\n        return 0\n"
        ),
    }
    readers = {**sources, "bench/run.py": "from a import Kept, used\n\nKept().method()\n"}
    assert unreferenced_public_definitions(sources, readers) == [
        "a.py: recursive (line 4)",
        "a.py: Kept.stale (line 18)",
    ]


def test_every_public_definition_has_a_caller():
    # __init__.py re-exports every public name, so it neither defines nor reads one here
    sources = {path.name: path.read_text() for path in MODULES}
    bench = {f"bench/{path.name}": path.read_text() for path in sorted(ROOT.glob("bench/*.py"))}
    assert unreferenced_public_definitions(sources, {**sources, **bench}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_the_check_sees_an_unread_constant():
    sources = {
        "a.py": (
            "TOL = 1e-9\nSTALE = 16\n__version__ = '0'\nLIMIT: int = 3\n\n"
            "def f(x):\n    return x < TOL\n"
        ),
        "b.py": "from .a import LIMIT\nimport a\n\nSTALE_TOO = 2\nSTALE_TOO = a.f(1)\n",
    }
    assert unread_constants(sources) == [
        "a.py: STALE (line 2)",
        "b.py: STALE_TOO (line 4)",
        "b.py: STALE_TOO (line 5)",
    ]


def test_the_check_sees_an_unnamed_error_class():
    errors = (
        "class BaseError(Exception):\n    pass\n\n"
        "class Raised(BaseError):\n    pass\n\n"
        "class Stale(BaseError):\n    pass\n\n"
        "class Counted(UserWarning):\n    pass\n"
    )
    others = {
        "a.py": "from .errors import BaseError, Raised\n",
        "b.py": "from . import errors\n\nraise errors.Raised('x')\n",
        "bench/tracing.py": "from asymlab.errors import Counted\n",
    }
    assert unnamed_error_classes(errors, others) == ["Stale (line 7)"]


def test_every_constant_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(sources) == []


def test_every_error_class_is_named_outside_errors():
    # the readers of ``test_every_public_definition_has_a_caller``: the
    # library and the benchmark
    others = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "errors.py"}
    bench = {f"bench/{path.name}": path.read_text() for path in sorted(ROOT.glob("bench/*.py"))}
    assert unnamed_error_classes((PACKAGE / "errors.py").read_text(), {**others, **bench}) == []
