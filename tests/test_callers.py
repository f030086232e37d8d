"""Static guard: every public name and every module-level definition has a
caller outside the tests, every bound kind is a `check` choice, and every
name the benchmark imports exists."""

import ast
from collections import Counter
from pathlib import Path

import normsum
from normsum import bounds, cli

SRC = Path(normsum.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the package's modules, for attribute references such as normsum.svd or linalg.svd
MODULES = {"normsum"} | {p.stem for p in SRC.glob("*.py")}


def references(path):
    """Names the module uses, bare or as an attribute of a package module,
    leaving out the uses inside the definition of the same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        ):
            name = node.attr
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def callers():
    """The modules whose references count: the package without its
    ``__init__`` (which only re-exports), and the benchmark."""
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + sorted(
        PERFBENCH.glob("*.py")
    )


def strays(names, paths):
    """The names that no module of paths references."""
    used = set().union(*(references(p) for p in paths))
    return [name for name in names if name not in used]


def definitions(path):
    """The module-level functions, classes and assigned names of a module, in
    source order."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)
            ]
    return names


def kinds_without_a_check_choice():
    """The entries of bounds.BOUND_KINDS that `check` does not offer."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices["check"]
    choices = next(a for a in sub._actions if a.dest == "kind").choices
    return [k for k in bounds.BOUND_KINDS if k not in choices]


def test_every_public_name_has_a_caller_outside_the_tests():
    paths = callers()
    assert {"cli.py", "graphs.py", "workloads.py", "run.py"} <= {p.name for p in paths}
    assert strays(normsum.__all__, paths) == []


def test_every_module_level_definition_has_a_caller_outside_the_tests():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    names = [name for path in modules for name in definitions(path)]
    assert {"_draw", "_sweep_check", "property_sweep", "DIMENSION_CAP"} <= set(names)
    assert strays(names, callers()) == []


def test_every_bound_kind_is_a_check_choice():
    assert kinds_without_a_check_choice() == []


def test_the_scan_finds_a_stray_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from normsum import linalg\n"
        "def stray(n):\n"
        "    return stray(n - 1) if n else 0\n"
        "def used():\n"
        "    return linalg.svd, helper\n"
        "class Own:\n"
        "    def make(self):\n"
        "        return Own()\n"
        "helper = 1\n"
        "np.linalg.trace_norm\n"
    )
    names = ["stray", "used", "Own", "helper", "svd", "trace_norm"]
    # a call inside its own definition, or through a non-package attribute,
    # is not a caller
    assert strays(names, [module]) == ["stray", "used", "Own", "trace_norm"]
    caller = tmp_path / "caller.py"
    caller.write_text("from module import used\nused()\n")
    assert strays(names, [module, caller]) == ["stray", "Own", "trace_norm"]


def test_the_scan_finds_a_stray_definition(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "_CAP = 3\n"
        "_unused: int = 4\n"
        "a, (b, _c) = 1, (2, 3)\n"
        "def _helper():\n"
        "    return _CAP + b\n"
        "def _stray(n):\n"
        "    return _stray(n - 1) if n else a\n"
        "class _Own:\n"
        "    def make(self):\n"
        "        return _Own()\n"
        "def main():\n"
        "    return _helper()\n"
    )
    names = definitions(module)
    assert names == ["_CAP", "_unused", "a", "b", "_c", "_helper", "_stray", "_Own", "main"]
    # private names count, and a use inside the name's own definition does not
    assert strays(names, [module]) == ["_unused", "_c", "_stray", "_Own", "main"]
    caller = tmp_path / "caller.py"
    caller.write_text("from module import main\nmain()\n")
    assert strays(names, [module, caller]) == ["_unused", "_c", "_stray", "_Own"]


def test_the_scan_finds_a_bound_kind_without_a_check_choice(monkeypatch):
    # the parser reads the tuple it imported, so a kind added to bounds alone
    # is missing from its choices
    monkeypatch.setattr(bounds, "BOUND_KINDS", bounds.BOUND_KINDS + ("stray",))
    assert kinds_without_a_check_choice() == ["stray"]


def test_every_public_name_resolves_and_is_listed_once():
    assert [n for n, c in Counter(normsum.__all__).items() if c > 1] == []
    assert all(hasattr(normsum, name) for name in normsum.__all__)


def benchmark_imports():
    """(module, name) for each name perfbench imports from normsum or
    normsum.bounds, or reads as an attribute of normsum."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("normsum", "normsum.bounds"):
                found |= {(node.module, alias.name) for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "normsum"
            ):
                found.add(("normsum", node.attr))
    return found


def test_every_name_the_benchmark_imports_exists():
    imports = benchmark_imports()
    assert ("normsum", "paley_graph") in imports and ("normsum.bounds", "EQUALITY_TOL") in imports
    assert ("normsum", "exhaustive_max") in imports  # read as normsum.exhaustive_max
    modules = {"normsum": normsum, "normsum.bounds": bounds}
    assert sorted(i for i in imports if not hasattr(modules[i[0]], i[1])) == []
