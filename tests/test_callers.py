"""Static guard: every public name, every module-level definition and every
method and property of a package class has a caller outside the tests, every
parameter of a package function is read in its body, every defaulted
parameter is passed by a caller outside the tests, every definition of the
test oracles has a caller in the tests, every bound kind is a `check` choice,
and every name the benchmark imports exists."""

import ast
from collections import Counter
from pathlib import Path

import normsum
from normsum import bounds, cli

SRC = Path(normsum.__file__).parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
# the package's modules, for attribute references such as normsum.svd or linalg.svd
MODULES = {"normsum"} | {p.stem for p in SRC.glob("*.py")}


def references(path, modules=MODULES):
    """Names the module uses, bare or as an attribute of one of `modules`,
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
            and node.value.id in modules
        ):
            name = node.attr
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def package_modules():
    """The package without its ``__init__``, which only re-exports."""
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def callers():
    """The modules whose references count: the package modules and the
    benchmark."""
    return package_modules() + sorted(PERFBENCH.glob("*.py"))


def strays(names, paths, modules=MODULES):
    """The names that no module of paths references, bare or as an
    attribute of one of `modules`."""
    used = set().union(*(references(p, modules) for p in paths))
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


def _named_class(annotation, classes):
    """The class of `classes` that a bare or quoted annotation names, else None."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value
    elif isinstance(annotation, ast.Name):
        name = annotation.id
    else:
        return None
    return name if name in classes else None


def package_model(paths):
    """The classes of the modules in paths, as (members, types): members
    maps each class to its methods and properties that are not dunders;
    types maps (class, name) to the package class that the field, method or
    property holds or returns, and (None, name) likewise for a module-level
    function."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    classes = {n.name for t in trees for n in t.body if isinstance(n, ast.ClassDef)}
    members, types = {}, {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                types[None, node.name] = _named_class(node.returns, classes)
            if not isinstance(node, ast.ClassDef):
                continue
            members[node.name] = []
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    types[node.name, item.target.id] = _named_class(item.annotation, classes)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        members[node.name].append(item.name)
                        types[node.name, item.name] = _named_class(item.returns, classes)
    return members, types


def member_references(path, model):
    """(class, name) for each `.name` in the module whose receiver has a
    package class as its type, outside the definition of that class's own
    `name`. The AST gives the type of a class name, of `self` or `cls` in a
    method, of a parameter annotated with the class, of a call of the class
    or of a function or method annotated to return it, of an annotated field
    or property of a typed receiver, and of a variable assigned only values
    of one such type. Any other receiver counts for no class, even when one
    class alone has a member of that name: `args.edges` is no caller of a
    `Graph.edges`."""
    members, types = model
    found = set()

    def receiver(node, env):
        called = isinstance(node, ast.Call)
        if called:
            node = node.func
        if isinstance(node, ast.Name):
            if node.id in members:
                return node.id
            return types.get((None, node.id)) if called else env.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                owner = None  # normsum.paley_graph and the like
            else:
                owner = receiver(node.value, env)
            return types.get((owner, node.attr))
        return None

    def scope(fn, cls, env):
        env = dict(env)
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for arg in args:
            env[arg.arg] = _named_class(arg.annotation, members)
        if cls is not None and args:
            env[args[0].arg] = cls  # self, or cls of a classmethod
        assigned = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                assigned.setdefault(node.targets[0].id, set()).add(receiver(node.value, env))
        env.update({name: ts.pop() if len(ts) == 1 else None for name, ts in assigned.items()})
        return env

    def visit(node, env, cls, inside):
        if isinstance(node, ast.ClassDef):
            cls = node.name if node.name in members else None
            for child in node.body:
                visit(child, env, cls, inside)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env, inside, cls = scope(node, cls, env), inside | {(cls, node.name)}, None
        elif isinstance(node, ast.Attribute):
            owner = receiver(node.value, env)
            if owner is not None and (owner, node.attr) not in inside:
                found.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, env, cls, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), {}, None, frozenset())
    return found


def stray_members(model, paths):
    """(class, name) of each method and property that no module of paths
    references."""
    used = set().union(*(member_references(p, model) for p in paths))
    members = model[0]
    return [(c, name) for c in members for name in members[c] if (c, name) not in used]


# Methods and properties whose callers have receivers the scan cannot type,
# with those callers.
UNTYPED_CALLERS = {
    ("DenseMatrix", "entry_min"): "bounds._pair reads it on the matrix that a conditional "
    "expression picks from a SpectrumPair's x, an adjacency matrix or as_matrix",
    ("DenseMatrix", "entry_max"): "read beside entry_min in bounds._pair",
}


def unread_parameters(path):
    """(function, parameter) of each parameter of a function or lambda of the
    module that its body, nested definitions included, never reads. The
    receiver of a method that is not a staticmethod (self, cls) is exempt:
    no caller passes it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = _methods(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [p.arg for p in args.posonlyargs + args.args]
        if id(node) in methods:
            params = params[1:]
        params += [p.arg for p in (*args.kwonlyargs, args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            leaf.id
            for stmt in body
            for leaf in ast.walk(stmt)
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(name, p) for p in params if p not in read]
    return found


def _methods(tree):
    """ids of the functions defined in a class body that are not
    staticmethods: their first parameter is the receiver (self, cls)."""
    return {
        id(node)
        for owner in ast.walk(tree)
        if isinstance(owner, ast.ClassDef)
        for node in owner.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    }


def defaulted_parameters(path):
    """(function, parameter, index) of each parameter with a default of a
    function of the module, nested ones included, dunder methods exempt.
    index is the position at which a call passes the parameter positionally,
    the receiver of a method skipped, or None for a keyword-only one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = _methods(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        first = len(positional) - len(args.defaults)
        found += [(node.name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
        found += [
            (node.name, p.arg, None)
            for p, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def passed_arguments(paths):
    """For each name called in the modules of paths, bare or as an attribute,
    the positional indexes and the keywords of its call sites; a call site
    that unpacks *args or **kwargs passes everything, recorded as None."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            seen = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            ):
                seen.add(None)
            seen.update(range(len(node.args)))
            seen.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return passed


def unpassed_defaults(defined, calling):
    """(module, function, parameter) of each defaulted parameter of the
    modules of `defined` that no call site in the modules of `calling`
    passes, by position, by keyword or through an unpacking."""
    passed = passed_arguments(calling)
    return [
        (path.name, fn, param)
        for path in defined
        for fn, param, index in defaulted_parameters(path)
        if not passed.get(fn, set()) & {None, param, index}
    ]


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
    names = [name for path in package_modules() for name in definitions(path)]
    assert {"_draw", "_sweep_check", "property_sweep", "DIMENSION_CAP"} <= set(names)
    assert strays(names, callers()) == []


def test_every_method_and_property_has_a_caller_outside_the_tests():
    model = package_model(package_modules())
    members = {(c, name) for c, names in model[0].items() for name in names}
    assert {("Graph", "from_json"), ("DenseMatrix", "to_json"), ("SpectrumPair", "eig")} <= members
    # fields and dunders are exempt: cli._plain reads the fields through fields()
    assert not members & {("Graph", "bits"), ("Graph", "__post_init__"), ("DenseMatrix", "__eq__")}
    assert sorted(set(stray_members(model, callers())) - set(UNTYPED_CALLERS)) == []


def test_every_untyped_caller_exception_is_needed():
    model = package_model(package_modules())
    used = set().union(*(member_references(p, model) for p in callers()))
    for (cls, name), reason in UNTYPED_CALLERS.items():
        assert name in model[0][cls] and reason
        assert (cls, name) not in used  # else the exception is stale


def test_the_scan_finds_a_stray_method(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class Box:\n"
        "    size: int\n"
        "    def to_json(self):\n"
        "        return {'size': self.size, 'shape': self.shape}\n"
        "    @property\n"
        "    def shape(self):\n"
        "        return (self.size,)\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1) if n else 0\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "class Tag:\n"
        "    def to_json(self):\n"
        "        return {}\n"
        "    def walk(self, n):\n"
        "        return n\n"
        "    def label(self) -> 'Box':\n"
        "        return Box()\n"
        "def make() -> Tag:\n"
        "    return Tag()\n"
    )
    model = package_model([module])
    assert model[0] == {"Box": ["to_json", "shape", "walk"], "Tag": ["to_json", "walk", "label"]}
    # a call inside its own definition is not a caller; self.shape is one
    assert stray_members(model, [module]) == [
        ("Box", "to_json"), ("Box", "walk"), ("Tag", "to_json"), ("Tag", "walk"), ("Tag", "label"),
    ]  # fmt: skip
    # the receiver's type comes from a call annotated to return Tag, from the
    # quoted Box return of label, and from a parameter annotation; an untyped
    # receiver counts for no class, not even for label, which Tag alone has
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from module import make\n"
        "def run(anything):\n"
        "    tag = make()\n"
        "    anything.to_json(), anything.walk(1), anything.label()\n"
        "    return tag.to_json(), make().label().walk(2)\n"
    )
    assert stray_members(model, [module, caller]) == [("Box", "to_json"), ("Tag", "walk")]
    (tmp_path / "show.py").write_text("def show(box: Box):\n    return box.to_json()\n")
    paths = [module, caller, tmp_path / "show.py"]
    assert stray_members(model, paths) == [("Tag", "walk")]


def test_every_oracle_has_a_caller_in_the_tests():
    names = definitions(TESTS / "oracles.py")
    assert {"two_log_screen", "property_sweep_per_kind", "SRGParams"} <= set(names)
    tests = sorted(TESTS.glob("test_*.py"))
    assert strays(names, tests, {"oracles"}) == []


def test_the_scan_finds_a_stray_oracle(tmp_path):
    (tmp_path / "oracles.py").write_text(
        "def imported():\n"
        "    return 1\n"
        "def dotted(n):\n"
        "    return dotted(n - 1) if n else imported()\n"
        "def stray():\n"
        "    return dotted(2)\n"
        "class Fixture:\n"
        "    pass\n"
    )
    (tmp_path / "test_a.py").write_text(
        "import oracles\n"
        "from oracles import imported\n"
        "def test_a():\n"
        "    assert oracles.dotted(3) == imported()\n"
        "    other.stray, other.Fixture\n"
    )
    names = definitions(tmp_path / "oracles.py")
    assert names == ["imported", "dotted", "stray", "Fixture"]
    # a use inside the oracles themselves, or through another module's
    # attribute, is not a caller
    assert strays(names, [tmp_path / "test_a.py"], {"oracles"}) == ["stray", "Fixture"]
    assert strays(names, [tmp_path / "test_a.py"]) == ["dotted", "stray", "Fixture"]


def test_every_parameter_is_read():
    paths = sorted(SRC.glob("*.py"))
    assert {"search.py", "__init__.py"} <= {p.name for p in paths}
    assert [(p.name, *f) for p in paths for f in unread_parameters(p)] == []


def test_the_scan_finds_an_unread_parameter(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def score(a, objective, k=None, *rest, scale, **extra):\n"
        "    def inner(b):\n"
        "        return b + k + scale\n"
        "    return inner(a), rest\n"
        "class Box:\n"
        "    def size(self, n):\n"
        "        return 1\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return n\n"
        "    @staticmethod\n"
        "    def build(first, n):\n"
        "        return n\n"
        "def keep(x, y):\n"
        "    y = x\n"
        "    return (lambda z, w: z)(x, 0)\n"
    )
    # a read inside a nested definition counts; a method's receiver is
    # exempt unless it is a staticmethod; an assignment is not a read
    assert sorted(unread_parameters(module)) == [
        ("<lambda>", "w"), ("build", "first"), ("keep", "y"), ("score", "extra"),
        ("score", "objective"), ("size", "n"),
    ]  # fmt: skip


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    found = {(fn, param) for p in package_modules() for fn, param, _ in defaulted_parameters(p)}
    # tol reaches three of them through **, shift reaches sing by position
    tols = {(fn, "tol") for fn in ("equality_analysis", "weyl_complement_check", "property_sweep")}
    assert tols | {("sing", "shift")} <= found
    assert unpassed_defaults(package_modules(), callers()) == []


def test_the_scan_finds_an_unpassed_default(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def score(a, k=None, *, scale=1.0, tol=0.0):\n"
        "    def inner(b, step=1):\n"
        "        return b + step\n"
        "    return inner(a)\n"
        "class Box:\n"
        "    def __init__(self, x=0):\n"
        "        self.x = x\n"
        "    def size(self, n=1, m=2):\n"
        "        return n + m\n"
        "    @classmethod\n"
        "    def make(cls, n=0):\n"
        "        return n\n"
        "    @staticmethod\n"
        "    def build(first=0, rest=()):\n"
        "        return first\n"
        "def relay(**options):\n"
        "    return score(1, **options)\n"
    )
    # in ast.walk order: a nested function ahead of the next class's methods
    assert defaulted_parameters(module) == [
        ("score", "k", 1), ("score", "scale", None), ("score", "tol", None), ("inner", "step", 1),
        ("size", "n", 0), ("size", "m", 1), ("make", "n", 0), ("build", "first", 0),
        ("build", "rest", 1),
    ]  # fmt: skip
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from module import Box, build\n"
        "Box(x=1).size(5)\n"
        "Box.make(n=1)\n"
        "build(*[0])\n"
    )
    # a method counts positions after its receiver; ** and * pass everything;
    # a dunder is exempt
    assert unpassed_defaults([module], [module, caller]) == [
        ("module.py", "inner", "step"), ("module.py", "size", "m"),
    ]  # fmt: skip
    # without relay's **, score(1, 2) passes k alone of score's defaults
    (tmp_path / "plain.py").write_text("from module import score\nscore(1, 2)\n")
    assert unpassed_defaults([module], [tmp_path / "plain.py"]) == [
        ("module.py", "score", "scale"), ("module.py", "score", "tol"),
        ("module.py", "inner", "step"), ("module.py", "size", "n"), ("module.py", "size", "m"),
        ("module.py", "make", "n"), ("module.py", "build", "first"),
        ("module.py", "build", "rest"),
    ]  # fmt: skip


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
