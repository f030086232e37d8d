"""Static guard: numpy.linalg, numpy.fft, the symmetric-input and invariance
decisions and the cached facts they rest on stay in linalg, and inside it
SpectrumPair alone selects a spectral route."""

import ast
from pathlib import Path

import normsum

SRC = Path(normsum.__file__).parent
KERNELS = ("np.linalg", "numpy.linalg", "np.fft", "numpy.fft")
PRIVATE = {"_asym", "_asymmetry", "_grid", "_invariance", "_singular_from_eigen"}
# the routes other than the dense kernels sym_eigen and svd
ROUTES = ("_character_eigh", "_derived_partner", "_singular_from_eigen")


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _is_kernel(name):
    return any(name == mod or name.startswith(mod + ".") for mod in KERNELS)


def violations(path):
    """(line, what) for each numpy.linalg or numpy.fft reference or import,
    and each linalg-private symmetry or invariance helper or cached fact, in
    the module. A reference is reported by its longest dotted name:
    np.linalg.eigh, not np.linalg too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = list(ast.walk(tree))
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    found = []
    for node in nodes:
        if isinstance(node, ast.Attribute) and id(node) not in inner and _is_kernel(_dotted(node)):
            found.append((node.lineno, _dotted(node)))
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if _is_kernel(a.name)]
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            bad = names & PRIVATE
            if _is_kernel(node.module or ""):
                bad |= names
            elif node.module == "numpy":
                bad |= names & {"linalg", "fft"}
            found += [(node.lineno, name) for name in sorted(bad)]
    return found


def test_factorizations_and_symmetry_helpers_stay_in_linalg():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"linalg.py", "bounds.py", "cli.py", "search.py"}
    offenders = {p.name: v for p in modules if p.name != "linalg.py" and (v := violations(p))}
    assert offenders == {}
    # the scan does see the kernel's own call sites and symmetry reads
    assert {what for _, what in violations(SRC / "linalg.py")} == {
        "_asym",
        "_asymmetry",
        "_grid",
        "_invariance",
        "np.linalg.LinAlgError",
        "np.linalg.eigh",
        "np.linalg.eigvalsh",
        "np.linalg.svd",
        "np.fft.fftn",
        "np.fft.ifftn",
    }


def test_the_scan_finds_every_numpy_linalg_reference(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text(
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "from numpy.linalg import norm\n"
        "la = np.linalg\n"
        "w = numpy.linalg.eigvalsh(a).T\n"
        "from normsum.linalg import _asymmetry\n"
        "grid = m._invariance()\n"
        "m._asym = m._grid = None\n"
    )
    assert sorted(violations(stray)) == [
        (1, "numpy.linalg"),
        (2, "linalg"),
        (3, "norm"),
        (4, "np.linalg"),
        (5, "numpy.linalg.eigvalsh"),
        (6, "_asymmetry"),
        (7, "_invariance"),
        (8, "_asym"),
        (8, "_grid"),
    ]


def readers(path):
    """{name: the top-level definitions of the module that read it, or
    "<module>"} for every name and attribute loaded in the module."""
    found = {}
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                found.setdefault(name, set()).add(owner)
    return found


def test_spectrum_pair_alone_selects_a_spectral_route():
    found = readers(SRC / "linalg.py")
    assert {name: found.get(name) for name in ROUTES} == {name: {"SpectrumPair"} for name in ROUTES}
    assert found.get("_invariance") == {"SpectrumPair", "invariant_row"}


def test_readers_names_the_definition_around_each_read(tmp_path):
    src = tmp_path / "src.py"
    src.write_text(
        "x = f(1)\n"
        "def f(m):\n"
        "    return m._g() + h\n"
        "class C:\n"
        "    def m(self):\n"
        "        self._g = f\n"
    )
    found = readers(src)
    assert found["f"] == {"<module>", "C"} and found["_g"] == {"f"}
    assert found["h"] == {"f"} and "x" not in found
