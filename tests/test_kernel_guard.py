"""Static guard: LAPACK factorizations, FFTs and the symmetric-input decision stay in linalg."""

import ast
from pathlib import Path

import normsum

SRC = Path(normsum.__file__).parent
FACTORIZATIONS = {f"{np}.linalg.{fn}" for np in ("np", "numpy") for fn in ("eigh", "svd")}
FFT = ("np.fft.", "numpy.fft.")
PRIVATE = {"_asymmetry", "_singular_from_eigen"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def violations(path):
    """(line, what) for each LAPACK factorization, FFT or linalg-private
    symmetry helper that the module references."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and (
            _dotted(node) in FACTORIZATIONS or _dotted(node).startswith(FFT)
        ):
            found.append((node.lineno, _dotted(node)))
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            bad = names & PRIVATE
            if node.module == "numpy.linalg":
                bad |= names & {"eigh", "svd"}
            elif node.module == "numpy.fft":
                bad |= names
            elif node.module == "numpy":
                bad |= names & {"fft"}
            found += [(node.lineno, name) for name in sorted(bad)]
    return found


def test_factorizations_and_symmetry_helpers_stay_in_linalg():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"linalg.py", "bounds.py", "cli.py", "search.py"}
    offenders = {p.name: v for p in modules if p.name != "linalg.py" and (v := violations(p))}
    assert offenders == {}
    # the scan does see the kernel's own call sites and symmetry reads
    assert {what for _, what in violations(SRC / "linalg.py")} == {
        "_asymmetry",
        "np.linalg.eigh",
        "np.linalg.svd",
        "np.fft.fftn",
        "np.fft.ifftn",
    }
