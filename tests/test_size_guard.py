"""Static guard: one function, linalg.check_dimensions, compares against DIMENSION_CAP."""

import ast
from pathlib import Path

import normsum

SRC = Path(normsum.__file__).parent
GATE = ("linalg.py", "check_dimensions")


def cap_comparisons(path):
    """(line, enclosing function or None) for each comparison in the module
    that has DIMENSION_CAP, bare or as an attribute, among its operands."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Name) and x.id == "DIMENSION_CAP"
            or isinstance(x, ast.Attribute) and x.attr == "DIMENSION_CAP"
            for x in (node.left, *node.comparators)
        ):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_the_dimension_cap_is_compared_in_one_function():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"linalg.py", "graphs.py", "constructions.py"}
    sites = {(p.name, func) for p in modules for _, func in cap_comparisons(p)}
    # the scan does see the gate's own comparison
    assert sites == {GATE}


def test_the_scan_finds_a_stray_comparison(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text(
        "def build(n):\n"
        "    if n > linalg.DIMENSION_CAP:\n"
        "        raise ValueError\n"
        "ok = 5 <= DIMENSION_CAP\n"
    )
    assert cap_comparisons(stray) == [(2, "build"), (4, None)]
