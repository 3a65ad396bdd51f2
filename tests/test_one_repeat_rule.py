"""A repeated eigenvalue has one rule and one refusal.  The rule is
``thresholds.same_eigenvalue``: two eigenvalues of M are one value when
they lie within ``eig_tol(M)`` of each other.  ``spectral.smallest_eigenpairs``
reads it for ``is_simple``, and the rate band of ``compare`` reads it to
count the multiplicity of the reduced rate in the reduced spectrum, with no
tolerance of its own and no second eigensolve.  The refusal is
``Model.simple_pair``, which select, tempo and distributed-select read.
Outside ``spectral.py``, where the pairs are made and the perturbed
Laplacian's precondition is refused, no other site reads ``is_simple`` or
refuses a repeat.  A second copy of the rule or of the refusal fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsnlab"


def sites(predicate, skip=()) -> list[tuple[str, ...]]:
    """(module, enclosing class and function names...) of every node of the
    package's modules, but those in ``skip``, that ``predicate`` holds for."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = (*where, node.name)
        if predicate(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        if path.name not in skip:
            visit(ast.parse(path.read_text(), str(path)), (path.stem,))
    return found


def reads_is_simple(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "is_simple"
            and isinstance(node.ctx, ast.Load))


def refuses_a_repeat(node) -> bool:
    return isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str)
        and "repeated" in part.value for part in ast.walk(node))


def calls(name):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name) and node.func.id == name)


def test_no_second_tolerance_or_eigensolve():
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "MULTIPLICITY_TOL" not in text and "eigvals" not in text, path.name


def test_tempo_and_cli_read_no_simplicity():
    for name in ("tempo.py", "cli.py"):
        assert "is_simple" not in (SRC / name).read_text(), name


def test_one_model_method_refuses_a_repeat():
    assert sites(reads_is_simple, skip={"spectral.py"}) == [
        ("model", "Model", "simple_pair")]
    assert sites(refuses_a_repeat, skip={"spectral.py"}) == [
        ("model", "Model", "simple_pair")]


def test_one_rule_decides_a_repeat():
    assert sites(calls("same_eigenvalue")) == [
        ("cli", "_rate_tolerance"), ("spectral", "smallest_eigenpairs")]
