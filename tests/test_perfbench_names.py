"""Every package name the benchmark harness reads must still resolve.

The scripts under ``perfbench/`` import names from ``fsnlab`` and its
submodules and read attributes of the modules they import.  A change that
renames or removes one of them fails here, in the test suite, rather than
as a benchmark run that cannot start.
"""

import ast
import importlib
from pathlib import Path

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def package_reads(tree: ast.AST) -> set[str]:
    """Dotted paths under ``fsnlab`` that a script imports or reads as an
    attribute of a name its imports bind."""
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "fsnlab"):
            for a in node.names:
                reads.add(f"{node.module}.{a.name}")
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "fsnlab":
                    reads.add(a.name)
                    bound[a.asname or "fsnlab"] = a.name if a.asname else "fsnlab"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.add(f"{bound[node.value.id]}.{node.attr}")
    return reads


def lookup(dotted: str):
    """The object at a dotted path, importing submodules on the way."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for k, part in enumerate(rest, start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(dotted.split(".")[:k]))
        obj = getattr(obj, part)
    return obj


def test_benchmark_reads_only_names_that_resolve():
    reads = set()
    for script in SCRIPTS:
        reads |= package_reads(ast.parse(script.read_text(), str(script)))
    missing = []
    for dotted in sorted(reads):
        try:
            lookup(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert reads and not missing
