"""Every package name the benchmark harness reads must still resolve, and
every name the package exports must be read by the package or the harness.

The scripts under ``perfbench/`` import names from ``fsnlab`` and its
submodules and read attributes of the modules they import.  A change that
renames or removes one of them fails here, in the test suite, rather than
as a benchmark run that cannot start.  An export that neither the package
nor the harness reads is code only tests run, and fails here too.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
PACKAGE = ROOT / "src" / "fsnlab"


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


def exported(tree: ast.Module) -> set[str]:
    """Names the module body binds by import or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def reads_outside_own_def(node: ast.AST,
                          enclosing: frozenset = frozenset()) -> set[str]:
    """Names loaded, as a name or an attribute, anywhere but inside a
    ``def`` or ``class`` of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing |= {node.name}
    reads = set()
    if isinstance(getattr(node, "ctx", None), ast.Load):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in enclosing:
            reads.add(name)
    for child in ast.iter_child_nodes(node):
        reads |= reads_outside_own_def(child, enclosing)
    return reads


def test_every_export_is_read_by_the_package_or_the_benchmark():
    reads = set()
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name != "__init__.py":
            reads |= reads_outside_own_def(ast.parse(module.read_text(), str(module)))
    for script in SCRIPTS:
        reads |= {dotted.rsplit(".", 1)[-1] for dotted in
                  package_reads(ast.parse(script.read_text(), str(script)))}
    names = exported(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert names and sorted(names - reads) == []
