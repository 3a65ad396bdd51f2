"""The distributed engine decides an arc in one place: inside its round
loop, ``tempo._settle`` writes an arc's estimate and its round once for
both super-block paths, its stall message and its no-estimate refusal read
``last``, and ``distributed_select`` takes the report as it comes.  A
second copy of the estimate fails here."""

import ast
from pathlib import Path

TEMPO = Path(__file__).resolve().parent.parent / "src" / "fsnlab" / "tempo.py"
TREE = ast.parse(TEMPO.read_text(), str(TEMPO))


def function(name: str) -> ast.FunctionDef:
    found, = (node for node in TREE.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return found


def assigned(tree: ast.AST) -> list[str]:
    """The names a tree assigns, whole (``a = ...``) or into (``a[k] = ...``),
    once per assignment."""
    names = []
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Subscript) and isinstance(part.value, ast.Name):
                    names.append(part.value.id)
                elif isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store):
                    names.append(part.id)
    return names


def test_settle_writes_an_estimate_and_its_round_once_per_super_block():
    loop, = (node for node in ast.walk(function("_settle"))
             if isinstance(node, ast.For))
    names = assigned(loop)
    assert names.count("g") == 1 and names.count("last") == 1


def test_no_separate_stall_set():
    assert "unsettled" not in TEMPO.read_text()


def test_distributed_select_reads_no_estimate():
    attrs = {node.attr for node in ast.walk(function("distributed_select"))
             if isinstance(node, ast.Attribute)}
    assert "g" not in attrs
