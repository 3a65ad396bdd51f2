"""The distributed engine decides an arc in one place: inside its round
loop, ``tempo._settle`` writes an arc's estimate and its round once for
both super-block paths, its stall message and its no-estimate refusal read
``last``, and ``distributed_select`` takes the report as it comes.  The
sampled-tempo check of ``tempo`` and ``compare`` is ``tempo.sampled_tempo``,
which the command-line front end only prints from, and the engine tests its
noise floor only through ``thresholds.above_floor``.  A second copy of the
estimate, of the check or of the floor fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsnlab"
TEMPO = SRC / "tempo.py"
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


def names(path: Path) -> set[str]:
    """Every name a module reads, defines, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_cli_prints_the_sampled_tempo_check_it_is_given():
    cli = names(SRC / "cli.py")
    assert "sampled_tempo" in cli
    assert not cli & {"g_ratio_series", "zero_entries", "tempo_agrees", "_reference"}


def test_tempo_reads_the_noise_floor_only_through_above_floor():
    assert "UNIT_ROUNDOFF" not in TEMPO.read_text()
    assert "above_floor" in names(TEMPO)
