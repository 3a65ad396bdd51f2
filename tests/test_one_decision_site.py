"""The distributed engine decides an arc in one place: inside its round
loop, ``tempo._settle`` writes an arc's estimate and its round once for
both super-block paths, its stall message and its no-estimate refusal read
``last``, and ``distributed_select`` takes the report as it comes.  The
sampled-tempo check of ``tempo`` and ``compare`` is ``tempo.sampled_tempo``,
which the command-line front end only prints from, and the engine tests its
noise floor only through ``thresholds.above_floor``.  A second copy of the
estimate, of the check or of the floor fails here.

Structure is decided in one place too: ``graphs.signed_cover`` is the one
search of a network's signed double cover, which a ``Model`` runs once and
reads for connectivity, balance, the gauge and the leader wiring.  No
module builds a network augmented by input nodes, and a second search of
a network fails here."""

import ast
from pathlib import Path

from fsnlab import graphs
from fsnlab.cli import main

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


def calls_and_attributes(tree: ast.AST) -> set[str]:
    """The names a tree calls or takes as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found.add(node.func.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_no_module_builds_an_augmented_network():
    for path in sorted(SRC.glob("*.py")):
        assert not names(path) & {"augmented_signed_network", "_check_balanced"}, path
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # A network whose node count is a sum adds nodes to another one.
            if (isinstance(node, ast.Call) and node.args
                    and ast.unparse(node.func) in ("Network", "Network.from_arrays")):
                assert not isinstance(node.args[0], ast.BinOp), ast.unparse(node)


def test_only_signed_cover_searches_a_network():
    searchers = set()
    for path in sorted(SRC.glob("*.py")):
        assert "is_connected" not in names(path), path
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.FunctionDef)
                    and {"_reach", "adjacency"} <= calls_and_attributes(node)):
                searchers.add(node.name)
    assert searchers == {"signed_cover"}


def test_a_command_searches_each_network_once_per_model(monkeypatch, capsys):
    # In graphs, only signed_cover calls _reach (the test above).
    searches = []
    reach = graphs._reach
    monkeypatch.setattr(graphs, "_reach", lambda *a: searches.append(a) or reach(*a))
    assert main(["select", "g8-signed", "--mode", "signed-san-fsn"]) == 0
    assert 1 <= len(searches) <= 2      # the Model, and fsn_san's own gate
    searches.clear()
    assert main(["analyze", "g8-signed"]) == 0
    assert len(searches) == 1
