"""Block stepping lives in one module: ``fsnlab.dynamics.Stepper`` builds
the stacked step powers, refuses them when they leave the float range and
advances states with them, and the distributed engine in ``fsnlab.tempo``
reaches stepping only through it.  A second copy of the stepping in the
engine fails here."""

import ast
from pathlib import Path

TEMPO = Path(__file__).resolve().parent.parent / "src" / "fsnlab" / "tempo.py"
STEPPING = {"BLOCK", "step_map", "step_powers"}


def imported_or_read(tree: ast.AST) -> set[str]:
    """Names a module imports, and the attributes it reads off any name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_tempo_steps_only_through_stepper():
    names = imported_or_read(ast.parse(TEMPO.read_text(), str(TEMPO)))
    assert "Stepper" in names and not names & STEPPING
