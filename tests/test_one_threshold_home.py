"""Every threshold lives in one module: ``fsnlab.thresholds`` binds each
tolerance of the package's decisions once, with its reason, and the other
modules import it from there.  A tolerance bound anywhere else fails here,
and so does a name in ``thresholds.py`` that nothing reads.

The rule, on the syntax tree of every ``src/fsnlab/*.py`` but
``thresholds.py``:

1. A module-level assignment binds a tolerance constant when its target's
   name holds TOL, EPS, FLOOR, MARGIN or ROUNDOFF, in any case, or when its
   value is a number, or numbers joined by arithmetic, one of them a float.
2. A number is a tolerance when it is an operand of a comparison or an
   argument of the builtin ``min`` or ``max``, or a term of the arithmetic
   (not of a call) that such an operand or argument is, and it is
   - a float other than 0.0 and 1.0, or
   - in a comparison, an int other than 0 and 1 that multiplies or divides
     a computed value.

   0 and 1 are exact (a sign, a unit, the offset of a count), and other
   ints count nodes, steps and digits; only a scale on a computed value
   makes an int a tolerance, as ``10 * eps`` does.
3. A number is a tolerance when it is passed as a keyword argument whose
   name holds tol or eps, as in ``matrix_rank(A, tol=1e-9)``.

Each exemption below says why its constant or number is not a threshold.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fsnlab"
HOME = PACKAGE / "thresholds.py"
WORDS = ("TOL", "EPS", "FLOOR", "MARGIN", "ROUNDOFF")

EXEMPT_CONSTANTS = {
    ("tempo", "DEFAULT_DELTA"):
        "the default time between sampling rounds: a step length the engine "
        "advances by, never compared with",
}
EXEMPT_NUMBERS = {
    ("dynamics", "simulate", 2.0):
        "forward Euler is stable for dt < 1/(2 max_ii G) (Gershgorin): a "
        "property of the method, not a tolerance",
    ("netfile", "_records", 2):
        "an edge record that holds only its two ids has two keys",
    ("netfile", "_block_rows", 5):
        "a CSV row reads as five JSON values, four numbers and a null",
}


def number(node):
    """The value of an int or float literal, negated or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = number(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def literal_arithmetic(node) -> bool:
    if isinstance(node, ast.BinOp):
        return literal_arithmetic(node.left) and literal_arithmetic(node.right)
    return number(node) is not None


def tolerance_constants(tree: ast.Module) -> list[str]:
    found = []
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        else:
            continue
        for target, value in pairs:
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
            elif isinstance(target, ast.Name) and value is not None and (
                    any(w in target.id.upper() for w in WORDS)
                    or literal_arithmetic(value) and any(
                        type(number(n)) is float for n in ast.walk(value))):
                found.append(target.id)
    return found


def terms(node, scaled=False):
    """(number, whether a product or quotient scales a computed value by
    it) of each number in the arithmetic of ``node``, calls not entered."""
    value = number(node)
    if value is not None:
        yield value, scaled
    elif isinstance(node, ast.BinOp):
        scales = isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv))
        for side, other in ((node.left, node.right), (node.right, node.left)):
            yield from terms(side, scales and not literal_arithmetic(other))
    elif isinstance(node, ast.UnaryOp):
        yield from terms(node.operand, scaled)


def tolerance_numbers(tree: ast.Module) -> list[tuple[str, float]]:
    """(enclosing function, number) of each number rule 2 names."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                found.extend((where, v) for v, scaled in terms(operand)
                             if v not in (0, 1) and (type(v) is float or scaled))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
                for arg in node.args:
                    found.extend((where, v) for v, _ in terms(arg)
                                 if type(v) is float and v not in (0, 1))
            found.extend((where, v) for k in node.keywords
                         if k.arg and any(w in k.arg.upper() for w in ("TOL", "EPS"))
                         for v, _ in terms(k.value))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def violations(package: Path) -> list[str]:
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == HOME.name:
            continue
        module, tree = path.stem, ast.parse(path.read_text(), str(path))
        out += [f"{module}.{name}" for name in tolerance_constants(tree)
                if (module, name) not in EXEMPT_CONSTANTS]
        out += [f"{module}.{where}: {value!r}"
                for where, value in tolerance_numbers(tree)
                if (module, where, value) not in EXEMPT_NUMBERS]
    return out


def test_no_threshold_outside_its_home():
    assert violations(PACKAGE) == []


def test_every_threshold_is_read():
    # Read in thresholds.py itself (a constant only its decision uses) or
    # imported from it by another module.
    home = ast.parse(HOME.read_text(), str(HOME))
    bound = {t.id for node in home.body if isinstance(node, ast.Assign)
             for t in node.targets}
    bound |= {node.name for node in home.body if isinstance(node, ast.FunctionDef)}
    read = {node.id for node in ast.walk(home)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "thresholds":
                read |= {a.name for a in node.names}
    assert bound and sorted(bound - read) == []


def test_exemptions_are_all_in_use():
    # An exemption nothing needs any longer would exempt a future threshold.
    used_constants, used_numbers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used_constants |= {(path.stem, n) for n in tolerance_constants(tree)}
        used_numbers |= {(path.stem, *found) for found in tolerance_numbers(tree)}
    assert set(EXEMPT_CONSTANTS) <= used_constants
    assert set(EXEMPT_NUMBERS) <= used_numbers
