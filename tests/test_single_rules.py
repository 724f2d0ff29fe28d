"""Two input rules of the package each have one definition.

A refusal prints a magnitude through ``errors.format_magnitude``, which
keeps six decimals below 1e6 and turns to ``e`` form above, and every
unit-circle test is ``symbols.is_unimodular``. A hand-written copy of
either drifts: a ``:.6f`` prints 1e300 as 308 digits, and a copied circle
test can take another tolerance. So an ``ast`` walk of ``src/cswcd`` finds
no six-decimal format spec and no ``abs(abs(...))`` outside its one home.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cswcd"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _six_decimals(node, bare: set) -> bool:
    """A string with a six-decimal spec: an f-string's spec, a ``format``
    template or a ``%`` template, but no docstring or bare string."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and ".6f" in node.value and id(node) not in bare


def _is_abs(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "abs"


def _nested_abs(node, bare: set) -> bool:
    """An ``abs(abs(...)...)``: a call of abs whose argument starts with one."""
    if not (isinstance(node, ast.Call) and _is_abs(node.func) and node.args):
        return False
    head = node.args[0]
    while isinstance(head, ast.BinOp):
        head = head.left
    return isinstance(head, ast.Call) and _is_abs(head.func)


# rule -> (its test on a node, the module and the function that define it)
RULES = {
    "a six-decimal format": (_six_decimals, "errors", "format_magnitude"),
    "a unit-circle test": (_nested_abs, "symbols", "is_unimodular"),
}


def _owners(tree) -> dict:
    """id of each node -> name of its innermost enclosing function, or None."""
    owners = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else owner
            owners[id(child)] = inner
            visit(child, inner)

    visit(tree, None)
    return owners


def rule_sites(source: str) -> list:
    """(line, rule, owner) for every node of the source that writes a rule,
    with ``owner`` the enclosing function (None at module level)."""
    tree = ast.parse(source)
    owners = _owners(tree)
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    return [(node.lineno, rule, owners[id(node)])
            for node in ast.walk(tree) if node is not tree
            for rule, (matches, _, _) in RULES.items() if matches(node, bare)]


def rule_copies(source: str, module: str) -> list:
    """(line, rule) for every site of a rule outside its one definition."""
    return [(line, rule) for line, rule, owner in rule_sites(source)
            if (module, owner) != RULES[rule][1:]]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_rule_is_copied(path):
    assert rule_copies(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_is_defined_once(rule):
    _, module, function = RULES[rule]
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    sites = [site for site in rule_sites(source) if site[1] == rule]
    assert [owner for _, _, owner in sites] == [function]


@pytest.mark.parametrize("source, module, count", [
    ('def f(x):\n    return f"{x:.6f}"\n', "symbols", 1),
    ('def f(x):\n    return f"|c| = {abs(x):.6f} too big"\n', "series", 1),
    ('def f(x):\n    return "{:.6f}".format(x)\n', "bergman", 1),
    ('def f(x):\n    return "%.6f" % x\n', "runner", 1),
    ('def f(x):\n    return format(x, ".6f")\n', "matrices", 1),
    ('x = f"{1.5:.6f}"\n', "errors", 1),
    ('def other(x):\n    return f"{x:.6f}"\n', "errors", 1),
    ('def format_magnitude(x):\n    return f"{x:.6f}"\n', "matrices", 1),
    ('def f(z):\n    return abs(abs(z) - 1.0) > 1e-12\n', "conjugations", 1),
    ('def is_unimodular(z):\n    return abs(abs(z) - 1.0) <= 1e-12\n', "runner", 1),
    ('def f(z):\n    def is_unimodular(w):\n        return abs(abs(w) - 1) < 1e-9\n'
     '    return abs(abs(z) - 1) < 1e-9\n', "symbols", 1),
    ('def format_magnitude(x):\n    return f"{x:.6f}" if x < 1e6 else f"{x:.6e}"\n',
     "errors", 0),
    ('def is_unimodular(z):\n    return abs(abs(z) - 1.0) <= 1e-12\n', "symbols", 0),
    ('def f(x):\n    """Print x as in :.6f, for a reader."""\n    return f"{x:.6e}"\n',
     "symbols", 0),
    ('def f(x):\n    return f"{x:.3g} and {x:.16f}"\n', "runner", 0),
    ('def f(z):\n    return abs(z) - abs(abs)\n', "symbols", 0),
    ('def f(z):\n    return abs(1 - abs(z))\n', "symbols", 0),
    ('def f(z):\n    return abs(abs(z))\n', "series", 1),
    ('def f(z):\n    return abs(abs(z) ** 2 - 1) < 1e-9\n', "series", 1),
])
def test_the_walk_finds_copies(source, module, count):
    assert len(rule_copies(source, module)) == count
