"""Two input rules and every check name of the package each have one
definition.

A refusal prints a magnitude through ``errors.format_magnitude``, which
keeps six decimals below 1e6 and turns to ``e`` form above, and every
unit-circle test is ``symbols.is_unimodular``. A hand-written copy of
either drifts: a ``:.6f`` prints 1e300 as 308 digits, and a copied circle
test can take another tolerance. So an ``ast`` walk of ``src/cswcd`` finds
no six-decimal format spec and no ``abs(abs(...))`` outside its one home.

Likewise a check name is written once, as the first argument of its
``Check(...)`` record in ``runner``: a second copy, say a ``name ==
"boundedness-grid"`` test, would decide something about the check outside
its record. Docstrings and other bare strings do not count. And a family
name is written once in the package, as its key in ``runner.FAMILIES``: a
``family == "general"`` test, or a pair tagged with the name of the family
that made it, would decide or record something about the family outside
its record.
"""

import ast
from pathlib import Path

import pytest

from cswcd.runner import CHECKS, FAMILIES

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


def _bare_strings(tree) -> set:
    """ids of the docstrings and other strings that stand as a statement."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}


def rule_sites(source: str) -> list:
    """(line, rule, owner) for every node of the source that writes a rule,
    with ``owner`` the enclosing function (None at module level)."""
    tree = ast.parse(source)
    owners = _owners(tree)
    bare = _bare_strings(tree)
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


def check_name_sites(source: str) -> list:
    """(line, name, in_record) for every string of the source that is a
    check name, bare strings excluded; ``in_record`` when it is the first
    argument of a ``Check(...)`` call."""
    tree = ast.parse(source)
    bare = _bare_strings(tree)
    records = {id(node.args[0]) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "Check" and node.args}
    return sorted((node.lineno, node.value, id(node) in records) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in CHECKS and id(node) not in bare)


def check_name_copies(source: str) -> list:
    """(line, name) for every site of a check name but its first record."""
    recorded, copies = set(), []
    for line, name, in_record in check_name_sites(source):
        if in_record and name not in recorded:
            recorded.add(name)
        else:
            copies.append((line, name))
    return copies


def test_each_check_name_is_written_once_in_its_record():
    sites = {path.stem: check_name_sites(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {stem: found for stem, found in sites.items() if found and stem != "runner"} == {}
    assert check_name_copies((PACKAGE / "runner.py").read_text(encoding="utf-8")) == []
    assert sorted(name for _, name, _ in sites["runner"]) == sorted(CHECKS)


@pytest.mark.parametrize("source, count", [
    ('Check("normality", rule)\n', 0),
    ('Check("normality", rule, tag="normality-trend")\n', 0),
    ('def f():\n    """normality"""\n    return 1\n', 0),
    ('"normality"\n', 0),
    ('x = f"{name}; normality"\n', 0),
    ('x = "normality"\n', 1),
    ('Check("normality", rule)\nCheck("normality", other)\n', 1),
    ('def f(name):\n    return name == "boundedness-grid"\n', 1),
    ('Check(tag="kernel-norm-balance")\n', 1),
    ('GATES = {"adjoint-kernel": g, "normality": h}\n', 2),
    ('Check("J-symmetry", rule)\nx = ("J-symmetry", "C-symmetry")\n', 2),
])
def test_the_walk_finds_check_name_copies(source, count):
    assert len(check_name_copies(source)) == count


def family_name_sites(source: str) -> list:
    """(line, name, where) for every string of the source that is a family
    name, bare strings excluded; ``where`` is "record" for a key of the
    ``FAMILIES = {...}`` dict, the keyword's name for a keyword's value, and
    None elsewhere."""
    tree = ast.parse(source)
    bare = _bare_strings(tree)
    where = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and any(
                isinstance(target, ast.Name) and target.id == "FAMILIES"
                for target in node.targets):
            where.update((id(key), "record") for key in node.value.keys)
        elif isinstance(node, ast.keyword):
            where[id(node.value)] = node.arg
    return sorted((node.lineno, node.value, where.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in FAMILIES and id(node) not in bare)


def family_name_copies(source: str) -> list:
    """(line, name) for every site of a family name but its first record key."""
    recorded, copies = set(), []
    for line, name, where in family_name_sites(source):
        if where == "record" and name not in recorded:
            recorded.add(name)
        else:
            copies.append((line, name))
    return copies


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_family_name_is_written_outside_its_record(path):
    assert family_name_copies(path.read_text(encoding="utf-8")) == []


def test_each_family_name_is_written_once_in_runner():
    source = (PACKAGE / "runner.py").read_text(encoding="utf-8")
    assert [name for _, name, where in family_name_sites(source)
            if where == "record"] == list(FAMILIES)


@pytest.mark.parametrize("source, count", [
    ('FAMILIES = {"general": Family(), "unitary": Family()}\n', 0),
    ('def f(s):\n    """general"""\n    return s\n', 0),
    ('x = f"a {family} draw"\n', 0),
    ('x = "a general draw"\n', 0),
    ('pair = make(provenance="explicit")\n', 1),
    ('def f(family):\n    return family == "general"\n', 1),
    ('x = family in ("general", "self-adjoint")\n', 2),
    ('FAMILIES = {"general": Family()}\nOTHER = {"general": 1}\n', 1),
    ('FAMILIES = {"general": Family(), "general": Family()}\n', 1),
    ('pair = make(provenance="general")\n', 1),
    ('return SymbolPair(weight, phi, n, N, provenance="general")\n', 1),
    ('provenance = "wc-conjugated"\n', 1),
    ('pair = make(kind="explicit")\n', 1),
    ('Check("normality-predicate", rule, families=("general",))\n', 1),
])
def test_the_walk_finds_family_name_copies(source, count):
    assert len(family_name_copies(source)) == count
