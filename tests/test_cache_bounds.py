"""Every cache in the package is bounded.

A module-level cache lives as long as the process, and a sweep or a
benchmark run calls the cached functions with new arguments for as long as
it runs. So an ``ast`` walk of ``src/cswcd`` requires every ``lru_cache`` to
name an integer ``maxsize``, and ``functools.cache``, which never evicts,
only on a function without parameters, whose one entry is all it can hold.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cswcd"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _functools_names(tree) -> dict:
    """Local name -> functools name of every ``from functools import``."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names}


def _name(node, imported: dict) -> str | None:
    """The functools name of a decorator or callee, imported by name or
    read as ``functools.<name>``; None for anything else."""
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "functools":
        return node.attr
    return None


def _maxsize(call: ast.Call):
    """The maxsize node of an ``lru_cache(...)`` call, or None."""
    for keyword in call.keywords:
        if keyword.arg == "maxsize":
            return keyword.value
    return call.args[0] if call.args else None


def cache_problems(source: str) -> list:
    """(line, problem) for every unbounded cache in the source."""
    problems = []
    decorators = set()
    tree = ast.parse(source)
    imported = _functools_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            decorators.add(id(deco))
            if _name(deco, imported) == "lru_cache":
                problems.append((deco.lineno, f"{node.name}: lru_cache without a maxsize"))
            elif _name(deco, imported) == "cache":
                args = node.args
                if args.posonlyargs or args.args or args.kwonlyargs or args.vararg \
                        or args.kwarg:
                    problems.append((deco.lineno, f"{node.name}: functools.cache on a "
                                                  "function with parameters"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func, imported) == "lru_cache":
            size = _maxsize(node)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                problems.append((node.lineno, "lru_cache without an integer maxsize"))
        elif _name(node, imported) == "cache" and id(node) not in decorators:
            problems.append((node.lineno, "functools.cache used other than as a decorator"))
    return problems


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_cache_is_bounded(path):
    assert cache_problems(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, count", [
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass\n", 1),
    ("from functools import lru_cache\n@lru_cache()\ndef f(x): pass\n", 1),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass\n", 1),
    ("import functools\n@functools.lru_cache(None)\ndef f(x): pass\n", 1),
    ("import functools\n@functools.lru_cache(maxsize=True)\ndef f(x): pass\n", 1),
    ("import functools\n@functools.cache\ndef f(x): pass\n", 1),
    ("import functools\ng = functools.cache(len)\n", 1),
    ("from functools import cache as memo\n@memo\ndef f(x): pass\n", 1),
    ("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): pass\n", 0),
    ("cache = {}\ndef f(x):\n    return cache.get(x)\n", 0),
    ("import functools\n@functools.lru_cache(16)\ndef f(x): pass\n", 0),
    ("import functools\n@functools.cache\ndef f(): pass\n", 0),
])
def test_the_walk_finds_unbounded_caches(source, count):
    assert len(cache_problems(source)) == count
