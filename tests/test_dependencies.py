"""Every test module imports only what ``pip install .[test]`` provides.

Each import in ``tests/*.py`` must name, by its first component, a module of
the standard library, ``cswcd``, a module in ``tests/``, or a package listed
in the project's dependencies or its ``test`` extra. A package missing from
those lists would be a collection error after a clean install.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

HERE = Path(__file__).parent
MODULES = sorted(HERE.glob("*.py"))


def declared_packages() -> set:
    """The names of the dependencies and the ``test`` extra of pyproject.toml,
    lower case with '-' read as '_'."""
    project = tomllib.loads((HERE.parent / "pyproject.toml").read_text(encoding="utf-8"))
    project = project["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def imported_names(path: Path) -> set:
    """The first component of every absolute import in the module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_packages_include_the_test_tools():
    assert {"numpy", "pytest", "hypothesis", "mpmath"} <= declared_packages()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_provided(path):
    allowed = set(sys.stdlib_module_names) | {"cswcd"} | {p.stem for p in MODULES} \
        | declared_packages()
    assert sorted(imported_names(path) - allowed) == []
