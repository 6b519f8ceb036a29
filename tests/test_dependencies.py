"""Every third-party module the package and its tests import is declared in
pyproject.toml: ``src/`` imports in ``[project] dependencies``, test
imports there or in the ``test`` extra.  CI installs from those lists
alone, so an undeclared import fails on a clean runner."""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
FIRST_PARTY = (
    {p.name for p in (ROOT / "src").iterdir() if (p / "__init__.py").exists()}
    | {"tests"}
    | {p.stem for p in (ROOT / "tests").glob("*.py")}
)


def declared(requirements: list[str]) -> set[str]:
    """Distribution names of PEP 508 requirement strings, normalised."""
    return {
        re.split(r"[\s<>=!~;\[(]", r, maxsplit=1)[0].lower().replace("_", "-")
        for r in requirements
    }


def third_party_imports(root: Path) -> dict[str, str]:
    """{top-level module: first file importing it, relative to ``root``}
    over every ``import`` under ``root``, at module level and inside
    functions alike."""
    found: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in FIRST_PARTY:
                    found.setdefault(top, str(path.relative_to(root)))
    return found


@pytest.mark.parametrize(
    "tree,extras", [("src", []), ("tests", ["test"])], ids=["src", "tests"]
)
def test_imports_are_declared(tree, extras):
    allowed = declared(PROJECT["dependencies"])
    for extra in extras:
        allowed |= declared(PROJECT["optional-dependencies"][extra])
    imports = third_party_imports(ROOT / tree)
    missing = {m: f for m, f in imports.items() if m.lower().replace("_", "-") not in allowed}
    assert not missing, f"{tree}/ imports modules pyproject.toml does not declare: {missing}"


def test_walk_sees_function_level_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nfrom . import sibling\n\ndef f():\n    import somepkg.sub\n"
    )
    assert third_party_imports(tmp_path) == {"somepkg": "mod.py"}
