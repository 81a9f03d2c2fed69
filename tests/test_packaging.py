"""The package imports exactly the third-party modules it declares, in the
Python versions it declares."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "qbaker").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_runtime_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert _third_party_imports() == declared


def test_sources_parse_as_the_oldest_declared_python():
    # Grammar of later versions, such as `except*`, fails here even when the
    # suite runs on a later Python. Syntax inside strings, such as that of
    # `re` patterns, is not seen.
    oldest = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    for path in (ROOT / "src" / "qbaker").glob("*.py"):
        ast.parse(path.read_text(), str(path), feature_version=(3, int(oldest[1])))
