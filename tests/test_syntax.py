"""Every module of the package and of the tests parses as Python 3.10.

``pyproject.toml`` allows Python 3.10, which is not always installed where the
tests run. ``ast.parse(..., feature_version=(3, 10))`` refuses grammar that
later versions added, such as ``except*`` or type parameter lists. It checks
syntax only, on a best-effort basis: names, modules and behaviour that
differ between versions are not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/monocurve/*.py")) + sorted(ROOT.glob("tests/*.py"))


def test_sources_are_found():
    assert {"betti.py", "cli.py", "test_syntax.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
