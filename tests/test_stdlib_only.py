"""rackcover runs on the Python standard library alone: every absolute
import in its sources names a standard-library module or rackcover itself."""

import ast
import sys
from pathlib import Path

import rackcover

SOURCES = sorted(Path(rackcover.__file__).resolve().parent.glob("*.py"))


def _absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_import_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"rackcover"}
    assert SOURCES
    offending = [
        f"{path.name}:{line} imports {name}"
        for path in SOURCES
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in allowed
    ]
    assert not offending, offending
