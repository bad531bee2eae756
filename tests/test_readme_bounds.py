"""Every fixed bound of rackcover is documented: each module-level integer
`MAX_*` in its sources is named in README.md as `module.NAME`, and each
`module.MAX_*` the README names exists."""

import ast
import importlib
import re
from pathlib import Path

import rackcover

PACKAGE = Path(rackcover.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _module_bounds():
    """(module, name) of each module-level `MAX_* = <int>` in the sources."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    value = getattr(importlib.import_module(f"rackcover.{path.stem}"),
                                    target.id)
                    if isinstance(value, int) and not isinstance(value, bool):
                        yield path.stem, target.id


def _readme_bounds():
    return set(re.findall(r"`(\w+)\.(MAX_\w+)`", README.read_text()))


def test_every_bound_is_named_in_the_readme():
    bounds = set(_module_bounds())
    assert bounds
    missing = sorted(f"{m}.{n}" for m, n in bounds - _readme_bounds())
    assert not missing, missing


def test_every_bound_the_readme_names_exists():
    named = _readme_bounds()
    assert named
    stale = sorted(f"{m}.{n}" for m, n in named - set(_module_bounds()))
    assert not stale, stale
