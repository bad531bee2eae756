"""The benchmark's tracer wraps rackcover functions by name, and a traced
run fails when one of those names is gone.  This reads the names from
`perfbench/tracing.py` with `ast`, without importing it, and resolves each
against rackcover the way the tracer's `install` does."""

import ast
import importlib
from pathlib import Path

from rackcover.cyclotomic import CycScalar

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _assigned(name):
    """The expression assigned to the module-level `name` in tracing.py."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def _missing(module_name, attr):
    module = importlib.import_module(f"rackcover.{module_name}")
    owner, _, member = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner, None)
        # the tracer replaces the member in the class's own namespace
        if cls is None or member not in vars(cls):
            return f"{module_name}.{attr}"
    elif not callable(getattr(module, attr, None)):
        return f"{module_name}.{attr}"
    return None


def test_every_spanned_name_resolves():
    # entries are (module name, "function" or "Class.member") tuples
    spanned = [
        (entry.elts[0].id, ast.literal_eval(entry.elts[1]))
        for entry in _assigned("SPANNED").elts
    ]
    assert spanned
    missing = [m for m in (_missing(mod, attr) for mod, attr in spanned) if m]
    assert not missing, missing


def test_every_counted_scalar_operation_resolves():
    ops = ast.literal_eval(_assigned("SCALAR_OPS"))
    assert ops
    missing = [member for member in ops if member not in vars(CycScalar)]
    assert not missing, missing
