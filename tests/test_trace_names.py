"""The benchmark's tracer wraps rackcover functions by name, and a traced
run fails when one of those names is gone.  This reads the names from
`perfbench/tracing.py` with `ast`, without importing it, and resolves each
against rackcover the way the tracer's `install` does.  A name can resolve
and still get no call, when the function has lost its last caller; one
traced benchmark run, in a subprocess, catches that.  The harness's line
counter likewise counts only the modules its MODULES list names, and
skips any other without a word."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

from rackcover.cyclotomic import CycScalar

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_line_count_names_every_module():
    modules = ast.literal_eval(_assigned("MODULES"))
    package = ROOT / "src" / "rackcover"
    on_disk = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert sorted(modules) == sorted(on_disk)


def test_traced_run_measures_every_layer():
    # exit 2 and "not measured" on stderr mean a per-layer metric got no
    # call; `correct` is not asserted, since its span balance depends on
    # timing.  The run writes under perfbench/work/ only.
    argv = ["perfbench/run.py", "--workload", "graded-deep", "--seed", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert "not measured" not in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0
