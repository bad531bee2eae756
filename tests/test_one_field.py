"""rackcover chooses between Q and Q(zeta_N) in one place, `cyclotomic.Field`:
no other module reads a scalar's coordinates (`coeffs`, or the stored
numerators `num` over the denominator `den`), asks whether it is rational
or imports euler_phi."""

import ast
from pathlib import Path

import rackcover

PACKAGE = Path(rackcover.__file__).resolve().parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cyclotomic.py")


def _field_decisions(source, filename="<source>"):
    """(line, what) for each coordinate read, rationality test or
    euler_phi import in `source`."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "num", "den", "as_rational"):
            yield node.lineno, f"reads .{node.attr}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rpartition(".")[2] == "euler_phi":
                    yield node.lineno, f"imports {alias.name}"


def test_scan_finds_each_kind_of_decision():
    source = (
        "from .cyclotomic import CycScalar, euler_phi\n"
        "x = s.coeffs[0]\n"
        "r = s.as_rational()\n"
        "n, d = s.num, s.den\n"
    )
    assert list(_field_decisions(source)) == [
        (1, "imports euler_phi"), (2, "reads .coeffs"), (3, "reads .as_rational"),
        (4, "reads .num"), (4, "reads .den"),
    ]


def test_only_cyclotomic_decides_the_field():
    assert SOURCES
    offending = [
        f"{path.name}:{line} {what}"
        for path in SOURCES
        for line, what in _field_decisions(path.read_text(), str(path))
    ]
    assert not offending, offending
