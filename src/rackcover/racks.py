"""Finite racks: validation, the built-in catalog, orbits, inner groups.

A rack is a finite set with a binary operation |> whose left translations
y -> x|>y are bijections satisfying self-distributivity
x|>(y|>z) = (x|>y)|>(x|>z).  Conjugacy classes of a group form racks under
x|>y = x y x^{-1}; affine racks live on Z/p with x|>y = g*y + (1-g)*x.

Tables are 0-based internally; files use 1-based entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import gcd

from .errors import (
    RackAxiomError,
    UnknownNameError,
    ValidationError,
    malformed,
    require_int,
)
from .groups import FiniteGroup, perm_compose, perm_inverse


@dataclass(frozen=True)
class Rack:
    """A validated rack table; construct through :func:`rack_verify`."""

    table: tuple[tuple[int, ...], ...]
    label: str | None = None

    @property
    def n(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def translation(self, x: int) -> tuple[int, ...]:
        """The permutation y -> x|>y."""
        return self.table[x]

    def orbits(self) -> list[list[int]]:
        """Partition of the underlying set under all translations."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            block = []
            stack = [start]
            seen[start] = True
            while stack:
                y = stack.pop()
                block.append(y)
                for x in range(self.n):
                    z = self.table[x][y]
                    if not seen[z]:
                        seen[z] = True
                        stack.append(z)
            out.append(sorted(block))
        return out

    def is_decomposable(self) -> bool:
        return len(self.orbits()) > 1

    def is_quandle(self) -> bool:
        return all(self.table[x][x] == x for x in range(self.n))

    def is_faithful(self) -> bool:
        return len({self.table[x] for x in range(self.n)}) == self.n

    def inner_group(self) -> FiniteGroup:
        """Subgroup of Sym(X) generated by the translations."""
        return FiniteGroup.from_permutations(
            [self.translation(x) for x in range(self.n)],
            label=f"Inn({self.label})" if self.label else "Inn",
        )

    def relabel(self, perm: tuple[int, ...]) -> "Rack":
        """Isomorphic copy with elements renamed by `perm` (x -> perm[x])."""
        inv = perm_inverse(perm)
        table = tuple(
            tuple(perm[self.table[inv[i]][inv[j]]] for j in range(self.n))
            for i in range(self.n)
        )
        return Rack(table, label=self.label)

    def __repr__(self):
        return f"Rack({self.label or ''} n={self.n})"


def rack_verify(table, label=None) -> Rack:
    """Validate a rack table; reports the first broken axiom with a witness."""
    n = len(table)
    rows = []
    for x, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"row {x} has length {len(row)}, expected {n}")
        for y, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"entry ({x},{y}) = {v!r} out of range")
        rows.append(tuple(row))
    for x in range(n):
        if len(set(rows[x])) != n:
            raise RackAxiomError("NotBijective", (x,))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[x][rows[y][z]] != rows[rows[x][y]][rows[x][z]]:
                    raise RackAxiomError("NotSelfDistributive", (x, y, z))
    return Rack(tuple(rows), label=label)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def conjugation_rack(elems, label=None) -> Rack:
    """Conjugation rack on a list of permutations closed under conjugation."""
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise ValidationError("duplicate elements in conjugation class")
    table = []
    for x in elems:
        row = []
        xinv = perm_inverse(x)
        for y in elems:
            z = perm_compose(perm_compose(x, y), xinv)
            if z not in index:
                raise ValidationError(
                    f"class not closed under conjugation: {x} |> {y} = {z}"
                )
            row.append(index[z])
        table.append(row)
    return rack_verify(table, label=label)


def transposition_elements(n: int) -> list[tuple[int, ...]]:
    """The transpositions of S_n as one-line permutations, pairs in lex order."""
    out = []
    for k in range(n):
        for l in range(k + 1, n):
            p = list(range(n))
            p[k], p[l] = l, k
            out.append(tuple(p))
    return out


def transpositions_rack(n: int) -> Rack:
    if n < 2:
        raise ValidationError("transpositions need n >= 2")
    return conjugation_rack(
        transposition_elements(n), label=f"transpositions({n})"
    )


def four_cycles_rack() -> Rack:
    cycles = sorted(
        p
        for p in permutations(range(4))
        if _cycle_type(p) == (4,)
    )
    return conjugation_rack(list(cycles), label="four_cycles_S4")


def tetrahedron_rack() -> Rack:
    """Conjugation rack on one class of 3-cycles inside A_4 (4 elements)."""
    base = (1, 2, 0, 3)  # the 3-cycle 0->1->2
    a4 = [p for p in permutations(range(4)) if _parity(p) == 0]
    cls = sorted({perm_compose(perm_compose(g, base), perm_inverse(g)) for g in a4})
    return conjugation_rack(cls, label="tetrahedron")


def dihedral_rack(n: int) -> Rack:
    """Reflections of the dihedral group of order 2n: x|>y = 2x - y mod n."""
    if n < 2:
        raise ValidationError("dihedral rack needs n >= 2")
    table = [[(2 * x - y) % n for y in range(n)] for x in range(n)]
    return rack_verify(table, label=f"dihedral({n})")


def affine_rack(p: int, g: int) -> Rack:
    """x|>y = g*y + (1-g)*x on Z/p; needs gcd(g, p) = 1 and g != 1 mod p."""
    if p < 2:
        raise ValidationError("affine rack needs modulus >= 2")
    if gcd(g, p) != 1:
        raise ValidationError(f"affine multiplier {g} not invertible mod {p}")
    if g % p == 1:
        raise ValidationError("affine multiplier 1 gives the trivial rack")
    table = [[(g * y + (1 - g) * x) % p for y in range(p)] for x in range(p)]
    return rack_verify(table, label=f"affine({p},{g})")


def reflections_d4_rack() -> Rack:
    """The four-element, two-component rack of the square-symmetry example.

    Elements {0,1} and {2,3} form the two components; every translation
    swaps 0 and 1, and the translations of 2 and 3 also swap 2 and 3.  This
    is the unique four-element rack (up to isomorphism) with two
    components, inner group C2 x C2, and exactly four braiding orbits on
    X x X, which are the published invariants of this example.  It is not
    a quandle, so it differs from the conjugation rack on the four
    reflections of the order-8 dihedral group; that quandle is available
    as dihedral(4) and has eight braiding orbits instead.
    """
    table = [
        [1, 0, 2, 3],
        [1, 0, 2, 3],
        [1, 0, 3, 2],
        [1, 0, 3, 2],
    ]
    return rack_verify(table, label="reflections_D4")


def abelian_rack(k: int) -> Rack:
    if k < 1:
        raise ValidationError("abelian rack needs k >= 1")
    table = [[y for y in range(k)] for _ in range(k)]
    return rack_verify(table, label=f"abelian({k})")


_CATALOG = {
    "transpositions": (transpositions_rack, 1),
    "four_cycles_S4": (four_cycles_rack, 0),
    "tetrahedron": (tetrahedron_rack, 0),
    "dihedral": (dihedral_rack, 1),
    "affine": (affine_rack, 2),
    "reflections_D4": (reflections_d4_rack, 0),
    "abelian": (abelian_rack, 1),
}


def catalog(name: str, *args: int) -> Rack:
    """Look up a built-in rack.

    Accepts either a bare name plus integer arguments, or a single string
    of the form 'name:3' / 'name:5,2' / 'name(5,2)'.
    """
    if not args and (":" in name or "(" in name):
        base, _, rest = name.partition(":")
        if "(" in name:
            base, _, rest = name.partition("(")
            rest = rest.rstrip(")")
        try:
            args = tuple(int(v) for v in rest.split(",") if v != "")
        except ValueError as exc:
            raise UnknownNameError(f"bad catalog arguments in {name!r}") from exc
        name = base
    if name not in _CATALOG:
        raise UnknownNameError(
            f"unknown rack {name!r}; choices: {sorted(_CATALOG)}"
        )
    builder, arity = _CATALOG[name]
    if len(args) != arity:
        raise UnknownNameError(
            f"rack {name!r} takes {arity} integer argument(s), got {len(args)}"
        )
    return builder(*args)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def _cycle_type(p) -> tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        if ln > 1:
            lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def _parity(p) -> int:
    return sum(length - 1 for length in _cycle_type(p)) % 2


# ---------------------------------------------------------------------------
# File form
# ---------------------------------------------------------------------------


def rack_from_json(data: dict) -> Rack:
    with malformed("rack"):
        n = require_int(data["n"], "rack size n = {value!r} is not an integer")
        entry = "rack table entry {value!r} is not an integer"
        table = [[require_int(v, entry) - 1 for v in row] for row in data["table"]]
        if len(table) != n:
            raise ValidationError(f"table has {len(table)} rows, 'n' says {n}")
        label = data.get("label")
        if "label" in data and not isinstance(label, str):
            raise ValidationError(f"rack label {label!r} is not a string")
    return rack_verify(table, label=label)


def rack_to_json(rack: Rack) -> dict:
    out = {"n": rack.n, "table": [[v + 1 for v in row] for row in rack.table]}
    if rack.label:
        out["label"] = rack.label
    return out
