"""Reference support search: one from-scratch elimination per constraint set.

This is the constraint-cut search as it stood before the depth-first walk
in `rackcover.linalg`: for every (dim-1)-subset of coordinates it builds the
constraint matrix and solves its kernel, sharing nothing between subsets,
then keeps the inclusion-minimal supports.  Its basis and every kernel come
from `_eliminate`, a batch sparse Gauss-Jordan of its own, so it shares no
elimination with the program's `IncrementalSpan` and `_cut`.  It is slow
and independent of the walk's pivot steps, so the two must agree on every
input.
"""

from itertools import combinations

from rackcover.linalg import _combination, _normalized, axpy, inverse


def _eliminate(rows):
    """Sparse Gauss-Jordan. Returns [(pivot_col, reduced_row)] with every
    pivot column appearing in exactly its own row, pivot coefficient 1.

    Pivot column choice: fewest nonzeros among active rows, ties by column
    index; pivot row: fewest nonzeros, ties by original position.  This is
    deterministic, so results do not depend on dict iteration quirks.
    """
    active = [dict(r) for r in rows if r]
    pivots = []
    while active:
        counts = {}
        for row in active:
            for col in row:
                counts[col] = counts.get(col, 0) + 1
        col = min(counts, key=lambda c: (counts[c], c))
        best_i = min(
            (i for i, row in enumerate(active) if col in row),
            key=lambda i: (len(active[i]), i),
        )
        pivot = active.pop(best_i)
        inv = inverse(pivot[col])
        pivot = {c: v * inv for c, v in pivot.items()}
        # clear `col` from the active rows and, back-substituting, from the
        # earlier pivot rows: row -= row[col] * pivot
        hits = [row for row in active if col in row]
        hits += [prow for _, prow in pivots if col in prow]
        if hits:
            neg_tail = {c: -v for c, v in pivot.items() if c != col}
            for row in hits:
                axpy(row, row.pop(col), neg_tail)
        active = [row for row in active if row]
        pivots.append((col, pivot))
    pivots.sort(key=lambda t: t[0])
    return pivots


def _kernel_line(rows, ncols):
    """The kernel vector of the rows when the kernel is one line, else None:
    e_free minus the free column of each reduced row."""
    pivots = _eliminate(rows)
    if ncols - len(pivots) != 1:
        return None
    (free,) = set(range(ncols)) - {col for col, _ in pivots}
    vec = {free: 1}
    for col, row in pivots:
        if free in row:
            vec[col] = -row[free]
    return vec


def reference_minimal_by_constraint_cuts(basis, ambient, unit_coords):
    dim = len(basis)
    candidates = {}
    for constraint in combinations(range(ambient), dim - 1):
        rows = [
            {j: vec[coord] for j, vec in enumerate(basis) if coord in vec}
            for coord in constraint
        ]
        line = _kernel_line(rows, dim)
        if line is None:
            continue
        out = _combination(basis, line)
        support = frozenset(out)
        if len(support) < 2 or support & unit_coords or support in candidates:
            continue
        candidates[support] = _normalized(out)
    supports = list(candidates)
    minimal = [s for s in supports if not any(t < s for t in supports if t != s)]
    return [(tuple(sorted(s)), candidates[s]) for s in minimal]


def reference_support_minimal_vectors(spanning, ambient):
    """`support_minimal_vectors` on the reference search."""
    pivots = _eliminate(spanning)
    basis = [row for _, row in pivots]
    if not basis:
        return [], set()
    unit_coords = {col for col, row in pivots if len(row) == 1}
    found = reference_minimal_by_constraint_cuts(basis, ambient, unit_coords)
    found.sort(key=lambda t: (len(t[0]), t[0]))
    return found, unit_coords
