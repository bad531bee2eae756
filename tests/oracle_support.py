"""Reference support search: one from-scratch elimination per constraint set.

This is the constraint-cut search as it stood before the depth-first walk
in `rackcover.linalg`: for every (dim-1)-subset of coordinates it builds the
constraint matrix and solves its kernel with `rank_kernel`, sharing nothing
between subsets.  It is slow and independent of the walk's pivot steps, so
the two must agree on every input.
"""

from itertools import combinations

from rackcover.linalg import ExactMatrix, _combination, _eliminate, _normalized, rank_kernel


def reference_minimal_by_constraint_cuts(basis, ambient, unit_coords):
    dim = len(basis)
    candidates = {}
    for constraint in combinations(range(ambient), dim - 1):
        entries = {}
        for j, vec in enumerate(basis):
            for r, coord in enumerate(constraint):
                value = vec.get(coord)
                if value is not None:
                    entries[(r, j)] = value
        _, kernel = rank_kernel(ExactMatrix(dim - 1, dim, entries))
        if len(kernel) != 1:
            continue
        out = _combination(basis, kernel[0])
        support = frozenset(out)
        if len(support) < 2 or support & unit_coords or support in candidates:
            continue
        candidates[support] = _normalized(out)
    supports = list(candidates)
    minimal = [s for s in supports if not any(t < s for t in supports if t != s)]
    return [(tuple(sorted(s)), candidates[s]) for s in minimal]


def reference_support_minimal_vectors(spanning, ambient, **bounds):
    """`support_minimal_vectors` on the reference search; the bounds are
    accepted and ignored, so it can stand in for the real one."""
    pivots = _eliminate(spanning)
    basis = [row for _, row in pivots]
    if not basis:
        return [], set()
    unit_coords = {col for col, row in pivots if len(row) == 1}
    found = reference_minimal_by_constraint_cuts(basis, ambient, unit_coords)
    found.sort(key=lambda t: (len(t[0]), t[0]))
    return found, unit_coords
