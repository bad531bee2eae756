"""Exact sparse linear algebra over Q(zeta_N), plus integer Smith normal form.

Matrices are stored sparsely (no zero entries, one entry per position) and
all elimination runs in exact field arithmetic.  One eliminator,
`IncrementalSpan`, serves every graded component, coordinate solve, rank
and kernel: it sees one vector at a time and pivots on the residual column
that the fewest stored pivot tails hold, so that later vectors meet the new
pivot as seldom as possible, since the matrices arising from quantum
symmetrizers and braided derivations are monomial-sparse.  `rank_kernel`
feeds it the columns of a matrix; `support_minimal_vectors` feeds it the
spanning vectors and walks the vanishing-coordinate cuts of the kept ones,
one node per flat of constraints and one pivot step (`_cut`) per node,
with the steps of one search counted against MAX_SUPPORT_STEPS.
`determinant` keeps its own row-swap elimination, so that it checks the
ranks of the 1 + c blocks independently of the span.

Sparse vectors, here and in the modules built on this one, are dicts
key -> scalar that never store a zero.  Only the kernel adds into them:
`add_terms` and its scaled form `axpy` drop every entry that cancels.
So two vectors are equal exactly when their dicts compare equal with `==`
(scalars of different orders compare by value).  The kernel,
`_combination` and `IncrementalSpan` take any exact scalars: `CycScalar`s,
or Python ints and Fractions when the field is Q.  `support_minimal_vectors`
runs over the `cyclotomic.Field` of its input.

Ranks reported by this module always come from exact elimination; modular
shortcuts are deliberately not used.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .cyclotomic import CycScalar, Field
from .errors import BoundExceededError, InternalCheckError, NonSquareError

Vector = dict[int, CycScalar]


def add_terms(target: dict, terms) -> None:
    """target[key] += term for each (key, term) pair, in place; an entry
    that cancels to zero is removed, so no zero is ever stored."""
    for key, term in terms:
        acc = target.get(key)
        val = term if acc is None else acc + term
        if not val:
            target.pop(key, None)
        else:
            target[key] = val


def axpy(target: dict, coeff, source: dict) -> None:
    """target += coeff * source, in place; `source` is not modified."""
    add_terms(target, ((key, coeff * value) for key, value in source.items()))


def inverse(value):
    """1 / value, exactly: `CycScalar.inverse` for a CycScalar; for a
    Python number an int when the quotient is integral, else a Fraction.
    An int 1 or -1 is its own inverse and comes back unchanged."""
    if isinstance(value, CycScalar):
        return value.inverse()
    if type(value) is int and (value == 1 or value == -1):
        return value
    inv = Fraction(1, value)
    return inv.numerator if inv.denominator == 1 else inv


class ExactMatrix:
    """Sparse matrix over one cyclotomic field Q(zeta_N).

    Entries are normalized so that every stored scalar shares the matrix
    order and no stored scalar is zero.
    """

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        order = 1
        cleaned: dict[tuple[int, int], CycScalar] = {}
        for (r, c), value in (entries or {}).items():
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if isinstance(value, (int, Fraction)):
                value = CycScalar.rational(value)
            if value.is_zero:
                continue
            order = lcm(order, value.order)
            cleaned[(r, c)] = value
        self.order = order
        self.entries = {
            pos: value if value.order == order else value.lift(order)
            for pos, value in cleaned.items()
        }

    def row_dicts(self) -> list[Vector]:
        rows: list[Vector] = [dict() for _ in range(self.rows)]
        for (r, c), value in sorted(self.entries.items()):
            rows[r][c] = value
        return rows

    def columns(self) -> dict[int, Vector]:
        """The nonzero columns, keyed by column index."""
        cols: dict[int, Vector] = {}
        for (r, c), value in self.entries.items():
            cols.setdefault(c, {})[r] = value
        return cols

    def apply(self, vector: Vector) -> Vector:
        """Matrix times column vector, sparse."""
        out: Vector = {}
        add_terms(out, (
            (r, value * vector[c])
            for (r, c), value in self.entries.items() if c in vector
        ))
        return out

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def rank_kernel(matrix: ExactMatrix) -> tuple[int, list[Vector]]:
    """Exact rank and a basis of the right kernel {v : A v = 0}: the
    columns go into one span, and each column c it does not keep gives
    e_c - sum w_k e_k, w its certified `combination`.  The kernel vectors
    are verified against the matrix; a failure is a bug, not bad input."""
    columns = matrix.columns()
    one = CycScalar.one(matrix.order)
    span = IncrementalSpan()
    kernel: list[Vector] = []
    for c in range(matrix.cols):
        if not span.add(columns.get(c, {}), c):
            vec: Vector = {c: one}
            vec.update((k, -w) for k, w in span.combination.items())
            kernel.append(vec)
    # A v = sum of v[c] * (column c), so one column index serves every vector
    for vec in kernel:
        image: Vector = {}
        add_terms(image, (
            (r, value * coeff)
            for c, coeff in vec.items()
            for r, value in columns.get(c, {}).items()
        ))
        if image:
            raise InternalCheckError("kernel vector not annihilated")
    if span.dim + len(kernel) != matrix.cols:
        raise InternalCheckError("rank + nullity != cols")
    return span.dim, kernel


def determinant(matrix: ExactMatrix) -> CycScalar:
    """Exact determinant by fraction Gaussian elimination with row swaps,
    kept apart from `IncrementalSpan` so that it checks `rank_kernel` on
    the 1 + c blocks independently."""
    if matrix.rows != matrix.cols:
        raise NonSquareError(f"{matrix.rows}x{matrix.cols} matrix")
    n = matrix.rows
    if n == 0:
        return CycScalar.one()
    rows = matrix.row_dicts()
    sign = 1
    det = CycScalar.one(matrix.order)
    for col in range(n):
        pivot_at = next(
            (i for i in range(col, n) if rows[i].get(col)), None
        )
        if pivot_at is None:
            return CycScalar.zero(matrix.order)
        if pivot_at != col:
            rows[col], rows[pivot_at] = rows[pivot_at], rows[col]
            sign = -sign
        pivot = rows[col]
        det = det * pivot[col]
        inv = pivot[col].inverse()
        neg_tail = {c: -v for c, v in pivot.items() if c > col}
        for i in range(col + 1, n):
            coeff = rows[i].pop(col, None)
            if coeff is not None:
                axpy(rows[i], coeff * inv, neg_tail)
    return det * sign if sign < 0 else det


class IncrementalSpan:
    """Grow a subspace one vector at a time, remembering which of the
    inserted vectors were kept as a basis.

    Feeding vectors in a fixed order yields the lexicographically-first
    maximal independent subset, which is what the graded-basis choices in
    the higher modules rely on.  `coordinates` expresses a member of the
    span in terms of the kept vectors exactly.

    A kept vector's pivot is the column of its residual that the fewest
    stored pivot tails hold, ties to the lowest column.  Any column of the
    residual is a valid pivot: `_reduce` walks the pivots in insertion
    order, so a residual holds no earlier pivot column and neither does
    the new tail.  Which vectors are kept, and their coefficients in
    `combination` and `coordinates`, depend only on the insertion order,
    never on the pivots.
    """

    def __init__(self):
        self._pivots: list[tuple[int, Vector, dict[int, CycScalar]]] = []
        # column -> number of stored pivot tails that hold it
        self._held: Counter = Counter()
        self.kept: list[int] = []
        self._inserted: dict[int, Vector] = {}
        # {kept tag: coefficient} of the last dependent vector `add` met
        self.combination: dict[int, CycScalar] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def _reduce(self, vector: Vector):
        residual = dict(vector)
        combo: dict[int, CycScalar] = {}
        for col, neg_tail, expr in self._pivots:
            coeff = residual.pop(col, None)
            if coeff is None:
                continue
            axpy(residual, coeff, neg_tail)
            axpy(combo, coeff, expr)
        return residual, combo

    def add(self, vector: Vector, tag: int) -> bool:
        """Insert; returns True when the vector enlarged the span.  A
        dependence is certified against the kept vectors as they were
        inserted, not against the reduced pivot rows, so every rank read
        off the span is checked exactly; the certified combination is left
        in `combination`."""
        residual, combo = self._reduce(vector)
        if not residual:
            if _combination(self._inserted, combo) != vector:
                raise InternalCheckError("dependence not certified by inserted vectors")
            self.combination = combo
            return False
        held = self._held
        col = min(residual, key=lambda c: (held.get(c, 0), c))
        inv = inverse(residual.pop(col))
        # the new pivot row is e_col - neg_tail, and in terms of kept
        # vectors it is inv * (vector - sum combo[tag'] * kept_tag')
        neg_inv = -inv
        neg_tail = {c: v * neg_inv for c, v in residual.items()}
        expr = {tag: inv}
        axpy(expr, neg_inv, combo)
        self._pivots.append((col, neg_tail, expr))
        held.update(neg_tail.keys())  # count each column once, not its value
        self.kept.append(tag)
        self._inserted[tag] = vector
        return True

    def coordinates(self, vector: Vector) -> dict[int, CycScalar] | None:
        """Coefficients over the kept tags, or None if not in the span."""
        residual, combo = self._reduce(vector)
        if residual:
            return None
        return combo


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------


class SNFResult:
    """diag: nonzero invariant factors d_1 | d_2 | ... | d_r, all positive.

    U and V are unimodular with U * M * V = D (D the diagonal matrix padded
    with zeros to the input shape); free_rank = cols - r.
    """

    def __init__(self, diag, free_rank, U, V, shape):
        self.diag = tuple(diag)
        self.free_rank = free_rank
        self.U = U
        self.V = V
        self.shape = shape

    def __repr__(self):
        return f"SNFResult(diag={self.diag}, free_rank={self.free_rank})"


def smith_normal_form(matrix: list[list[int]], cols: int | None = None) -> SNFResult:
    """Smith normal form of an integer matrix (list of rows).

    `cols` is needed only when the matrix has no rows (so the generator
    count cannot be inferred).  The output divisibility chain is
    normalized: d_1 | d_2 | ... | d_r.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else (cols or 0)
    if matrix and any(len(row) != ncols for row in matrix):
        raise ValueError("ragged integer matrix")
    a = [list(map(int, row)) for row in matrix]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(ncols):
            a[i][k] -= q * a[j][k]
        for k in range(nrows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(nrows):
            a[k][i] -= q * a[k][j]
        for k in range(ncols):
            v[k][i] -= q * v[k][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for k in range(nrows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(ncols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    def row_negate(i):
        for k in range(ncols):
            a[i][k] = -a[i][k]
        for k in range(nrows):
            u[i][k] = -u[i][k]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j]:
                    key = (abs(a[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        # clear row t and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
        # make the pivot divide the whole trailing block
        pivot = a[t][t]
        offender = next(
            (
                (i, j)
                for i in range(t + 1, nrows)
                for j in range(t + 1, ncols)
                if a[i][j] % pivot
            ),
            None,
        )
        if offender is not None:
            row_op(t, offender[0], -1)  # row_t += row_i; reruns the clearing
            continue
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    diag = [a[i][i] for i in range(t)]
    # the divisibility chain is automatic with the full-pivot strategy, but
    # verify rather than trust it
    for i in range(1, len(diag)):
        if diag[i] % diag[i - 1]:
            raise InternalCheckError("SNF divisibility chain broken")
    result = SNFResult(diag, ncols - len(diag), u, v, (nrows, ncols))
    _check_snf(matrix, result)
    return result


def _check_snf(matrix, result):
    """U * M * V == D, as two exact integer products (U M) V."""
    nrows, ncols = result.shape
    um = [
        [sum(u * matrix[k][j] for k, u in enumerate(u_row) if u) for j in range(ncols)]
        for u_row in result.U
    ]
    v_cols = list(zip(*result.V))
    for i, row in enumerate(um):
        for j, col in enumerate(v_cols):
            total = sum(a * b for a, b in zip(row, col))
            want = result.diag[i] if i == j and i < len(result.diag) else 0
            if total != want:
                raise InternalCheckError("U*M*V != D in Smith normal form")


def abelian_invariants(matrix: list[list[int]], ngens: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariants) of Z^ngens modulo the rows of `matrix`."""
    snf = smith_normal_form(matrix, cols=ngens)
    torsion = tuple(d for d in snf.diag if d > 1)
    return snf.free_rank, torsion


# ---------------------------------------------------------------------------
# Support-minimal vectors of a subspace
# ---------------------------------------------------------------------------

# the most pivot steps (`_cut`) one support search takes
MAX_SUPPORT_STEPS = 250_000


def support_minimal_vectors(
    spanning: list[Vector], ambient: int
) -> tuple[list[tuple[tuple[int, ...], Vector]], set[int]]:
    """All inclusion-minimal supports (size >= 2) of nonzero vectors in
    span(spanning), plus the set of coordinates i with e_i in the span.

    Each returned support comes with its vector, which is unique up to a
    scalar; it is normalized so its first nonzero coordinate is 1.

    With k the dimension of the span, the minimal-support vectors are the
    one-dimensional cuts of k-1 vanishing-coordinate constraints.
    `_minimal_by_constraint_cuts` walks those constraint subsets from the
    spanning vectors that one `IncrementalSpan` keeps, over their `Field`,
    entering each flat the constraints span once, and counts its pivot
    steps as it goes: past MAX_SUPPORT_STEPS it raises BoundExceededError.
    The count is the work done, so it may trip a few percent sooner or
    later when the coordinates are permuted; a search that completes
    returns the same supports either way.
    """
    field = Field(v for vec in spanning for v in vec.values())
    internal = field.internal
    vectors = [{c: internal(v) for c, v in vec.items()} for vec in spanning]
    span = IncrementalSpan()
    for tag, vec in enumerate(vectors):
        span.add(vec, tag)
    if span.dim == 0:
        return [], set()
    unit_coords = {
        i for i in range(ambient) if span.coordinates({i: field.one}) is not None
    }

    found = _minimal_by_constraint_cuts([vectors[t] for t in span.kept], ambient)
    found.sort(key=lambda t: (len(t[0]), t[0]))
    export = field.export
    found = [
        (support, {c: export(v) for c, v in vec.items()}) for support, vec in found
    ]
    return found, unit_coords


def _minimal_by_constraint_cuts(basis, ambient):
    """The normalized vectors cut out by the (dim-1)-subsets of vanishing
    constraints whose cut is one-dimensional, one per support of size >= 2.

    The subsets are walked depth first in lexicographic order, one node
    per flat: a node holds a basis of its cut {v in span : v_i = 0 for i
    chosen}, as ambient vectors, and a child's cut is one pivot step away
    (`_cut`).  A node enters only the leaders of its cut's parallel
    classes (`_class_leaders`), so the chosen constraints of every node
    are the lexicographically-first basis of the flat they span.  Each
    hyperplane, and so each minimal support, is then reached at exactly
    one leaf, which the walk checks.  A leaf's vector v spans its cut, so
    a nonzero vector of the span whose support lies in v's vanishes on the
    chosen constraints and has v's support: every leaf support is minimal,
    and a unit coordinate only makes a leaf of size 1.  The walk raises
    BoundExceededError before its step past MAX_SUPPORT_STEPS.
    """
    dim = len(basis)
    found: dict[frozenset, Vector] = {}
    reached: set[frozenset] = set()
    bound = MAX_SUPPORT_STEPS
    steps = 0

    def walk(cut, chosen, start, coords):
        nonlocal steps
        if len(chosen) == dim - 1:
            (vec,) = cut
            if any(i in vec for i in chosen):
                raise InternalCheckError("cut vector does not vanish on its constraints")
            support = frozenset(vec)
            if support in reached:
                raise InternalCheckError("support reached twice")
            reached.add(support)
            if len(support) >= 2:
                found[support] = _normalized(vec)
            return
        leaders = _class_leaders(cut, coords)
        # leave room for the constraints still to be chosen after i
        stop = ambient - dim + 2 + len(chosen)
        for i in leaders:
            if start <= i < stop:
                if steps == bound:
                    raise BoundExceededError(f"support search exceeds {bound} pivot steps")
                steps += 1
                walk(_cut(cut, i), chosen + (i,), i + 1, leaders)

    walk(basis, (), 0, range(ambient))
    return [(tuple(sorted(s)), vec) for s, vec in found.items()]


def _class_leaders(cut: list[Vector], coords) -> list[int]:
    """The coordinates of `coords`, in order, that some vector of `cut`
    holds and whose column over `cut` is proportional to no earlier held
    one's: the first of each parallel class.  A subspace of the cut keeps
    proportional columns proportional, so a child's leaders are among its
    parent's, which is all a child looks at.  Columns are compared by zero
    pattern, then by cross-multiplication, since a CycScalar is not
    hashable."""
    classes: dict[tuple[int, ...], list[dict[int, CycScalar]]] = {}
    leaders = []
    for i in coords:
        col = {r: vec[i] for r, vec in enumerate(cut) if i in vec}
        if not col:
            continue
        key = tuple(col)
        reps = classes.get(key)
        if reps is None:
            classes[key] = [col]
        # one-row columns of one zero pattern are always proportional
        elif len(col) == 1 or any(_proportional(col, rep) for rep in reps):
            continue
        else:
            reps.append(col)
        leaders.append(i)
    return leaders


def _proportional(col: dict[int, CycScalar], rep: dict[int, CycScalar]) -> bool:
    """Whether two columns of one zero pattern are proportional: with f
    their first row, col[r] * rep[f] == rep[r] * col[f] at every row r."""
    items = iter(col.items())
    first, lead = next(items)
    scale = rep[first]
    return all(v * scale == rep[r] * lead for r, v in items)


def _cut(vectors: list[Vector], coord: int) -> list[Vector]:
    """A basis of {v in span(vectors) : v[coord] = 0}, given a basis
    `vectors` of which at least one holds `coord`: the vectors without
    `coord`, and the other holders with `coord` eliminated against the
    sparsest holder, which drops out."""
    out = [vec for vec in vectors if coord not in vec]
    holders = [vec for vec in vectors if coord in vec]
    pivot = min(holders, key=len)
    neg_inv = -inverse(pivot[coord])
    neg_tail = {c: v * neg_inv for c, v in pivot.items() if c != coord}
    for vec in holders:
        if vec is not pivot:
            vec = dict(vec)
            axpy(vec, vec.pop(coord), neg_tail)
            out.append(vec)
    return out


def _combination(basis, weights: Vector) -> Vector:
    """sum over j of weights[j] * basis[j], basis a list or dict of vectors."""
    out: Vector = {}
    for j, weight in weights.items():
        axpy(out, weight, basis[j])
    return out


def _normalized(vector: Vector) -> Vector:
    """The nonzero vector scaled so its first coordinate is 1, keys sorted."""
    inv = inverse(vector[min(vector)])
    return {c: v * inv for c, v in sorted(vector.items())}
