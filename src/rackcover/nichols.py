"""Graded components of the Nichols algebra of a braided rack space.

The degree-n component B^n is built from B^(n-1) by the braided
skew-derivations d_y, the (n-1, 1) part of the coproduct: for n >= 1 an
element of B^n is zero exactly when all its derivations vanish, and
    d_y(b v_x) = delta_{xy} b + q(y,x) d_y(b) v_{y|>x},    b in B^(n-1)
(Andruskiewitsch-Grana 1999; Heckenberger-Lochmann-Vendramin 2012).  So
B^n is spanned by the products b_j v_x of a basis of B^(n-1) with the
letters, and their derivation vectors decide every dependence.
`GradedBasis` eliminates those d * dim B^(n-1) candidates grade by grade,
and keeps, for the next degree, the derivations D_y of its basis and the
right multiplications R_x into it.  The kept words are the
lexicographically-first ones, as when B^n is cut out of all columns of
the quantum symmetrizer, whose entries are iterated derivations,
S_n[y_1 ... y_n, t] = d_{y_1} ... d_{y_n} t.  Nothing of size d^n is
built: the bosonization reads its products and coproducts off the right
multiplications alone.

Inner symmetry: g_x v_y = q(x,y) v_{x|>y}, the Yetter-Drinfeld action
behind the braiding, commutes with c by the cocycle condition, so it
extends to a graded automorphism of B(V).  It maps the grade (h, counts)
onto (phi_x h phi_x^-1, counts), phi_x the translation by x, so grades
conjugate under Inn(X) have equal dimensions.  `hilbert_series` uses this
at its top degree only, which feeds no further degree: it eliminates one
grade per orbit and multiplies by the orbit size.  Every lower degree,
and every other caller, gets the full GradedBasis, since the next degree
needs the derivations and right multiplications of every grade.

The quantum symmetrizer S_n, whose image is B^n, stays for the minimal
elements below: it is the sum, over all permutations of n letters, of the
braid-group lifts obtained by replacing each letter s_i of a reduced word
with the braiding c_i acting on tensor slots (i-1, i).  Lifts are well
defined because the braiding satisfies the braid equation (checked at
construction of BraidedSpace) and reduced words of the same permutation
give equal operators.  S_n is assembled by the factorization
S_n = T'_n (S_{n-1} (x) id), T'_n = sum_{k=1..n} c_k c_{k+1} ... c_{n-1}
(Milinski-Schneider 2000; Andruskiewitsch-Grana 1999).  It is exact: every
permutation factors uniquely as (s_k ... s_{n-1}) (sigma' x 1) with
lengths adding, so the lifts match term for term.  Degree n then costs
nnz(S_{n-1}) * d * n monomial steps instead of n! * d^n * l.  The direct
sum survives only as the dense oracle in the tests, and the braided
shuffle product only as the shuffle oracle there.

Everything acts monomially on words (tuples of rack elements), so
operators are stored as index permutations plus root-of-unity exponents;
exact field arithmetic only enters when columns are assembled and
eliminated.

Higher machinery built on the graded pieces:

* support-minimal elements of each graded component, computed per
  "block" (words connected by single braid-generator moves), since a
  minimal element cannot straddle blocks;
* group relators read off minimal supports, giving a presentation of the
  degree-limited covering group on the rack's generators.

A braid-generator move keeps a word's inner permutation image and its
letter counts per rack orbit, the two computable invariants of the
enveloping group.  So every minimal element lies in one grade, and each
relator it gives holds in the inner group and the abelianization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braiding import BraidedSpace, quadratic_analysis
from .cyclotomic import CycScalar, Field
from .errors import BoundExceededError, InternalCheckError
from .groups import identity_perm, perm_compose, perm_inverse
from .linalg import (
    ExactMatrix,
    IncrementalSpan,
    add_terms,
    axpy,
    support_minimal_vectors,
)
from .presentations import Presentation, Word, free_reduce

RackWord = tuple[int, ...]


# ---------------------------------------------------------------------------
# Monomial operators on tensor words
# ---------------------------------------------------------------------------


class TensorWords:
    """Word/index bookkeeping plus braid-generator tables for one degree."""

    def __init__(self, space: BraidedSpace, degree: int):
        self.space = space
        self.degree = degree
        self.d = space.dim
        self.size = self.d**degree if degree > 0 else 1
        self._tables: list[tuple[list[int], list[int]]] | None = None

    def index(self, word: RackWord) -> int:
        idx = 0
        for x in word:
            idx = idx * self.d + x
        return idx

    def word(self, index: int) -> RackWord:
        out = []
        for _ in range(self.degree):
            index, x = divmod(index, self.d)
            out.append(x)
        return tuple(reversed(out))

    def generator_tables(self) -> list[tuple[list[int], list[int]]]:
        """For each letter i = 1..degree-1, the index permutation and the
        exponent increment of the braiding on slots (i-1, i)."""
        if self._tables is not None:
            return self._tables
        space, d, n = self.space, self.d, self.degree
        op = space.rack.op
        exp = space.cocycle.exponents
        tables = []
        for i in range(1, n):
            perm = [0] * self.size
            delta = [0] * self.size
            for idx in range(self.size):
                w = self.word(idx)
                x, y = w[i - 1], w[i]
                new = w[: i - 1] + (op(x, y), x) + w[i + 1 :]
                perm[idx] = self.index(new)
                delta[idx] = exp[x][y]
            tables.append((perm, delta))
        self._tables = tables
        return tables


def _add_rotated(counts: dict, key, slot, shift: int) -> None:
    """counts[key] += zeta^shift * slot, on exponent-count vectors."""
    n = len(slot)
    acc = counts.get(key)
    if acc is None:
        acc = counts[key] = [0] * n
    for j, c in enumerate(slot):
        acc[(j + shift) % n] += c


def _nonzero(counts: dict, order: int, values: dict) -> dict:
    """The entries of `counts` whose sum of roots of unity is not zero,
    as count tuples.  `values` caches count tuple -> CycScalar, or None
    for a zero sum."""
    out = {}
    for key, slot in counts.items():
        slot = tuple(slot)
        if slot not in values:
            value = CycScalar.from_root_counts(order, slot)
            values[slot] = None if value.is_zero else value
        if values[slot] is not None:
            out[key] = slot
    return out


def symmetrizer_matrix(
    space: BraidedSpace, degree: int, max_cols: int = 10**4
) -> ExactMatrix:
    """The quantum symmetrizer on the degree-n tensor power, assembled as a
    sparse exact matrix by the recursion S_m = T'_m (S_{m-1} (x) id) for
    m = 2..n (see the module docstring for why it equals the n!-term sum
    of braid lifts).  Degree m costs nnz(S_{m-1}) * d * m monomial steps.

    Entries are carried as counts of root-of-unity exponents, rotated by
    each step's exponent; after each degree the entries that sum to zero
    are dropped, and each distinct count vector is converted to a scalar
    once.  The column bound is checked on d^n before any work."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return ExactMatrix(1, 1, {(0, 0): CycScalar.one()})
    d, N = space.dim, space.cocycle.order
    size = d**degree
    if size > max_cols:
        raise BoundExceededError(
            f"degree {degree} needs {size} columns, bound is {max_cols}"
        )
    if degree == 1:
        return ExactMatrix(
            size, size, {(i, i): CycScalar.one() for i in range(size)}
        )
    unit = (1,) + (0,) * (N - 1)
    counts = {(i, i): unit for i in range(d)}
    values: dict[tuple[int, ...], CycScalar | None] = {}
    for m in range(2, degree + 1):
        # c_{m-1} acts first, then c_{m-2}, ..., c_1: the stops are the
        # images under c_k ... c_{m-1} for k = m (identity) down to 1.
        steps = TensorWords(space, m).generator_tables()[::-1]
        new: dict[tuple[int, int], list[int]] = {}
        for (t, s), slot in counts.items():
            for x in range(d):
                idx, e, col = t * d + x, 0, s * d + x
                _add_rotated(new, (idx, col), slot, e)
                for perm, delta in steps:
                    e += delta[idx]
                    idx = perm[idx]
                    _add_rotated(new, (idx, col), slot, e)
        counts = _nonzero(new, N, values)
    entries = {key: values[slot] for key, slot in counts.items()}
    return ExactMatrix(size, size, entries)


@dataclass(frozen=True)
class GradedReport:
    """Graded dimensions up to a cutoff.

    computed[n] is False when the dimension was inferred from an earlier
    zero (the graded algebra is generated in degree one, so a zero
    component forces all higher ones to vanish) rather than eliminated
    directly.
    """

    dims: tuple[int, ...]
    kernel_dims: tuple[int, ...]
    cutoff: int
    terminated_at: int | None
    computed: tuple[bool, ...]

    @property
    def total(self) -> int:
        return sum(self.dims)

    def to_json(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "dims": list(self.dims),
            "kernel_dims": list(self.kernel_dims),
            "terminated_at": self.terminated_at,
            "computed": list(self.computed),
            "total_up_to_cutoff": self.total,
        }


def hilbert_series(
    space: BraidedSpace, cutoff: int, max_cols: int = 10**4
) -> GradedReport:
    """Graded dimensions for degrees 0..cutoff.

    Each degree is built from the one below (see GradedBasis); the top
    degree eliminates one grade per conjugacy orbit of Inn(X) (see the
    module docstring).  Once a degree comes out zero, the remaining
    degrees are reported as zero without elimination.  If a degree has
    more candidate columns d * dim B^(n-1) than the bound, whether or not
    it eliminates them all, BoundExceededError carries the partial
    report."""
    dims: list[int] = []
    kernel_dims: list[int] = []
    computed: list[bool] = []
    terminated_at = None
    basis = None
    for n in range(cutoff + 1):
        if terminated_at is not None:
            dims.append(0)
            kernel_dims.append(space.dim**n)
            computed.append(False)
            continue
        try:
            if n == cutoff and basis is not None:
                rank = _dim_by_orbits(space, basis, max_cols)
            else:
                basis = GradedBasis(space, n, max_cols, previous=basis)
                rank = basis.dim
        except BoundExceededError as err:
            partial = GradedReport(
                tuple(dims), tuple(kernel_dims), n - 1, terminated_at, tuple(computed)
            )
            raise BoundExceededError(str(err), partial=partial) from None
        size = space.dim**n if n > 0 else 1
        dims.append(rank)
        kernel_dims.append(size - rank)
        computed.append(True)
        if rank == 0:
            terminated_at = n
    report = GradedReport(
        tuple(dims), tuple(kernel_dims), cutoff, terminated_at, tuple(computed)
    )
    _check_graded_report(space, report)
    return report


def _check_graded_report(space: BraidedSpace, report: GradedReport):
    if report.cutoff >= 0 and report.dims[0] != 1:
        raise InternalCheckError("degree-0 dimension must be 1")
    if report.cutoff >= 1 and report.dims[1] != space.dim:
        raise InternalCheckError("degree-1 dimension must be dim V")
    if report.cutoff >= 2:
        expected = quadratic_analysis(space).dim2
        if report.dims[2] != expected:
            raise InternalCheckError(
                f"degree-2 dimension {report.dims[2]} != d^2 - #QR = {expected}"
            )
    # B^n = B^{n-1} V
    for n in range(1, report.cutoff + 1):
        if report.dims[n] > space.dim * report.dims[n - 1]:
            raise InternalCheckError(
                f"degree-{n} dimension {report.dims[n]} exceeds "
                f"d * dim B^{n - 1} = {space.dim * report.dims[n - 1]}"
            )
    # Poincare duality of a finite-dimensional Nichols algebra
    if report.terminated_at is not None:
        nonzero = report.dims[: report.terminated_at]
        if nonzero != nonzero[::-1] or nonzero[-1] != 1:
            raise InternalCheckError(
                f"finite series {list(nonzero)} is not palindromic with "
                "a one-dimensional top degree"
            )


# ---------------------------------------------------------------------------
# Graded image bases
# ---------------------------------------------------------------------------


class GradedBasis:
    """One graded component B^n, built from B^(n-1) by braided
    skew-derivations (see the module docstring).  `tags` are the kept
    words, the lexicographically-first words whose images span B^n, in
    word-index order.  It is the only eliminator of a graded component:
    ranks, slice bases, products and coproducts are all read from it.

    The candidate of (kept b_j of B^(n-1), letter x) is the derivation
    vector of b_j v_x, keyed i*d + y for the coefficient of b_i in d_y; its
    y block is delta_{xy} e_j + q(y,x) R_{y|>x} D_y e_j.  Candidates of
    different grades (inner image and orbit letter counts of the word) have
    disjoint supports, so each grade has its own IncrementalSpan, whose
    certificate checks every dependence.  One grade's span runs to
    completion and is dropped before the next starts; positions are then
    assigned in candidate order, which is tag order, so the kept words
    and every scalar are those of one pass in candidate order.  Each
    degree keeps for the next:
    * derivations[i] = {y: D_y e_i}, over the kept basis of B^(n-1);
    * right[x][j] = coordinates of b_j v_x in this basis: e_i for a kept
      candidate, its certified combination else.
    `max_cols` bounds the candidate count d * dim B^(n-1).

    The elimination, the derivations and `_right` run over the `Field` of
    1 and the braiding scalars q(y,x); scalars leave the engine as
    CycScalars of the cocycle order, through `right`.  A degree holds
    nothing of the degree below it."""

    def __init__(
        self,
        space: BraidedSpace,
        degree: int,
        max_cols: int = 10**4,
        previous: "GradedBasis | None" = None,
    ):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.space = space
        self.degree = degree
        self.words = TensorWords(space, degree)
        self._exported_right: list[list[dict]] | None = None
        d, rack, cocycle = space.dim, space.rack, space.cocycle
        q = [[cocycle.value(y, x) for x in range(d)] for y in range(d)]
        self.field = field = Field(
            [CycScalar.one(cocycle.order)] + [v for row in q for v in row]
        )
        if degree == 0:
            self.tags = [0]
            self.derivations: list[dict] = [{}]
            self._right: list[list[dict]] = []
            self.grades = [(identity_perm(rack.n), (0,) * len(rack.orbits()))]
            return
        if previous is None:
            previous = GradedBasis(space, degree - 1, max_cols)
        elif previous.degree != degree - 1:
            raise ValueError("previous component must have degree one lower")
        candidates = _Candidates(space, previous, max_cols)
        # each grade's span runs to completion and is dropped before the
        # next; the outcomes are read back in candidate order below
        kept: dict[int, dict[int, dict[int, CycScalar]]] = {}  # c -> blocks
        dependent: dict[int, dict[int, CycScalar]] = {}  # c -> combination
        for grade in range(len(candidates.keys)):
            for c, vector, combination in candidates.eliminate(grade):
                if combination is not None:
                    dependent[c] = combination
                    continue
                blocks: dict[int, dict[int, CycScalar]] = {}
                for key, value in vector.items():
                    i, y = divmod(key, d)
                    blocks.setdefault(y, {})[i] = value
                kept[c] = blocks
        one = field.one
        position: dict[int, int] = {}
        self.tags, self.derivations, self.grades = [], [], []
        self._right = [[None] * previous.dim for _ in range(d)]
        for c in range(d * previous.dim):
            j, x = divmod(c, d)
            if c in kept:
                position[c] = len(self.tags)
                self._right[x][j] = {len(self.tags): one}
                self.tags.append(previous.tags[j] * d + x)
                self.grades.append(candidates.keys[candidates.grade_of[c]])
                self.derivations.append(kept.pop(c))
            else:
                self._right[x][j] = {
                    position[k]: value for k, value in dependent.pop(c).items()
                }

    @property
    def dim(self) -> int:
        return len(self.tags)

    @property
    def right(self) -> list[list[dict[int, CycScalar]]]:
        """right[x][j]: coordinates of b_j v_x in this basis, exported on
        first use."""
        if self._exported_right is None:
            export = self.field.export
            self._exported_right = [
                [{i: export(v) for i, v in row.items()} for row in rows]
                for rows in self._right
            ]
        return self._exported_right

    def times_letter(self, coords: dict, x: int) -> dict[int, CycScalar]:
        """Coordinates of b v_x in this degree, for b given by coordinates
        in the degree below."""
        out: dict[int, CycScalar] = {}
        rows = self.right[x]
        for j, coeff in coords.items():
            axpy(out, coeff, rows[j])
        return out


class _Candidates:
    """The candidates of degree n = previous.degree + 1: c = j*d + x
    stands for b_j v_x, with b_j the j-th kept element of B^(n-1).  Grade g
    (inner image and orbit letter counts of the word t_j x) is numbered in
    order of its first candidate; keys[g] is its key, members[g] its
    candidates in order, and grade_of[c] the grade of c.  `max_cols`
    bounds the candidate count d * dim B^(n-1).  The vectors are built
    over the lower degree's field."""

    def __init__(self, space: BraidedSpace, previous: GradedBasis, max_cols: int):
        d, rack = space.dim, space.rack
        count = d * previous.dim
        if count > max_cols:
            raise BoundExceededError(
                f"degree {previous.degree + 1} needs {count} candidate columns, "
                f"bound is {max_cols}"
            )
        self.space, self.previous = space, previous
        field = previous.field
        self.q = [
            [field.internal(space.cocycle.value(y, x)) for x in range(d)]
            for y in range(d)
        ]
        orbit_of = {x: k for k, block in enumerate(rack.orbits()) for x in block}
        ids: dict = {}
        self.grade_of: list[int] = []
        for perm, counts in previous.grades:
            for x in range(d):
                bumped = list(counts)
                bumped[orbit_of[x]] += 1
                key = (perm_compose(perm, rack.translation(x)), tuple(bumped))
                self.grade_of.append(ids.setdefault(key, len(ids)))
        self.keys = list(ids)
        self.members: list[list[int]] = [[] for _ in self.keys]
        for c, grade in enumerate(self.grade_of):
            self.members[grade].append(c)

    def eliminate(self, grade: int):
        """Insert the derivation vectors of one grade's candidates, in
        candidate order, into an IncrementalSpan of their own.  Yields
        (c, vector, None) for a kept candidate and (c, None, combination)
        for a dependent one, with its certified combination over the kept
        candidates.  The y block of b_j v_x is
        delta_{xy} e_j + q(y,x) R_{y|>x} D_y e_j."""
        d, op, q = self.space.dim, self.space.rack.op, self.q
        one = self.previous.field.one
        grade_of, derivations = self.grade_of, self.previous.derivations
        lower_right = self.previous._right
        span = IncrementalSpan()
        for c in self.members[grade]:
            j, x = divmod(c, d)
            vector: dict[int, CycScalar] = {}
            terms = [(c, one)]
            for y, coeffs in derivations[j].items():
                rows = lower_right[op(y, x)]
                qyx = q[y][x]
                for i2, coeff in coeffs.items():
                    scaled = qyx * coeff
                    terms.extend(
                        (i * d + y, scaled * value) for i, value in rows[i2].items()
                    )
            add_terms(vector, terms)
            if any(grade_of[key] != grade for key in vector):
                raise InternalCheckError("derivation vector leaves its grade")
            if span.add(vector, tag=c):
                yield c, vector, None
            else:
                yield c, None, span.combination

    def orbits(self) -> list[list[int]]:
        """The grades in orbits of Inn(X), acting by h -> phi_x h phi_x^-1
        on the inner image and fixing the counts; each orbit starts at its
        least grade.  Checked: the grades are closed under every phi_x, and
        the grades of an orbit have equal candidate counts.  Both follow
        from the lower degree's per-grade dimensions being constant on
        orbits, so they check that degree's symmetry."""
        rack = self.space.rack
        conjugations = [
            (phi, perm_inverse(phi)) for phi in map(rack.translation, range(rack.n))
        ]
        ids = {key: g for g, key in enumerate(self.keys)}
        seen = [False] * len(self.keys)
        out = []
        for start in range(len(self.keys)):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for g in orbit:  # grows while it is walked
                perm, counts = self.keys[g]
                for phi, inv in conjugations:
                    image = ids.get((perm_compose(perm_compose(phi, perm), inv), counts))
                    if image is None:
                        raise InternalCheckError(
                            f"degree {self.previous.degree + 1} candidate grades "
                            "are not closed under conjugation by Inn(X)"
                        )
                    if not seen[image]:
                        seen[image] = True
                        orbit.append(image)
            if len({len(self.members[g]) for g in orbit}) > 1:
                raise InternalCheckError(
                    f"degree {self.previous.degree + 1} grades of one Inn(X) "
                    "orbit have different candidate counts"
                )
            out.append(orbit)
        return out


def _dim_by_orbits(space: BraidedSpace, previous: GradedBasis, max_cols: int) -> int:
    """dim B^n for n = previous.degree + 1, eliminating one grade per
    Inn(X) orbit: the sum over orbits of |orbit| * rank(least grade).
    Exact because conjugate grades have equal dimensions (see the module
    docstring); it yields no basis, so only a top degree can use it."""
    candidates = _Candidates(space, previous, max_cols)
    return sum(
        len(orbit)
        * sum(combination is None for _, _, combination in candidates.eliminate(orbit[0]))
        for orbit in candidates.orbits()
    )


# ---------------------------------------------------------------------------
# Minimal elements and relators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalElement:
    """A support-minimal element of one graded component: its words and the
    representative vector (unique up to scalar, leading coefficient 1)."""

    degree: int
    words: tuple[RackWord, ...]
    vector: tuple[tuple[RackWord, CycScalar], ...]


def word_blocks(space: BraidedSpace, degree: int) -> list[list[int]]:
    """Partition of word indices under single braid-generator moves."""
    words = TensorWords(space, degree)
    parent = list(range(words.size))

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for perm, _ in words.generator_tables():
        for idx, tgt in enumerate(perm):
            a, b = find(idx), find(tgt)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for idx in range(words.size):
        blocks.setdefault(find(idx), []).append(idx)
    return [blocks[key] for key in sorted(blocks)]


def minimal_elements(
    space: BraidedSpace, degree: int, max_cols: int = 10**4
) -> list[MinimalElement]:
    """Support-minimal elements of the degree-n component, blockwise."""
    if degree < 1:
        return []
    words = TensorWords(space, degree)
    columns = symmetrizer_matrix(space, degree, max_cols).columns()
    out: list[MinimalElement] = []
    for block in word_blocks(space, degree):
        local = {idx: pos for pos, idx in enumerate(block)}
        spanning = []
        for idx in block:
            col = columns.get(idx)
            if col:
                spanning.append({local[r]: v for r, v in col.items()})
        if not spanning:
            continue
        found, _units = support_minimal_vectors(spanning, len(block))
        for support, rep in found:
            support_words = tuple(words.word(block[i]) for i in support)
            vector = tuple(
                (words.word(block[i]), rep[i]) for i in sorted(rep)
            )
            out.append(MinimalElement(degree, support_words, vector))
    out.sort(key=lambda m: m.words)
    return out


@dataclass(frozen=True)
class RelatorSet:
    """The free-group relators p q^-1 of the word pairs p ~ q read off
    the minimal supports of one degree."""

    degree: int
    relators: tuple[Word, ...]


@dataclass(frozen=True)
class CoveringRelators:
    per_degree: tuple[RelatorSet, ...]
    presentation: Presentation


def _pair_to_relator(p: RackWord, q: RackWord) -> Word:
    forward = tuple(x + 1 for x in p)
    backward = tuple(-(x + 1) for x in reversed(q))
    return free_reduce(forward + backward)


def covering_relators(
    space: BraidedSpace, max_degree: int, max_cols: int = 10**4
) -> CoveringRelators:
    """Extract group relators from minimal elements up to max_degree and
    assemble the presentation: the free group on the rack's elements
    modulo one relator p q^-1 per related word pair.

    Word pairs are the first support word against each other one; at
    degree two a pair is oriented along the braiding orbit (p, c(p))
    whenever the second word is the braiding image of the first.  If a
    degree exceeds a bound, BoundExceededError carries the result of the
    degrees below it."""
    per_degree = []
    all_relators: list[Word] = []
    for degree in range(2, max_degree + 1):
        relators: list[Word] = []
        try:
            elements = minimal_elements(space, degree, max_cols)
        except BoundExceededError as err:
            partial = CoveringRelators(
                per_degree=tuple(per_degree),
                presentation=Presentation.make(space.dim, all_relators),
            )
            raise BoundExceededError(str(err), partial=partial) from None
        for element in elements:
            base = element.words[0]
            for other in element.words[1:]:
                p, q = base, other
                if degree == 2:
                    if space.c_index(*q) == p:
                        p, q = q, p
                relators.append(_pair_to_relator(p, q))
        per_degree.append(RelatorSet(degree=degree, relators=tuple(relators)))
        all_relators.extend(relators)
    presentation = Presentation.make(space.dim, all_relators)
    return CoveringRelators(
        per_degree=tuple(per_degree),
        presentation=presentation,
    )
