"""Rack 2-cocycles, the braiding c(v_x (x) v_y) = q(x,y) v_{x|>y} (x) v_x,
its orbit decomposition on X x X, and the quadratic-relation analysis.

Every orbit O of the index map c(x,y) = (x|>y, x) spans a line-permuted
block V_O of V (x) V with basis theta_i = c^i(v_x (x) v_y); c acts on the
block by a cyclic monomial matrix whose loop scalar is
lambda = product of the q-values along the orbit.  The block matrix of
1 + c has determinant 1 + (-1)^(m-1) * lambda, so the block contributes a
(one-dimensional) kernel line exactly when lambda = (-1)^m.

Note on conventions: the braiding used throughout is
c(v_x (x) v_y) = q(x,y) v_{x|>y} (x) v_x (the rack form, with the first
tensor factor acting); kernel lines are detected by the sign criterion
lambda = (-1)^m, which is the vanishing locus of the determinant above.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cyclotomic import MAX_ORDER, CycScalar
from .errors import InternalCheckError, ValidationError, malformed, require_int
from .linalg import ExactMatrix, add_terms, determinant, rank_kernel
from .racks import Rack, transposition_elements, transpositions_rack


@dataclass(frozen=True)
class Cocycle:
    """q: X x X -> roots of unity, stored as exponents over one order N.

    The order and the exponents must be ints (a bool is not taken for
    one), with 1 <= N <= MAX_ORDER; the exponents are stored reduced mod N."""

    rack: Rack
    order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        message = "cocycle order N = {value!r} is not a positive integer"
        if require_int(self.order, message) < 1:
            raise ValidationError(message.format(value=self.order))
        if self.order > MAX_ORDER:
            raise ValidationError(f"cocycle order N = {self.order} exceeds {MAX_ORDER}")
        n = self.rack.n
        if len(self.exponents) != n or any(len(r) != n for r in self.exponents):
            raise ValidationError("cocycle exponent table has wrong shape")
        for x, row in enumerate(self.exponents):
            for y, e in enumerate(row):
                require_int(
                    e, "cocycle exponent {value!r} at ({x}, {y}) is not an integer",
                    x=x, y=y,
                )
        # stored reduced mod N, so equal cocycles have equal tables
        object.__setattr__(self, "exponents", tuple(
            tuple(e % self.order for e in row) for row in self.exponents
        ))

    def exponent(self, x: int, y: int) -> int:
        return self.exponents[x][y]

    def value(self, x: int, y: int) -> CycScalar:
        return CycScalar.root_of_unity(self.order, self.exponents[x][y])

    @classmethod
    def constant(cls, rack: Rack, order: int, k: int = 1) -> "Cocycle":
        """The constant cocycle q == zeta_order^k (always a valid cocycle)."""
        return cls(rack, order, ((k,) * rack.n,) * rack.n)

    @classmethod
    def constant_minus_one(cls, rack: Rack) -> "Cocycle":
        return cls.constant(rack, 2, 1)

    @classmethod
    def read_json(cls, rack: Rack, data: dict) -> "Cocycle":
        """The cocycle a JSON object describes, without the braid check."""
        with malformed("cocycle"):
            return cls(rack, data["N"], tuple(tuple(row) for row in data["exp"]))

    @classmethod
    def from_json(cls, rack: Rack, data: dict) -> "Cocycle":
        cocycle = cls.read_json(rack, data)
        ok, witness = braid_check(rack, cocycle)
        if not ok:
            raise ValidationError(f"cocycle fails the braid equation at {witness}")
        return cocycle

    def to_json(self) -> dict:
        return {"N": self.order, "exp": [list(r) for r in self.exponents]}


def chi_cocycle(n: int) -> Cocycle:
    """The sign cocycle on the transpositions of S_n: for y the pair (k, l)
    with k < l, chi(x, y) = +1 if x(k) < x(l) and -1 otherwise."""
    rack = transpositions_rack(n)
    elems = transposition_elements(n)
    # the rack builder lists the pair (k, l) in lexicographic order
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    exp = []
    for x in elems:
        row = []
        for (k, l) in pairs:
            row.append(0 if x[k] < x[l] else 1)
        exp.append(tuple(row))
    return Cocycle(rack, 2, tuple(exp))


@dataclass(frozen=True)
class BraidedSpace:
    """V = (kX, c^q): the braided vector space attached to a rack and cocycle.

    Construction validates the braid equation on all basis triples.
    """

    rack: Rack
    cocycle: Cocycle

    def __post_init__(self):
        if self.cocycle.rack.table != self.rack.table:
            raise ValidationError("cocycle belongs to a different rack")
        ok, witness = braid_check(self.rack, self.cocycle)
        if not ok:
            raise ValidationError(
                f"braiding fails the braid equation at triple {witness}"
            )

    @property
    def dim(self) -> int:
        return self.rack.n

    def c_index(self, x: int, y: int) -> tuple[int, int]:
        return (self.rack.op(x, y), x)


def braid_check(rack: Rack, cocycle: Cocycle) -> tuple[bool, tuple | None]:
    """Verify (c(x)1)(1(x)c)(c(x)1) = (1(x)c)(c(x)1)(1(x)c) on basis triples.

    Returns (True, None) or (False, witness_triple), the witness being the
    first failing (x, y, z) in lexicographic order.  Both sides send
    v_x (x) v_y (x) v_z to a multiple of a word ending in (x|>y, x): the
    left side to ((x|>y)|>(x|>z), x|>y, x) with exponent
    q(x,y) + q(x,z) + q(x|>y, x|>z), the right side to
    (x|>(y|>z), x|>y, x) with exponent q(y,z) + q(x, y|>z) + q(x,y).  So
    the equation holds at (x, y, z) exactly when

        (x|>y)|>(x|>z) = x|>(y|>z)  and
        q(x,z) + q(x|>y, x|>z) = q(y,z) + q(x, y|>z)  (mod N),

    which is checked for all z at once, one (x, y) row at a time.
    """
    N = cocycle.order
    table = rack.table
    exp = cocycle.exponents
    for x, (row_x, exp_x) in enumerate(zip(table, exp)):
        for y, (row_y, exp_y) in enumerate(zip(table, exp)):
            xy = row_x[y]
            row_xy, exp_xy = table[xy], exp[xy]
            words_l = [row_xy[xz] for xz in row_x]
            words_r = [row_x[yz] for yz in row_y]
            exps_l = [(e + exp_xy[xz]) % N for xz, e in zip(row_x, exp_x)]
            exps_r = [(e + exp_x[yz]) % N for yz, e in zip(row_y, exp_y)]
            if words_l != words_r or exps_l != exps_r:
                z = next(
                    z for z in range(rack.n)
                    if words_l[z] != words_r[z] or exps_l[z] != exps_r[z]
                )
                return False, (x, y, z)
    return True, None


@dataclass(frozen=True)
class OrbitData:
    """One orbit of c on X x X with its tensor-line data.

    pairs: the orbit in cyclic order starting at its minimal pair.
    lam: the scalar with c^m acting by it on the orbit line.
    kernel_dim: 1 when lambda = (-1)^m (then sum (-1)^i theta_i spans the
    kernel of 1 + c on the block), else 0.
    """

    pairs: tuple[tuple[int, int], ...]
    lam: CycScalar
    kernel_dim: int
    is_diagonal: bool

    @property
    def size(self) -> int:
        return len(self.pairs)

    def one_plus_c_matrix(self) -> ExactMatrix:
        """1 + c on the block, in the theta basis: ones on the diagonal and
        subdiagonal, lambda in the upper-right corner."""
        m = self.size
        entries: dict[tuple[int, int], CycScalar] = {}
        one = CycScalar.one()
        for i in range(m):
            entries[(i, i)] = one
        for i in range(m - 1):
            entries[(i + 1, i)] = one
        add_terms(entries, [((0, m - 1), self.lam)])
        return ExactMatrix(m, m, entries)

    def kernel_vector(self) -> dict[int, CycScalar] | None:
        """sum (-1)^i theta_i in theta coordinates, when the kernel is there."""
        if not self.kernel_dim:
            return None
        return {
            i: CycScalar.rational((-1) ** i) for i in range(self.size)
        }


def c_orbits(space: BraidedSpace) -> list[OrbitData]:
    """All orbits of c on X x X, sorted by their minimal pair."""
    n = space.rack.n
    N = space.cocycle.order
    seen = set()
    orbits = []
    for x in range(n):
        for y in range(n):
            start = (x, y)
            if start in seen:
                continue
            pairs = []
            acc = 0
            cur = start
            while True:
                pairs.append(cur)
                seen.add(cur)
                acc += space.cocycle.exponent(*cur)
                cur = space.c_index(*cur)
                if cur == start:
                    break
            m = len(pairs)
            lam = CycScalar.root_of_unity(N, acc)
            # independent recomputation of lambda as the q-product
            product = CycScalar.one()
            for (a, b) in pairs:
                product = product * space.cocycle.value(a, b)
            if product != lam:
                raise InternalCheckError("orbit scalar mismatch")
            sign = CycScalar.rational((-1) ** m)
            kernel_dim = 1 if lam == sign else 0
            orbit = OrbitData(
                pairs=tuple(pairs),
                lam=lam,
                kernel_dim=kernel_dim,
                is_diagonal=(m == 1 and x == y),
            )
            orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class CensusReport:
    histogram: tuple[tuple[int, int], ...]  # (size, count), sorted
    total: int


def c_orbit_census(space: BraidedSpace) -> CensusReport:
    orbits = c_orbits(space)
    sizes: dict[int, int] = {}
    covered = 0
    for o in orbits:
        sizes[o.size] = sizes.get(o.size, 0) + 1
        covered += o.size
    if covered != space.dim**2:
        raise InternalCheckError("orbits do not partition X x X")
    return CensusReport(
        histogram=tuple(sorted(sizes.items())),
        total=len(orbits),
    )


@dataclass(frozen=True)
class FkCensusRow:
    """Closed-form orbit counts for the transposition rack of S_n."""

    n: int
    size1: int
    size2: int
    size3: int
    total: int
    excess: int


def fk_census_formula(n: int) -> FkCensusRow:
    """Orbit counts on transpositions of S_n: sizes 1, 2, 3 in closed form,
    the total f(n) = n(3n^3 - 10n^2 + 21n - 14)/24, and the excess of the
    total over C(d, 2) with d = C(n, 2)."""
    if n < 3:
        raise ValidationError("census formula needs n >= 3")
    d = comb(n, 2)
    size1 = d
    size2 = comb(n, 2) * comb(n - 2, 2) // 2
    size3 = 2 * comb(n, 3)
    poly = n * (3 * n**3 - 10 * n**2 + 21 * n - 14)
    if poly % 24:
        raise InternalCheckError("census polynomial not divisible by 24")
    total = poly // 24
    if total != size1 + size2 + size3:
        raise InternalCheckError("census breakdown does not sum to f(n)")
    return FkCensusRow(n, size1, size2, size3, total, total - comb(d, 2))


@dataclass(frozen=True)
class QuadraticReport:
    """Kernel of 1 + c orbit by orbit.

    total_qr = dim ker(1 + c) on V (x) V; dim2 = d^2 - total_qr is the
    dimension of the quadratic graded component.
    """

    space: BraidedSpace
    orbits: tuple[OrbitData, ...]
    total_qr: int
    dim2: int

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def many(self) -> bool:
        """Many quadratic relations: dim ker(1 + c) >= d(d-1)/2."""
        d = self.space.dim
        return self.total_qr >= d * (d - 1) // 2

    @property
    def full(self) -> bool:
        """Every non-diagonal orbit contributes a kernel line."""
        return all(o.kernel_dim == 1 for o in self.orbits if not o.is_diagonal)


def quadratic_analysis(space: BraidedSpace) -> QuadraticReport:
    """Per-orbit kernel dimensions by the sign criterion, each cross-checked
    against the exact rank of 1 + c on the block, and against the explicit
    kernel vector when present.  The block matrix is a function of (m,
    lambda) alone, so the determinant, rank and kernel-vector checks run
    once per distinct block, and every orbit with an equal (m, lambda) is
    compared against that block's verified nullity."""
    orbits = c_orbits(space)
    blocks: list[tuple[int, CycScalar, int]] = []  # verified (m, lambda, nullity)
    total = 0
    for orbit in orbits:
        m, lam = orbit.size, orbit.lam
        nullity = next(
            (k for size, value, k in blocks if size == m and value == lam), None
        )
        if nullity is None:
            matrix = orbit.one_plus_c_matrix()
            det = determinant(matrix)
            expected = CycScalar.one() + lam * ((-1) ** (m - 1))
            if det != expected:
                raise InternalCheckError(
                    f"block determinant {det} != 1 + (-1)^(m-1) lambda at {orbit.pairs[0]}"
                )
            rank = rank_kernel(matrix)[0]
            vec = orbit.kernel_vector()
            if vec is not None and matrix.apply(vec):
                raise InternalCheckError(
                    f"alternating theta sum not annihilated at {orbit.pairs[0]}"
                )
            nullity = m - rank
            blocks.append((m, lam, nullity))
        if nullity != orbit.kernel_dim:
            raise InternalCheckError(
                f"sign criterion disagrees with exact rank at {orbit.pairs[0]}"
            )
        total += nullity
    d = space.dim
    return QuadraticReport(
        space=space,
        orbits=tuple(orbits),
        total_qr=total,
        dim2=d * d - total,
    )
