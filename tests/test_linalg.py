import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from rackcover.cyclotomic import CycScalar, Field, root_of_unity
from rackcover.errors import BoundExceededError, InternalCheckError, NonSquareError
from rackcover.linalg import (
    ExactMatrix,
    IncrementalSpan,
    abelian_invariants,
    add_terms,
    axpy,
    determinant,
    inverse,
    rank_kernel,
    smith_normal_form,
    support_minimal_vectors,
)
from rackcover import linalg
from tests.oracle_support import _eliminate, reference_support_minimal_vectors


def orbit_matrix(m, lam):
    """Matrix of 1 + c on a braiding orbit of size m with loop scalar lam:
    ones on the diagonal and subdiagonal, lam in the upper-right corner."""
    entries = {}
    if m == 1:
        entries[(0, 0)] = CycScalar.one() + lam
    else:
        for i in range(m):
            entries[(i, i)] = CycScalar.one()
        for i in range(m - 1):
            entries[(i + 1, i)] = CycScalar.one()
        entries[(0, m - 1)] = lam
    return ExactMatrix(m, m, entries)


def cofactor_det(rows):
    """Independent determinant oracle: Laplace expansion on the first row."""
    n = len(rows)
    if n == 0:
        return CycScalar.one()
    if n == 1:
        return rows[0][0]
    total = CycScalar.zero()
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [
            [row[k] for k in range(n) if k != j] for row in rows[1:]
        ]
        term = rows[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def dense(matrix):
    zero = CycScalar.zero(matrix.order)
    out = [[zero for _ in range(matrix.cols)] for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        out[r][c] = v
    return out


# --- rank / kernel ---------------------------------------------------------


def test_rank_identity():
    eye = ExactMatrix(3, 3, {(i, i): CycScalar.one() for i in range(3)})
    r, kernel = rank_kernel(eye)
    assert r == 3 and kernel == []


def test_rank_zero_matrix():
    z = ExactMatrix(2, 5, {})
    r, kernel = rank_kernel(z)
    assert r == 0 and len(kernel) == 5


def test_orbit_matrix_m4_lambda1():
    m = orbit_matrix(4, CycScalar.one())
    r, kernel = rank_kernel(m)
    assert r == 3
    assert len(kernel) == 1
    assert determinant(m) == 0


def test_rank_kernel_checks_every_kernel_vector(monkeypatch):
    # the check multiplies each kernel vector through the column index: a
    # zero column is dependent on nothing and passes, a wrong certified
    # combination is caught
    matrix = ExactMatrix(1, 3, {(0, 0): 1, (0, 1): 1})
    rank, kernel = rank_kernel(matrix)
    assert rank == 1
    assert kernel == [{1: CycScalar.one(), 0: -CycScalar.one()}, {2: CycScalar.one()}]
    add = IncrementalSpan.add

    def doubled_combination(self, vector, tag):
        kept = add(self, vector, tag)
        self.combination = {k: 2 * w for k, w in self.combination.items()}
        return kept

    monkeypatch.setattr(IncrementalSpan, "add", doubled_combination)
    with pytest.raises(InternalCheckError, match="annihilated"):
        rank_kernel(matrix)


def test_rank_kernel_randomized_identities():
    rng = random.Random(11)
    orders = [1, 2, 3, 4, 6]
    for trial in range(200):
        n = orders[trial % len(orders)]
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.5:
                    k = rng.randint(0, n - 1)
                    num = rng.randint(-2, 2)
                    if num:
                        entries[(r, c)] = root_of_unity(n, k) * num
        a = ExactMatrix(rows, cols, entries)
        ra, kernel = rank_kernel(a)
        transposed = {(c, r): v for (r, c), v in entries.items()}
        rt, _ = rank_kernel(ExactMatrix(cols, rows, transposed))
        assert ra == rt
        assert ra + len(kernel) == cols
        for vec in kernel:
            assert a.apply(vec) == {}


# --- determinant -----------------------------------------------------------


def test_determinant_orbit_examples():
    minus_one = CycScalar.rational(-1)
    assert determinant(orbit_matrix(2, minus_one)) == 2
    assert determinant(orbit_matrix(3, minus_one)) == 0
    assert determinant(orbit_matrix(1, minus_one)) == 0


def test_determinant_formula_vs_cofactor():
    lams = [
        CycScalar.one(),
        CycScalar.rational(-1),
        root_of_unity(3),
        -root_of_unity(3),
        root_of_unity(4),
        -root_of_unity(4),
    ]
    for m in range(1, 9):
        for lam in lams:
            mat = orbit_matrix(m, lam)
            formula = CycScalar.one() + lam * ((-1) ** (m - 1))
            assert determinant(mat) == formula
            assert cofactor_det(dense(mat)) == formula


def test_determinant_nonsquare():
    with pytest.raises(NonSquareError):
        determinant(ExactMatrix(2, 3, {}))


def test_determinant_random_vs_cofactor():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        order = rng.choice([1, 2, 3, 4])
        entries = {}
        for r in range(n):
            for c in range(n):
                if rng.random() < 0.7:
                    entries[(r, c)] = root_of_unity(order, rng.randint(0, order - 1)) * rng.randint(-2, 2)
        mat = ExactMatrix(n, n, entries)
        assert determinant(mat) == cofactor_det(dense(mat))


# --- Smith normal form -----------------------------------------------------


def test_snf_empty_relations():
    fr, torsion = abelian_invariants([], 3)
    assert fr == 3 and torsion == ()


def test_snf_2x2_example():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.diag == (1, 6)
    assert res.free_rank == 0


def test_snf_s3_transposition_relations():
    # pairs (x, y) among the transpositions a=(12), b=(13), c=(23) abelianize
    # to e_y - e_{x|>y}
    rows = [
        [0, 1, -1],
        [0, -1, 1],
        [1, 0, -1],
        [-1, 0, 1],
        [1, -1, 0],
        [-1, 1, 0],
    ]
    fr, torsion = abelian_invariants(rows, 3)
    assert fr == 1 and torsion == ()


def test_snf_randomized_vs_sympy():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(mat)
        d = sympy_snf(sympy.Matrix(mat))
        expected = [abs(int(d[i, i])) for i in range(min(rows, cols)) if d[i, i] != 0]
        # sympy emits a divisibility-normalized chain as well
        assert list(res.diag) == expected
        for i in range(1, len(res.diag)):
            assert res.diag[i] % res.diag[i - 1] == 0


def test_snf_check_trips_on_any_wrong_entry():
    # U*M*V = D is checked entry for entry: changing one entry of U, V or
    # the diagonal at any position is caught
    mat = [[2, 4, 4], [-6, 6, 12], [10, -4, -16], [1, 0, 3]]
    res = smith_normal_form(mat)
    for which in ("U", "V"):
        table = getattr(res, which)
        for i, row in enumerate(table):
            for j in range(len(row)):
                row[j] += 1
                with pytest.raises(InternalCheckError):
                    linalg._check_snf(mat, res)
                row[j] -= 1
    linalg._check_snf(mat, res)
    res.diag = res.diag[:-1] + (res.diag[-1] + 1,)
    with pytest.raises(InternalCheckError):
        linalg._check_snf(mat, res)


# --- support-minimal vectors ------------------------------------------------


def as_vec(values):
    return {
        i: CycScalar.rational(v)
        for i, v in enumerate(values)
        if v
    }


def brute_force_minimal(vectors, ambient):
    """Oracle: test every support subset for solvability via sympy nullspace."""
    basis = sympy.Matrix([[Fraction(v.get(i, 0) and v[i].as_rational()) if v.get(i) else Fraction(0) for i in range(ambient)] for v in vectors])
    basis = [basis.row(i) for i in range(basis.rows)]
    k = sympy.Matrix.vstack(*basis).rank() if basis else 0

    def solvable(support):
        outside = [i for i in range(ambient) if i not in support]
        if not vectors:
            return False
        m = sympy.Matrix(
            [[vectors[j].get(i).as_rational() if vectors[j].get(i) else 0 for j in range(len(vectors))] for i in outside]
        )
        full = sympy.Matrix(
            [[vectors[j].get(i).as_rational() if vectors[j].get(i) else 0 for j in range(len(vectors))] for i in range(ambient)]
        )
        # nonzero combination vanishing outside the support and not everywhere
        null = m.nullspace() if outside else [sympy.Matrix([int(i == j) for i in range(len(vectors))]) for j in range(len(vectors))]
        for vec in null:
            if any(full * vec):
                return True
        return False

    solvable_sets = [
        frozenset(s)
        for size in range(1, ambient + 1)
        for s in combinations(range(ambient), size)
        if solvable(frozenset(s))
    ]
    minimal = [
        s
        for s in solvable_sets
        if not any(t < s for t in solvable_sets)
    ]
    units = {next(iter(s)) for s in minimal if len(s) == 1}
    supports = sorted(
        (tuple(sorted(s)) for s in minimal if len(s) >= 2),
        key=lambda t: (len(t), t),
    )
    return supports, units


def test_support_minimal_spec_example():
    vectors = [as_vec([1, 1, 0]), as_vec([0, 1, 1])]
    found, units = support_minimal_vectors(vectors, 3)
    assert units == set()
    supports = [sup for sup, _ in found]
    assert supports == [(0, 1), (0, 2), (1, 2)]
    reps = {sup: rep for sup, rep in found}
    assert reps[(0, 1)] == as_vec([1, 1, 0])
    assert reps[(1, 2)] == {1: CycScalar.one(), 2: CycScalar.one()}
    assert reps[(0, 2)] == {0: CycScalar.one(), 2: CycScalar.rational(-1)}


def test_support_minimal_full_space():
    vectors = [as_vec([1, 0, 0]), as_vec([0, 1, 0]), as_vec([0, 0, 1])]
    found, units = support_minimal_vectors(vectors, 3)
    assert found == []
    assert units == {0, 1, 2}


def test_support_minimal_zero_space():
    found, units = support_minimal_vectors([], 4)
    assert found == [] and units == set()


def test_support_minimal_vs_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        ambient = rng.randint(2, 8)
        dim = rng.randint(0, 4)
        vectors = []
        for _ in range(dim):
            vec = [rng.randint(-2, 2) if rng.random() < 0.6 else 0 for _ in range(ambient)]
            vectors.append(as_vec(vec))
        vectors = [v for v in vectors if v]
        found, units = support_minimal_vectors(vectors, ambient)
        expected_supports, expected_units = brute_force_minimal(vectors, ambient)
        assert [sup for sup, _ in found] == expected_supports
        assert units == expected_units
        # representatives live in the span and have the right support
        for sup, rep in found:
            assert tuple(sorted(rep)) == sup


def random_rref_basis(rng, ambient, dim, order):
    """Rows of a random reduced echelon matrix: pivot entries 1, and the
    non-pivot columns filled sparsely with small multiples of roots of
    unity of `order`, sometimes summed to non-monomial scalars."""
    zeta = root_of_unity(order) if order > 1 else CycScalar.one()
    pivots = sorted(rng.sample(range(ambient), dim))
    rows = []
    for r, p in enumerate(pivots):
        row = {p: CycScalar.one(order)}
        for c in range(p + 1, ambient):
            if c in pivots or rng.random() < 0.45:
                continue
            value = rng.choice((1, -1, 2)) * zeta ** rng.randrange(max(order, 1))
            if rng.random() < 0.3:
                value = value + zeta ** rng.randrange(max(order, 1))
            if value:
                row[c] = value
        rows.append(row)
    return rows


def assert_same_stored_scalars(found, expected):
    """`==` compares scalars by value; this also pins the order each one is
    stored at, and its coordinates there."""
    assert found == expected
    for (_, vec), (_, ref) in zip(found[0], expected[0]):
        assert list(vec) == list(ref)
        for c, value in vec.items():
            assert type(value) is CycScalar
            assert (value.order, value.coeffs) == (ref[c].order, ref[c].coeffs)


def rational_at(basis, order):
    """The basis with every value stored again at `order`; all rational."""
    return [
        {c: CycScalar.rational(v.as_rational(), order) for c, v in vec.items()}
        for vec in basis
    ]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_support_minimal_matches_reference_cuts(order):
    # the depth-first cut walk against one rank_kernel per constraint set
    rng = random.Random(100 + order)
    for _ in range(6):
        dim = rng.randint(1, 6)
        ambient = rng.randint(dim, 14)
        basis = random_rref_basis(rng, ambient, dim, order)
        assert_same_stored_scalars(
            support_minimal_vectors(basis, ambient),
            reference_support_minimal_vectors(basis, ambient),
        )


def test_support_minimal_rational_values_keep_their_stored_order():
    # rational values held at order 3 are searched over Q and come back at
    # order 3; one non-rational entry sends the same basis down the
    # CycScalar path, with the orders the reference gives
    rng = random.Random(131)
    z3 = root_of_unity(3)
    for _ in range(6):
        dim = rng.randint(2, 5)
        ambient = rng.randint(dim + 1, 12)
        basis = rational_at(random_rref_basis(rng, ambient, dim, 1), 3)
        field = Field(v for vec in basis for v in vec.values())
        assert field.rational and field.order == 3
        found = support_minimal_vectors(basis, ambient)
        assert_same_stored_scalars(found, reference_support_minimal_vectors(basis, ambient))
        assert all(v.order == 3 for _, vec in found[0] for v in vec.values())

        mixed = [dict(vec) for vec in basis]
        row = mixed[rng.randrange(dim)]
        row[rng.choice([c for c in range(ambient) if c not in row])] = z3
        assert not Field(v for vec in mixed for v in vec.values()).rational
        assert_same_stored_scalars(
            support_minimal_vectors(mixed, ambient),
            reference_support_minimal_vectors(mixed, ambient),
        )


def test_support_minimal_field_choice(monkeypatch):
    # the search runs over the Field of the spanning entries: over Q its
    # span holds Python numbers, else the CycScalars as given
    one, z4 = CycScalar.one, root_of_unity(4)
    seen = []
    add = IncrementalSpan.add

    def spy(self, vector, tag):
        seen.extend(type(v) for v in vector.values())
        return add(self, vector, tag)

    monkeypatch.setattr(IncrementalSpan, "add", spy)
    half = CycScalar.rational(Fraction(1, 2), 2)
    found, _ = support_minimal_vectors([{0: one(2), 1: half}, {1: one(2), 2: one(2)}], 3)
    assert set(seen) == {int, Fraction}
    assert all(v.order == 2 for _, vec in found for v in vec.values())
    seen.clear()
    support_minimal_vectors([{0: one(4), 1: z4}, {1: one(4), 2: one(4)}], 3)
    assert set(seen) == {CycScalar}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_support_minimal_ignores_spanning_order_and_dependents(order):
    # the walk starts from the spanning vectors one span keeps, which
    # depend on their order; the supports, vectors, stored orders and unit
    # coordinates must not
    rng = random.Random(300 + order)
    kept_differ = False
    for _ in range(8):
        dim = rng.randint(1, 5)
        ambient = rng.randint(dim + 1, 11)
        basis = random_rref_basis(rng, ambient, dim, order)
        expected = support_minimal_vectors(basis, ambient)
        for _ in range(3):
            spanning = [dict(vec) for vec in basis]
            for _ in range(rng.randint(1, 3)):
                combo = {}
                for vec in rng.sample(basis, rng.randint(1, dim)):
                    axpy(combo, _random_scalar(rng, order), vec)
                if combo:
                    spanning.append(combo)
            rng.shuffle(spanning)
            span = IncrementalSpan()
            for tag, vec in enumerate(spanning):
                span.add(vec, tag)
            kept_differ |= [spanning[t] for t in span.kept] != basis
            assert_same_stored_scalars(support_minimal_vectors(spanning, ambient), expected)
    assert kept_differ


def test_support_minimal_mixed_rational_orders_come_back_at_the_lcm():
    # rational values, the first row stored at order 2 and the others at
    # order 3, are searched over Q; every vector found is stored at order 6
    # and equals by value the search over CycScalars
    rng = random.Random(151)
    count = 0
    for _ in range(6):
        dim = rng.randint(2, 5)
        ambient = rng.randint(dim + 1, 12)
        basis = random_rref_basis(rng, ambient, dim, 1)
        mixed = rational_at(basis[:1], 2) + rational_at(basis[1:], 3)
        found = support_minimal_vectors(mixed, ambient)
        assert found == reference_support_minimal_vectors(mixed, ambient)
        for _, vec in found[0]:
            assert all(type(v) is CycScalar and v.order == 6 for v in vec.values())
            count += 1
    assert count


def test_support_minimal_cut_vector_check(monkeypatch):
    # a pivot step that drops a holder without eliminating the constraint
    # from the others leaves a leaf vector that does not vanish on it
    def skip_elimination(vectors, coord):
        holder = next(vec for vec in vectors if coord in vec)
        return [vec for vec in vectors if vec is not holder]

    monkeypatch.setattr(linalg, "_cut", skip_elimination)
    vectors = [as_vec([1, 0, 1, 1]), as_vec([0, 1, 1, 2])]
    with pytest.raises(InternalCheckError, match="vanish"):
        support_minimal_vectors(vectors, 4)


def test_support_minimal_reaches_each_support_once(monkeypatch):
    # columns 0 and 1 are parallel, so x0 = 0 and x1 = 0 cut out the same
    # line; the walk enters the flat they span once, by coordinate 0, and
    # a walk entering every held coordinate reaches support {2} twice
    vectors = [as_vec([1, 2, 0]), as_vec([0, 0, 1])]
    assert support_minimal_vectors(vectors, 3) == ([((0, 1), as_vec([1, 2, 0]))], {2})

    def every_held(cut, coords):
        return [i for i in coords if any(i in vec for vec in cut)]

    monkeypatch.setattr(linalg, "_class_leaders", every_held)
    with pytest.raises(InternalCheckError, match="reached twice"):
        support_minimal_vectors(vectors, 3)


def with_parallel_columns(rng, basis, ambient, extra, order):
    """The basis with `extra` more columns, each a copy of a random held
    column scaled by 1, -1, 2, 3 or a root of unity of `order`, and the
    columns shuffled."""
    zeta = root_of_unity(order) if order > 1 else CycScalar.one()
    scales = [CycScalar.rational(s, order) for s in (1, -1, 2, 3)]
    scales += [zeta ** k for k in range(1, order)]
    held = sorted({c for vec in basis for c in vec})
    copies = [(rng.choice(held), rng.choice(scales)) for _ in range(extra)]
    place = list(range(ambient + extra))
    rng.shuffle(place)
    wide = []
    for vec in basis:
        row = dict(vec)
        for k, (source, scale) in enumerate(copies):
            if source in vec:
                row[ambient + k] = vec[source] * scale
        wide.append({place[c]: v for c, v in row.items()})
    return wide, ambient + extra


@pytest.mark.parametrize("order", [1, 3, 4])
def test_support_minimal_with_parallel_columns_matches_reference(order):
    # the walk skips every coordinate parallel to an earlier held one over
    # its cut; duplicated and scaled columns make such classes at every depth
    rng = random.Random(700 + order)
    for _ in range(12):
        dim = rng.randint(1, 5)
        ambient = rng.randint(dim, 9)
        basis = random_rref_basis(rng, ambient, dim, order)
        wide, wide_ambient = with_parallel_columns(
            rng, basis, ambient, rng.randint(1, 4), order
        )
        assert_same_stored_scalars(
            support_minimal_vectors(wide, wide_ambient),
            reference_support_minimal_vectors(wide, wide_ambient),
        )


def test_support_minimal_step_bound(monkeypatch):
    # the bound counts the walk's pivot steps: a search of exactly k steps
    # completes at bound k and stops at bound k - 1
    vectors = [as_vec([1, 0, 0, 1, 1, 0, 1, 0]), as_vec([0, 1, 0, 1, 0, 1, 1, 1]),
               as_vec([0, 0, 1, 0, 1, 1, 1, 2])]
    cut, steps = linalg._cut, []

    def counted(vectors, coord):
        steps.append(coord)
        return cut(vectors, coord)

    monkeypatch.setattr(linalg, "_cut", counted)
    expected = support_minimal_vectors(vectors, 8)
    k = len(steps)
    assert k > 0
    monkeypatch.setattr(linalg, "MAX_SUPPORT_STEPS", k)
    assert support_minimal_vectors(vectors, 8) == expected
    monkeypatch.setattr(linalg, "MAX_SUPPORT_STEPS", k - 1)
    with pytest.raises(BoundExceededError, match=f"^support search exceeds {k - 1} pivot steps$"):
        support_minimal_vectors(vectors, 8)


# --- incremental span -------------------------------------------------------


def test_incremental_span_coordinates():
    span = IncrementalSpan()
    v1 = as_vec([1, 2, 0])
    v2 = as_vec([0, 1, 1])
    v3 = as_vec([1, 3, 1])  # v1 + v2, dependent
    assert span.add(v1, tag=10)
    assert span.add(v2, tag=20)
    assert not span.add(v3, tag=30)
    assert span.kept == [10, 20]
    coords = span.coordinates(v3)
    assert coords == {10: CycScalar.one(), 20: CycScalar.one()}
    assert span.coordinates(as_vec([0, 0, 0, 1])) is None
    assert span.coordinates(v1) is not None


def test_incremental_span_certifies_each_dependence():
    # a dependence is checked against the vectors as inserted: a pivot row
    # tampered from e0 + 2 e1 to e0 + 3 e1 reduces (1, 3, 0) to zero, and
    # the combination 1 * (1, 2, 0) it reports is caught
    span = IncrementalSpan()
    assert span.add(as_vec([1, 2, 0]), tag=0)
    col, _neg_tail, expr = span._pivots[0]
    span._pivots[0] = (col, {1: CycScalar.rational(-3)}, expr)
    with pytest.raises(InternalCheckError):
        span.add(as_vec([1, 3, 0]), tag=1)
    assert span.kept == [0]


class MinPivotSpan:
    """Reference span: IncrementalSpan's reduction with each kept vector
    pivoted on the lowest column of its residual."""

    def __init__(self):
        self.pivots = []
        self.kept = []
        self.combination = {}

    def _reduce(self, vector):
        residual, combo = dict(vector), {}
        for col, neg_tail, expr in self.pivots:
            coeff = residual.pop(col, None)
            if coeff is not None:
                axpy(residual, coeff, neg_tail)
                axpy(combo, coeff, expr)
        return residual, combo

    def add(self, vector, tag):
        residual, combo = self._reduce(vector)
        if not residual:
            self.combination = combo
            return False
        col = min(residual)
        inv = inverse(residual.pop(col))
        expr = {tag: inv}
        axpy(expr, -inv, combo)
        self.pivots.append((col, {c: -inv * v for c, v in residual.items()}, expr))
        self.kept.append(tag)
        return True

    def coordinates(self, vector):
        residual, combo = self._reduce(vector)
        return None if residual else combo


def _random_scalar(rng, order):
    """A small nonzero scalar: an int or Fraction for order 0, else a
    CycScalar of the order with a few root-of-unity terms."""
    if order == 0:
        return rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    while True:
        value = CycScalar.zero(order)
        for _ in range(rng.randint(1, 2)):
            root = root_of_unity(order, rng.randrange(order))
            value = value + rng.choice([1, -1, 2]) * root
        if value:
            return value


def _random_stream(rng, order, ambient, count):
    """Sparse vectors in which about a third are combinations of earlier
    ones, so that dependent adds and their combinations occur."""
    stream = []
    for _ in range(count):
        if len(stream) >= 2 and rng.random() < 0.35:
            vec = {}
            for earlier in rng.sample(stream, rng.randint(2, min(3, len(stream)))):
                axpy(vec, _random_scalar(rng, order), earlier)
        else:
            vec = {
                c: _random_scalar(rng, order)
                for c in rng.sample(range(ambient), rng.randint(1, 4))
            }
        if vec:
            stream.append(vec)
    return stream


@pytest.mark.parametrize("order", [1, 2, 3, 4, 0], ids=[
    "order-1", "order-2", "order-3", "order-4", "int-fraction"])
def test_fewest_tails_pivots_agree_with_lowest_column_pivots(order):
    rng = random.Random(100 + order)
    pivots_differ = False
    dependent_adds = 0
    for _ in range(12):
        ambient = rng.randint(6, 14)
        stream = _random_stream(rng, order, ambient, rng.randint(8, 20))
        span, reference = IncrementalSpan(), MinPivotSpan()
        for tag, vec in enumerate(stream):
            kept = span.add(vec, tag)
            assert kept == reference.add(vec, tag)
            if not kept:
                dependent_adds += 1
                assert span.combination == reference.combination
        assert span.kept == reference.kept
        columns = [p[0] for p in span._pivots]
        pivots_differ |= columns != [p[0] for p in reference.pivots]
        queries = _random_stream(rng, order, ambient, 10) + stream
        for vec in queries:
            assert span.coordinates(vec) == reference.coordinates(vec)
    # the comparison is only a test if the two rules chose different pivots
    assert pivots_differ and dependent_adds


def test_inverse_of_python_numbers_is_exact():
    assert inverse(-1) == -1 and type(inverse(-1)) is int
    assert inverse(2) == Fraction(1, 2)
    assert inverse(Fraction(-1, 3)) == -3 and type(inverse(Fraction(-1, 3))) is int
    assert inverse(root_of_unity(3)) == root_of_unity(3, 2)


# --- sparse accumulation kernel -----------------------------------------------


def test_axpy_drops_cancelled_entry_and_keeps_source():
    target = as_vec([1, 2, 3])
    source = as_vec([1, 0, 3, 4])
    snapshot = dict(source)
    axpy(target, CycScalar.rational(-1), source)
    assert target == {1: CycScalar.rational(2), 3: CycScalar.rational(-4)}
    assert source == snapshot


def test_kernel_never_stores_zero():
    rng = random.Random(5)
    target = {}
    for _ in range(200):
        key = rng.randrange(4)
        add_terms(target, [(key, CycScalar.rational(rng.randint(-2, 2) or 1))])
        assert all(not value.is_zero for value in target.values())
    axpy(target, CycScalar.rational(-1), dict(target))
    assert target == {}


def test_kernel_mixes_field_orders():
    z3 = root_of_unity(3)
    minus_one = root_of_unity(2)  # -1 stored over Q(zeta_2)
    target = {0: z3, 1: CycScalar.one(3)}
    # -1 * (z3 + z3^2) = 1 over Q(zeta_6): the cancellation crosses orders
    axpy(target, minus_one, {0: z3, 1: z3 + z3 * z3, 2: CycScalar.one()})
    # zero-free dicts compare exactly with ==, whatever order a value is kept in
    assert target == {1: CycScalar.rational(2), 2: CycScalar.rational(-1)}
    assert target[1].order == 6
    add_terms(target, [(1, CycScalar.rational(-2))])
    assert target == {2: -CycScalar.one()}


def test_unit_coordinates_match_span_membership():
    rng = random.Random(23)
    for _ in range(80):
        ambient = rng.randint(1, 7)
        vectors = []
        for _ in range(rng.randint(1, ambient)):
            vec = [rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(ambient)]
            vectors.append(as_vec(vec))
        vectors = [v for v in vectors if v]
        span = IncrementalSpan()
        for tag, vec in enumerate(vectors):
            span.add(vec, tag)
        expected = {
            i for i in range(ambient)
            if span.coordinates({i: CycScalar.one()}) is not None
        }
        pivots = _eliminate(vectors)
        assert {col for col, row in pivots if len(row) == 1} == expected
        _, units = support_minimal_vectors(vectors, ambient)
        assert units == (expected if vectors else set())


def test_elimination_leaves_inputs_unchanged():
    rng = random.Random(29)
    z3 = root_of_unity(3)
    vectors = [
        {c: z3 ** rng.randrange(3) for c in range(6) if rng.random() < 0.6}
        for _ in range(5)
    ]
    vectors = [v for v in vectors if v]
    snapshot = [dict(v) for v in vectors]
    matrix = ExactMatrix(
        len(vectors), 6, {(r, c): x for r, v in enumerate(vectors) for c, x in v.items()}
    )
    entries = dict(matrix.entries)
    _eliminate(vectors)
    rank_kernel(matrix)
    support_minimal_vectors(vectors, 6)
    span = IncrementalSpan()
    for tag, vec in enumerate(vectors):
        span.add(vec, tag)
        span.coordinates(vec)
    square = ExactMatrix(6, 6, {(r, c): x for (r, c), x in entries.items()})
    determinant(square)
    assert vectors == snapshot
    assert matrix.entries == entries
