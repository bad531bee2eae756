import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackcover.braiding import BraidedSpace, Cocycle, chi_cocycle, quadratic_analysis
from rackcover.cyclotomic import CycScalar, root_of_unity
from rackcover.errors import BoundExceededError, InternalCheckError
from rackcover import nichols
from rackcover.groups import identity_perm, perm_compose, perm_inverse
from rackcover.linalg import IncrementalSpan, add_terms, axpy, rank_kernel
from rackcover.nichols import (
    GradedBasis,
    GradedReport,
    MinimalElement,
    TensorWords,
    _check_graded_report,
    covering_relators,
    hilbert_series,
    minimal_elements,
    symmetrizer_matrix,
    word_blocks,
)
from rackcover.presentations import relator_key
from rackcover.racks import (
    Rack,
    abelian_rack,
    affine_rack,
    catalog,
    transpositions_rack,
)
from tests.oracle_dense import (
    dense_symmetrizer_columns,
    gaussian_factorial,
    oracle_graded_dims,
)
from tests.oracle_shuffle import (
    apply_word,
    apply_word_to_vector,
    compose_word,
    inversion_count,
    matsumoto_lift,
    shuffle_perms,
)
from tests.oracle_support import reference_support_minimal_vectors


def space_const_minus_one(rack):
    return BraidedSpace(rack, Cocycle.constant_minus_one(rack))


def chi_space(n):
    cocycle = chi_cocycle(n)
    return BraidedSpace(cocycle.rack, cocycle)


def rank_one_space(order, k=1):
    rack = abelian_rack(1)
    return BraidedSpace(rack, Cocycle(rack, order, ((k,),)))


def cartan_zeta3_space():
    rack = abelian_rack(2)
    return BraidedSpace(rack, Cocycle(rack, 3, ((1, 1), (1, 1))))


# --- reduced words (tests/oracle_shuffle.py) ------------------------------------


def test_matsumoto_lift_basics():
    assert matsumoto_lift((0, 1, 2)) == ()
    assert matsumoto_lift((1, 0)) == (1,)
    assert matsumoto_lift((1, 0, 2)) == (1,)
    longest = matsumoto_lift((2, 1, 0))
    assert len(longest) == 3


def test_matsumoto_words_are_reduced_and_correct():
    for n in (2, 3, 4, 5):
        for perm in permutations(range(n)):
            word = matsumoto_lift(perm)
            assert len(word) == inversion_count(perm)
            assert compose_word(word, n) == perm


def random_reduced_word(perm, rng):
    """A random reduced word via random right descents (independent of the
    canonical greedy-left-descent choice)."""
    p = list(perm)
    n = len(p)
    word = []
    while True:
        descents = [i for i in range(n - 1) if p[i] > p[i + 1]]
        if not descents:
            break
        i = rng.choice(descents)
        p[i], p[i + 1] = p[i + 1], p[i]
        word.append(i + 1)
    return tuple(reversed(word))


def test_matsumoto_independence_of_reduced_word():
    rng = random.Random(23)
    spaces = [
        chi_space(3),
        space_const_minus_one(affine_rack(5, 2)),
        cartan_zeta3_space(),
    ]
    for trial in range(100):
        space = spaces[trial % len(spaces)]
        n = rng.randint(2, 5 if space.dim <= 3 else 3)
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        word_a = matsumoto_lift(perm)
        word_b = random_reduced_word(perm, rng)
        assert len(word_b) == inversion_count(perm)
        assert compose_word(word_b, n) == perm
        words = TensorWords(space, n)
        for idx in range(words.size):
            assert apply_word(words, word_a, idx)[0] == apply_word(words, word_b, idx)[0]
            ea = apply_word(words, word_a, idx)[1] % space.cocycle.order
            eb = apply_word(words, word_b, idx)[1] % space.cocycle.order
            assert ea == eb


# --- symmetrizer ranks vs oracle ----------------------------------------------


def test_symmetrizer_rank_degree2_matches_quadratic_analysis():
    for space in (
        chi_space(3),
        chi_space(4),
        space_const_minus_one(transpositions_rack(3)),
        space_const_minus_one(affine_rack(5, 3)),
        cartan_zeta3_space(),
    ):
        report = quadratic_analysis(space)
        assert GradedBasis(space, 2).dim == report.dim2


def test_hilbert_series_s3_transpositions_vs_oracle():
    space = space_const_minus_one(transpositions_rack(3))
    report = hilbert_series(space, 6)
    assert report.dims == (1, 3, 4, 3, 1, 0, 0)
    assert report.total == 12
    assert report.terminated_at == 5
    assert report.computed == (True, True, True, True, True, True, False)
    # independent dense oracle, every degree eliminated directly
    assert tuple(oracle_graded_dims(space, 5)) == (1, 3, 4, 3, 1, 0)
    # the inferred degree-6 zero confirmed directly: the symmetrizer matrix
    # at degree 6 cancels to nothing entrywise
    assert symmetrizer_matrix(space, 6).entries == {}


def test_rank_one_gaussian_factorial():
    for order in (2, 3, 4):
        space = rank_one_space(order)
        q = root_of_unity(order)
        for n in range(0, order + 1):
            expected = 0 if gaussian_factorial(q, n).is_zero else 1
            assert GradedBasis(space, n).dim == expected
        report = hilbert_series(space, order)
        assert report.dims == tuple([1] * order + [0])


def test_rank_one_trivial_cocycle_polynomial_algebra():
    rack = abelian_rack(1)
    space = BraidedSpace(rack, Cocycle(rack, 1, ((0,),)))
    report = hilbert_series(space, 3)
    assert report.dims == (1, 1, 1, 1)
    assert report.terminated_at is None


def test_cartan_zeta3_dims_vs_oracle():
    space = cartan_zeta3_space()
    report = hilbert_series(space, 3)
    assert report.dims == tuple(oracle_graded_dims(space, 3))
    assert report.dims[2] == 4  # d^2 - 0 quadratic relations


def test_cartan_zeta3_full_series():
    # type A2 at a primitive cube root of unity: series (3)_t^2 (3)_{t^2},
    # top degree 8, dimension 27
    report = hilbert_series(cartan_zeta3_space(), 10)
    assert report.dims == (1, 2, 4, 4, 5, 4, 4, 2, 1, 0, 0)
    assert report.terminated_at == 9
    assert report.total == 27


def test_hilbert_series_bound_carries_partial():
    space = space_const_minus_one(transpositions_rack(3))
    with pytest.raises(BoundExceededError) as err:
        hilbert_series(space, 6, max_cols=10)
    partial = err.value.partial
    # degree 3 has 3 * dim B^2 = 12 > 10 candidate columns
    assert partial.dims == (1, 3, 4)


def test_hilbert_series_invariant_under_relabeling():
    space = chi_space(3)
    moved = _relabeled(space, 5)
    assert hilbert_series(space, 4).dims == hilbert_series(moved, 4).dims


def _constant_space(name, order):
    rack = catalog(name)
    return BraidedSpace(rack, Cocycle.constant(rack, order))


def zeta4_diagonal_space():
    rack = abelian_rack(2)
    return BraidedSpace(rack, Cocycle(rack, 4, ((1, 2), (3, 1))))


# (space, top degree); degree 5 only where d <= 3
ORACLE_SPACES = {
    "transpositions3-minus1": (lambda: _constant_space("transpositions:3", 2), 5),
    "transpositions3-chi": (lambda: chi_space(3), 5),
    "transpositions3-zeta3": (lambda: _constant_space("transpositions:3", 3), 5),
    "abelian2-zeta3": (cartan_zeta3_space, 5),
    "abelian2-zeta4": (zeta4_diagonal_space, 5),
    "tetrahedron-minus1": (lambda: _constant_space("tetrahedron", 2), 4),
    "affine52-minus1": (lambda: _constant_space("affine:5,2", 2), 4),
}


@pytest.mark.parametrize("name", list(ORACLE_SPACES))
def test_symmetrizer_entries_match_dense_oracle(name):
    # entry for entry, so the order of the factors of T'_n is pinned: the
    # mirrored sum of c_{n-1} ... c_k gives dimension 12, not 3, at S3
    # degree 3
    build, top = ORACLE_SPACES[name]
    space = build()
    for degree in range(top + 1):
        words = TensorWords(space, degree)
        expected = {
            (words.index(image), words.index(start)): value
            for start, column in dense_symmetrizer_columns(space, degree).items()
            for image, value in column.items()
        }
        assert symmetrizer_matrix(space, degree).entries == expected


SMALL_RACKS = [
    "abelian:1", "abelian:2", "abelian:3", "abelian:4", "affine:3,2",
    "dihedral:3", "dihedral:4", "transpositions:3", "tetrahedron",
    "reflections_D4",
]


@given(
    name=st.sampled_from(SMALL_RACKS),
    seed=st.integers(0, 2**16),
    order=st.integers(1, 4),
    degree=st.integers(2, 4),
)
def test_ranks_match_oracle_under_relabeling(name, seed, order, degree):
    space = _constant_space(name, order)
    perm = list(range(space.dim))
    random.Random(seed).shuffle(perm)
    relabeled = space.rack.relabel(tuple(perm))
    moved = BraidedSpace(relabeled, Cocycle.constant(relabeled, order))
    ranks = [GradedBasis(space, n).dim for n in range(degree + 1)]
    assert ranks == oracle_graded_dims(space, degree)
    assert ranks == [GradedBasis(moved, n).dim for n in range(degree + 1)]


# --- the derivation engine against the symmetrizer and the dense oracle --------

ENGINE_SPACES = {
    f"{name}-{order}": (lambda name=name, order=order: _constant_space(name, order))
    for name in SMALL_RACKS
    for order in (1, 2, 3, 4, 6)
}
ENGINE_SPACES["transpositions:3-chi"] = lambda: chi_space(3)
ENGINE_SPACES["transpositions:4-chi"] = lambda: chi_space(4)


def kept_vectors(basis, lower):
    """S_n e_t for each kept word t of `basis`, as sparse word-index
    vectors, read off its derivations as iterated derivations,
    S_n[y_1 ... y_n, t] = d_{y_1} ... d_{y_n} t; `lower` holds the kept
    vectors of the degree below.  Scalars have order 1 in degrees 0 and 1
    and the cocycle order above, as the entries of `symmetrizer_matrix`."""
    if basis.degree <= 1:
        return [{t: CycScalar.one()} for t in basis.tags]
    d = basis.space.dim
    out = []
    for blocks in basis.derivations:
        vector = {}
        for y, coeffs in blocks.items():
            for i, coeff in coeffs.items():
                coeff = basis.field.export(coeff)
                add_terms(vector, ((w * d + y, coeff * v) for w, v in lower[i].items()))
        out.append(vector)
    return out


def _small_degrees(space):
    """Degrees 0..n with d^n <= 216 and n <= 5."""
    top = 0
    while top < 5 and space.dim ** (top + 1) <= 216:
        top += 1
    return range(top + 1)


@pytest.mark.parametrize("name", list(ENGINE_SPACES))
def test_engine_matches_symmetrizer_path(name):
    # dims, kept words and kept vectors (value and stored field order)
    # against the lexicographically-first columns of the symmetrizer
    space = ENGINE_SPACES[name]()
    basis = vectors = None
    for degree in _small_degrees(space):
        basis = GradedBasis(space, degree, previous=basis)
        vectors = kept_vectors(basis, vectors)
        columns = symmetrizer_matrix(space, degree).columns()
        span = IncrementalSpan()
        for tag in sorted(columns):
            span.add(columns[tag], tag)
        assert basis.dim == span.dim
        assert basis.tags == span.kept
        for tag, vector in zip(basis.tags, vectors):
            column = columns[tag]
            assert vector == column
            assert {k: v.order for k, v in vector.items()} == {
                k: v.order for k, v in column.items()
            }


@pytest.mark.parametrize("name", list(ENGINE_SPACES))
def test_engine_dims_match_dense_oracle(name):
    space = ENGINE_SPACES[name]()
    degrees = _small_degrees(space)
    basis, dims = None, []
    for degree in degrees:
        basis = GradedBasis(space, degree, previous=basis)
        dims.append(basis.dim)
    assert dims == oracle_graded_dims(space, degrees[-1])


def _relabeled(space, seed):
    """The space with its rack elements renamed by a seeded shuffle."""
    perm = list(range(space.dim))
    random.Random(seed).shuffle(perm)
    rack = space.rack.relabel(tuple(perm))
    exp = [[0] * space.dim for _ in range(space.dim)]
    for x in range(space.dim):
        for y in range(space.dim):
            exp[perm[x]][perm[y]] = space.cocycle.exponents[x][y]
    return BraidedSpace(rack, Cocycle(rack, space.cocycle.order, tuple(map(tuple, exp))))


@settings(max_examples=60)
@given(
    name=st.sampled_from(list(ENGINE_SPACES)),
    seed=st.integers(0, 2**16),
    degree=st.integers(1, 5),
)
def test_top_degree_by_orbits_matches_full_engine(name, seed, degree):
    # hilbert_series eliminates one grade per Inn(X) orbit at its top
    # degree; every degree below it runs the full engine
    space = _relabeled(ENGINE_SPACES[name](), seed)
    top = min(degree, _small_degrees(space)[-1])
    basis, dims = None, []
    for n in range(top + 1):
        basis = GradedBasis(space, n, previous=basis)
        dims.append(basis.dim)
    assert hilbert_series(space, top).dims == tuple(dims)


def _conjugate(rack, x, perm):
    phi = rack.translation(x)
    return perm_compose(perm_compose(phi, perm), perm_inverse(phi))


@pytest.mark.parametrize("name,order,top", [
    ("dihedral:4", 2, 5), ("reflections_D4", 3, 4), ("tetrahedron", 6, 5),
    ("transpositions:4", "chi", 5), ("affine:3,2", 4, 5), ("affine:5,2", 2, 6),
    ("transpositions:4", 2, 6),
])
def test_full_engine_dims_are_constant_on_conjugacy_orbits(name, order, top):
    # g_x v_y = q(x,y) v_{x|>y} is a graded automorphism of B(V), mapping
    # the grade (h, counts) onto (phi_x h phi_x^-1, counts)
    space = chi_space(4) if order == "chi" else _constant_space(name, order)
    rack = space.rack
    basis = None
    for degree in range(top + 1):
        basis = GradedBasis(space, degree, previous=basis)
        dims = Counter(basis.grades)
        assert len(dims) > 1 or degree < 2
        for (perm, counts), dim in dims.items():
            for x in range(rack.n):
                assert dims[(_conjugate(rack, x, perm), counts)] == dim


def _break_orbits(monkeypatch, corrupt):
    original = nichols._Candidates.orbits

    def corrupted(self):
        corrupt(self)
        return original(self)

    monkeypatch.setattr(nichols._Candidates, "orbits", corrupted)


def test_orbit_check_catches_a_grade_set_not_closed_under_conjugation(monkeypatch):
    # degree 3 of the chi space has the three transpositions as inner
    # images; swapping one for the identity leaves the others' conjugates
    # without a grade
    space = chi_space(3)

    def identity_grade(candidates):
        candidates.keys[0] = (identity_perm(3), candidates.keys[0][1])

    _break_orbits(monkeypatch, identity_grade)
    with pytest.raises(InternalCheckError, match="not closed under conjugation"):
        hilbert_series(space, 3)


def test_orbit_check_catches_unequal_candidate_counts(monkeypatch):
    space = chi_space(3)
    _break_orbits(monkeypatch, lambda candidates: candidates.members[0].pop())
    with pytest.raises(InternalCheckError, match="different candidate counts"):
        hilbert_series(space, 3)


# --- the kept words as a Groebner staircase ---------------------------------

STAIRCASE_SPACES = {
    "transpositions3-minus1": (lambda: _constant_space("transpositions:3", 2), 5),
    "transpositions3-chi": (lambda: chi_space(3), 5),
    "transpositions4-minus1": (lambda: _constant_space("transpositions:4", 2), 12),
    "transpositions4-chi": (lambda: chi_space(4), 12),
    "affine52-one": (lambda: _constant_space("affine:5,2", 1), 5),
    "tetrahedron-zeta6": (lambda: _constant_space("tetrahedron", 6), 6),
    "abelian2-zeta3": (cartan_zeta3_space, 8),
}


@pytest.mark.parametrize("name", list(STAIRCASE_SPACES))
def test_top_degree_skip_keeps_the_full_engine_dim(name):
    # every degree, taken as a top degree that leaves out the words whose
    # suffix is not kept, has the dimension of the full engine's degree
    build, top = STAIRCASE_SPACES[name]
    space = build()
    lower = GradedBasis(space, 0)
    for degree in range(1, top + 1):
        top_dim = nichols._dim_by_orbits(space, lower, 10**4)
        lower = GradedBasis(space, degree, previous=lower)
        assert top_dim == lower.dim, degree


@pytest.mark.parametrize("name,order,degree,dim,candidates,skipped", [
    ("transpositions:3", 3, 5, 111, 50, 12),
    ("transpositions:4", 2, 4, 71, 57, 39),
])
def test_top_degree_skip_counts(
    monkeypatch, name, order, degree, dim, candidates, skipped
):
    # candidates and skipped words over the representative grades, one per
    # Inn(X) orbit
    space = _constant_space(name, order)
    inserted = []
    original = nichols._Candidates.eliminate

    def recording(self, grade, members):
        inserted.append((len(self.members[grade]), len(members)))
        return original(self, grade, members)

    lower = GradedBasis(space, degree - 1)
    monkeypatch.setattr(nichols._Candidates, "eliminate", recording)
    assert nichols._dim_by_orbits(space, lower, 10**4) == dim
    assert sum(total for total, _ in inserted) == candidates
    assert sum(total - kept for total, kept in inserted) == skipped


def test_suffix_check_catches_a_kept_set_not_closed_under_suffixes():
    # a word that degree 2 does not keep stands in for the suffix of a
    # kept word of degree 3 whose prefix is another kept word
    space = space_const_minus_one(transpositions_rack(3))
    d = space.dim
    lower = GradedBasis(space, 2)
    upper = GradedBasis(space, 3, previous=lower)
    tag = next(t for t in upper.tags if t // d != t % d**2)
    outside = next(w for w in range(d**2) if w not in lower.tags)
    lower.tags[lower.tags.index(tag % d**2)] = outside
    with pytest.raises(InternalCheckError, match="suffix"):
        GradedBasis(space, 3, previous=lower)


def test_engine_runs_sign_valued_order_four_cocycle_over_ints():
    # q == zeta_4^2 = -1 takes rational values only, so the engine holds
    # ints as for const:-1, keeps the same words in every degree, and
    # exports the same values at order 4
    rack = transpositions_rack(4)
    quartic = BraidedSpace(rack, Cocycle.constant(rack, 4, 2))
    minus_one = space_const_minus_one(rack)
    basis = sign = vectors = sign_vectors = None
    for degree in range(7):
        basis = GradedBasis(quartic, degree, previous=basis)
        sign = GradedBasis(minus_one, degree, previous=sign)
        vectors = kept_vectors(basis, vectors)
        sign_vectors = kept_vectors(sign, sign_vectors)
        held = [v for blocks in basis.derivations for coeffs in blocks.values()
                for v in coeffs.values()]
        held += [v for rows in basis._right for row in rows for v in row.values()]
        assert all(type(v) is int for v in held)
        assert (basis.dim, basis.tags) == (sign.dim, sign.tags)
        assert basis.right == sign.right
        assert vectors == sign_vectors
        exported = [v for rows in basis.right for row in rows for v in row.values()]
        if degree >= 2:
            exported += [v for vector in vectors for v in vector.values()]
        assert all(type(v) is CycScalar and v.order == 4 for v in exported)


def test_engine_over_zeta6_meets_non_integral_coordinates():
    # the constant order-6 cocycle on the tetrahedron rack: the engine runs
    # over Q(zeta_6), and dividing by non-unit pivots leaves 58 of the 2901
    # degree-6 right multiplications with non-integral coordinates
    space = _constant_space("tetrahedron", 6)
    basis, dims = None, []
    for degree in range(7):
        basis = GradedBasis(space, degree, previous=basis)
        dims.append(basis.dim)
        if degree <= 4:
            assert basis.dim == rank_kernel(symmetrizer_matrix(space, degree))[0]
    assert dims == [1, 4, 12, 33, 88, 232, 596]
    entries = [v for rows in basis.right for row in rows for v in row.values()]
    assert len(entries) == 2901
    assert sum(any(type(c) is Fraction for c in v.coeffs) for v in entries) == 58


def test_engine_over_zeta3_builds_no_fraction(monkeypatch):
    # Q(zeta_3) arithmetic holds int coordinates over one denominator, so
    # the transpositions:3 series builds no Fraction at all
    built = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    report = hilbert_series(_constant_space("transpositions:3", 3), 5)
    assert report.dims == (1, 3, 9, 21, 50, 111)
    assert built == []
    assert Fraction(1, 3) and len(built) == 1  # the spy sees a construction


def _bracket_series(*brackets):
    """Coefficients of the product of (k)_t = 1 + t + ... + t^(k-1)."""
    coeffs = [1]
    for k in brackets:
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


def _check_full_series(space, brackets, total):
    expected = _bracket_series(*brackets)
    top = len(expected) - 1
    report = hilbert_series(space, top + 1)
    _check_graded_report(space, report)
    assert report.dims == expected + (0,)
    assert report.terminated_at == top + 1
    assert report.total == total


def test_full_series_tetrahedron():
    # (2)^2 (3) (6), top degree 9
    _check_full_series(_constant_space("tetrahedron", 2), (2, 2, 3, 6), 72)


@pytest.mark.parametrize("space", [
    lambda: _constant_space("transpositions:4", 2),
    lambda: chi_space(4),
    lambda: _constant_space("four_cycles_S4", 2),
], ids=["transpositions4-minus1", "transpositions4-chi", "four_cycles_S4-minus1"])
def test_full_series_fomin_kirillov_4(space):
    # (2)^2 (3)^2 (4)^2, top degree 12
    _check_full_series(space(), (2, 2, 3, 3, 4, 4), 576)


def test_full_series_affine_5_2():
    # (4)^4 (5), top degree 16
    _check_full_series(_constant_space("affine:5,2", 2), (4, 4, 4, 4, 5), 1280)


@pytest.mark.parametrize("name,brackets,degree,last", [
    ("transpositions:5", (4, 4, 4, 4, 5, 5, 6, 6, 6, 6), 7, 10410),
    ("affine:7,3", (6, 6, 6, 6, 6, 6, 7), 8, 2828),
], ids=["fomin-kirillov-5", "affine-7-3"])
def test_series_prefix_of_large_nichols_algebras(name, brackets, degree, last):
    # published series (4)^4 (5)^2 (6)^4, dimension 8294400, and (6)^6 (7),
    # dimension 326592, up to a degree a test can reach; the top degree
    # takes one grade per conjugacy orbit, FK_5's from 10 * 4761 = 47610
    # candidates
    space = _constant_space(name, 2)
    report = hilbert_series(space, degree, max_cols=50000)
    _check_graded_report(space, report)
    assert report.dims == _bracket_series(*brackets)[: degree + 1]
    assert report.dims[-1] == last


def _report(dims, terminated_at=None):
    return GradedReport(
        dims=tuple(dims),
        kernel_dims=(0,) * len(dims),
        cutoff=len(dims) - 1,
        terminated_at=terminated_at,
        computed=(True,) * len(dims),
    )


@pytest.mark.parametrize(
    "dims,terminated_at",
    [
        ((1, 3, 4, 13), None),  # 13 > 3 * 4
        ((1, 3, 4, 3, 2, 0), 5),  # top degree not one-dimensional
        ((1, 3, 4, 4, 1, 0), 5),  # not palindromic
    ],
)
def test_graded_report_invariants_reject_bad_series(dims, terminated_at):
    space = chi_space(3)
    _check_graded_report(space, _report((1, 3, 4, 3, 1, 0), 5))
    with pytest.raises(InternalCheckError):
        _check_graded_report(space, _report(dims, terminated_at))


# --- shuffle factorization ------------------------------------------------------


def matrix_equal(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        return False
    keys = set(a.entries) | set(b.entries)
    zero = CycScalar.zero()
    return all(
        a.entries.get(k, zero) == b.entries.get(k, zero) for k in keys
    )


def test_symmetrizer_factors_through_shuffles():
    # S_{m+n} = (sum of shuffle lifts) o (S_m (x) S_n)
    space = chi_space(3)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        total = m + n
        words = TensorWords(space, total)
        lower_m = symmetrizer_matrix(space, m)
        lower_n = symmetrizer_matrix(space, n)
        d = space.dim
        shuffles = [matsumoto_lift(p) for p in shuffle_perms(m, n)]
        entries = {}
        for col in range(words.size):
            um, un = divmod(col, d**n)
            # (S_m (x) S_n) e_col = column um of S_m tensor column un of S_n
            left = {r: v for (r, c), v in lower_m.entries.items() if c == um}
            right = {r: v for (r, c), v in lower_n.entries.items() if c == un}
            vec = {}
            for rm, vm in left.items():
                for rn, vn in right.items():
                    vec[rm * d**n + rn] = vm * vn
            acc = {}
            for letters in shuffles:
                image = apply_word_to_vector(words, letters, vec)
                for r, v in image.items():
                    cur = acc.get(r)
                    val = v if cur is None else cur + v
                    if val.is_zero:
                        acc.pop(r, None)
                    else:
                        acc[r] = val
            for r, v in acc.items():
                entries[(r, col)] = v
        from rackcover.linalg import ExactMatrix

        assembled = ExactMatrix(words.size, words.size, entries)
        direct = symmetrizer_matrix(space, total)
        assert matrix_equal(assembled, direct)


def test_shuffle_perm_count():
    from math import comb

    for m, n in ((1, 1), (2, 1), (2, 2), (3, 2)):
        perms = shuffle_perms(m, n)
        assert len(perms) == comb(m + n, m)
        for p in perms:
            assert list(p[:m]) == sorted(p[:m])
            assert list(p[m:]) == sorted(p[m:])


# --- graded bases ----------------------------------------------------------------


def test_graded_basis_keeps_symmetrizer_columns():
    # each kept vector, read off the engine as iterated derivations, is the
    # symmetrizer column of its kept word, entry for entry in value and in
    # stored field order, and solves to its own basis position
    space = chi_space(3)
    basis = vectors = None
    for degree in range(0, 5):
        basis = GradedBasis(space, degree, previous=basis)
        vectors = kept_vectors(basis, vectors)
        columns = symmetrizer_matrix(space, degree).columns()
        assert len(vectors) == basis.dim == len(basis.tags)
        span = IncrementalSpan()
        for i, vector in enumerate(vectors):
            assert span.add(vector, tag=i)
        for i, (tag, vector) in enumerate(zip(basis.tags, vectors)):
            column = columns[tag]
            assert vector == column
            assert {k: v.order for k, v in vector.items()} == {
                k: v.order for k, v in column.items()
            }
            assert span.coordinates(column) == {i: CycScalar.one()}


def test_graded_basis_dimensions_and_coordinates():
    space = space_const_minus_one(transpositions_rack(3))
    for degree in range(0, 4):
        basis = GradedBasis(space, degree)
        assert basis.dim == hilbert_series(space, degree).dims[degree]
    basis = GradedBasis(space, 2)
    d = space.dim
    # every symmetrizer column solves exactly in the span of the kept
    # columns, and the column of the word t_j x solves to right[x][j]
    columns = symmetrizer_matrix(space, 2).columns()
    span = IncrementalSpan()
    for i, tag in enumerate(basis.tags):
        assert span.add(columns[tag], tag=i)
    for c in range(d**2):
        col = columns.get(c, {})
        coords = span.coordinates(col)
        assert coords is not None
        assert all(not coeff.is_zero for coeff in coords.values())
        rebuilt = {}
        for pos, coeff in coords.items():
            axpy(rebuilt, coeff, columns[basis.tags[pos]])
        assert rebuilt == col
        j, x = divmod(c, d)
        assert coords == basis.right[x][j]


def test_graded_basis_holds_no_lower_degree():
    # a degree keeps the derivations and right multiplications it needs,
    # not the basis it was built from
    space = chi_space(3)
    lower = GradedBasis(space, 2)
    ref = weakref.ref(lower)
    basis = GradedBasis(space, 3, previous=lower)
    del lower
    gc.collect()
    assert ref() is None
    assert basis.dim == 3


# --- minimal elements -----------------------------------------------------------


def test_minimal_elements_degree2_chi3():
    space = chi_space(3)
    elements = minimal_elements(space, 2)
    # two non-diagonal orbits of size 3, each contributing all three
    # two-word supports; diagonal kernels contribute nothing
    assert len(elements) == 6
    for element in elements:
        assert len(element.words) == 2
    # supports within one orbit: words related by one or two braiding steps
    orbit_pairs = {
        frozenset({w, space.c_index(*w)}) for w in [e.words[0] for e in elements]
    }
    assert all(len(e.words) == 2 for e in elements)


def test_minimal_elements_match_theta_picture():
    # one size-3 orbit with kernel: supports {0,1},{0,2},{1,2} in the theta
    # basis; representatives with unit leading coefficient
    space = space_const_minus_one(transpositions_rack(3))
    elements = minimal_elements(space, 2)
    by_block = {}
    for e in elements:
        block = frozenset(e.words)
        by_block.setdefault(min(e.words), []).append(e)
    # each non-diagonal orbit contributes exactly 3 minimal supports
    sizes = sorted(len(v) for v in by_block.values())
    assert len(elements) == 6


def test_minimal_elements_no_kernel_orbit_gives_none():
    space = cartan_zeta3_space()
    assert minimal_elements(space, 2) == []


def test_minimal_elements_diagonal_kernel_gives_none():
    # q(x,x) = -1 makes the diagonal line a kernel line: the image vanishes
    # there, so no minimal elements arise from those blocks
    space = space_const_minus_one(abelian_rack(1))
    assert minimal_elements(space, 2) == []


@pytest.mark.parametrize("rack, degree", [
    pytest.param("tetrahedron", 3, id="tetrahedron"),
    pytest.param("transpositions:4", 3, id="transpositions:4"),
    # blocks of 135 words at rank 3
    pytest.param("tetrahedron", 5, id="tetrahedron-5"),
])
def test_minimal_elements_match_reference_support_search(rack, degree, monkeypatch):
    space = space_const_minus_one(catalog(rack))
    walked = minimal_elements(space, degree)
    monkeypatch.setattr(nichols, "support_minimal_vectors",
                        reference_support_minimal_vectors)
    assert walked == minimal_elements(space, degree)
    assert walked


def test_word_blocks_partition():
    space = chi_space(3)
    for degree in (2, 3):
        blocks = word_blocks(space, degree)
        total = sum(len(b) for b in blocks)
        assert total == space.dim**degree


# --- covering relators ------------------------------------------------------------


def test_covering_relators_s3_reproduce_enveloping():
    from rackcover.envgroup import enveloping_presentation

    space = chi_space(3)
    result = covering_relators(space, 2)
    extracted = {relator_key(rel) for rel in result.presentation.relators}
    enveloping = enveloping_presentation(transpositions_rack(3))
    expected = {relator_key(rel) for rel in enveloping.relators}
    assert extracted == expected


def test_covering_relators_rank_one_free():
    for order in (3, 4, 5):
        space = rank_one_space(order)
        result = covering_relators(space, 2)
        assert result.presentation.relators == ()
        assert result.presentation.ngens == 1


def test_covering_relators_serre_cubic():
    from rackcover.envgroup import abelianization

    space = cartan_zeta3_space()
    result = covering_relators(space, 3)
    degree2 = result.per_degree[0]
    degree3 = result.per_degree[1]
    assert degree2.relators == ()
    assert degree3.relators != ()
    # every degree-3 relator p q^-1 pairs two distinct words with equal
    # letters, so it dies in the abelianization (a commutation-type relation)
    for relator in degree3.relators:
        assert relator
        assert sorted(x for x in relator if x > 0) == sorted(-x for x in relator if x < 0)
    free_rank, torsion = abelianization(result.presentation)
    assert free_rank == 2 and torsion == ()


# --- grades of minimal elements ---------------------------------------------------


def word_grade(space, word):
    """The inner permutation image of g_{x1} ... g_{xn}, and the letter
    counts per rack orbit: the two computable enveloping-group invariants."""
    rack = space.rack
    image = identity_perm(rack.n)
    for x in word:
        image = perm_compose(image, rack.translation(x))
    counts = tuple(sum(x in block for x in word) for block in rack.orbits())
    return image, counts


def assert_one_grade(space, max_degree):
    # a minimal element lies in one braid-group orbit of words, and a
    # braid-generator move keeps both invariants
    for degree in range(2, max_degree + 1):
        elements = minimal_elements(space, degree)
        assert elements
        for element in elements:
            grades = {word_grade(space, word) for word in element.words}
            assert len(grades) == 1, element.words


def test_grading_consistency_transpositions():
    assert_one_grade(chi_space(3), 4)
    assert_one_grade(chi_space(4), 3)


def test_grading_consistency_detects_corruption():
    space = chi_space(3)
    # a fabricated "minimal element" mixing words with different letter
    # multisets must get two grades; here the inner images differ
    inner01, counts01 = word_grade(space, (0, 1))
    inner02, counts02 = word_grade(space, (0, 2))
    assert inner01 != inner02
    assert counts01 == counts02


def test_words_consistent_on_true_pairs():
    assert_one_grade(chi_space(3), 2)
