"""Acceptance suite: one test per criterion, exact arithmetic throughout,
so every tolerance is equality.  Each test prints one PASS line (visible
with pytest -s; pytest -v shows the per-criterion verdict either way).
"""

import random
import time

import pytest

from rackcover.bosonization import (
    build_slice,
    covering_map_check,
    rank_one_datum,
    verify_hopf,
)
from rackcover.braiding import (
    BraidedSpace,
    Cocycle,
    braid_check,
    c_orbit_census,
    chi_cocycle,
    fk_census_formula,
    quadratic_analysis,
)
from rackcover.cli import main as cli_main
from rackcover.coset import todd_coxeter
from rackcover.cyclotomic import CycScalar, root_of_unity
from rackcover.envgroup import (
    abelianization,
    covering_lattice,
    enveloping_presentation,
    hom_from_generator_images,
    rack_inner_hom,
)
from rackcover.groups import FiniteGroup
from rackcover.linalg import determinant, rank_kernel, smith_normal_form
from rackcover.nichols import (
    GradedBasis,
    TensorWords,
    covering_relators,
    hilbert_series,
    symmetrizer_matrix,
)
from rackcover.presentations import Presentation, relator_key
from rackcover.racks import (
    abelian_rack,
    affine_rack,
    catalog,
    reflections_d4_rack,
    tetrahedron_rack,
    transpositions_rack,
)
from tests.oracle_dense import gaussian_factorial, oracle_graded_dims
from tests.oracle_shuffle import apply_word, compose_word, inversion_count, matsumoto_lift


def _passed(num, started, message):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) {message}")


def minus_one_space(rack):
    return BraidedSpace(rack, Cocycle.constant_minus_one(rack))


def chi_space(n):
    cocycle = chi_cocycle(n)
    return BraidedSpace(cocycle.rack, cocycle)


def cartan_space():
    rack = abelian_rack(2)
    return BraidedSpace(rack, Cocycle(rack, 3, ((1, 1), (1, 1))))


def table_53_instances():
    """The built-in quadratic-column instances: (label, space, orbits, qr)."""
    return [
        ("S_3 chi", chi_space(3), 5, 5),
        ("S_3 const -1", minus_one_space(transpositions_rack(3)), 5, 5),
        ("S_4 chi", chi_space(4), 17, 17),
        ("S_5 chi", chi_space(5), 45, 45),
        ("B const -1", minus_one_space(catalog("four_cycles_S4")), 17, 17),
        ("T const -1", minus_one_space(tetrahedron_rack()), 8, 8),
        ("Aff(5,2)", minus_one_space(affine_rack(5, 2)), 10, 10),
        ("Aff(5,3)", minus_one_space(affine_rack(5, 3)), 10, 10),
        ("Aff(7,3)", minus_one_space(affine_rack(7, 3)), 21, 21),
        ("Aff(7,5)", minus_one_space(affine_rack(7, 5)), 21, 21),
        ("D_4 const -1", minus_one_space(reflections_d4_rack()), 4, 4),
    ]


def test_criterion_01_census():
    started = time.monotonic()
    expected = {3: (5, 2), 4: (17, 2), 5: (45, 0), 6: (100, -5)}
    for n, (total, excess) in expected.items():
        row = fk_census_formula(n)
        assert (row.total, row.excess) == (total, excess), n
        census = c_orbit_census(minus_one_space(transpositions_rack(n)))
        assert census.total == total
        sizes = dict(census.histogram)
        assert sizes.get(1, 0) == row.size1
        assert sizes.get(2, 0) == row.size2
        assert sizes.get(3, 0) == row.size3
        assert sizes.keys() <= {1, 2, 3}
    _passed(1, started, "census totals 5, 17, 45, 100 with matching breakdowns")


def test_criterion_02_quadratic_columns():
    started = time.monotonic()
    for label, space, orbits, qr in table_53_instances():
        report = quadratic_analysis(space)
        assert report.orbit_count == orbits, label
        assert report.total_qr == qr, label
    cartan = quadratic_analysis(cartan_space())
    assert cartan.total_qr == 0
    _passed(2, started, "all built-in (#orbits, #QR) columns reproduced")


def test_criterion_03_determinant_kernel_consistency():
    started = time.monotonic()
    one = CycScalar.one()
    instances = table_53_instances() + [("cartan", cartan_space(), None, None)]
    orbit_total = 0
    for label, space, _, _ in instances:
        report = quadratic_analysis(space)
        for orbit in report.orbits:
            m = orbit.size
            matrix = orbit.one_plus_c_matrix()
            expected = one + orbit.lam * ((-1) ** (m - 1))
            assert determinant(matrix) == expected, label
            nullity = m - rank_kernel(matrix)[0]
            assert nullity in (0, 1)
            sign_criterion = 1 if orbit.lam == CycScalar.rational((-1) ** m) else 0
            assert nullity == sign_criterion == orbit.kernel_dim
            if nullity == 1:
                assert matrix.apply(orbit.kernel_vector()) == {}
            orbit_total += 1
    _passed(3, started, f"det = 1 + (-1)^(m-1) lambda on {orbit_total} orbits")


def test_criterion_04_predicates():
    started = time.monotonic()
    assert quadratic_analysis(chi_space(6)).full is True
    assert quadratic_analysis(chi_space(6)).many is False
    assert quadratic_analysis(chi_space(4)).many is True  # 17 >= 15
    assert quadratic_analysis(chi_space(5)).many is True  # 45 >= 45
    _passed(4, started, "full/many predicates for transpositions of S_4..S_6")


def test_criterion_05_nichols_dimensions():
    started = time.monotonic()
    space = minus_one_space(transpositions_rack(3))
    report = hilbert_series(space, 6)
    assert report.dims == (1, 3, 4, 3, 1, 0, 0)
    assert report.total == 12
    # independently written dense oracle (naive permutation sum + dense
    # elimination) for every directly computable degree
    assert tuple(oracle_graded_dims(space, 5)) == (1, 3, 4, 3, 1, 0)
    # the degree-6 zero confirmed by direct cancellation of the symmetrizer
    assert symmetrizer_matrix(space, 6).entries == {}
    for m in (2, 3, 4):
        rack = abelian_rack(1)
        rk1 = BraidedSpace(rack, Cocycle(rack, m, ((1,),)))
        series = hilbert_series(rk1, m)
        assert series.dims == tuple([1] * m + [0])
        q = root_of_unity(m)
        for n in range(m + 1):
            factorial_rank = 0 if gaussian_factorial(q, n).is_zero else 1
            assert GradedBasis(rk1, n).dim == factorial_rank
    _passed(5, started, "graded dims (1,3,4,3,1,0,0) and rank-1 truncations")


def test_criterion_06_degree2_identity():
    started = time.monotonic()
    instances = table_53_instances() + [("cartan", cartan_space(), None, None)]
    for label, space, _, _ in instances:
        report = quadratic_analysis(space)
        assert GradedBasis(space, 2).dim == report.dim2, label
    _passed(6, started, "dim B(V)(2) = d^2 - #QR on every instance")


def test_criterion_07_covering_relators():
    started = time.monotonic()
    space = chi_space(3)
    extracted = covering_relators(space, 2)
    extracted_keys = {relator_key(r) for r in extracted.presentation.relators}
    enveloping = enveloping_presentation(transpositions_rack(3))
    enveloping_keys = {relator_key(r) for r in enveloping.relators}
    assert extracted_keys == enveloping_keys
    for order in (3, 4):
        rack = abelian_rack(1)
        rk1 = BraidedSpace(rack, Cocycle(rack, order, ((1,),)))
        result = covering_relators(rk1, 2)
        assert result.presentation.relators == ()
        assert result.presentation.ngens == 1
    _passed(7, started, "degree-2 relators match the enveloping presentation")


def test_criterion_08_enveloping_groups():
    started = time.monotonic()
    inner_orders = {
        "transpositions:3": (6, 1),
        "transpositions:4": (24, 1),
        "transpositions:5": (120, 1),
        "four_cycles_S4": (24, 1),
        "tetrahedron": (12, 1),
        "affine:5,2": (20, 1),
        "affine:5,3": (20, 1),
        "affine:7,3": (42, 1),
        "affine:7,5": (42, 1),
        "reflections_D4": (4, 2),
        "abelian:2": (None, 2),
    }
    for spec, (order, free_rank) in inner_orders.items():
        rack = catalog(spec)
        pres = enveloping_presentation(rack)
        rank, torsion = abelianization(pres)
        assert rank == len(rack.orbits()) == free_rank, spec
        assert torsion == ()
        hom = rack_inner_hom(rack)  # verified surjection onto Inn(X)
        if order is not None:
            assert hom.target.order == order, spec
    _passed(8, started, "abelianizations and verified inner quotients")


def test_criterion_09_todd_coxeter():
    started = time.monotonic()
    pres = enveloping_presentation(transpositions_rack(3))
    assert todd_coxeter(pres, extra_relators=((1, 1),)) == 6
    assert todd_coxeter(Presentation.make(1, [(1,) * 5])) == 5
    code = cli_main(
        [
            "group", "tc", "--builtin", "tetrahedron",
            "--max-cosets", "3", "--no-meta",
        ]
    )
    assert code == 2
    _passed(9, started, "orders 6 and 5; limit reported with exit code 2")


def test_criterion_10_covering_lattice():
    started = time.monotonic()
    c4 = FiniteGroup.from_permutations([(1, 2, 3, 0)], label="C4")
    c2 = FiniteGroup.from_permutations([(1, 0)], label="C2")
    lattice = covering_lattice(hom_from_generator_images(c4, c2, [(1, 0)]))
    assert lattice.count == 2
    s3 = FiniteGroup.from_permutations([(1, 0, 2), (0, 2, 1)], label="S3")
    lattice_s3 = covering_lattice(
        hom_from_generator_images(s3, c2, [(1, 0), (1, 0)])
    )
    assert lattice_s3.count == 1
    from tests.test_groups import quaternion_group

    q8 = quaternion_group()
    center = set(q8.center())
    v4, proj = q8.quotient(center)
    hom = hom_from_generator_images(q8, v4, [proj[g] for g in q8.generators])
    lattice_q8 = covering_lattice(hom)
    assert lattice_q8.count == 2
    for lattice_case, source in (
        (lattice, c4), (lattice_s3, s3), (lattice_q8, q8),
    ):
        for middle, cover in zip(lattice_case.middles, lattice_case.coverings):
            assert cover.order * len(middle) == source.order
    _passed(10, started, "covering counts 2, 1, 2 with verified quotients")


def test_criterion_11_bosonization():
    started = time.monotonic()
    sweedler = rank_one_datum(group_order=2, q_order=2)
    slice_s = build_slice(sweedler, 2)
    assert slice_s.dimension == 4
    verify_hopf(slice_s)
    taft = rank_one_datum(group_order=3, q_order=3)
    slice_t = build_slice(taft, 3)
    assert slice_t.dimension == 9
    verify_hopf(slice_t)
    source = rank_one_datum(group_order=4, q_order=2)
    hom = hom_from_generator_images(source.group, sweedler.group, [1])
    cover = covering_map_check(source, sweedler, hom, cutoff=2)
    assert cover.lifts_per_element == 2
    from tests.test_bosonization import s3_minus_one_datum

    s3_slice = build_slice(s3_minus_one_datum(), 2)
    assert s3_slice.dimension == 48
    report = verify_hopf(s3_slice)  # includes all coalgebra axioms
    assert report.group_likes == 6
    _passed(11, started, "Sweedler, Taft, rank-1 covering, 48-dim slice")


def test_criterion_12_property_suites():
    started = time.monotonic()
    # braid equation on all built-in cocycles
    for n in (3, 4, 5, 6):
        cocycle = chi_cocycle(n)
        assert braid_check(cocycle.rack, cocycle)[0]
    for spec in (
        "transpositions:3", "transpositions:4", "four_cycles_S4",
        "tetrahedron", "affine:5,2", "affine:5,3", "affine:7,3",
        "affine:7,5", "reflections_D4", "abelian:2", "dihedral:3",
    ):
        rack = catalog(spec)
        assert braid_check(rack, Cocycle.constant_minus_one(rack))[0], spec
    cartan = cartan_space()
    assert braid_check(cartan.rack, cartan.cocycle)[0]

    # Matsumoto reduced-word independence, 100 random cases with n <= 5
    from tests.test_nichols import random_reduced_word

    rng = random.Random(2024)
    spaces = [chi_space(3), minus_one_space(affine_rack(5, 2)), cartan]
    for trial in range(100):
        space = spaces[trial % len(spaces)]
        n = rng.randint(2, 5 if space.dim <= 3 else 3)
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        word_a = matsumoto_lift(perm)
        word_b = random_reduced_word(perm, rng)
        assert len(word_a) == len(word_b) == inversion_count(perm)
        assert compose_word(word_b, n) == perm
        words = TensorWords(space, n)
        N = space.cocycle.order
        for idx in range(words.size):
            ia, ea = apply_word(words, word_a, idx)
            ib, eb = apply_word(words, word_b, idx)
            assert ia == ib and (ea - eb) % N == 0

    # randomized rank/kernel and Smith-normal-form identities
    from rackcover.linalg import ExactMatrix

    rng = random.Random(77)
    orders = [1, 2, 3, 4, 6]
    for trial in range(200):
        order = orders[trial % len(orders)]
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.5:
                    coeff = rng.randint(-2, 2)
                    if coeff:
                        entries[(r, c)] = root_of_unity(order, rng.randint(0, order - 1)) * coeff
        matrix = ExactMatrix(rows, cols, entries)
        rank, kernel = rank_kernel(matrix)
        transposed = {(c, r): v for (r, c), v in entries.items()}
        rank_t, _ = rank_kernel(ExactMatrix(cols, rows, transposed))
        assert rank == rank_t
        assert rank + len(kernel) == cols
        for vec in kernel:
            assert matrix.apply(vec) == {}
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(mat)  # verifies U*M*V = D internally
        for i in range(1, len(res.diag)):
            assert res.diag[i] % res.diag[i - 1] == 0
    _passed(12, started, "braid checks, Matsumoto independence, SNF/rank identities")
