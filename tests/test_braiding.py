import random
from dataclasses import replace

import pytest

from rackcover import braiding
from rackcover.braiding import (
    BraidedSpace,
    Cocycle,
    braid_check,
    c_orbit_census,
    c_orbits,
    chi_cocycle,
    fk_census_formula,
    quadratic_analysis,
)
from rackcover.cyclotomic import CycScalar, root_of_unity
from rackcover.errors import InternalCheckError, RackAxiomError, ValidationError
from rackcover.linalg import ExactMatrix
from rackcover.racks import (
    Rack,
    abelian_rack,
    affine_rack,
    catalog,
    dihedral_rack,
    rack_verify,
    reflections_d4_rack,
    tetrahedron_rack,
    transpositions_rack,
)


def space_const_minus_one(rack):
    return BraidedSpace(rack, Cocycle.constant_minus_one(rack))


def chi_space(n):
    cocycle = chi_cocycle(n)
    return BraidedSpace(cocycle.rack, cocycle)


def cartan_zeta3_space():
    """Rank-2 diagonal braiding of Cartan type A_2: q_ii = zeta_3 and
    q_12 q_21 = q_11^{-1}; generic in the sense that q_12 q_21 != 1 and
    q_ii != -1."""
    rack = abelian_rack(2)
    cocycle = Cocycle(rack, 3, ((1, 1), (1, 1)))
    return BraidedSpace(rack, cocycle)


# --- braid equation ----------------------------------------------------------


def braiding_matrix(space):
    d = space.dim
    entries = {}
    for x in range(d):
        for y in range(d):
            tx, ty = space.c_index(x, y)
            entries[(tx * d + ty, x * d + y)] = space.cocycle.value(x, y)
    return ExactMatrix(d * d, d * d, entries)


def braid_equation_matrix_oracle(space):
    """Independent check: build c (x) 1 and 1 (x) c as sparse matrices on the
    degree-3 tensor space and compare the two triple products column by
    column."""
    d = space.dim
    c = braiding_matrix(space)
    dim3 = d**3

    def c12_apply(vec):
        # vec indexed by x*d^2 + y*d + z; act on (x, y)
        out = {}
        for idx, scalar in vec.items():
            xy, z = divmod(idx, d)
            image = c.apply({xy: scalar})
            for txy, v in image.items():
                key = txy * d + z
                out[key] = out.get(key, CycScalar.zero()) + v
        return {k: v for k, v in out.items() if not v.is_zero}

    def c23_apply(vec):
        out = {}
        for idx, scalar in vec.items():
            x, yz = divmod(idx, d * d)
            image = c.apply({yz: scalar})
            for tyz, v in image.items():
                key = x * d * d + tyz
                out[key] = out.get(key, CycScalar.zero()) + v
        return {k: v for k, v in out.items() if not v.is_zero}

    for idx in range(dim3):
        e = {idx: CycScalar.one()}
        lhs = c12_apply(c23_apply(c12_apply(e)))
        rhs = c23_apply(c12_apply(c23_apply(e)))
        if lhs != rhs:
            return False
    return True


def test_constant_cocycle_satisfies_braid_equation():
    for rack in (transpositions_rack(3), affine_rack(5, 2), reflections_d4_rack()):
        cocycle = Cocycle.constant_minus_one(rack)
        ok, witness = braid_check(rack, cocycle)
        assert ok and witness is None


def test_chi_cocycle_passes_and_matches_matrix_oracle():
    space = chi_space(3)
    ok, _ = braid_check(space.rack, space.cocycle)
    assert ok
    assert braid_equation_matrix_oracle(space)


def test_flipped_entry_fails_with_witness():
    rack = transpositions_rack(3)
    exp = [list(r) for r in Cocycle.constant_minus_one(rack).exponents]
    exp[0][1] = 0  # one value flipped to +1
    bad = Cocycle(rack, 2, tuple(tuple(r) for r in exp))
    ok, witness = braid_check(rack, bad)
    assert not ok
    assert witness is not None and len(witness) == 3
    with pytest.raises(ValidationError):
        BraidedSpace(rack, bad)


def reference_braid_check(rack, cocycle):
    """The braid equation walked triple by triple: both sides applied as
    braiding steps on the word, exponents summed and compared mod N."""
    n = rack.n
    N = cocycle.order
    op = rack.op
    exp = cocycle.exponents

    def c12(word, e):
        x, y, z = word
        return (op(x, y), x, z), e + exp[x][y]

    def c23(word, e):
        x, y, z = word
        return (x, op(y, z), y), e + exp[y][z]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                w = (x, y, z)
                lhs, el = c12(*c23(*c12(w, 0)))
                rhs, er = c23(*c12(*c23(w, 0)))
                if lhs != rhs or (el - er) % N != 0:
                    return False, w
    return True, None


def differential_cocycles(rng, rack):
    """Cocycles of orders 1-6 on `rack`: constant ones (which satisfy the
    braid equation), random ones, and constant ones with one entry moved,
    whose first failure can lie deep in the triple walk."""
    n = rack.n
    for order in range(1, 7):
        k = rng.randrange(order)
        yield Cocycle.constant(rack, order, k)
        yield Cocycle(rack, order, tuple(
            tuple(rng.randrange(order) for _ in range(n)) for _ in range(n)
        ))
        exp = [[k] * n for _ in range(n)]
        exp[rng.randrange(n)][rng.randrange(n)] = rng.randrange(order)
        yield Cocycle(rack, order, tuple(map(tuple, exp)))


@pytest.mark.parametrize("spec", [
    "transpositions:3", "transpositions:4", "four_cycles_S4", "tetrahedron",
    "dihedral:5", "affine:5,2", "reflections_D4", "abelian:3",
])
def test_braid_check_matches_triple_walk(spec):
    rng = random.Random(spec)
    rack = catalog(spec)
    cocycles = list(differential_cocycles(rng, rack))
    if spec.startswith("transpositions"):
        cocycles.append(chi_cocycle(int(spec.rpartition(":")[2])))
    for cocycle in cocycles:
        assert braid_check(rack, cocycle) == reference_braid_check(rack, cocycle)


def test_braid_check_matches_triple_walk_off_self_distributive_tables():
    # tables whose rows are permutations but which are not self-distributive,
    # so the words of the two sides differ somewhere
    rng = random.Random(41)
    for n in (3, 4, 5):
        for _ in range(4):
            table = tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
            with pytest.raises(RackAxiomError):
                rack_verify(table)
            rack = Rack(table)
            assert not reference_braid_check(rack, Cocycle.constant(rack, 1, 0))[0]
            for cocycle in differential_cocycles(rng, rack):
                assert braid_check(rack, cocycle) == reference_braid_check(rack, cocycle)


def test_from_json_validates():
    rack = transpositions_rack(3)
    good = Cocycle.from_json(rack, {"N": 2, "exp": [[1] * 3] * 3})
    assert good.value(0, 0) == -1
    bad_exp = [[1] * 3, [1] * 3, [1, 1, 0]]
    with pytest.raises(ValidationError):
        Cocycle.from_json(rack, {"N": 2, "exp": bad_exp})


@pytest.mark.parametrize("order,value", [
    (2, 1.5), (2, 1.0), (2, True), (2, "1"), (True, 0), (2.0, 1), (0, 1),
])
def test_cocycle_rejects_non_integer_order_or_exponent(order, value):
    rack = transpositions_rack(3)
    exp = ((1, 1, 1), (1, value, 1), (1, 1, 1))
    with pytest.raises(ValidationError, match="integer"):
        Cocycle(rack, order, exp)
    with pytest.raises(ValidationError, match="integer"):
        Cocycle.read_json(rack, {"N": order, "exp": [list(r) for r in exp]})


def test_cocycle_exponents_are_stored_reduced():
    rack = abelian_rack(2)
    cocycle = Cocycle(rack, 3, ((4, -1), (3, 2)))
    assert cocycle.exponents == ((1, 2), (0, 2))
    assert cocycle == Cocycle(rack, 3, ((1, 2), (0, 2)))
    assert cocycle.value(0, 1) == root_of_unity(3) ** 2


# --- orbits and census -------------------------------------------------------


def test_census_transpositions_3():
    census = c_orbit_census(space_const_minus_one(transpositions_rack(3)))
    assert census.total == 5
    assert census.histogram == ((1, 3), (3, 2))


def test_census_transpositions_4():
    census = c_orbit_census(space_const_minus_one(transpositions_rack(4)))
    assert census.total == 17
    assert census.histogram == ((1, 6), (2, 3), (3, 8))


def test_census_tetrahedron():
    census = c_orbit_census(space_const_minus_one(tetrahedron_rack()))
    assert census.total == 8


def test_census_is_cocycle_independent():
    a = c_orbit_census(space_const_minus_one(transpositions_rack(4)))
    b = c_orbit_census(chi_space(4))
    assert a.total == b.total and a.histogram == b.histogram


def test_orbits_partition_and_lambda_by_iteration():
    for space in (chi_space(4), space_const_minus_one(affine_rack(5, 3))):
        seen = set()
        for orbit in c_orbits(space):
            seen.update(orbit.pairs)
            # apply c repeatedly to the starting tensor, tracking the scalar
            x, y = orbit.pairs[0]
            word, scalar = (x, y), CycScalar.one()
            for _ in range(orbit.size):
                scalar = scalar * space.cocycle.value(*word)
                word = space.c_index(*word)
            assert word == (x, y)
            assert scalar == orbit.lam
        assert len(seen) == space.dim ** 2


def test_theta_exponents_track_cocycle_products():
    # theta_i = c^i(pairs[0]) = zeta^e_i pairs[i], with e_0 = 0 and
    # e_(i+1) = e_i + q-exponent of pairs[i]; c on theta_(m-1) gives lam theta_0
    space = chi_space(3)
    cocycle = space.cocycle
    for orbit in c_orbits(space):
        exponents = [0]
        for i, pair in enumerate(orbit.pairs):
            assert space.c_index(*pair) == orbit.pairs[(i + 1) % orbit.size]
            exponents.append(exponents[-1] + cocycle.exponent(*pair))
        scalars = [root_of_unity(cocycle.order, e) for e in exponents]
        for i, (x, y) in enumerate(orbit.pairs):
            assert scalars[i + 1] == scalars[i] * cocycle.value(x, y)
        assert scalars[-1] == orbit.lam


def test_fk_census_formula_table():
    rows = {n: fk_census_formula(n) for n in (3, 4, 5, 6)}
    assert (rows[3].total, rows[3].excess) == (5, 2)
    assert (rows[4].total, rows[4].excess) == (17, 2)
    assert (rows[5].total, rows[5].excess) == (45, 0)
    assert (rows[6].total, rows[6].excess) == (100, -5)
    assert (rows[4].size1, rows[4].size2, rows[4].size3) == (6, 3, 8)


def test_fk_formula_matches_census():
    for n in (3, 4, 5, 6):
        space = space_const_minus_one(transpositions_rack(n))
        census = c_orbit_census(space)
        row = fk_census_formula(n)
        assert census.total == row.total
        sizes = dict(census.histogram)
        assert sizes.get(1, 0) == row.size1
        assert sizes.get(2, 0) == row.size2
        assert sizes.get(3, 0) == row.size3


# --- quadratic analysis ------------------------------------------------------


def test_qr_affine52():
    report = quadratic_analysis(space_const_minus_one(affine_rack(5, 2)))
    assert report.orbit_count == 10
    assert report.total_qr == 10


def test_qr_transpositions4_chi():
    report = quadratic_analysis(chi_space(4))
    assert report.total_qr == 17
    assert report.dim2 == 36 - 17


def test_qr_cartan_rank2():
    report = quadratic_analysis(cartan_zeta3_space())
    assert report.total_qr == 0
    assert report.dim2 == 4


def test_constant_minus_one_gives_kernel_on_every_orbit():
    # with q == -1 every orbit has lambda = (-1)^m, so #QR = #orbits
    for rack, expected in [
        (catalog("four_cycles_S4"), 17),
        (tetrahedron_rack(), 8),
        (affine_rack(5, 2), 10),
        (affine_rack(5, 3), 10),
        (affine_rack(7, 3), 21),
        (affine_rack(7, 5), 21),
        (reflections_d4_rack(), 4),
    ]:
        report = quadratic_analysis(space_const_minus_one(rack))
        assert report.orbit_count == expected
        assert report.total_qr == expected


def test_reflections_d4_row_invariants():
    rack = reflections_d4_rack()
    census = c_orbit_census(space_const_minus_one(rack))
    assert census.total == 4
    assert census.histogram == ((4, 4),)
    assert len(rack.orbits()) == 2
    assert rack.inner_group().order == 4


def test_literal_reflection_quandle_differs():
    # the conjugation rack on the four reflections of the square is the
    # dihedral quandle on Z/4; its census is 8, not 4 (see dihedral(4))
    from rackcover.groups import perm_compose, perm_inverse
    from rackcover.racks import conjugation_rack

    reflections = sorted(
        [(0, 3, 2, 1), (2, 1, 0, 3), (1, 0, 3, 2), (3, 2, 1, 0)]
    )
    quandle = conjugation_rack(reflections)
    assert quandle.is_quandle()
    report = quadratic_analysis(space_const_minus_one(quandle))
    assert report.orbit_count == 8 and report.total_qr == 8
    report = quadratic_analysis(space_const_minus_one(dihedral_rack(4)))
    assert report.orbit_count == 8 and report.total_qr == 8
    # and the two racks are isomorphic
    from itertools import permutations

    iso = any(
        quandle.relabel(p).table == dihedral_rack(4).table
        for p in permutations(range(4))
    )
    assert iso


def test_kernel_vector_annihilated():
    space = chi_space(3)
    for orbit in c_orbits(space):
        if orbit.kernel_dim:
            matrix = orbit.one_plus_c_matrix()
            assert matrix.apply(orbit.kernel_vector()) == {}


def test_determinant_formula_all_catalog_orbits():
    spaces = [
        chi_space(3),
        chi_space(4),
        space_const_minus_one(dihedral_rack(3)),
        space_const_minus_one(affine_rack(7, 3)),
        space_const_minus_one(reflections_d4_rack()),
        cartan_zeta3_space(),
    ]
    from rackcover.linalg import determinant, rank_kernel

    for space in spaces:
        for orbit in quadratic_analysis(space).orbits:
            m = orbit.size
            matrix = orbit.one_plus_c_matrix()
            expected = CycScalar.one() + orbit.lam * ((-1) ** (m - 1))
            assert determinant(matrix) == expected
            nullity = m - rank_kernel(matrix)[0]
            assert nullity == orbit.kernel_dim
            assert nullity in (0, 1)


def test_quadratic_analysis_checks_each_distinct_block_once(monkeypatch):
    # the block of 1 + c is a function of (m, lambda): FK_5 under chi has
    # 45 orbits of sizes 1, 2 and 3 but one lambda per size
    counts = {"determinant": 0, "rank_kernel": 0}
    for name in counts:

        def counted(*args, name=name, original=getattr(braiding, name)):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(braiding, name, counted)
    report = quadratic_analysis(chi_space(5))
    assert report.orbit_count == 45
    assert report.total_qr == 45
    assert len({(orbit.size, str(orbit.lam)) for orbit in report.orbits}) == 3
    assert counts == {"determinant": 3, "rank_kernel": 3}


def test_quadratic_analysis_catches_a_tampered_block_matrix(monkeypatch):
    # the identity has determinant 1, never 1 + (-1)^(m-1) lambda
    original = braiding.OrbitData.one_plus_c_matrix

    def tampered(orbit):
        if orbit.size < 3:
            return original(orbit)
        return ExactMatrix(3, 3, {(i, i): CycScalar.one() for i in range(3)})

    monkeypatch.setattr(braiding.OrbitData, "one_plus_c_matrix", tampered)
    with pytest.raises(InternalCheckError, match="block determinant"):
        quadratic_analysis(chi_space(4))


def test_quadratic_analysis_catches_a_tampered_lambda(monkeypatch):
    # the last orbit shares its block with earlier ones until its lambda
    # changes sign; its own block then has no kernel line, though the
    # orbit still claims one
    space = space_const_minus_one(transpositions_rack(4))
    original = braiding.c_orbits

    def tampered(space):
        orbits = original(space)
        last = orbits[-1]
        assert last.kernel_dim == 1
        assert sum(o.size == last.size for o in orbits) > 1
        return orbits[:-1] + [replace(last, lam=-last.lam)]

    monkeypatch.setattr(braiding, "c_orbits", tampered)
    with pytest.raises(InternalCheckError):
        quadratic_analysis(space)


def test_predicates():
    assert quadratic_analysis(chi_space(6)).full
    assert not quadratic_analysis(chi_space(6)).many
    assert quadratic_analysis(chi_space(4)).many  # 17 >= 15
    assert quadratic_analysis(chi_space(5)).many  # 45 >= 45, equality
    assert not quadratic_analysis(cartan_zeta3_space()).full


def test_diagonal_handling():
    # diagonal orbits are singletons {(x,x)}; with q(x,x) = zeta_3 they are
    # not kernel lines, and "full" ignores them
    space = cartan_zeta3_space()
    orbits = c_orbits(space)
    diag = [o for o in orbits if o.is_diagonal]
    assert len(diag) == 2
    assert all(o.size == 1 and o.kernel_dim == 0 for o in diag)
    offdiag = [o for o in orbits if not o.is_diagonal]
    assert len(offdiag) == 1 and offdiag[0].size == 2
    assert offdiag[0].lam == root_of_unity(3, 2)
