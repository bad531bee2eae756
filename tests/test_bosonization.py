from fractions import Fraction

import pytest

from rackcover.bosonization import (
    YDDatum,
    _compile,
    build_slice,
    covering_map_check,
    datum_from_generators,
    datum_from_json,
    datum_to_json,
    quotient_datum,
    rank_one_datum,
    verify_hopf,
    yd_verify,
)
from rackcover.braiding import BraidedSpace, Cocycle, chi_cocycle
from rackcover.cyclotomic import CycScalar, root_of_unity
from rackcover.envgroup import GroupHom, hom_from_generator_images
from rackcover.errors import (
    AxiomFailsError,
    BoundExceededError,
    InternalCheckError,
    ValidationError,
    YDDatumError,
)
from rackcover.groups import FiniteGroup
from rackcover.linalg import axpy
from rackcover.nichols import GradedBasis, MinimalElement, minimal_elements
from rackcover.racks import Rack, abelian_rack, transpositions_rack
from rackcover.racks import transposition_elements
from tests.oracle_hopf import oracle_verify_hopf
from tests.oracle_shuffle import shuffle_slice
from tests.test_cli import c12_mixed_order_datum


def s3_chi_datum():
    """Transpositions of S_3 graded by themselves inside S_3, acting through
    the sign cocycle; the unique multiplicative extension of the braiding."""
    cocycle = chi_cocycle(3)
    space = BraidedSpace(cocycle.rack, cocycle)
    elems = transposition_elements(3)
    group = FiniteGroup.from_permutations(elems, label="S3")
    return datum_from_generators(space, group, elems)


def fk4_chi_datum():
    """The transpositions of S_4 with the chi cocycle, graded by themselves
    inside S_4."""
    cocycle = chi_cocycle(4)
    space = BraidedSpace(cocycle.rack, cocycle)
    elems = transposition_elements(4)
    group = FiniteGroup.from_permutations(elems, label="S4")
    return datum_from_generators(space, group, elems)


def s3_minus_one_datum():
    rack = transpositions_rack(3)
    space = BraidedSpace(rack, Cocycle.constant_minus_one(rack))
    elems = transposition_elements(3)
    group = FiniteGroup.from_permutations(elems, label="S3")
    return datum_from_generators(space, group, elems)


def s3_chi_datum_relabeled(perm):
    """The S_3 chi datum with rack element x renamed perm[x]: the cocycle
    and the degrees move with the labels."""
    cocycle = chi_cocycle(3)
    rack = cocycle.rack.relabel(perm)
    inv = [perm.index(x) for x in range(3)]
    exponents = tuple(
        tuple(cocycle.exponents[inv[x]][inv[y]] for y in range(3)) for x in range(3)
    )
    space = BraidedSpace(rack, Cocycle(rack, cocycle.order, exponents))
    elems = transposition_elements(3)
    group = FiniteGroup.from_permutations(elems, label="S3")
    return datum_from_generators(space, group, [elems[inv[x]] for x in range(3)])


def c4_datum_with_identity_at_index_2():
    """rank_one_datum(4, 4) over a table group whose elements are relabeled
    j -> label[j], so that the identity is element 2 and K element 0."""
    base = rank_one_datum(group_order=4, q_order=4)
    label = (2, 0, 3, 1)
    table = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            table[label[a]][label[b]] = label[(a + b) % 4]
    group = FiniteGroup.from_table(table, label="C4", generators=[label[1]])
    action = {label[j]: row for j, row in base.action.items()}
    datum = YDDatum(base.space, group, (label[1],), action)
    yd_verify(datum)
    return datum


# --- datum validation ---------------------------------------------------------


def test_rank_one_datum_valid():
    datum = rank_one_datum(group_order=4, q_order=2)
    trivial = yd_verify(datum)
    # K^2 acts trivially: the subgroup generated by the square
    assert trivial == {0, 2}
    assert datum.is_link_indecomposable()


def test_rank_one_datum_taft():
    datum = rank_one_datum(group_order=3, q_order=3)
    assert yd_verify(datum) == {0}


def test_rank_one_rejects_bad_orders():
    with pytest.raises(ValidationError):
        rank_one_datum(group_order=4, q_order=3)


def test_s3_datum_verifies():
    datum = s3_chi_datum()
    trivial = yd_verify(datum)
    assert trivial == {datum.group.identity}
    assert datum.is_link_indecomposable()


def test_grading_incompatible_detected():
    datum = rank_one_datum(group_order=4, q_order=2)
    broken = YDDatum(
        datum.space,
        datum.group,
        (2,),  # wrong degree: K^2 does not act by q on the vector
        datum.action,
    )
    with pytest.raises(YDDatumError) as err:
        yd_verify(broken)
    assert err.value.kind in ("BraidingMismatch", "GradingIncompatible")


def test_action_composition_checked():
    datum = rank_one_datum(group_order=4, q_order=2)
    action = dict(datum.action)
    action[3] = ((0, CycScalar.one()),)  # K^3 suddenly acts trivially
    with pytest.raises(YDDatumError) as err:
        yd_verify(YDDatum(datum.space, datum.group, datum.degrees, action))
    assert err.value.kind == "NotAnAction"


def _extension_cases():
    """(space, group, degrees, the kind yd_verify rejects the extension with)."""
    one = abelian_rack(1)
    two = abelian_rack(2)
    swap = Rack(((1, 0), (1, 0)))  # x |> y = 1 - y, a permutation rack
    fk4 = transpositions_rack(4)
    swapped = list(transposition_elements(4))
    swapped[0], swapped[1] = swapped[1], swapped[0]
    return {
        # the degree 2 generates {0, 2} of C4, so 1 and 3 get no action
        "degrees do not generate": (
            BraidedSpace(one, Cocycle(one, 2, ((1,),))), FiniteGroup.cyclic(4), (2,),
            "NotAnAction"),
        # both letters have degree 1, but scale by -1 different letters
        "one degree, two translations": (
            BraidedSpace(two, Cocycle(two, 2, ((1, 0), (0, 1)))), FiniteGroup.cyclic(2),
            (1, 1), "BraidingMismatch"),
        # two transpositions trade degrees: the words' rows are no action
        "not equivariant, no action": (
            BraidedSpace(fk4, Cocycle.constant_minus_one(fk4)),
            FiniteGroup.from_permutations(transposition_elements(4)), swapped,
            "NotAnAction"),
        # an action, but 1 moves the letter of degree 1 to that of degree 3
        "not equivariant, grading": (
            BraidedSpace(swap, Cocycle.constant(swap, 1, 0)), FiniteGroup.cyclic(4), (1, 3),
            "GradingIncompatible"),
    }


@pytest.mark.parametrize("case", list(_extension_cases()))
def test_datum_from_generators_rejects_an_inconsistent_extension(case):
    space, group, degrees, kind = _extension_cases()[case]
    with pytest.raises(YDDatumError) as err:
        datum_from_generators(space, group, degrees)
    assert err.value.kind == kind


# --- quotients -----------------------------------------------------------------


def test_quotient_datum_c4_to_c2():
    datum = rank_one_datum(group_order=4, q_order=2)
    quot, proj = quotient_datum(datum, {0, 2})
    assert quot.group.order == 2
    assert yd_verify(quot) == {quot.group.identity}
    # braiding unchanged
    assert quot.space.cocycle.exponents == datum.space.cocycle.exponents


def test_quotient_datum_trivial_subgroup():
    datum = rank_one_datum(group_order=4, q_order=2)
    quot, _ = quotient_datum(datum, {0})
    assert quot.group.order == 4
    assert quot.degrees == datum.degrees


def test_quotient_datum_rejects_nontrivial_action():
    datum = rank_one_datum(group_order=4, q_order=2)
    with pytest.raises(YDDatumError) as err:
        quotient_datum(datum, {0, 1, 2, 3})
    assert err.value.kind == "ActsNontrivially"


# --- slices ---------------------------------------------------------------------


def test_sweedler_slice():
    datum = rank_one_datum(group_order=2, q_order=2)
    slice_ = build_slice(datum, 2)
    assert slice_.dimension == 4  # dims (1, 1, 0) times |G| = 2
    report = verify_hopf(slice_)
    assert report.group_likes == 2
    assert report.dimension == 4
    names = [name for name, _, _ in report.axioms]
    assert {"counit", "coassociativity", "unit", "associativity", "bialgebra", "antipode"} <= set(names)


def test_taft_slice():
    datum = rank_one_datum(group_order=3, q_order=3)
    slice_ = build_slice(datum, 3)
    assert slice_.dimension == 9  # dims (1, 1, 1, 0) times 3
    report = verify_hopf(slice_)
    assert report.group_likes == 3


def test_taft_relations_hold():
    # KE = qEK and E^m = 0 in the slice structure constants
    datum = rank_one_datum(group_order=3, q_order=3)
    slice_ = build_slice(datum, 3)
    group = datum.group
    K = (0, 0, 1)  # 1 # K
    E = (1, 0, 0)  # E # e
    KE = slice_.basis_product(K, E)
    EK = slice_.basis_product(E, K)
    q = root_of_unity(3)
    assert set(KE) == set(EK)
    for key, value in KE.items():
        assert value == q * EK[key]
    # E * E * E = 0: E^2 is the degree-2 basis line, and E^2 * E must vanish
    E2 = slice_.basis_product(E, E)
    assert E2  # nonzero in degree 2
    (key2, coeff2), = E2.items()
    assert slice_.basis_product(key2, E) == {}


E = (1, 0, 0)

# the Taft slice's constants lie in Q(zeta_3), so it is verified over
# CycScalars; every S_3 chi constant is rational, so it is verified over
# ints.  x0 x0 = 0 in the chi slice, so its degree-1 product is x0 x1.
TAMPERED_SLICES = {
    "taft": (lambda: rank_one_datum(group_order=3, q_order=3), (1, 0)),
    "s3-chi": (s3_chi_datum, (1, 1)),
}


def _tamper_cases():
    cases = []
    for name, (_, second) in TAMPERED_SLICES.items():
        prefix = "" if name == "taft" else f"{name}-"
        cases += [
            # the stored row of (E, 1) is also the product E (1 # e), so
            # the right unit fails first
            pytest.param(name, "product", (E, (0, 0)), "right unit",
                         id=f"{prefix}product"),
            # associativity is the first axiom to read a degree-1 product
            pytest.param(name, "product", (E, second), "associativity",
                         id=f"{prefix}product-degree-1"),
            pytest.param(name, "coproduct", E[:2], "counit", id=f"{prefix}coproduct"),
            pytest.param(name, "antipode", E[:2], "antipode", id=f"{prefix}antipode"),
        ]
    return cases


def _tampered_slice(name, table, key, change):
    """The cutoff-2 slice with the stored entry at `key` of one structure
    table replaced by change(entry): a product row (keyA, (n2, i2)) is
    read for every group element of the right factor, and a coproduct or
    braided antipode (n, i) for every group element."""
    build, _ = TAMPERED_SLICES[name]
    slice_ = build_slice(build(), 2)
    structure = getattr(slice_, table)
    structure[key] = change(structure[key])
    return slice_


@pytest.mark.parametrize("name, table, key, axiom", _tamper_cases())
def test_verify_hopf_detects_a_changed_structure_constant(name, table, key, axiom):
    # sparse elements are compared exactly, so one changed coefficient
    # anywhere must make some axiom fail
    slice_ = _tampered_slice(
        name, table, key, lambda entry: {k: v * 2 for k, v in entry.items()})
    with pytest.raises(AxiomFailsError) as exc:
        verify_hopf(slice_)
    assert exc.value.axiom == axiom


@pytest.mark.parametrize("name, table, key, axiom", _tamper_cases())
def test_verify_hopf_detects_a_constant_scaled_by_one_half(name, table, key, axiom):
    # on the rational slice the tables then hold a Fraction among the ints
    slice_ = _tampered_slice(
        name, table, key, lambda entry: {k: v * Fraction(1, 2) for k, v in entry.items()})
    with pytest.raises(AxiomFailsError) as exc:
        verify_hopf(slice_)
    assert exc.value.axiom == axiom


@pytest.mark.parametrize("name, table, key, axiom",
                         [case for case in _tamper_cases() if case.values[0] == "s3-chi"])
def test_verify_hopf_detects_an_irrational_constant_in_a_rational_slice(
    name, table, key, axiom
):
    # one constant set to zeta_3 moves the whole check onto CycScalars
    def change(entry):
        first = next(iter(entry))
        return {**entry, first: root_of_unity(3)}

    slice_ = _tampered_slice(name, table, key, change)
    assert isinstance(_compile(slice_).one, CycScalar)
    with pytest.raises(AxiomFailsError) as exc:
        verify_hopf(slice_)
    assert exc.value.axiom == axiom


def test_compiled_tables_take_their_field_from_the_constants():
    rational = _compile(build_slice(s3_chi_datum(), 2))
    assert rational.one == 1 and type(rational.one) is int
    assert all(type(c) is int for row in rational.antipode for _, c in row)
    # zeta_3 in the Taft constants keeps the stored CycScalars
    taft = _compile(build_slice(rank_one_datum(group_order=3, q_order=3), 2))
    assert isinstance(taft.one, CycScalar)
    assert all(isinstance(c, CycScalar) for row in taft.antipode for _, c in row)
    halved = _tampered_slice(
        "s3-chi", "antipode", E[:2], lambda entry: {k: v * Fraction(1, 2) for k, v in entry.items()})
    tables = _compile(halved)
    assert [type(c) for _, c in tables.antipode[halved.basis.index(E)]] == [Fraction]
    assert tables.one == 1


def test_s3_chi_slice_at_cutoff_4_checks_every_instance():
    slice_ = build_slice(s3_chi_datum(), 4)
    assert slice_.dims == (1, 3, 4, 3, 1)
    counts = {name: count for name, count, _ in verify_hopf(slice_).axioms}
    assert counts == {
        "counit": 72, "coassociativity": 72, "unit": 72,
        "associativity": 79920, "bialgebra": 3240, "antipode": 72,
    }


def test_fk4_chi_slice_at_cutoff_2_checks_every_instance():
    # the closed-form counts: sum over degree triples summing to <= 2 of
    # (dims * |G|) products, with dims (1, 6, 19) and |G| = 24
    slice_ = build_slice(fk4_chi_datum(), 2)
    assert slice_.dims == (1, 6, 19)
    counts = {name: count for name, count, _ in verify_hopf(slice_).axioms}
    assert counts == {
        "counit": 624, "coassociativity": 624, "unit": 624,
        "associativity": 2543616, "bialgebra": 50112, "antipode": 624,
    }


SHUFFLE_ORACLE_DATA = {
    "s3-chi": (s3_chi_datum, 3),
    "s3-minus-one": (s3_minus_one_datum, 3),
    "s3-chi-relabeled": (lambda: s3_chi_datum_relabeled((2, 0, 1)), 3),
    "c12-q3": (lambda: rank_one_datum(group_order=12, q_order=3), 2),
    "c4-q4": (lambda: rank_one_datum(group_order=4, q_order=4), 3),
    # datum scalars of order 12 over a cocycle of order 4: the coproduct's
    # braiding scalars keep the cocycle order
    "c12-mixed-orders-2": (c12_mixed_order_datum, 2),
    "c12-mixed-orders-3": (c12_mixed_order_datum, 3),
    "fk4-chi": (fk4_chi_datum, 2),
}


def _exact(table):
    """Structure constants with each scalar's stored field order, which the
    exported 'N k' forms depend on."""
    return {
        key: {k: (v.order, v.coeffs) for k, v in entry.items()}
        for key, entry in table.items()
    }


@pytest.mark.parametrize("name", list(SHUFFLE_ORACLE_DATA))
def test_slice_matches_shuffle_oracle(name):
    # products read off symmetrizer columns against the sum over shuffle
    # lifts, on every closed pair and every key; the relabeled datum moves
    # every word under the group action
    build, cutoff = SHUFFLE_ORACLE_DATA[name]
    datum = build()
    slice_ = build_slice(datum, cutoff)
    oracle = shuffle_slice(datum, cutoff)
    read = {
        "product": {pair: slice_.basis_product(*pair) for pair in slice_.closed_pairs()},
        "coproduct": {key: slice_.basis_coproduct(key) for key in slice_.basis},
        "antipode": {key: slice_.basis_antipode(key) for key in slice_.basis},
    }
    for table, ours in read.items():
        assert ours == getattr(oracle, table), table
        assert _exact(ours) == _exact(getattr(oracle, table)), table


@pytest.mark.parametrize("name", list(SHUFFLE_ORACLE_DATA))
def test_compiled_tables_read_the_slice_as_its_accessors_do(name):
    # what verify_hopf checks, mapped to positions, is what the accessors
    # and so the exports read: at every closed pair and every key
    build, cutoff = SHUFFLE_ORACLE_DATA[name]
    slice_ = build_slice(build(), cutoff)
    tables = _compile(slice_)
    basis, G = slice_.basis, slice_.datum.group.order
    index = {key: p for p, key in enumerate(basis)}
    for a, b in ((index[ka], index[kb]) for ka, kb in slice_.closed_pairs()):
        t = slice_.times[a % G][b % G]
        assert {basis[k * G + t]: s for k, s in tables.product[a][b // G]} == (
            slice_.basis_product(basis[a], basis[b])), (basis[a], basis[b])
    for p, key in enumerate(basis):
        assert {(basis[l], basis[r]): s for l, r, s in tables.coproduct[p]} == (
            slice_.basis_coproduct(key)), key
        assert {basis[k]: s for k, s in tables.antipode[p]} == slice_.basis_antipode(key), key
    # one compiled row per stored (b1 # g1, b2)
    assert sum(len(rows) for rows in tables.product) == len(slice_.product)


def radford_antipode(slice_):
    """Radford's biproduct antipode S(b # g) = (1 # (deg(b) g)^-1)(S_B(b) # 1),
    with S_B taken as the right convolution inverse of the identity of B(V)
    on its kept basis, the other recursion than the library's: S_B(1) = 1
    and S_B(b) = -sum C b_a S_B(b_b) over the terms C b_a (x) b_b of
    Delta(b) other than 1 (x) b, with B(V)'s products the stored rows at
    the identity of G."""
    group = slice_.datum.group
    e = group.index(group.identity)
    s_b = {(0, 0): {(0, 0): CycScalar.one()}}
    for n in range(1, slice_.cutoff + 1):
        for i in range(slice_.dims[n]):
            acc = {}
            for (k, a, b), c in slice_.coproduct[(n, i)].items():
                if k == 0:  # the term 1 (x) b
                    continue
                for (_, j), cj in s_b[(n - k, b)].items():
                    axpy(acc, c * cj, slice_.product[((k, a, e), (n - k, j))])
            s_b[(n, i)] = {key: -v for key, v in acc.items()}
    antipode = {}
    for n, i, gi in slice_.basis:
        h = group.inv(group.mul(group.elements[slice_.tag_degrees[n][i]], group.elements[gi]))
        antipode[(n, i, gi)] = out = {}
        for (_, j), c in s_b[(n, i)].items():
            axpy(out, c, slice_.basis_product((0, 0, group.index(h)), (n, j, e)))
    return antipode


@pytest.mark.parametrize("name", [*SHUFFLE_ORACLE_DATA, "s3-chi-cutoff-4"])
def test_antipode_is_radfords_biproduct_antipode(name):
    build, cutoff = {**SHUFFLE_ORACLE_DATA, "s3-chi-cutoff-4": (s3_chi_datum, 4)}[name]
    slice_ = build_slice(build(), cutoff)
    ours = radford_antipode(slice_)
    read = {key: slice_.basis_antipode(key) for key in slice_.basis}
    assert ours == read
    # S(1 # g) is stored as 1 at order 1; above degree 0 the forms agree too
    assert {key: {k: v.to_json() for k, v in entry.items()}
            for key, entry in ours.items() if key[0] > 0} == {
        key: {k: v.to_json() for k, v in entry.items()}
        for key, entry in read.items() if key[0] > 0}


# the reference verifier keyed by basis tuples, on the stored CycScalars;
# it takes seconds on the larger oracle data, so of the C12 datum it
# checks cutoff 2 only
REFERENCE_VERIFIER_DATA = {
    **{name: data for name, data in SHUFFLE_ORACLE_DATA.items()
       if name not in ("c12-mixed-orders-2", "c12-mixed-orders-3", "fk4-chi")},
    "s3-chi-cutoff-4": (s3_chi_datum, 4),
    "c12-mixed-orders": (c12_mixed_order_datum, 2),
    "c4-q4-identity-at-index-2": (c4_datum_with_identity_at_index_2, 3),
}


@pytest.mark.parametrize("name", list(REFERENCE_VERIFIER_DATA))
def test_verify_hopf_matches_the_reference_verifier(name):
    build, cutoff = REFERENCE_VERIFIER_DATA[name]
    slice_ = build_slice(build(), cutoff)
    assert verify_hopf(slice_) == oracle_verify_hopf(slice_)


FAILING_SLICES = {
    "sweedler": lambda: rank_one_datum(group_order=2, q_order=2),
    "taft": lambda: rank_one_datum(group_order=3, q_order=3),
    "s3-chi": s3_chi_datum,
}


@pytest.mark.parametrize("name, table", [
    pytest.param(name, table, id=f"{table}-{name}")
    for table in ("antipode", "coproduct", "product") for name in FAILING_SLICES
])
def test_verify_hopf_fails_like_the_reference_verifier(name, table):
    # every nonzero entry of the table scaled by 2 in turn: both verifiers
    # name the same axiom and witness.  A stored S_B(b) is read for every
    # b # g.  Of the S_3 product rows those of a g1 other than the identity
    # (index 0) are taken, whose group keys are non-abelian products
    datum = FAILING_SLICES[name]()
    keys = [key for key, entry in getattr(build_slice(datum, 2), table).items() if entry]
    if (name, table) == ("s3-chi", "product"):
        keys = [key for key in keys if key[0][2] != 0]
    assert keys
    for key in keys:
        failures = []
        for verify in (verify_hopf, oracle_verify_hopf):
            slice_ = build_slice(datum, 2)
            structure = getattr(slice_, table)
            structure[key] = {k: v * 2 for k, v in structure[key].items()}
            with pytest.raises(AxiomFailsError) as exc:
                verify(slice_)
            failures.append((exc.value.axiom, exc.value.witness))
        assert failures[0] == failures[1], key


def test_sweedler_antipode_values():
    datum = rank_one_datum(group_order=2, q_order=2)
    slice_ = build_slice(datum, 2)
    one = CycScalar.one()
    # S(1#K) = 1#K (K is its own inverse); S(E#e) = -(1#K)(E#e)
    K = (0, 0, 1)
    assert slice_.basis_antipode(K) == {K: one}
    E = (1, 0, 0)
    expected = {
        key: -value for key, value in slice_.basis_product(K, E).items()
    }
    assert slice_.basis_antipode(E) == expected


def test_s3_slice_dimension_and_axioms():
    datum = s3_minus_one_datum()
    slice_ = build_slice(datum, 2)
    assert slice_.dims == (1, 3, 4)
    assert slice_.dimension == (1 + 3 + 4) * 6
    report = verify_hopf(slice_)
    assert report.group_likes == 6
    assert report.dimension == 48


def test_slice_bound():
    datum = s3_minus_one_datum()
    with pytest.raises(BoundExceededError):
        build_slice(datum, 2, max_dim=10)


def test_slice_bound_is_checked_after_each_degree():
    # with q = 1 on the transpositions of S_4 the graded components grow
    # without end; (1 + 6 + 33 + 180) * 24 = 5280 passes the bound at
    # degree 3, long before degree 12 is reached
    rack = transpositions_rack(4)
    space = BraidedSpace(rack, Cocycle.constant(rack, 1))
    elems = transposition_elements(4)
    datum = datum_from_generators(
        space, FiniteGroup.from_permutations(elems, label="S4"), elems)
    with pytest.raises(BoundExceededError, match="^slice dimension 5280 exceeds 5000$") as exc:
        build_slice(datum, 12)
    assert exc.value.partial == (1, 6, 33, 180)


def test_slice_stores_one_product_row_per_b1_g1_b2():
    # g2 only moves the key of (b1 # g1)(b2 # g2), and g only the keys of
    # Delta(b # g): one row per (b1 # g1, b2) and one coproduct per b
    slice_ = build_slice(fk4_chi_datum(), 2)
    dims, order = slice_.dims, slice_.datum.group.order
    rows = sum(dims[n1] * order * dims[n2] for n1 in range(3) for n2 in range(3 - n1))
    assert len(slice_.product) == rows == 2088
    assert len(list(slice_.closed_pairs())) == rows * order
    assert len(slice_.coproduct) == len(slice_.antipode) == sum(dims) == 26


def test_basis_product_outside_the_slice_raises():
    slice_ = build_slice(rank_one_datum(group_order=3, q_order=3), 2)
    assert slice_.basis_product((1, 0, 1), (1, 0, 2))
    with pytest.raises(BoundExceededError, match="leaves the degree-2 slice"):
        slice_.basis_product((1, 0, 1), (2, 0, 2))


def test_slice_checks_group_degree_homogeneity(monkeypatch):
    # the product and the coproduct read the right multiplications, so an
    # entry of b_j v_x on a kept word of another group degree is caught:
    # x0 x0 = 0 in the chi slice, and every kept degree-2 word is a 3-cycle
    class Tampered(GradedBasis):
        @property
        def right(self):
            rows = super().right
            if self.degree == 2:
                rows[0][0] = {0: CycScalar.one(2)}
            return rows

    monkeypatch.setattr("rackcover.bosonization.GradedBasis", Tampered)
    with pytest.raises(InternalCheckError, match="leaves its group degree"):
        build_slice(s3_chi_datum(), 2)


# --- covering maps -----------------------------------------------------------------


def test_covering_c4_to_c2():
    source = rank_one_datum(group_order=4, q_order=2)
    target = rank_one_datum(group_order=2, q_order=2)
    c4, c2 = source.group, target.group
    hom = hom_from_generator_images(c4, c2, [1])
    result = covering_map_check(source, target, hom, cutoff=2)
    assert result.kernel_size == 2
    assert result.lifts_per_element == 2
    assert result.algebra_products_checked > 0
    assert result.coproducts_checked == 8


def test_covering_ends_at_the_top_degree():
    # B(V) = k[x]/(x^2) ends at degree 1, so every cutoff from 2 on checks
    # the same stored rows and coproducts, and no minimal-element degree
    source = rank_one_datum(group_order=4, q_order=2)
    target = rank_one_datum(group_order=2, q_order=2)
    hom = hom_from_generator_images(source.group, target.group, [1])
    result = covering_map_check(source, target, hom, cutoff=2)
    assert covering_map_check(source, target, hom, cutoff=1000) == result
    assert (result.algebra_products_checked, result.coproducts_checked) == (64, 8)


def test_covering_rejects_a_group_map_that_is_not_multiplicative():
    # a -> 1, b -> 2 from the Klein group onto C4, read along the closure
    # words: a bijection that keeps the degree and the trivial action, so
    # every check before the slices passes, but f(a a) = 0 != 2 = f(a) f(a)
    target = rank_one_datum(group_order=4, q_order=1)
    klein = FiniteGroup.from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)], label="V4")
    action = {g: ((0, CycScalar.one()),) for g in klein.elements}
    source = YDDatum(target.space, klein, (klein.generators[0],), action)
    yd_verify(source)
    hom = GroupHom(klein, target.group, (1, 2))
    with pytest.raises(YDDatumError, match="not multiplicative") as err:
        covering_map_check(source, target, hom, cutoff=2)
    assert err.value.kind == "NotCompatible"


def test_covering_identity_map():
    datum = rank_one_datum(group_order=2, q_order=2)
    hom = hom_from_generator_images(datum.group, datum.group, [1])
    result = covering_map_check(datum, datum, hom, cutoff=2)
    assert result.kernel_size == 1
    assert result.lifts_per_element == 1


def test_covering_c6_to_c2():
    source = rank_one_datum(group_order=6, q_order=2)
    target = rank_one_datum(group_order=2, q_order=2)
    hom = hom_from_generator_images(source.group, target.group, [1])
    result = covering_map_check(source, target, hom, cutoff=2)
    assert result.kernel_size == 3
    assert result.lifts_per_element == 3


def test_covering_checks_the_degree_of_each_minimal_element(monkeypatch):
    # each minimal element's words have one degree in S_3; an element whose
    # words t0 t1 and t0 t0 have the degrees t0 t1 and 1 is caught
    datum = s3_chi_datum()
    hom = hom_from_generator_images(datum.group, datum.group, datum.group.generators)
    result = covering_map_check(datum, datum, hom, cutoff=2)
    assert result.minimal_elements_checked == len(minimal_elements(datum.space, 2)) > 0
    one = CycScalar.one()
    mixed = MinimalElement(2, ((0, 0), (0, 1)), (((0, 0), one), ((0, 1), one)))
    monkeypatch.setattr("rackcover.nichols.minimal_elements", lambda space, degree: [mixed])
    with pytest.raises(InternalCheckError, match="several degrees"):
        covering_map_check(datum, datum, hom, cutoff=2)


def test_covering_rejects_nontrivial_kernel_action():
    source = rank_one_datum(group_order=4, q_order=4)
    target = rank_one_datum(group_order=2, q_order=2)
    hom = hom_from_generator_images(source.group, target.group, [1])
    with pytest.raises(YDDatumError) as err:
        covering_map_check(source, target, hom, cutoff=1)
    assert err.value.kind == "NotCompatible"


# --- file form -----------------------------------------------------------------------


def test_datum_json_round_trip():
    datum = rank_one_datum(group_order=4, q_order=2)
    data = datum_to_json(datum)
    back = datum_from_json(data)
    assert back.group.order == 4
    assert back.degrees == datum.degrees
    for g in back.group.elements:
        assert back.action[g] == datum.action[g]


def test_s3_datum_json_round_trip():
    datum = s3_chi_datum()
    data = datum_to_json(datum)
    back = datum_from_json(data)
    assert back.group.order == 6
    assert yd_verify(back) == {back.group.identity}


def test_slice_structure_export():
    import json

    from rackcover.bosonization import slice_to_json

    datum = rank_one_datum(group_order=3, q_order=3)
    slice_ = build_slice(datum, 3)
    data = slice_to_json(slice_)
    json.dumps(data)  # serializable
    assert data["dimension"] == 9
    assert len(data["basis"]) == 9
    # KE = qEK sits in the exported product constants
    from rackcover.cyclotomic import parse_scalar

    ke = data["product"]["0,0,1 | 1,0,0"]
    ek = data["product"]["1,0,0 | 0,0,1"]
    assert set(ke) == set(ek)
    (key, value), = ke.items()
    assert parse_scalar(value) == root_of_unity(3)  # the Taft scalar
    assert parse_scalar(ek[key]) == CycScalar.one()
