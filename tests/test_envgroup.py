import pytest

from rackcover import coset
from rackcover.coset import todd_coxeter
from rackcover.envgroup import (
    abelianization,
    covering_lattice,
    enveloping_presentation,
    hom_from_generator_images,
    rack_inner_hom,
    verify_quotient,
)
from rackcover.errors import (
    CosetLimitError,
    InternalCheckError,
    NotSurjectiveError,
    RelatorFailsError,
    ValidationError,
)
from rackcover.groups import FiniteGroup
from rackcover.presentations import Presentation, format_word, free_reduce, parse_word
from rackcover.racks import (
    abelian_rack,
    affine_rack,
    catalog,
    rack_verify,
    reflections_d4_rack,
    tetrahedron_rack,
    transpositions_rack,
)
from tests.oracle_coset import reference_todd_coxeter


def s3_group():
    return FiniteGroup.from_permutations([(1, 0, 2), (0, 2, 1)], label="S3")


# --- presentations and words -------------------------------------------------


def test_word_round_trip():
    labels = ("x1", "x2", "x3")
    word = (1, 2, -1, -3)
    text = format_word(word, labels)
    assert text == "x1 x2 x1^-1 x3^-1"
    assert parse_word(text, labels) == word
    assert parse_word("a b a^-1 b^-1", labels) == (1, 2, -1, -2)
    assert parse_word("x1^3", labels) == (1, 1, 1)
    assert parse_word("1", labels) == ()


def test_presentation_json_round_trip():
    pres = Presentation.make(2, [(1, 2, -1, -2)])
    data = pres.to_json()
    back = Presentation.from_json(data)
    assert back.ngens == 2 and back.relators == pres.relators


def test_presentation_dedupes_and_reduces():
    pres = Presentation.make(
        2,
        [
            (1, 2, -1, -2),
            (2, 1, -2, -1),  # the inverse relator, dropped as duplicate
            (1, -1),  # freely trivial
        ],
    )
    assert len(pres.relators) == 1


# --- enveloping presentations -------------------------------------------------


def test_enveloping_s3_transpositions():
    pres = enveloping_presentation(transpositions_rack(3))
    assert pres.ngens == 3
    assert len(pres.relators) == 6


def test_enveloping_singleton():
    pres = enveloping_presentation(abelian_rack(1))
    assert pres.ngens == 1 and pres.relators == ()


def test_enveloping_abelian2():
    pres = enveloping_presentation(abelian_rack(2))
    assert pres.ngens == 2
    assert len(pres.relators) == 1  # a single commutator


def test_abelianization_free_rank_equals_rack_orbits():
    for rack in (
        transpositions_rack(3),
        transpositions_rack(4),
        transpositions_rack(5),
        catalog("four_cycles_S4"),
        tetrahedron_rack(),
        affine_rack(5, 2),
        affine_rack(5, 3),
        affine_rack(7, 3),
        affine_rack(7, 5),
        reflections_d4_rack(),
        abelian_rack(2),
    ):
        free_rank, torsion = abelianization(enveloping_presentation(rack))
        assert free_rank == len(rack.orbits()), rack
        assert torsion == (), rack


# --- quotient verification -----------------------------------------------------


def test_verify_quotient_s3():
    rack = transpositions_rack(3)
    pres = enveloping_presentation(rack)
    from rackcover.racks import transposition_elements

    hom = verify_quotient(pres, s3_group(), transposition_elements(3))
    assert hom.images[0] == (1, 0, 2)


def test_verify_quotient_tetrahedron():
    hom = rack_inner_hom(tetrahedron_rack())
    assert hom.target.order == 12


def test_verify_quotient_all_catalog_racks_onto_inner():
    for rack in (
        transpositions_rack(4),
        catalog("four_cycles_S4"),
        affine_rack(7, 5),
        reflections_d4_rack(),
        abelian_rack(2),
    ):
        hom = rack_inner_hom(rack)
        assert hom.target.order == rack.inner_group().order


def test_verify_quotient_failures():
    rack = transpositions_rack(3)
    pres = enveloping_presentation(rack)
    s3 = s3_group()
    ident = s3.identity
    with pytest.raises(NotSurjectiveError):
        verify_quotient(pres, s3, [ident, ident, ident])
    # wrong images break a relator
    with pytest.raises(RelatorFailsError):
        verify_quotient(pres, s3, [(1, 0, 2), (1, 0, 2), (0, 2, 1)])


# --- Todd-Coxeter ----------------------------------------------------------------


def test_tc_cyclic_five():
    pres = Presentation.make(1, [(1, 1, 1, 1, 1)])
    assert todd_coxeter(pres) == 5


def test_tc_s3_from_enveloping():
    # adding g_a^2 = 1 to the enveloping presentation of the transposition
    # rack of S_3 collapses the infinite group to S_3 itself; oracle:
    # eliminating c = a b a^-1 leaves <a, b | a b a = b a b, a^2 = b^2>,
    # and with a^2 = 1 that is the standard Coxeter presentation of S_3
    pres = enveloping_presentation(transpositions_rack(3))
    assert todd_coxeter(pres, extra_relators=((1, 1),)) == 6


def test_tc_s3_oracle_presentation():
    # the reduced two-generator presentation, enumerated independently
    pres = Presentation.make(2, [(1, 2, 1, -2, -1, -2), (1, 1), (2, 2)])
    assert todd_coxeter(pres) == 6


def test_tc_coxeter_style_orders():
    # <a, b | a^2, b^2, (ab)^3> = S_3; <a,b | a^2, b^2, (ab)^4> = D_4
    for m, order in ((3, 6), (4, 8), (5, 10)):
        pres = Presentation.make(2, [(1, 1), (2, 2), (1, 2) * m])
        assert todd_coxeter(pres) == order


def test_tc_s4_coxeter():
    pres = Presentation.make(
        3,
        [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2],
    )
    assert todd_coxeter(pres) == 24


def test_tc_subgroup_index():
    # index of <a> in S_3 = <a, b | a^2, b^2, (ab)^3> is 3
    pres = Presentation.make(2, [(1, 1), (2, 2), (1, 2) * 3])
    assert todd_coxeter(pres, subgroup_generators=((1,),)) == 3
    # the whole group as subgroup gives index 1
    assert todd_coxeter(pres, subgroup_generators=((1,), (2,))) == 1


def test_tc_whole_group_index_one_enveloping():
    pres = enveloping_presentation(tetrahedron_rack())
    gens = tuple((i + 1,) for i in range(pres.ngens))
    assert todd_coxeter(pres, subgroup_generators=gens) == 1


def test_tc_limit():
    pres = enveloping_presentation(tetrahedron_rack())
    with pytest.raises(CosetLimitError) as err:
        todd_coxeter(pres, max_cosets=3)
    assert err.value.max_cosets == 3


def test_tc_tetrahedron_finite_quotient():
    # g_x^3 = 1 plus the enveloping relations give a quotient that still
    # surjects onto A_4 (order 12); enumeration must return a multiple of 12
    pres = enveloping_presentation(tetrahedron_rack())
    order = todd_coxeter(pres, extra_relators=((1, 1, 1),), max_cosets=20000)
    assert order % 12 == 0


# the connected catalog racks up to 5 elements (dihedral:3 and affine:3,2 are
# transpositions:3): the quotients of their enveloping groups by x1^k close
# in the reference enumerator for k = 2..6; the other small racks' do not
_SMALL_CONNECTED = [
    "transpositions:3", "tetrahedron", "dihedral:5", "affine:5,2", "affine:5,3",
    "affine:5,4", "abelian:1",
]


@pytest.mark.parametrize("name", _SMALL_CONNECTED)
def test_tc_matches_reference_enumerator(name):
    pres = enveloping_presentation(catalog(name))
    for k in range(2, 7):
        extra = ((1,) * k,)
        assert todd_coxeter(pres, extra_relators=extra) == (
            reference_todd_coxeter(pres, extra_relators=extra)
        )


def test_tc_subgroup_index_matches_reference_enumerator():
    cases = [
        ("transpositions:3", ((1, 1),), ((1,),)),
        ("tetrahedron", ((1, 1, 1),), ((1,),)),
        ("tetrahedron", ((1, 1, 1),), ((1, 2),)),
        ("affine:5,2", ((1, 1, 1, 1),), ((1,), (2, -3))),
        ("dihedral:5", ((1, 1),), ((1, 2, 1),)),
        ("transpositions:4", ((1, 1),), ((1,), (2,))),
    ]
    for name, extra, subgroup in cases:
        pres = enveloping_presentation(catalog(name))
        index = todd_coxeter(pres, extra_relators=extra, subgroup_generators=subgroup)
        assert index == reference_todd_coxeter(
            pres, extra_relators=extra, subgroup_generators=subgroup
        )


# indices of the enveloping group modulo x1^k for k = 2, 4, 6; FK_4 is
# transpositions:4
_POWER_QUOTIENTS = {
    "transpositions:4": (24, 48, 72),
    "tetrahedron": (2, 4, 48),
    "affine:5,2": (2, 20, 6),
    "four_cycles_S4": (6, 96, 18),
    "affine:7,3": (2, 4, 42),
}


@pytest.mark.parametrize("name", sorted(_POWER_QUOTIENTS))
def test_tc_power_quotients_match_reference_enumerator(name):
    # one HLT pass against the whole-pass follow-and-define enumerator
    pres = enveloping_presentation(catalog(name))
    for k, index in zip((2, 4, 6), _POWER_QUOTIENTS[name]):
        extra = ((1,) * k,)
        assert todd_coxeter(pres, extra_relators=extra) == index
        assert reference_todd_coxeter(pres, extra_relators=extra) == index


def test_tc_one_pass_defines_what_two_passes_did():
    # S_5 from transpositions:5 and x1^2: the one pass defines the 259
    # cosets that a pass followed by a second, defining nothing, did
    pres = enveloping_presentation(catalog("transpositions:5"))
    relators = [
        coset._symbols(free_reduce(rel)) for rel in pres.relators + ((1, 1),)
    ]
    table = coset._enumerate(pres.ngens, relators, [], 100_000)
    coset._certify_closed(table, relators, [])
    assert len(table.live()) == 120
    assert len(table.labels) == 1 + 259  # coset 0, then the ones defined


def test_tc_closure_certificate_trips_on_tampered_tables(monkeypatch):
    # Z/5 = <x | x^5>: one generator, symbols 0 (x) and 1 (x^-1)
    relators = [(0,) * 5]
    table = coset._enumerate(1, relators, [], 100)
    coset._certify_closed(table, relators, [])
    with pytest.raises(InternalCheckError, match="relator"):
        coset._certify_closed(table, relators + [(0, 0)], [])
    with pytest.raises(InternalCheckError, match="subgroup"):
        coset._certify_closed(table, relators, [(0,)])
    table.neighbors[0][0] = coset._UNDEF
    with pytest.raises(InternalCheckError, match="edge"):
        coset._certify_closed(table, relators, [])
    # a tampered table out of the enumeration is refused by todd_coxeter
    monkeypatch.setattr(coset, "_enumerate", lambda *args: table)
    with pytest.raises(InternalCheckError):
        todd_coxeter(Presentation.make(1, [(1,) * 5]))


def test_tc_one_way_edge_trips_certificate():
    # Z/2 x Z/2 = <x, y | x y x^-1 y^-1, x^2, y^2>: x is symbol 0, y is 2
    relators = [(0, 2, 1, 3), (0, 0), (2, 2)]
    table = coset._enumerate(2, relators, [], 100)
    coset._certify_closed(table, relators, [])
    # point x at coset 0 to another coset, leaving the inverse edges alone
    table.neighbors[0][0] = next(
        d for d in table.live() if d not in (0, table.target(0, 0))
    )
    with pytest.raises(InternalCheckError, match="one-way"):
        coset._certify_closed(table, relators, [])


# --- covering lattice -------------------------------------------------------------


def test_covering_lattice_c4_to_c2():
    c4 = FiniteGroup.from_permutations([(1, 2, 3, 0)], label="C4")
    c2 = FiniteGroup.from_permutations([(1, 0)], label="C2")
    hom = hom_from_generator_images(c4, c2, [(1, 0)])
    lattice = covering_lattice(hom)
    assert lattice.count == 2
    assert sorted(c.order for c in lattice.coverings) == [2, 4]
    assert len(lattice.commutator) == 1


def test_covering_lattice_s3_to_c2():
    s3 = FiniteGroup.from_permutations([(1, 0, 2), (0, 2, 1)], label="S3")
    c2 = FiniteGroup.from_permutations([(1, 0)], label="C2")
    hom = hom_from_generator_images(s3, c2, [(1, 0), (1, 0)])
    lattice = covering_lattice(hom)
    # N = A_3 and [N, S_3] = A_3, so the only covering is C_2 itself
    assert lattice.count == 1
    assert lattice.coverings[0].order == 2
    assert len(lattice.commutator) == 3


def test_covering_lattice_q8_to_v4():
    # Q8 -> Q8/center: kernel C_2 central, so both subgroups of it qualify
    from tests.test_groups import quaternion_group

    q8 = quaternion_group()
    center = set(q8.center())
    v4, proj = q8.quotient(center)
    images = [proj[g] for g in q8.generators]
    hom = hom_from_generator_images(q8, v4, images)
    lattice = covering_lattice(hom)
    assert lattice.count == 2
    assert sorted(c.order for c in lattice.coverings) == [4, 8]
    fingerprints = {c.fingerprint() for c in lattice.coverings}
    assert q8.fingerprint() in fingerprints
    assert v4.fingerprint() in fingerprints


def test_covering_lattice_orders_multiply():
    c6 = FiniteGroup.from_permutations([(1, 2, 3, 4, 5, 0)], label="C6")
    c2 = FiniteGroup.from_permutations([(1, 0)], label="C2")
    hom = hom_from_generator_images(c6, c2, [(1, 0)])
    lattice = covering_lattice(hom)
    # N = C_3 has two subgroups; abelian source, so both appear
    assert lattice.count == 2
    for middle, cover in zip(lattice.middles, lattice.coverings):
        assert cover.order * len(middle) == c6.order


def test_hom_rejects_non_homomorphism():
    c4 = FiniteGroup.from_permutations([(1, 2, 3, 0)], label="C4")
    c3 = FiniteGroup.from_permutations([(1, 2, 0)], label="C3")
    with pytest.raises(ValidationError):
        hom_from_generator_images(c4, c3, [(1, 2, 0)])
