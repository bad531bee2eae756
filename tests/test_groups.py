import pytest

from rackcover import groups
from rackcover.errors import BoundExceededError, ValidationError
from rackcover.groups import (
    FiniteGroup,
    closure_words,
    coset_quotient,
    group_to_json,
    load_group_json,
    perm_compose,
    perm_inverse,
)
from rackcover.racks import catalog, transposition_elements


def s_n(n):
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return FiniteGroup.from_permutations(gens, label=f"S{n}")


def quaternion_group():
    # Q8 as a table over {1, -1, i, -i, j, -j, k, -k} in that order
    e, m, i, mi, j, mj, k, mk = range(8)
    neg = {e: m, m: e, i: mi, mi: i, j: mj, mj: j, k: mk, mk: k}
    base = {
        (e, e): e, (e, i): i, (e, j): j, (e, k): k,
        (i, e): i, (j, e): j, (k, e): k,
        (i, i): m, (j, j): m, (k, k): m,
        (i, j): k, (j, k): i, (k, i): j,
        (j, i): mk, (k, j): mi, (i, k): mj,
    }

    def mul(a, b):
        sign = 0
        if a in (m, mi, mj, mk):
            a, sign = neg[a], sign ^ 1
        if b in (m, mi, mj, mk):
            b, sign = neg[b], sign ^ 1
        r = base[(a, b)]
        return neg[r] if sign else r

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup.from_table(table, label="Q8")


def test_perm_utilities():
    p = (1, 2, 0)
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)


def test_closure_orders():
    assert s_n(3).order == 6
    assert s_n(4).order == 24
    assert FiniteGroup.cyclic(7).order == 7


def test_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroup.from_table([[0, 1], [1, 1]])  # 1 has no inverse


def test_element_orders_and_center():
    s3 = s_n(3)
    assert s3.order_histogram() == {1: 1, 2: 3, 3: 2}
    assert s3.center() == [s3.identity]
    q8 = quaternion_group()
    assert len(q8.center()) == 2
    assert q8.order_histogram() == {1: 1, 2: 1, 4: 6}


def test_abelian_invariants():
    assert FiniteGroup.cyclic(12).abelian_invariants() == (12,)
    assert s_n(4).abelian_invariants() == (2,)
    assert quaternion_group().abelian_invariants() == (2, 2)
    # C2 x C4 from a direct-product table
    c2, c4 = 2, 4
    table = [
        [((a % c2 + b % c2) % c2) + c2 * ((a // c2 + b // c2) % c4) for b in range(8)]
        for a in range(8)
    ]
    g = FiniteGroup.from_table(table)
    assert g.abelian_invariants() == (2, 4)


def test_subgroup_and_normal_closure():
    s3 = s_n(3)
    rot = (1, 2, 0)
    assert len(s3.subgroup_closure([rot])) == 3
    swap = (1, 0, 2)
    assert len(s3.normal_closure([swap])) == 6


def _normal_closure_by_every_conjugate(group, gens):
    """The reference: close over `gens` and their conjugates, then add
    every conjugate of every element until nothing new appears."""
    conj = {group.mul(group.mul(h, g), group.inv(h)) for g in gens for h in group.generators}
    current = group.subgroup_closure(set(gens) | conj)
    while True:
        extra = {group.mul(group.mul(h, e), group.inv(h))
                 for e in current for h in group.generators} - current
        if not extra:
            return current
        current = group.subgroup_closure(current | extra)


@pytest.mark.parametrize("spec", [
    "transpositions:4", "transpositions:5", "tetrahedron", "affine:7,3", "four_cycles_S4",
])
def test_normal_closure_matches_the_closure_over_every_conjugate(spec):
    inner = catalog(spec).inner_group()
    comms = [inner.commutator(a, b) for a in inner.generators for b in inner.generators]
    derived = inner.derived_subgroup()
    assert derived == _normal_closure_by_every_conjugate(inner, comms)
    assert inner.is_normal(derived)
    # one generator's normal closure, too: the whole rack's inner group here
    first = inner.generators[0]
    assert inner.normal_closure([first]) == _normal_closure_by_every_conjugate(inner, [first])


def test_normal_closure_keeps_only_new_generators():
    # A_7 from the commutators of S_7's transpositions: each kept generator
    # at least doubles the subgroup, so a handful of closures suffice
    inner = catalog("transpositions:7").inner_group()
    count = 0
    mul = inner.mul

    def counting(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    comms = [inner.commutator(a, b) for a in inner.generators for b in inner.generators]
    inner.mul = counting
    derived = inner.normal_closure(comms)
    assert len(derived) == 2520
    assert count < 20_000


def test_quotient():
    s3 = s_n(3)
    a3 = s3.subgroup_closure([(1, 2, 0)])
    quot, proj = s3.quotient(a3)
    assert quot.order == 2
    assert proj[s3.identity] == proj[(1, 2, 0)]
    with pytest.raises(ValidationError):
        s3.quotient(s3.subgroup_closure([(1, 0, 2)]))  # not normal


# exported slice keys and datum files carry group element indices, so the
# closure's element order, its words and the coset numbering are pinned
S4_ELEMENTS = [
    (0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0), (0, 2, 1, 3), (0, 3, 2, 1),
    (0, 1, 3, 2), (2, 0, 1, 3), (3, 0, 2, 1), (1, 2, 0, 3), (1, 3, 2, 0), (1, 0, 3, 2),
    (3, 1, 0, 2), (2, 3, 0, 1), (2, 1, 3, 0), (3, 2, 1, 0), (0, 3, 1, 2), (0, 2, 3, 1),
    (3, 0, 1, 2), (2, 3, 1, 0), (2, 0, 3, 1), (3, 2, 0, 1), (1, 3, 0, 2), (1, 2, 3, 0),
]
S4_WORDS = [
    (), (0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5), (0, 1, 2), (0, 1, 4), (0, 1, 5),
    (0, 2, 3), (0, 3, 4), (0, 3, 5),
]


def test_closure_order_and_words_are_pinned():
    s4 = FiniteGroup.from_permutations(transposition_elements(4))
    assert s4.generators == transposition_elements(4)
    assert s4.elements == S4_ELEMENTS
    assert [s4.words[e] for e in s4.elements] == S4_WORDS
    c12 = FiniteGroup.cyclic(12)
    assert c12.elements == list(range(12))
    assert [c12.words[e] for e in c12.elements] == [(0,) * k for k in range(12)]


def test_quotient_numbers_cosets_by_first_element():
    s3 = FiniteGroup.from_permutations(transposition_elements(3))
    quot, proj = s3.quotient(s3.subgroup_closure([(1, 2, 0)]))
    assert s3.elements == [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0)]
    assert [proj[e] for e in s3.elements] == [0, 1, 1, 1, 0, 0]
    assert quot.elements == [0, 1] and quot.words == {0: (), 1: (1,)}


def test_coset_quotient_of_a_subgroup():
    # A4 / V4 inside S4: three cosets, numbered by their first elements
    s4 = FiniteGroup.from_permutations(transposition_elements(4))
    a4 = s4.subgroup_closure([(1, 2, 0, 3), (0, 2, 3, 1)])
    v4 = s4.subgroup_closure([(1, 0, 3, 2), (2, 3, 0, 1)])
    quot, proj = coset_quotient(s4, a4, v4)
    assert quot.order == 3 and set(proj) == a4
    firsts = [min((e for e in a4 if proj[e] == c), key=s4.index) for c in range(3)]
    assert firsts == sorted(firsts, key=s4.index)
    assert all(proj[s4.mul(a, b)] == quot.mul(proj[a], proj[b]) for a in a4 for b in a4)


def test_closure_words_multiply_to_their_elements():
    s4 = FiniteGroup.from_permutations(transposition_elements(4))
    words = closure_words(s4.identity, s4.generators, s4.mul)
    assert list(words) == s4.elements
    assert all(s4.product(s4.generators[i] for i in w) == e for e, w in words.items())
    assert s4.product([]) == s4.identity


def test_closure_is_bounded(monkeypatch):
    monkeypatch.setattr(groups, "MAX_CLOSURE", 23)
    with pytest.raises(BoundExceededError, match="exceeded 23 elements"):
        FiniteGroup.from_permutations(transposition_elements(4))
    assert FiniteGroup.from_permutations(transposition_elements(3)).order == 6


def test_table_generators_must_generate():
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(ValidationError, match="do not generate"):
        FiniteGroup.from_table(table, generators=[2])


def test_fingerprint_distinguishes_q8_from_d4():
    # both order 8, nonabelian; the element-order histogram separates them
    d4 = FiniteGroup.from_permutations([(1, 2, 3, 0), (1, 0, 3, 2)], label="D4")
    assert d4.order == 8
    assert quaternion_group().fingerprint() != d4.fingerprint()


def test_group_json_round_trip():
    s3 = s_n(3)
    data = group_to_json(s3)
    assert data["degree"] == 3
    back = load_group_json(data)
    assert back.order == 6
    q8 = quaternion_group()
    data = group_to_json(q8)
    assert data["order"] == 8
    assert load_group_json(data).fingerprint() == q8.fingerprint()
