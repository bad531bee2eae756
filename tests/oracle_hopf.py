"""Reference Hopf-axiom verifier: every axiom on the slice's keyed elements.

The library verifies a slice on position-indexed tables (see
`rackcover.bosonization.verify_hopf`).  This module keeps the direct
version it replaced, as a second path to compare against: basis elements
are `(degree, index, group)` keys, read through the slice's
`basis_product`, `basis_coproduct` and `basis_antipode`, scalars stay the
stored `CycScalar`s, and every sum goes through `add_terms`/`axpy`, which
drop zeros as they go, so two sides are compared with a plain `==`.
"""

from rackcover.bosonization import Element, GradedHopfSlice, HopfReport
from rackcover.cyclotomic import CycScalar
from rackcover.errors import AxiomFailsError
from rackcover.linalg import add_terms, axpy


def multiply(slice_, a: Element, b: Element) -> Element:
    """The product of two keyed elements, one basis product per term."""
    out: Element = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            axpy(out, ca * cb, slice_.basis_product(ka, kb))
    return out


def apply_antipode(slice_: GradedHopfSlice, element: Element) -> Element:
    out: Element = {}
    for key, coeff in element.items():
        axpy(out, coeff, slice_.basis_antipode(key))
    return out


def oracle_verify_hopf(slice_: GradedHopfSlice) -> HopfReport:
    """The same checks, instance counts and report as `verify_hopf`;
    raises AxiomFailsError at the first violation."""
    datum = slice_.datum
    group = datum.group
    D = slice_.cutoff
    axioms = []
    skipped = []
    one = CycScalar.one()

    # counit
    checked = 0
    for key in slice_.basis:
        terms = slice_.basis_coproduct(key).items()
        left: Element = {}
        right: Element = {}
        # epsilon on one slot keeps the other, and only degree 0 survives it
        add_terms(left, ((kb, c) for (ka, kb), c in terms if ka[0] == 0))
        add_terms(right, ((ka, c) for (ka, kb), c in terms if kb[0] == 0))
        if left != {key: one} or right != {key: one}:
            raise AxiomFailsError("counit", key)
        checked += 1
    axioms.append(("counit", checked, "all degrees"))

    # coassociativity
    checked = 0
    for key in slice_.basis:
        lhs: dict = {}
        rhs: dict = {}
        for (ka, kb), coeff in slice_.basis_coproduct(key).items():
            add_terms(lhs, (
                ((kc, kd, kb), coeff * c2)
                for (kc, kd), c2 in slice_.basis_coproduct(ka).items()
            ))
            add_terms(rhs, (
                ((ka, kc, kd), coeff * c2)
                for (kc, kd), c2 in slice_.basis_coproduct(kb).items()
            ))
        if lhs != rhs:
            raise AxiomFailsError("coassociativity", key)
        checked += 1
    axioms.append(("coassociativity", checked, "all degrees"))

    # unit
    unit = {slice_.unit_key(): one}
    checked = 0
    for key in slice_.basis:
        e = {key: one}
        if multiply(slice_, unit, e) != e:
            raise AxiomFailsError("left unit", key)
        if multiply(slice_, e, unit) != e:
            raise AxiomFailsError("right unit", key)
        checked += 1
    axioms.append(("unit", checked, "all degrees"))

    # associativity in closed degrees
    checked = 0
    closed_note = f"degree triples summing to <= {D}"
    for ka in slice_.basis:
        for kb in slice_.basis:
            if ka[0] + kb[0] > D:
                continue
            ab = slice_.basis_product(ka, kb)
            for kc in slice_.basis:
                if ka[0] + kb[0] + kc[0] > D:
                    continue
                # (ab)c and a(bc), one basis product per term
                lhs: Element = {}
                for k, coeff in ab.items():
                    axpy(lhs, coeff, slice_.basis_product(k, kc))
                rhs: Element = {}
                for k, coeff in slice_.basis_product(kb, kc).items():
                    axpy(rhs, coeff, slice_.basis_product(ka, k))
                if lhs != rhs:
                    raise AxiomFailsError("associativity", (ka, kb, kc))
                checked += 1
    axioms.append(("associativity", checked, closed_note))
    if D >= 1:
        skipped.append(
            ("associativity", f"triples of total degree > {D} leave the slice")
        )

    # bialgebra compatibility in closed degrees
    checked = 0
    for ka in slice_.basis:
        for kb in slice_.basis:
            if ka[0] + kb[0] > D:
                continue
            ab = slice_.basis_product(ka, kb)
            lhs: dict = {}
            for kc, coeff in ab.items():
                axpy(lhs, coeff, slice_.basis_coproduct(kc))
            rhs: dict = {}
            for (ka1, ka2), c1 in slice_.basis_coproduct(ka).items():
                for (kb1, kb2), c2 in slice_.basis_coproduct(kb).items():
                    coeff = c1 * c2
                    left = slice_.basis_product(ka1, kb1)
                    right = slice_.basis_product(ka2, kb2)
                    add_terms(rhs, (
                        ((kl, kr), coeff * cl * cr)
                        for kl, cl in left.items()
                        for kr, cr in right.items()
                    ))
            if lhs != rhs:
                raise AxiomFailsError("bialgebra", (ka, kb))
            checked += 1
    axioms.append(("bialgebra", checked, f"degree pairs summing to <= {D}"))

    # antipode identities (always closed: coproduct legs share the degree)
    checked = 0
    for key in slice_.basis:
        lhs: Element = {}
        rhs: Element = {}
        for (ka, kb), coeff in slice_.basis_coproduct(key).items():
            sa = apply_antipode(slice_, {ka: coeff})
            add_terms(lhs, multiply(slice_, sa, {kb: one}).items())
            sb = apply_antipode(slice_, {kb: one})
            add_terms(rhs, multiply(slice_, {ka: coeff}, sb).items())
        target = {slice_.unit_key(): one} if key[0] == 0 else {}
        if lhs != target or rhs != target:
            raise AxiomFailsError("antipode", key)
        checked += 1
    axioms.append(("antipode", checked, "all degrees"))

    # group-likes: exactly the degree-0 basis (vertices)
    for key in slice_.group_like_keys():
        expected = {(key, key): one}
        if slice_.basis_coproduct(key) != expected:
            raise AxiomFailsError("group-like", key)
    group_likes = len(slice_.group_like_keys())
    if group_likes != group.order:
        raise AxiomFailsError("group-like count", group_likes)

    # skew-primitives: arrows v_x # g between the right vertices
    if D >= 1:
        for x in range(datum.space.dim):
            for g in group.elements:
                gi = group.index(g)
                key = (1, x, gi)
                dx = group.index(group.mul(datum.degrees[x], g))
                expected = {
                    (key, (0, 0, gi)): one,
                    ((0, 0, dx), key): one,
                }
                if slice_.basis_coproduct(key) != expected:
                    raise AxiomFailsError("skew-primitive", key)

    return HopfReport(
        dimension=slice_.dimension,
        group_likes=group_likes,
        axioms=tuple(axioms),
        skipped=tuple(skipped),
    )
