"""Bosonizations of the graded braided algebra by a finite group.

A Yetter-Drinfeld datum equips the braided space with a finite group G, a
G-grading deg: X -> G and a monomial G-action; the induced braiding
(act by the degree of the left factor, then swap) must reproduce c^q.
The bosonization has basis {b # g} with b running through the chosen
graded image bases and g in G:

* product:   (b # g)(b' # g') = (b * g.b') # g g',  with * the braided
  shuffle product of graded components.  For b' the image of its kept
  word v and g.v = (w, s) the monomial action letter by letter,
  b * g.b' = s b v_w1 ... v_wk, since the image of words is an algebra map
  that commutes with the diagonal G-action (the braiding is a
  Yetter-Drinfeld map).  Its coordinates come from the graded-component
  engine's right multiplications R_x (nichols.GradedBasis), one letter at
  a time, with no elimination;
* coproduct: the braided coproduct of b with the group degree of the
  right part inserted: (b # g) -> sum (b1 # deg(b2) g) (x) (b2 # g).  It
  is an algebra map into the braided tensor product, so
  Delta(b v_x) = Delta(b)(v_x (x) 1 + 1 (x) v_x) builds it letter by
  letter from the same right multiplications R_x, with no elimination;
* antipode:  Radford's S(b # g) = (1 # (deg(b) g)^-1)(S_B(b) # 1), with S_B
  the convolution inverse of B(V)'s identity (J. Algebra 92 (1985)).

A slice stores one product row b * g.b' per (b # g, b'), and one Delta(b)
and one S_B(b) per b, over B(V)'s kept basis up to its top degree; the
`basis_product`, `basis_coproduct` and `basis_antipode` of
`GradedHopfSlice` add the group keys above when read.

Axioms that cannot close inside a degree-D slice (products whose total
degree exceeds D) are skipped and reported as such; everything else is
checked exactly on basis elements.  The verifier compiles the slice once,
as stored, over the `cyclotomic.Field` of the constants: one product row
of (level of B(V)'s basis, scalar) per stored (b # g, b') in closed
degrees, and coproducts and antipodes per basis position, with the group
keys added by the same rules as the accessors.  Sums keep the zeros that
cancellation leaves, and two sides are compared with == and, only when
that fails, again with zero entries dropped; a zero entry and an absent
key are the same coordinate, so both comparisons are exact.  A product
row does not depend on g', so the tables are right G-equivariant by
construction, and the verifier decides each right G-orbit of
associativity triples and bialgebra pairs with one evaluation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import lcm

from .braiding import BraidedSpace
from .cyclotomic import MAX_ORDER, CycScalar, Field, parse_scalar
from .errors import (
    AxiomFailsError,
    BoundExceededError,
    InternalCheckError,
    ValidationError,
    YDDatumError,
    malformed,
    require_int,
)
from .groups import FiniteGroup, closure_words
from .linalg import add_terms, axpy
from .nichols import GradedBasis

BasisKey = tuple[int, int, int]  # (degree, basis index, group element index)
Element = dict  # BasisKey -> CycScalar


@dataclass
class YDDatum:
    """Braided space + finite group + grading + monomial action."""

    space: BraidedSpace
    group: FiniteGroup
    degrees: tuple  # group element per rack element
    action: dict  # group element -> tuple over x of (x', CycScalar)

    def act_index(self, g, x: int) -> tuple[int, CycScalar]:
        return self.action[g][x]

    def act_on_word(self, g, word) -> tuple[tuple, CycScalar]:
        """g acting on a word letter by letter: (g.x1 ... g.xn, s1 ... sn).
        The product starts from 1 in Q(zeta_N), N the cocycle order, so
        slice constants keep the field order of the graded components'
        scalars, which the exported 'N k' forms are written in."""
        scalar = CycScalar.one(self.space.cocycle.order)
        out = []
        for x in word:
            tx, s = self.action[g][x]
            out.append(tx)
            scalar = scalar * s
        return tuple(out), scalar

    def degree_of_word(self, word) -> object:
        return self.group.product(self.degrees[x] for x in word)

    def trivially_acting(self) -> set:
        one = CycScalar.one()
        return {
            g
            for g in self.group.elements
            if all(
                self.action[g][x][0] == x and self.action[g][x][1] == one
                for x in range(self.space.dim)
            )
        }

    def is_link_indecomposable(self) -> bool:
        return (
            len(self.group.subgroup_closure(set(self.degrees)))
            == self.group.order
        )


def yd_verify(datum: YDDatum) -> set:
    """Check all datum invariants; returns the set of trivially-acting
    elements (a normal subgroup, central when the degrees generate)."""
    group, space = datum.group, datum.space
    n = space.dim
    for g in group.elements:
        if g not in datum.action:
            raise YDDatumError("NotAnAction", g)
        if len(datum.action[g]) != n:
            raise YDDatumError("NotAnAction", g)
    one = CycScalar.one()
    ident = group.identity
    for x in range(n):
        tx, sx = datum.act_index(ident, x)
        if tx != x or sx != one:
            raise YDDatumError("NotAnAction", ("identity", x))
    for g in group.elements:
        for h in group.elements:
            gh = group.mul(g, h)
            for x in range(n):
                x1, s1 = datum.act_index(h, x)
                x2, s2 = datum.act_index(g, x1)
                x3, s3 = datum.act_index(gh, x)
                if x3 != x2 or s3 != s1 * s2:
                    raise YDDatumError("NotAnAction", (g, h, x))
    for g in group.elements:
        for x in range(n):
            tx, _ = datum.act_index(g, x)
            expected = group.mul(group.mul(g, datum.degrees[x]), group.inv(g))
            if datum.degrees[tx] != expected:
                raise YDDatumError("GradingIncompatible", (g, x))
    for x in range(n):
        for y in range(n):
            ty, s = datum.act_index(datum.degrees[x], y)
            if ty != space.rack.op(x, y) or s != space.cocycle.value(x, y):
                raise YDDatumError("BraidingMismatch", (x, y))
    trivial = datum.trivially_acting()
    for g in group.generators:
        for z in trivial:
            if group.mul(group.mul(g, z), group.inv(g)) not in trivial:
                raise InternalCheckError("trivially-acting set not normal")
    if datum.is_link_indecomposable():
        center = set(group.center())
        if not trivial <= center:
            raise InternalCheckError(
                "trivially-acting subgroup not central despite generating degrees"
            )
    return trivial


def quotient_datum(datum: YDDatum, z: set, label=None) -> tuple[YDDatum, dict]:
    """The induced datum over G/Z for a normal Z acting trivially on V.
    Returns (datum over the quotient, projection dict)."""
    group = datum.group
    if not group.is_normal(z):
        raise YDDatumError("NotCentral", z)
    trivial = datum.trivially_acting()
    if not set(z) <= trivial:
        raise YDDatumError("ActsNontrivially", set(z) - trivial)
    quot, proj = group.quotient(set(z), label=label)
    degrees = tuple(proj[d] for d in datum.degrees)
    reps: dict = {}
    for e in group.elements:
        reps.setdefault(proj[e], e)
    action = {}
    for q, rep in sorted(reps.items()):
        row = datum.action[rep]
        # well-defined because z acts trivially; verify on every member
        for e in group.elements:
            if proj[e] == q and datum.action[e] != row:
                raise InternalCheckError("quotient action not well defined")
        action[q] = row
    out = YDDatum(datum.space, quot, degrees, action)
    yd_verify(out)
    return out, proj


def rank_one_datum(group_order: int, q_order: int, exponent: int = 1) -> YDDatum:
    """One basis vector over the cyclic group of the given order: the
    distinguished generator K grades the vector and acts by a root of
    unity q = zeta^exponent of order q_order, which must divide the group
    order for the action to factor."""
    from .racks import abelian_rack
    from .braiding import Cocycle

    if group_order % q_order:
        raise ValidationError("the scalar's order must divide the group order")
    rack = abelian_rack(1)
    cocycle = Cocycle(rack, q_order, ((exponent % q_order,),))
    space = BraidedSpace(rack, cocycle)
    group = FiniteGroup.cyclic(group_order)
    q = CycScalar.root_of_unity(q_order, exponent)
    action = {
        j: ((0, q**j),) for j in group.elements
    }
    datum = YDDatum(space, group, (1 % group_order,), action)
    yd_verify(datum)
    return datum


def datum_from_generators(space: BraidedSpace, group: FiniteGroup, degrees) -> YDDatum:
    """Extend the braiding action of the degree elements to the whole group,
    which they must generate (the rack-type situation): each element acts
    through the rows of the letters of its closure word over the degrees.
    `yd_verify` rejects the result when the degrees do not generate the
    group or the extension is not a consistent datum."""
    degrees = tuple(degrees)
    if len(degrees) != space.dim:
        raise ValidationError("need one group degree per rack element")
    n = space.dim
    rows = [tuple((space.rack.op(x, y), space.cocycle.value(x, y)) for y in range(n))
            for x in range(n)]
    action = {}
    for e, word in closure_words(group.identity, degrees, group.mul).items():
        # (e d_x).v_y = e.(d_x.v_y): the letter's row, then the prefix's
        row = tuple((y, CycScalar.one()) for y in range(n))
        for x in word:
            row = tuple((row[y1][0], s1 * row[y1][1]) for y1, s1 in rows[x])
        action[e] = row
    datum = YDDatum(space, group, degrees, action)
    yd_verify(datum)
    return datum


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------


@dataclass
class GradedHopfSlice:
    """Structure constants of the bosonization up to a degree cutoff."""

    datum: YDDatum
    cutoff: int
    basis: list  # list of BasisKey, in sorted order
    # (keyA, (n2, i2)) -> {(n1 + n2, i): scalar}, only for closed degree pairs
    product: dict
    coproduct: dict  # (n, i) -> {(k, a, b): scalar}, Delta(b_i) over B(V)'s basis
    tag_degrees: list  # tag_degrees[n][i]: the group degree index of b_i
    times: list  # times[i][j]: the index of elements[i] * elements[j]
    antipode: dict  # (n, i) -> {(n, j): scalar}, S_B(b_i) over B(V)'s basis
    dims: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def unit_key(self) -> BasisKey:
        return (0, 0, self.datum.group.index(self.datum.group.identity))

    def group_like_keys(self) -> list[BasisKey]:
        return [key for key in self.basis if key[0] == 0]

    def closed_pairs(self):
        """The pairs (keyA, keyB) of total degree <= cutoff, in basis order."""
        for ka in self.basis:
            for kb in self.basis:
                if ka[0] + kb[0] > self.cutoff:
                    break
                yield ka, kb

    def basis_product(self, ka: BasisKey, kb: BasisKey) -> Element:
        """(b1 # g1)(b2 # g2): the stored row of (b1 # g1, b2), at g1 g2."""
        row = self.product.get((ka, kb[:2]))
        if row is None:
            raise BoundExceededError(
                f"product {ka} * {kb} leaves the degree-{self.cutoff} slice")
        g12 = self.times[ka[2]][kb[2]]
        return {(n, i, g12): c for (n, i), c in row.items()}

    def basis_coproduct(self, key: BasisKey) -> dict:
        """Delta(b # g) from the stored Delta(b) = sum C b_a (x) b_b."""
        n, i, gi = key
        return {((k, a, self.times[self.tag_degrees[n - k][b]][gi]), (n - k, b, gi)): c
                for (k, a, b), c in self.coproduct[(n, i)].items()}

    def basis_antipode(self, key: BasisKey) -> Element:
        """S(b # g) = (1 # h)(S_B(b) # 1), h = (deg(b) g)^-1: the stored rows
        of (1 # h, b_j); S(1 # g) keeps the order of the stored S_B(1)."""
        n, i, gi = key
        group = self.datum.group
        h = group.index(group.inv(group.elements[self.times[self.tag_degrees[n][i]][gi]]))
        if n == 0:
            return {(0, 0, h): c for c in self.antipode[(0, 0)].values()}
        out: dict = {}
        for (_, j), c in self.antipode[(n, i)].items():
            axpy(out, c, self.product[((0, 0, h), (n, j))])
        return {(m, k, h): c for (m, k), c in out.items()}


def build_slice(datum: YDDatum, cutoff: int, max_dim: int = 5000) -> GradedHopfSlice:
    """Structure constants on the basis {b # g} up to the degree cutoff.  No
    graded basis is built past B(V)'s first zero degree; `dims` is zero from
    there to the cutoff.  `max_dim` is checked after each degree;
    BoundExceededError carries the dims of the degrees built."""
    space = datum.space
    group = datum.group
    d = space.dim
    bases: list = []
    try:
        for n in range(cutoff + 1):
            bases.append(GradedBasis(space, n, previous=bases[-1] if bases else None))
            if (total := sum(basis.dim for basis in bases) * group.order) > max_dim:
                raise BoundExceededError(f"slice dimension {total} exceeds {max_dim}")
            if not bases[-1].dim:
                break
    except BoundExceededError as err:
        raise BoundExceededError(str(err), partial=tuple(b.dim for b in bases)) from None
    dims = tuple(basis.dim for basis in bases) + (0,) * (cutoff + 1 - len(bases))
    top = max(n for n, dim in enumerate(dims) if dim)
    basis_keys: list[BasisKey] = [(n, i, gi) for n in range(top + 1)
                                  for i in range(dims[n]) for gi in range(group.order)]
    elements = group.elements
    # times[i][j]: the index of elements[i] * elements[j]; the slice's
    # accessors read it for the group key of every entry
    times = [[group.index(group.mul(g1, g2)) for g2 in elements] for g1 in elements]
    # every kept element is G-homogeneous of the degree of its kept word, so
    # b_j v_x lies on kept words of degree deg(t_j) deg(x): checked on every
    # right multiplication, which the product and the coproduct both read
    tag_degrees = [
        [group.index(datum.degree_of_word(basis.words.word(t))) for t in basis.tags]
        for basis in bases
    ]
    for n in range(1, len(bases)):
        for x, rows in enumerate(bases[n].right):
            gx = group.index(datum.degrees[x])
            if any(tag_degrees[n][i] != times[tag_degrees[n - 1][j]][gx]
                   for j, row in enumerate(rows) for i in row):
                raise InternalCheckError(f"b v_{x} in degree {n} leaves its group degree")

    # --- product ---------------------------------------------------------
    # b_i1 * g1.b_i2 = s b_i1 v_w1 ... v_wk, g1.(word of t2) = (w, s): the
    # coordinates are b_i1's carried through the right multiplications
    # R_w1, ..., R_wk of the degrees above n1, once per (i1, g1, i2), until
    # they vanish at B(V)'s first zero degree
    unit = CycScalar.one(space.cocycle.order)
    product: dict = {}
    for n1 in range(top + 1):
        for n2 in range(min(top, cutoff - n1) + 1):
            total_deg = n1 + n2
            words = bases[n2].words
            for i1 in range(dims[n1]):
                for gi1, g1 in enumerate(elements):
                    for i2, t2 in enumerate(bases[n2].tags):
                        word, s = datum.act_on_word(g1, words.word(t2))
                        coords = {i1: unit}
                        for k, x in enumerate(word, start=n1 + 1):
                            if not coords:
                                break
                            coords = bases[k].times_letter(coords, x)
                        product[((n1, i1, gi1), (n2, i2))] = {
                            (total_deg, it): coeff * s for it, coeff in coords.items()
                        }

    # --- coproduct -------------------------------------------------------
    # Delta is an algebra map into the braided tensor product, so for the
    # kept b_i = b_j v_x (tag t_j d + x), Delta(b_i) = Delta(b_j)(v_x (x) 1
    # + 1 (x) v_x): a term C b_a (x) b_b of Delta(b_j) gives
    # C s (b_a v_x') (x) b_b + C b_a (x) (b_b v_x), where c(b_b (x) v_x) =
    # s v_x' (x) b_b moves v_x left past the letters of t_b by the cocycle,
    # at its order N.  coproduct[(n, i)] = {(k, a, b): C} of Delta(b_i), with
    # both products read from the right multiplications.
    N, op, exp = space.cocycle.order, space.rack.op, space.cocycle.exponents

    def moved(word, x) -> tuple:
        """(x', s) with c(v_word (x) v_x) = s v_x' (x) v_word."""
        e = 0
        for y in reversed(word):
            e, x = e + exp[y][x], op(y, x)
        return x, CycScalar.root_of_unity(N, e)

    passes = [  # passes[m][b][x] = moved(t_b, x), for the kept words of degree m
        [[moved(basis.words.word(t), x) for x in range(d)] for t in basis.tags]
        for basis in bases[:top]
    ]
    # Delta(1) = 1 (x) 1 and Delta(v_x) = v_x (x) 1 + 1 (x) v_x, at order 1;
    # degree 1, when the slice has it, keeps every letter, b_x = v_x
    one = CycScalar.one()
    coproduct = {(0, 0): {(0, 0, 0): one}}
    coproduct.update(((1, x), {(0, 0, x): one, (1, x, 0): one}) for x in range(d) if cutoff)
    for n in range(2, top + 1):
        lower = {t: j for j, t in enumerate(bases[n - 1].tags)}
        for i, t in enumerate(bases[n].tags):
            x, terms = t % d, {}
            for (k, a, b), c in coproduct[(n - 1, lower[t // d])].items():
                x2, s = passes[n - 1 - k][b][x]
                add_terms(terms, (((k + 1, a2, b), c * s * r)
                                  for a2, r in bases[k + 1].right[x2][a].items()))
                add_terms(terms, (((k, a, b2), c * r)
                                  for b2, r in bases[n - k].right[x][b].items()))
            coproduct[(n, i)] = terms

    # --- antipode --------------------------------------------------------
    # S_B, the convolution inverse of the identity on B(V)'s kept basis:
    # S_B(1) = 1 at order 1, and S_B(b) = -sum C S_B(b_a) b_b over the terms
    # C b_a (x) b_b of Delta(b) other than its top one, b (x) 1, with B(V)'s
    # products the stored rows at the identity of G
    e = group.index(group.identity)
    antipode = {(0, 0): {(0, 0): one}}
    for n in range(1, top + 1):
        for i in range(dims[n]):
            acc: dict = {}
            for (k, a, b), c in coproduct[(n, i)].items():
                if k == n:
                    if a != i:
                        raise InternalCheckError("unexpected top coproduct term")
                    continue
                for (_, j), cj in antipode[(k, a)].items():
                    axpy(acc, c * cj, product[((k, j, e), (n - k, b))])
            antipode[(n, i)] = {key: -v for key, v in acc.items()}

    return GradedHopfSlice(
        datum=datum,
        cutoff=cutoff,
        basis=basis_keys,
        product=product,
        coproduct=coproduct,
        tag_degrees=tag_degrees,
        times=times,
        antipode=antipode,
        dims=dims,
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopfReport:
    """Which axioms were checked, on how many instances, in which degrees."""

    dimension: int
    group_likes: int
    axioms: tuple  # (name, instances checked, degrees note)
    skipped: tuple  # (name, reason)


@dataclass
class _Tables:
    """A slice compiled for verification: basis elements are positions in
    `slice_.basis`, ordered (degree, index, group) with the group fastest,
    so b_j # elements[g] sits at j |G| + g for the level j of B(V)'s kept
    basis element b_j."""

    degree: list  # degree of each position
    closed: list  # closed[m]: the positions of degree <= m are range(closed[m])
    # product[a][j]: the stored row of (basis[a], b_j), ((level, scalar), ...),
    # for the levels j closed with basis[a]; its group index is g_a g_b
    product: list
    coproduct: list  # coproduct[p]: ((left, right, scalar), ...)
    antipode: list  # antipode[p]: ((position, scalar), ...)
    one: object  # the unit scalar of the tables' field


def _compile(slice_: GradedHopfSlice) -> _Tables:
    """Position-indexed structure tables over the `Field` of every product,
    coproduct and antipode constant, read from the slice as stored."""
    basis, D, G = slice_.basis, slice_.cutoff, slice_.datum.group.order
    levels = [(n, i) for n, dim in enumerate(slice_.dims) for i in range(dim)]
    if basis != [(n, i, g) for n, i in levels for g in range(G)]:
        raise InternalCheckError("slice basis is not ordered (degree, index, group)")
    level = {key: j for j, key in enumerate(levels)}
    degree = [key[0] for key in basis]
    closed = [bisect_right(degree, m) for m in range(D + 1)]
    tables = (slice_.product, slice_.coproduct, slice_.antipode)
    field = Field(
        c for table in tables for entry in table.values() for c in entry.values()
    )
    scalar = field.internal
    tag_degrees, times = slice_.tag_degrees, slice_.times

    product = [
        [tuple([(level[k], scalar(c)) for k, c in slice_.product[(ka, lv)].items()])
         for lv in levels[:closed[D - ka[0]] // G]]
        for ka in basis
    ]
    # Delta(b # g) = sum C (b_a # deg(b_b) g) (x) (b_b # g) over Delta(b)
    coproduct = [
        tuple([
            (level[(k, a)] * G + times[tag_degrees[n - k][b]][g],
             level[(n - k, b)] * G + g, scalar(c))
            for (k, a, b), c in slice_.coproduct[(n, i)].items()
        ])
        for n, i, g in basis
    ]
    # S(b # g) = (1 # h)(S_B(b) # 1), h = (deg(b) g)^-1: the compiled rows
    # of (1 # h, b_j), at position h, summed over S_B(b) = sum c_j b_j
    group = slice_.datum.group
    inv = [group.index(group.inv(x)) for x in group.elements]
    antipode = []
    for n, i in levels:
        s_b = [(level[k], scalar(c)) for k, c in slice_.antipode[(n, i)].items()]
        for g in range(G):
            h = inv[times[tag_degrees[n][i]][g]]
            row: dict = {}
            add_terms(row, ((k, c * s) for j, c in s_b for k, s in product[h][j]))
            antipode.append(tuple([(k * G + h, s) for k, s in row.items()]))
    return _Tables(degree, closed, product, coproduct, antipode, field.one)


def _gather(terms) -> dict:
    """The sum of (key, scalar) terms as a dict.  Each entry starts from its
    first term; entries that cancel stay, as zeros (see `_same`)."""
    acc: dict = {}
    for key, value in terms:
        if key in acc:
            acc[key] += value
        else:
            acc[key] = value
    return acc


def _same(lhs: dict, rhs: dict) -> bool:
    """Equality of sparse vectors.  A zero entry and an absent key are the
    same coordinate, so equal dicts are equal vectors, and dicts that
    differ are compared again with their zero entries dropped: both tests
    are exact."""
    return lhs == rhs or (
        {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}
    )


def verify_hopf(slice_: GradedHopfSlice) -> HopfReport:
    """Exact checks of the Hopf axioms on every slice basis element; raises
    AxiomFailsError, with basis keys as the witness, at the first
    violation.  Products are only evaluated in closed degrees (total degree
    within the cutoff); the report lists what was skipped for that reason.

    The slice is compiled once (`_compile`), as it is stored: basis
    elements become their positions j |G| + g in `slice_.basis`, the
    product table holds one row of (level, scalar) per stored (b1 # g1, b2)
    in closed degrees, each product (b1 # g1)(b2 # g2) lying at group index
    g1 g2, and coproducts and antipodes are tuples per position, over the
    `Field` of the constants rather than of the cocycle.  Sums start from
    their first term and keep the zeros that cancellation leaves; `_same`
    compares two sides with == and, only when that fails, again without
    zero entries, which is exact because a zero entry and an absent key
    are the same coordinate.

    Associativity and bialgebra compatibility are decided one right
    G-orbit at a time.  With tau_t the map of positions (n, i, h) ->
    (n, i, h t), the tables are right G-equivariant by construction: a
    product row does not depend on g2, which only sets the group index
    g1 g2, and C[p t] = (tau_t (x) tau_t)(C[p]) since the group product is
    associative.  Both sides of associativity at (a, b, c t) therefore have
    the level coordinates of those at (a, b, c), at group index
    (g_a g_b) g_c t = g_a (g_b g_c t), and both sides of bialgebra
    compatibility at (a, b t) are tau_t (x) tau_t of those at (a, b).  So
    one exact comparison decides every translate: only the c (resp. b) at
    group index 0 is evaluated, once per level of B(V), and each evaluation
    counts |G| instances.  A failing orbit fails whole, and its member at
    group index 0 comes first in basis order, so the witness is the first
    failing instance in basis order.  Every other axiom is evaluated on
    every instance, in basis order."""
    datum = slice_.datum
    group = datum.group
    D = slice_.cutoff
    basis = slice_.basis
    n = len(basis)
    tables = _compile(slice_)
    degree, closed, one = tables.degree, tables.closed, tables.one
    P, C, S = tables.product, tables.coproduct, tables.antipode
    G, times = group.order, slice_.times

    def at(a: int, c: int) -> list:
        """The product of positions a and c as [(position, scalar), ...]."""
        t = times[a % G][c % G]
        return [(k * G + t, s) for k, s in P[a][c // G]]

    axioms = []
    skipped = []

    # counit: epsilon on one slot keeps the other, and only degree 0 survives it
    for p in range(n):
        target = {p: one}
        left = _gather((b, c) for a, b, c in C[p] if degree[a] == 0)
        right = _gather((a, c) for a, b, c in C[p] if degree[b] == 0)
        if not (_same(left, target) and _same(right, target)):
            raise AxiomFailsError("counit", basis[p])
    axioms.append(("counit", n, "all degrees"))

    # coassociativity, on triples of positions read as one int
    for p in range(n):
        lhs = _gather(
            ((x * n + y) * n + b, c * c2) for a, b, c in C[p] for x, y, c2 in C[a]
        )
        rhs = _gather(
            ((a * n + x) * n + y, c * c2) for a, b, c in C[p] for x, y, c2 in C[b]
        )
        if not _same(lhs, rhs):
            raise AxiomFailsError("coassociativity", basis[p])
    axioms.append(("coassociativity", n, "all degrees"))

    # unit
    u = basis.index(slice_.unit_key())
    for p in range(n):
        e = {p: one}
        if not _same(dict(at(u, p)), e):
            raise AxiomFailsError("left unit", basis[p])
        if not _same(dict(at(p, u)), e):
            raise AxiomFailsError("right unit", basis[p])
    axioms.append(("unit", n, "all degrees"))

    # associativity in closed degrees: (ab)c and a(bc) on the levels of
    # B(V), one product row per term, for the level c of each right G-orbit
    # (the hot loop: its sums are spelled out, as in `_gather`)
    checked = 0
    for a in range(n):
        Pa, ta = P[a], times[a % G]
        for b in range(closed[D - degree[a]]):
            Pb, t = P[b], ta[b % G]
            rows = [(P[k * G + t], x) for k, x in Pa[b // G]]  # ab, at g_a g_b
            for c in range(closed[D - degree[a] - degree[b]] // G):
                lhs = {}
                for Pk, x in rows:
                    for k2, y in Pk[c]:
                        if k2 in lhs:
                            lhs[k2] += x * y
                        else:
                            lhs[k2] = x * y
                rhs = {}
                for k, x in Pb[c]:
                    for k2, y in Pa[k]:
                        if k2 in rhs:
                            rhs[k2] += x * y
                        else:
                            rhs[k2] = x * y
                if lhs != rhs and not _same(lhs, rhs):
                    raise AxiomFailsError("associativity", (basis[a], basis[b], basis[c * G]))
                checked += G
    axioms.append(("associativity", checked, f"degree triples summing to <= {D}"))
    if D >= 1:
        skipped.append(
            ("associativity", f"triples of total degree > {D} leave the slice")
        )

    # bialgebra compatibility in closed degrees, on pairs read as one int,
    # for the b at group index 0 of each right G-orbit
    checked = 0
    for a in range(n):
        for b in range(0, closed[D - degree[a]], G):
            lhs = _gather((k1 * n + k2, x * y) for k, x in at(a, b) for k1, k2, y in C[k])
            rhs = _gather(
                (kl * n + kr, c1 * c2 * cl * cr)
                for a1, a2, c1 in C[a]
                for b1, b2, c2 in C[b]
                for kl, cl in at(a1, b1)
                for kr, cr in at(a2, b2)
            )
            if not _same(lhs, rhs):
                raise AxiomFailsError("bialgebra", (basis[a], basis[b]))
            checked += G
    axioms.append(("bialgebra", checked, f"degree pairs summing to <= {D}"))

    # antipode identities (always closed: coproduct legs share the degree)
    for p in range(n):
        lhs = _gather(
            (k2, c * s * y) for a, b, c in C[p] for k, s in S[a] for k2, y in at(k, b)
        )
        rhs = _gather(
            (k2, c * s * y) for a, b, c in C[p] for k, s in S[b] for k2, y in at(a, k)
        )
        target = {u: one} if degree[p] == 0 else {}
        if not (_same(lhs, target) and _same(rhs, target)):
            raise AxiomFailsError("antipode", basis[p])
    axioms.append(("antipode", n, "all degrees"))

    # group-likes: exactly the degree-0 basis (vertices), at positions 0..|G|-1
    for p, key in enumerate(slice_.group_like_keys()):
        if C[p] != ((p, p, one),):
            raise AxiomFailsError("group-like", key)
    # a degree-0 combination sum a_g (1 # g) is group-like only when the
    # coefficients satisfy a_g a_h = 0 for g != h and a_g^2 = a_g, which
    # forces a single coefficient 1; so the count is exactly |G|
    group_likes = len(slice_.group_like_keys())
    if group_likes != group.order:
        raise AxiomFailsError("group-like count", group_likes)

    # skew-primitives: arrows v_x # g between the right vertices; degree 1
    # keeps every letter, b_x = v_x at level 1 + x
    if D >= 1:
        for x in range(datum.space.dim):
            for gi, g in enumerate(group.elements):
                p, dx = (1 + x) * G + gi, group.index(group.mul(datum.degrees[x], g))
                if {(l, r): s for l, r, s in C[p]} != {(p, gi): one, (dx, p): one}:
                    raise AxiomFailsError("skew-primitive", basis[p])

    return HopfReport(
        dimension=slice_.dimension,
        group_likes=group_likes,
        axioms=tuple(axioms),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# Covering maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopfCoveringMap:
    """A verified covering: b # h -> b # f(h) over a group surjection f."""

    kernel_size: int
    lifts_per_element: int
    minimal_elements_checked: int
    algebra_products_checked: int  # |H| closed pairs per stored product row
    coproducts_checked: int


def covering_map_check(
    source: YDDatum, target: YDDatum, hom, cutoff: int
) -> HopfCoveringMap:
    """Verify that the group surjection induces a Hopf covering of slices.

    Checks: the kernel acts trivially (so the quotient datum is defined and
    agrees with the target), every fiber of f has |ker f| elements (so the
    basis map b # h -> b # f(h) is |ker f| to one, reported as
    `lifts_per_element`), and the induced basis map is an algebra morphism
    in closed degrees and a coalgebra morphism everywhere, on the slices as
    stored.  The words of each minimal element of degree >= 2 have one
    degree in the source group, so the relators the covering group is
    presented by hold there; they are counted as `minimal_elements_checked`,
    and their lifts are not checked one by one.  BoundExceededError carries
    a slice's dims, or the report up to the last degree completed."""
    from .nichols import minimal_elements as _minimal_elements

    group_h = source.group
    group_g = target.group
    if hom.source is not group_h or hom.target is not group_g:
        raise ValidationError("homomorphism endpoints do not match the data")
    if source.space.rack.table != target.space.rack.table or (
        source.space.cocycle.exponents != target.space.cocycle.exponents
        or source.space.cocycle.order != target.space.cocycle.order
    ):
        raise YDDatumError("NotCompatible", "braided spaces differ")
    if not hom.is_surjective():
        raise YDDatumError("NotCompatible", "group map not surjective")
    kernel = hom.kernel()
    trivial = source.trivially_acting()
    if not kernel <= trivial:
        raise YDDatumError("NotCompatible", "kernel acts nontrivially")
    # the quotient by the kernel must BE the target datum under h ker -> f(h)
    quot, proj = quotient_datum(source, kernel)
    iso: dict = {}
    for e in group_h.elements:
        q = proj[e]
        f = hom.apply(e)
        if iso.setdefault(q, f) != f:
            raise YDDatumError("NotCompatible", "quotient map not well defined")
    for x in range(source.space.dim):
        if iso[quot.degrees[x]] != target.degrees[x]:
            raise YDDatumError("NotCompatible", ("degree mismatch", x))
    for e in group_h.elements:
        for x in range(source.space.dim):
            if source.act_index(e, x) != target.act_index(hom.apply(e), x):
                raise YDDatumError("NotCompatible", ("action mismatch", e, x))
    # fibers all have kernel size
    fibers: dict = {}
    for e in group_h.elements:
        fibers.setdefault(hom.apply(e), []).append(e)
    if set(map(len, fibers.values())) != {len(kernel)}:
        raise InternalCheckError("fiber sizes differ")

    slice_h = build_slice(source, cutoff)
    slice_g = build_slice(target, cutoff)

    # (b1 # h1)(b2 # h2) is the stored row of (b1 # h1, b2) at h1 h2, and
    # Delta(b # h) the stored Delta(b) with group keys from the tag degrees
    # and h: so with f multiplicative and keeping every tag degree, the
    # stored rows and coproducts decide every closed pair and every basis
    # coproduct, |H| closed pairs per row
    image = [group_g.index(hom.apply(h)) for h in group_h.elements]
    times_h, times_g = slice_h.times, slice_g.times
    if any(image[times_h[a][b]] != times_g[image[a]][image[b]]
           for a in range(group_h.order) for b in range(group_h.order)):
        raise YDDatumError("NotCompatible", "group map not multiplicative")
    if [[image[t] for t in row] for row in slice_h.tag_degrees] != slice_g.tag_degrees:
        raise YDDatumError("NotCompatible", "tag degrees differ")
    for (ka, lb), row in slice_h.product.items():
        if row != slice_g.product[((*ka[:2], image[ka[2]]), lb)]:
            raise YDDatumError("NotCompatible", ("product", ka, lb))
    for key, terms in slice_h.coproduct.items():
        if terms != slice_g.coproduct[key]:
            raise YDDatumError("NotCompatible", ("coproduct", key))

    def report(minimal_checked: int) -> HopfCoveringMap:
        return HopfCoveringMap(len(kernel), len(kernel), minimal_checked,
                               len(slice_h.product) * group_h.order, len(slice_h.basis))

    # a minimal element's words lie in one braid-group orbit, and a braid
    # move keeps the product of the degrees; a zero B^n has none, so the
    # pass ends at B(V)'s top degree.  A support bound carries the counts
    # of the degrees completed.
    minimal_checked = 0
    for degree in range(2, max(n for n, dim in enumerate(slice_h.dims) if dim) + 1):
        try:
            found = _minimal_elements(source.space, degree)
        except BoundExceededError as err:
            raise BoundExceededError(str(err), partial=report(minimal_checked)) from None
        for element in found:
            first, *rest = map(source.degree_of_word, element.words)
            if any(g != first for g in rest):
                raise InternalCheckError(
                    f"minimal element {element.words} spans several degrees"
                )
            minimal_checked += 1
    return report(minimal_checked)


# ---------------------------------------------------------------------------
# File form
# ---------------------------------------------------------------------------


def slice_to_json(slice_: GradedHopfSlice) -> dict:
    """Structure constants of a slice: basis keys are 'degree,index,group'
    strings; scalars are 'N k' root strings, rationals, or coordinate
    vectors for general field elements."""

    def key_text(key: BasisKey) -> str:
        return ",".join(map(str, key))

    def element_json(element: Element) -> dict:
        return {key_text(k): v.to_json() for k, v in sorted(element.items())}

    return {
        "cutoff": slice_.cutoff,
        "dims": list(slice_.dims),
        "dimension": slice_.dimension,
        "group_order": slice_.datum.group.order,
        "basis": [key_text(k) for k in slice_.basis],
        "product": {
            f"{key_text(a)} | {key_text(b)}": element_json(slice_.basis_product(a, b))
            for a, b in slice_.closed_pairs()
        },
        "coproduct": {
            key_text(k): {
                f"{key_text(a)} | {key_text(b)}": v.to_json()
                for (a, b), v in sorted(slice_.basis_coproduct(k).items())
            }
            for k in slice_.basis
        },
        "antipode": {key_text(k): element_json(slice_.basis_antipode(k)) for k in slice_.basis},
    }


def datum_from_json(data: dict) -> YDDatum:
    """Datum file: rack and cocycle tables, a group (generators or table),
    1-based degree element indices, and the action as one row per group
    element listing [x' (1-based), scalar] per rack element; scalars are
    'N k' root-of-unity strings or rationals."""
    from .braiding import Cocycle
    from .groups import load_group_json
    from .racks import rack_from_json

    with malformed("datum"):
        rack = rack_from_json(data["rack"])
        cocycle = Cocycle.from_json(rack, data["cocycle"])
        group = load_group_json(data["group"])
        deg = [require_int(i, "datum degree index {value!r} is not an integer")
               for i in data["deg"]]
        rows = data["action"]
        if len(deg) != rack.n or not all(1 <= i <= group.order for i in deg):
            raise ValidationError("need one group index in 1..|G| per rack element")
        degrees = tuple(group.elements[i - 1] for i in deg)
        if len(rows) != group.order:
            raise ValidationError("need one action row per group element")
        action = {}
        for g, row in zip(group.elements, rows):
            targets = [require_int(e[0], "action target {value!r} is not an integer")
                       for e in row]
            if len(row) != rack.n or not all(1 <= t <= rack.n for t in targets):
                raise ValidationError("action rows need one [x' in 1..n, scalar] per x")
            action[g] = tuple((t - 1, parse_scalar(e[1])) for t, e in zip(targets, row))
    # arithmetic runs at the lcm of its operands' orders
    common = lcm(cocycle.order, *[s.order for row in action.values() for _t, s in row])
    if common > MAX_ORDER:
        raise ValidationError(
            f"datum scalars and cocycle meet at root-of-unity order {common}, "
            f"above {MAX_ORDER}")
    datum = YDDatum(BraidedSpace(rack, cocycle), group, degrees, action)
    yd_verify(datum)
    return datum


def datum_to_json(datum: YDDatum) -> dict:
    from .groups import group_to_json
    from .racks import rack_to_json

    group = datum.group
    rows = []
    for g in group.elements:
        row = []
        for x in range(datum.space.dim):
            tx, s = datum.act_index(g, x)
            text = s.to_json()
            if isinstance(text, dict):
                raise ValidationError("action scalar is not a stored form")
            row.append([tx + 1, text])
        rows.append(row)
    return {
        "rack": rack_to_json(datum.space.rack),
        "cocycle": datum.space.cocycle.to_json(),
        "group": group_to_json(group),
        "deg": [group.index(d) + 1 for d in datum.degrees],
        "action": rows,
    }
