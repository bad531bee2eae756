"""Enveloping groups of racks, quotient verification, covering lattices.

The enveloping group of a rack X is generated by one g_x per element with
the relations g_x g_y = g_{x|>y} g_x.  It is infinite whenever X is
nonempty, so nothing here materializes it: claims are routed through the
presentation (abelianization by Smith normal form), through verified
finite quotients, or through coset enumeration.

The covering lattice of a finite quotient f: H ->> G lists the groups
H/M with [N, H] <= M <= N = ker f; the quotient N/[N, H] is central in
H/[N, H], so every such M is automatically normal in H.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundExceededError,
    InternalCheckError,
    NotSurjectiveError,
    RelatorFailsError,
    ValidationError,
)
from .groups import FiniteGroup, coset_quotient
from .linalg import abelian_invariants
from .presentations import Presentation
from .racks import Rack

# the largest source group `covering_lattice` takes
MAX_COVERING_SOURCE = 20000


def enveloping_presentation(rack: Rack) -> Presentation:
    """One generator per rack element; relators g_x g_y g_x^-1 g_{x|>y}^-1
    for all ordered pairs, with freely-trivial ones dropped and duplicates
    (up to rotation and inversion) removed."""
    relators = []
    for x in range(rack.n):
        for y in range(rack.n):
            z = rack.op(x, y)
            gx, gy, gz = x + 1, y + 1, z + 1
            relators.append((gx, gy, -gx, -gz))
    return Presentation.make(rack.n, relators)


def abelianization(presentation: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of the abelianized group."""
    return abelian_invariants(
        presentation.exponent_matrix(), presentation.ngens
    )


@dataclass(frozen=True)
class GroupHom:
    """A verified homomorphism onto a finite group.

    source is a Presentation (generators map to `images`; every relator
    checked) or a FiniteGroup (multiplicativity checked on all pairs
    (element, generator), which extends to all products).
    """

    source: object
    target: FiniteGroup
    images: tuple

    def apply(self, element):
        if isinstance(self.source, Presentation):
            raise ValidationError("cannot evaluate on abstract group elements")
        return self.target.product(self.images[gi] for gi in self.source.words[element])

    def kernel(self) -> set:
        return {
            e for e in self.source.elements
            if self.apply(e) == self.target.identity
        }

    def is_surjective(self) -> bool:
        return len(self.target.subgroup_closure(self.images)) == self.target.order


def verify_quotient(
    presentation: Presentation, target: FiniteGroup, images
) -> GroupHom:
    """Check that generator -> images[i] kills every relator and hits all of
    the target; returns the verified homomorphism."""
    images = tuple(images)
    if len(images) != presentation.ngens:
        raise ValidationError("need one image per generator")
    for img in images:
        if img not in target:
            raise ValidationError(f"image {img} not in target group")
    for idx, rel in enumerate(presentation.relators):
        value = target.product(images[letter - 1] if letter > 0 else target.inv(images[-letter - 1])
                               for letter in rel)
        if value != target.identity:
            raise RelatorFailsError(idx, rel)
    hom = GroupHom(presentation, target, images)
    if not hom.is_surjective():
        raise NotSurjectiveError("images do not generate the target")
    return hom


def hom_from_generator_images(
    source: FiniteGroup, target: FiniteGroup, images
) -> GroupHom:
    """Verified homomorphism between finite groups, given images of the
    source's generators."""
    images = tuple(images)
    if len(images) != len(source.generators):
        raise ValidationError("need one image per source generator")
    hom = GroupHom(source, target, images)
    for e in source.elements:
        fe = hom.apply(e)
        for gi, g in enumerate(source.generators):
            if hom.apply(source.mul(e, g)) != target.mul(fe, images[gi]):
                raise ValidationError(
                    f"generator images do not define a homomorphism at ({e},{g})"
                )
    return hom


def rack_inner_hom(rack: Rack) -> GroupHom:
    """The canonical surjection from the enveloping presentation onto the
    inner group, g_x -> (y -> x|>y)."""
    inner = rack.inner_group()
    return verify_quotient(
        enveloping_presentation(rack),
        inner,
        [rack.translation(x) for x in range(rack.n)],
    )


@dataclass(frozen=True)
class CoveringLattice:
    """All covering groups H/M for [N, H] <= M <= N, N the kernel of f."""

    kernel: frozenset
    commutator: frozenset  # [N, H]
    middles: tuple[frozenset, ...]  # the admissible M, ascending by size
    coverings: tuple[FiniteGroup, ...]  # H/M, aligned with middles

    @property
    def count(self) -> int:
        return len(self.middles)


def covering_lattice(hom: GroupHom) -> CoveringLattice:
    """Enumerate the covering groups attached to a surjection of finite
    groups: quotients of the source by the subgroups between [N, H] and N.

    N/[N, H] is finite abelian; its subgroups are enumerated by closure and
    pulled back.  Each covering is materialized as a FiniteGroup, and the
    quotient maps are re-verified as homomorphisms.
    """
    source = hom.source
    if not isinstance(source, FiniteGroup):
        raise ValidationError("covering lattice needs a finite source group")
    if source.order > MAX_COVERING_SOURCE:
        raise BoundExceededError(
            f"source order {source.order} exceeds {MAX_COVERING_SOURCE}"
        )
    if not hom.is_surjective():
        raise NotSurjectiveError("covering lattice needs a surjection")
    kernel = hom.kernel()
    if len(kernel) * hom.target.order != source.order:
        raise InternalCheckError("kernel size times image size != source order")
    commutators = {
        source.commutator(n, h) for n in kernel for h in source.elements
    }
    comm = source.subgroup_closure(commutators)
    if not comm <= kernel:
        raise InternalCheckError("[N, H] not inside N")
    # subgroups of the finite abelian group N / [N, H]
    quotient, proj = coset_quotient(source, kernel, comm)
    subgroups = _all_subgroups(quotient)
    middles = []
    for sub in subgroups:
        middle = frozenset(e for e in kernel if proj[e] in sub)
        middles.append(middle)
    middles.sort(key=lambda m: (len(m), sorted(map(str, m))))
    coverings = []
    for middle in middles:
        cover, cover_proj = source.quotient(set(middle))
        if cover.order * len(middle) != source.order:
            raise InternalCheckError("covering order does not multiply up")
        _verify_quotient_map(source, cover, cover_proj)
        coverings.append(cover)
    return CoveringLattice(
        kernel=frozenset(kernel),
        commutator=frozenset(comm),
        middles=tuple(middles),
        coverings=tuple(coverings),
    )


def _all_subgroups(group: FiniteGroup) -> list[frozenset]:
    """Every subgroup of a small group, by closure growth."""
    trivial = frozenset({group.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for e in group.elements:
                if e in sub:
                    continue
                grown = frozenset(group.subgroup_closure(set(sub) | {e}))
                if grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(map(str, s))))


def _verify_quotient_map(source: FiniteGroup, cover: FiniteGroup, proj: dict):
    for a in source.generators:
        for b in source.generators:
            if proj[source.mul(a, b)] != cover.mul(proj[a], proj[b]):
                raise InternalCheckError("quotient projection not a homomorphism")
