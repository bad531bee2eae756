"""Shuffle-lift oracle: the braided shuffle product as a sum of braid lifts.

The library reads bosonization products and coproducts off the right
multiplications of the graded-component engine.  This module builds them
on a second path, from word vectors: the kept words of each degree are
the lexicographically-first columns S_n e_t of the quantum symmetrizer,
found and solved in spans of its own; products sum Matsumoto lifts of the
minimal coset representatives of S_m x S_n, applied to tensor words
through the braid-generator tables; coproducts deconcatenate the kept
vectors.  Both are built one group element at a time.
"""

from dataclasses import dataclass
from itertools import combinations

from rackcover.cyclotomic import CycScalar
from rackcover.errors import InternalCheckError
from rackcover.groups import identity_perm, perm_compose
from rackcover.linalg import IncrementalSpan, add_terms
from rackcover.nichols import TensorWords, symmetrizer_matrix
from tests.oracle_hopf import multiply


# --- permutations and reduced words ---------------------------------------------


def inversion_count(perm) -> int:
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def matsumoto_lift(perm) -> tuple[int, ...]:
    """The canonical reduced word of a permutation: letters are 1-based
    (letter i is the adjacent swap of slots i-1 and i), chosen greedily by
    the smallest left descent, which yields the lexicographically smallest
    reduced word.  Its length is the inversion count."""
    perm = tuple(perm)
    n = len(perm)
    positions = [0] * n
    for pos, val in enumerate(perm):
        positions[val] = pos
    current = list(perm)
    pos = positions
    word = []
    while True:
        descent = next(
            (i for i in range(n - 1) if pos[i] > pos[i + 1]), None
        )
        if descent is None:
            break
        word.append(descent + 1)
        # multiply by the swap of values descent, descent + 1 on the left
        pa, pb = pos[descent], pos[descent + 1]
        current[pa], current[pb] = current[pb], current[pa]
        pos[descent], pos[descent + 1] = pb, pa
    return tuple(word)


def compose_word(word, n) -> tuple[int, ...]:
    """The permutation s_{i1} ... s_{ik} for a 1-based letter word."""
    acc = identity_perm(n)
    for letter in word:
        i = letter - 1
        swap = list(range(n))
        swap[i], swap[i + 1] = i + 1, i
        acc = perm_compose(acc, tuple(swap))
    return acc


def shuffle_perms(m: int, n: int) -> list[tuple[int, ...]]:
    """Minimal-length representatives of the cosets sigma * (S_m x S_n):
    permutations increasing on the first m and the last n positions."""
    total = m + n
    out = []
    for first_values in combinations(range(total), m):
        rest = [v for v in range(total) if v not in first_values]
        out.append(tuple(list(first_values) + rest))
    return out


# --- braid lifts on tensor words ---------------------------------------------------


def apply_word(words: TensorWords, letters, idx: int) -> tuple[int, int]:
    """Walk e_idx through the braid word (rightmost letter first);
    returns (image index, scalar exponent)."""
    tables = words.generator_tables()
    e = 0
    for letter in reversed(letters):
        perm, delta = tables[letter - 1]
        e += delta[idx]
        idx = perm[idx]
    return idx, e


def apply_word_to_vector(words: TensorWords, letters, vector: dict) -> dict:
    """Apply a braid-word lift to a sparse vector over word indices."""
    N = words.space.cocycle.order
    out: dict = {}
    for idx, coeff in vector.items():
        tgt, e = apply_word(words, letters, idx)
        add_terms(out, [(tgt, coeff * CycScalar.root_of_unity(N, e))])
    return out


def tensor_product(a: dict, b: dict, shift: int) -> dict:
    """a (x) b over word indices, with (u, v) at index u * shift + v."""
    return {u * shift + v: cu * cv for u, cu in a.items() for v, cv in b.items()}


def shuffle_multiply(space, words_total: TensorWords, m: int, n: int, a, b) -> dict:
    """Braided shuffle product of vectors of degrees m and n."""
    tensor = tensor_product(a, b, space.dim**n)
    out: dict = {}
    for perm in shuffle_perms(m, n):
        letters = matsumoto_lift(perm)
        add_terms(out, apply_word_to_vector(words_total, letters, tensor).items())
    return out


# --- the bosonization slice, one group element at a time ------------------------


class KeptColumns:
    """The kept words of one degree, the lexicographically-first columns of
    the symmetrizer that span its image, with their columns S_n e_t as
    `vectors` and a span of those columns to solve in."""

    def __init__(self, space, degree: int):
        columns = symmetrizer_matrix(space, degree).columns()
        self.span = IncrementalSpan()
        for tag in sorted(columns):
            self.span.add(columns[tag], tag)
        self.tags = self.span.kept
        self.dim = len(self.tags)
        self.vectors = [columns[t] for t in self.tags]
        self._position = {t: i for i, t in enumerate(self.tags)}

    def coordinates(self, vector: dict) -> dict:
        """{basis position: coefficient} of a vector of the span."""
        coords = self.span.coordinates(vector)
        assert coords is not None
        return {self._position[t]: c for t, c in coords.items()}


def act_on_vector(datum, g, vector, words: TensorWords) -> dict:
    """Diagonal action of g on a tensor-space vector (word-index keyed)."""
    out: dict = {}
    for idx, coeff in vector.items():
        scalar = coeff
        new_word = []
        for x in words.word(idx):
            tx, s = datum.act_index(g, x)
            new_word.append(tx)
            scalar = scalar * s
        add_terms(out, [(words.index(tuple(new_word)), scalar)])
    return out


@dataclass
class KeyedSlice:
    """A slice as dicts keyed by basis keys: `product[(keyA, keyB)]` for
    every closed pair, and `coproduct[key]` and `antipode[key]` for every
    key.  It has the accessors `multiply` reads, over these dicts."""

    datum: object
    basis: list
    product: dict
    coproduct: dict
    antipode: dict

    def basis_product(self, ka, kb) -> dict:
        return self.product[(ka, kb)]

    def basis_coproduct(self, key) -> dict:
        return self.coproduct[key]


def shuffle_slice(datum, cutoff: int) -> KeyedSlice:
    """The slice with every product b_i1 * g1.b_i2 summed over shuffle
    lifts, once per (b_i1 # g1, b_i2 # g2), and every coproduct split
    solved again for each group element; the antipode is synthesized from
    these per basis element b # g (`synthesize_antipode`)."""
    space, group = datum.space, datum.group
    d = space.dim
    elements = group.elements
    bases = [KeptColumns(space, n) for n in range(cutoff + 1)]
    dims = tuple(basis.dim for basis in bases)
    words = [TensorWords(space, n) for n in range(cutoff + 1)]
    keys = [
        (n, i, gi)
        for n in range(cutoff + 1)
        for i in range(dims[n])
        for gi in range(group.order)
    ]

    product: dict = {}
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1 - n1):
            total = n1 + n2
            for i1, vec1 in enumerate(bases[n1].vectors):
                for gi1, g1 in enumerate(elements):
                    for i2, vec2 in enumerate(bases[n2].vectors):
                        acted = act_on_vector(datum, g1, vec2, words[n2])
                        merged = shuffle_multiply(space, words[total], n1, n2, vec1, acted)
                        coords = bases[total].coordinates(merged)
                        for gi2, g2 in enumerate(elements):
                            g12 = group.index(group.mul(g1, g2))
                            product[((n1, i1, gi1), (n2, i2, gi2))] = {
                                (total, it, g12): c for it, c in coords.items()
                            }

    coproduct: dict = {}
    for n in range(cutoff + 1):
        for k in range(n + 1):
            shift = d ** (n - k)
            span = IncrementalSpan()
            pairs = []
            for i1, left in enumerate(bases[k].vectors):
                for i2, right in enumerate(bases[n - k].vectors):
                    assert span.add(tensor_product(left, right, shift), len(pairs))
                    pairs.append((i1, i2))
            for i, vec in enumerate(bases[n].vectors):
                for gi, g in enumerate(elements):
                    terms = coproduct.setdefault((n, i, gi), {})
                    buckets: dict = {}
                    for idx, coeff in vec.items():
                        gdeg = datum.degree_of_word(words[n - k].word(idx % shift))
                        buckets.setdefault(group.index(gdeg), {})[idx] = coeff
                    for degi, bucket in sorted(buckets.items()):
                        coords = span.coordinates(bucket)
                        assert coords is not None
                        left_g = group.index(group.mul(elements[degi], g))
                        for tag, c in sorted(coords.items()):
                            i1, i2 = pairs[tag]
                            add_terms(terms, [(((k, i1, left_g), (n - k, i2, gi)), c)])

    slice_ = KeyedSlice(datum, keys, product, coproduct, antipode={})
    synthesize_antipode(slice_)
    return slice_


def synthesize_antipode(slice_: KeyedSlice):
    """Convolution inverse of the identity, degree by degree: S(1 # g) =
    1 # g^-1, and S(x) (1 # g) = -sum S(x1) x2 over the terms of Delta(x)
    other than its top one, x (x) (1 # g), for x = b # g in degree > 0.
    The library takes S from B(V)'s braided antipode by Radford's formula
    instead, on B(V)'s basis alone."""
    group = slice_.datum.group
    antipode = slice_.antipode
    one = CycScalar.one()
    for key in sorted(slice_.basis):
        n, _, gi = key
        inv_unit = {(0, 0, group.index(group.inv(group.elements[gi]))): one}
        if n == 0:
            antipode[key] = inv_unit
            continue
        acc: dict = {}
        for (ka, kb), coeff in slice_.basis_coproduct(key).items():
            if ka[0] == n:
                if ka != key or kb[0] != 0:
                    raise InternalCheckError("unexpected top coproduct term")
                continue
            add_terms(acc, multiply(slice_, antipode[ka], {kb: coeff}).items())
        neg = {kt: -ct for kt, ct in acc.items()}
        antipode[key] = multiply(slice_, neg, inv_unit)
