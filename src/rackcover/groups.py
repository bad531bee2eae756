"""Concrete finite groups: permutation closures and multiplication tables.

Each group mechanism is written once: `closure_words` enumerates every
group, subgroup and datum action from generators, `coset_quotient` builds
every quotient, and `FiniteGroup.product` multiplies along every word.

Groups are compared by fingerprint (order, abelian invariants, center
order, element-order histogram) rather than by isomorphism testing, which
is out of scope.  Elements are hashable values: tuples in one-line
notation for permutation groups, ints for table groups, ints for
quotients.
"""

from __future__ import annotations

from functools import reduce

from .errors import BoundExceededError, ValidationError, malformed, require_int

Perm = tuple[int, ...]

# the most elements `closure_words` enumerates
MAX_CLOSURE = 10**6


def closure_words(identity, generators, mul) -> dict:
    """Every element of the group that `generators` generate under `mul`,
    breadth first from `identity`, mapped to its first word of generator
    indices: e -> (i1, ..., ik) with e = g_i1 ... g_ik.  The dict keeps
    the order of discovery, and every word's prefix is the word of an
    element found before it."""
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for gi, g in enumerate(generators):
                p = mul(e, g)
                if p not in words:
                    words[p] = words[e] + (gi,)
                    nxt.append(p)
                    if len(words) > MAX_CLOSURE:
                        raise BoundExceededError(
                            f"group closure exceeded {MAX_CLOSURE} elements")
        frontier = nxt
    return words


def coset_quotient(group, subset, normal, label=None) -> tuple:
    """The quotient of the subgroup `subset` of `group` by `normal`, a
    normal subgroup of `group` inside `subset`: (table group, dict element
    of `subset` -> coset).  Cosets are numbered in the order of their first
    elements in `group.elements`."""
    coset_of: dict = {}
    reps = []
    for e in sorted(subset, key=group.index):
        if e not in coset_of:
            for n in normal:
                coset_of[group.mul(e, n)] = len(reps)
            reps.append(e)
    table = [[coset_of[group.mul(a, b)] for b in reps] for a in reps]
    return FiniteGroup.from_table(table, label=label), coset_of


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


class FiniteGroup:
    """A finite group with explicit elements and a multiplication rule.

    Built either from permutation generators (elements enumerated by
    breadth-first closure, each remembered as a word in the generators)
    or from a full multiplication table.
    """

    def __init__(self, elements, mul, inv, identity, generators, words, label=None):
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.generators = list(generators)
        self.words = words  # element -> tuple of generator indices
        self.label = label

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_permutations(cls, generators, label=None):
        generators = [tuple(g) for g in generators]
        if not generators:
            raise ValidationError("need at least one permutation generator")
        degree = len(generators[0])
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValidationError(f"not a permutation of 0..{degree-1}: {g}")
        generators = list(dict.fromkeys(generators))
        ident = identity_perm(degree)
        words = closure_words(ident, generators, perm_compose)
        return cls(words, perm_compose, perm_inverse, ident, generators, words, label=label)

    @classmethod
    def from_table(cls, table, label=None, generators=None):
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValidationError("multiplication table is not square")
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValidationError("table entry out of range")
        # identity
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValidationError("table has no identity element")
        # closure is syntactic; check inverses and associativity
        inv_map = {}
        for a in range(n):
            b = next((b for b in range(n) if table[a][b] == ident), None)
            if b is None or table[b][a] != ident:
                raise ValidationError(f"element {a} has no two-sided inverse")
            inv_map[a] = b
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValidationError(
                            f"table not associative at ({a},{b},{c})"
                        )
        mul = lambda a, b: table[a][b]
        inv = lambda a: inv_map[a]
        elements = list(range(n))
        if generators is None:
            # every element is its own generator (cheap, used by homs)
            words = {e: (e,) if e != ident else () for e in elements}
            return cls(elements, mul, inv, ident, elements, words, label=label)
        generators = list(generators)
        words = closure_words(ident, generators, mul)
        if len(words) != n:
            raise ValidationError("given generators do not generate the group")
        return cls(elements, mul, inv, ident, generators, words, label=label)

    @classmethod
    def cyclic(cls, n: int, label=None):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        gens = [1 % n] if n > 1 else None
        return cls.from_table(table, label=label or f"C{n}", generators=gens)

    # --- basics -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._index

    def index(self, e) -> int:
        return self._index[e]

    def product(self, elements):
        """The product of `elements`, left to right; the identity if none."""
        return reduce(self.mul, elements, self.identity)

    def element_order(self, e) -> int:
        k, acc = 1, e
        while acc != self.identity:
            acc = self.mul(acc, e)
            k += 1
        return k

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for e in self.elements:
            o = self.element_order(e)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def center(self) -> list:
        return [
            e
            for e in self.elements
            if all(self.mul(e, g) == self.mul(g, e) for g in self.generators)
        ]

    def commutator(self, a, b):
        return self.mul(
            self.mul(self.inv(a), self.inv(b)), self.mul(a, b)
        )

    # --- subgroups ---------------------------------------------------------

    def subgroup_closure(self, gens) -> set:
        """Subgroup generated by `gens` (finite, so products suffice)."""
        return set(closure_words(self.identity, list(gens), self.mul))

    def normal_closure(self, gens) -> set:
        """Smallest normal subgroup containing `gens`.  A candidate becomes
        a generator only when the subgroup so far does not hold it, and
        only those generators are conjugated by `self.generators`: every
        conjugate h k h^-1 of a kept k then lies in the closure, so it is
        normal."""
        kept: list = []
        current = {self.identity}
        pending = list(gens)
        while pending:
            g = pending.pop()
            if g in current:
                continue
            kept.append(g)
            current = self.subgroup_closure(kept)
            pending += [self.mul(self.mul(h, g), self.inv(h)) for h in self.generators]
        return current

    def derived_subgroup(self) -> set:
        comms = [
            self.commutator(a, b)
            for a in self.generators
            for b in self.generators
        ]
        return self.normal_closure(comms)

    def is_normal(self, subgroup: set) -> bool:
        return all(
            self.mul(self.mul(g, n), self.inv(g)) in subgroup
            for g in self.generators
            for n in subgroup
        )

    def quotient(self, normal: set, label=None):
        """(quotient FiniteGroup, dict element -> quotient element)."""
        if not self.is_normal(normal):
            raise ValidationError("subgroup is not normal")
        return coset_quotient(self, self.elements, normal, label=label)

    # --- invariants ----------------------------------------------------------

    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors d_1 | d_2 | ... of G/[G,G], ascending."""
        derived = self.derived_subgroup()
        quot, _ = self.quotient(derived)
        return _abelian_invariants_from_orders(quot)

    def fingerprint(self) -> tuple:
        hist = tuple(sorted(self.order_histogram().items()))
        return (
            self.order,
            self.abelian_invariants(),
            len(self.center()),
            hist,
        )

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in self.generators
            for b in self.generators
        )

    def __repr__(self):
        name = self.label or "FiniteGroup"
        return f"{name}(order={self.order})"


def _abelian_invariants_from_orders(group: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders.

    For each prime p, #{x : x^(p^k) = 1} = p^(sum_i min(k, e_i)) determines
    the partition (e_i) of the p-part; the p-parts are then aligned
    largest-with-largest into a divisibility chain.
    """
    n = group.order
    if n == 1:
        return ()
    if not group.is_abelian():
        raise ValidationError("order-statistics invariants need an abelian group")
    orders = [group.element_order(e) for e in group.elements]
    primes = _prime_factors(n)
    partitions: dict[int, list[int]] = {}
    for p in primes:
        a_prev = 0
        mults = []
        k = 1
        while True:
            # elements whose order divides p^k
            count = sum(1 for o in orders if p**k % o == 0)
            a_k = _ilog(count, p)
            m_k = a_k - a_prev
            if m_k == 0:
                break
            mults.append(m_k)
            a_prev = a_k
            k += 1
        # mults[k-1] = number of cyclic factors with exponent >= k
        exponents = []
        for i in range(mults[0] if mults else 0):
            exponents.append(sum(1 for m in mults if m >= i + 1))
        partitions[p] = sorted(exponents, reverse=True)
    width = max(len(v) for v in partitions.values())
    factors = []
    for i in range(width):
        d = 1
        for p, exps in partitions.items():
            if i < len(exps):
                d *= p ** exps[i]
        factors.append(d)
    return tuple(sorted(factors))


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _ilog(n: int, p: int) -> int:
    k = 0
    while n % p == 0 and n > 1:
        n //= p
        k += 1
    if n != 1:
        raise ValidationError(f"{n * p**k} is not a power of {p}")
    return k


def load_group_json(data: dict) -> FiniteGroup:
    """Group file: permutation generators (1-based images) or a table."""
    def number(value):
        return require_int(value, "group file value {value!r} is not an integer")

    with malformed("group"):
        if "generators" in data:
            degree = number(data["degree"])
            gens = [tuple(number(v) - 1 for v in g) for g in data["generators"]]
            if any(len(g) != degree for g in gens):
                raise ValidationError("generator length does not match degree")
            return FiniteGroup.from_permutations(gens)
        if "table" in data:
            table = [[number(v) - 1 for v in row] for row in data["table"]]
            if len(table) != number(data["order"]):
                raise ValidationError("table size does not match order")
            return FiniteGroup.from_table(table)
    raise ValidationError("group file needs 'generators' or 'table'")


def group_to_json(group: FiniteGroup) -> dict:
    if group.elements and isinstance(group.elements[0], tuple):
        return {
            "degree": len(group.identity),
            "generators": [[v + 1 for v in g] for g in group.generators],
        }
    idx = group._index
    table = [
        [idx[group.mul(a, b)] + 1 for b in group.elements]
        for a in group.elements
    ]
    return {"order": group.order, "table": table}
