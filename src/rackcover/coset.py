"""Todd-Coxeter coset enumeration by HLT scan-and-fill.

The enumeration follows the HLT strategy (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, section 5.1).  Coset 0 is
the subgroup; each subgroup generator is scanned at it first.  Then every
live coset, in order of definition, has each relator scanned at it forward
and backward as far as the table is defined:

* the two scans meet: the relator closes, or its ends are a coincidence,
  folded through a union-find table that keeps the smaller coset;
* a gap of one letter: the edge and its inverse are set by deduction;
* a longer gap: a new coset is defined at the forward end, and the scan
  goes on.

After its relators the coset's row is filled: every undefined edge gets a
new coset.  One such pass closes the table (Handbook, section 5.1): a
relator that closes at a coset still closes after a coincidence, and a
row once filled stays filled, so every live coset left when the pass ends
was scanned and filled while live.  The table is then certified closed:
every live row is complete and consistent with its inverse edges, every
relator closes at every live coset and every subgroup generator closes at
coset 0.  A certificate that fails is a bug, raised as InternalCheckError.

`CosetTable.add_coset` is the only place a coset is defined.  It raises
CosetLimitError once the number of cosets defined would pass the budget.
"""

from __future__ import annotations

from .errors import CosetLimitError, InternalCheckError
from .presentations import Presentation, Word, free_reduce

_UNDEF = -1


def _symbols(word: Word) -> tuple[int, ...]:
    # generator i -> symbol 2i, its inverse -> 2i + 1, so sym ^ 1 inverts
    return tuple(
        2 * (abs(letter) - 1) + (0 if letter > 0 else 1) for letter in word
    )


class CosetTable:
    """Union-find backed coset table over 2 * ngens edge symbols.  An edge
    may point at a coset merged since; `find` gives its live coset."""

    def __init__(self, ngens: int, max_cosets: int):
        self.nsyms = 2 * ngens
        self.max_cosets = max_cosets
        self.neighbors: list[list[int]] = []
        self.labels: list[int] = []

    def add_coset(self) -> int:
        if len(self.labels) >= self.max_cosets:
            raise CosetLimitError(self.max_cosets, len(self.labels))
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([_UNDEF] * self.nsyms)
        return c

    def find(self, c: int) -> int:
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def unify(self, c1: int, c2: int):
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.labels[b] = a
            row_a, row_b = self.neighbors[a], self.neighbors[b]
            for sym in range(self.nsyms):
                nb = row_b[sym]
                if nb == _UNDEF:
                    continue
                if row_a[sym] == _UNDEF:
                    row_a[sym] = nb
                else:
                    queue.append((row_a[sym], nb))

    def target(self, c: int, sym: int) -> int:
        """The live coset c.sym, or _UNDEF; `c` must be live."""
        nb = self.neighbors[c][sym]
        return nb if nb == _UNDEF else self.find(nb)

    def define(self, c: int, sym: int) -> int:
        """A new coset d with c.sym = d and d.sym^-1 = c."""
        d = self.add_coset()
        self.neighbors[c][sym] = d
        self.neighbors[d][sym ^ 1] = c
        return d

    def scan_and_fill(self, c: int, symbols: tuple[int, ...]):
        """Make `symbols` close at the live coset c, defining cosets only
        where the forward and backward scans leave a gap."""
        # `target` inlined: `find` only for an edge to a merged coset
        labels, neighbors = self.labels, self.neighbors
        f, b = c, c
        i, j = 0, len(symbols) - 1
        while True:
            while i <= j:
                nxt = neighbors[f][symbols[i]]
                if nxt == _UNDEF:
                    break
                if labels[nxt] != nxt:
                    nxt = self.find(nxt)
                f, i = nxt, i + 1
            if i > j:
                if f != c:
                    self.unify(f, c)
                return
            while j >= i:
                prev = neighbors[b][symbols[j] ^ 1]
                if prev == _UNDEF:
                    break
                if labels[prev] != prev:
                    prev = self.find(prev)
                b, j = prev, j - 1
            if j < i:
                self.unify(f, b)
                return
            if j == i:
                self.neighbors[f][symbols[i]] = b
                self.neighbors[b][symbols[i] ^ 1] = f
                return
            self.define(f, symbols[i])

    def live(self) -> list[int]:
        return [i for i in range(len(self.labels)) if self.find(i) == i]


def _enumerate(
    ngens: int,
    relators: list[tuple[int, ...]],
    subgroup: list[tuple[int, ...]],
    max_cosets: int,
) -> CosetTable:
    table = CosetTable(ngens, max_cosets)
    table.add_coset()
    # coset 0, the subgroup, stays live: unify keeps the smaller coset
    for word in subgroup:
        table.scan_and_fill(0, word)
    # one pass: a coset is live exactly when it is its own label
    labels = table.labels
    c = 0
    while c < len(labels):
        for rel in relators:
            if labels[c] != c:
                break
            table.scan_and_fill(c, rel)
        if labels[c] == c:
            row = table.neighbors[c]
            for sym in range(table.nsyms):
                if row[sym] == _UNDEF:
                    table.define(c, sym)
        c += 1
    return table


def _certify_closed(
    table: CosetTable,
    relators: list[tuple[int, ...]],
    subgroup: list[tuple[int, ...]],
):
    """Raise InternalCheckError unless the table is a closed coset table."""
    live = table.live()
    for c in live:
        for sym in range(table.nsyms):
            d = table.target(c, sym)
            if d == _UNDEF or table.target(d, sym ^ 1) != c:
                raise InternalCheckError(f"coset {c} has an undefined or one-way edge")
    # every edge is defined now, so the traces below never leave the table
    for c in live:
        for rel in relators:
            end = c
            for sym in rel:
                end = table.target(end, sym)
            if end != c:
                raise InternalCheckError(f"a relator does not close at coset {c}")
    for word in subgroup:
        end = 0
        for sym in word:
            end = table.target(end, sym)
        if end != 0:
            raise InternalCheckError("a subgroup generator does not fix coset 0")


def todd_coxeter(
    presentation: Presentation,
    extra_relators: tuple[Word, ...] = (),
    subgroup_generators: tuple[Word, ...] = (),
    max_cosets: int = 100_000,
) -> int:
    """Index of the subgroup generated by `subgroup_generators` in the group
    presented by `presentation` plus `extra_relators`.

    With no subgroup generators this is the order of the presented group;
    the enumeration must close within `max_cosets` defined cosets.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    relators = [
        _symbols(free_reduce(tuple(rel)))
        for rel in tuple(presentation.relators) + tuple(extra_relators)
    ]
    subgroup = [_symbols(free_reduce(tuple(word))) for word in subgroup_generators]
    table = _enumerate(presentation.ngens, relators, subgroup, max_cosets)
    _certify_closed(table, relators, subgroup)
    return len(table.live())
