"""Reference Todd-Coxeter: the follow-and-define enumerator.

Every undefined step of every relator trace defines a new coset, and the
relators g g^-1 and g^-1 g are scanned alongside the presentation's to keep
both edge directions consistent.  It defines far more cosets than the HLT
scan-and-fill enumerator of `rackcover.coset`, and shares no scanning code
with it, so the two must give equal indices wherever this one closes.
"""

from rackcover.errors import CosetLimitError
from rackcover.presentations import free_reduce

_UNDEF = -1


def _symbols(word):
    return tuple(2 * (abs(letter) - 1) + (0 if letter > 0 else 1) for letter in word)


class _Table:
    def __init__(self, ngens, max_cosets):
        self.nsyms = 2 * ngens
        self.max_cosets = max_cosets
        self.neighbors = []
        self.labels = []

    def add_coset(self):
        if len(self.labels) >= self.max_cosets:
            raise CosetLimitError(self.max_cosets, len(self.labels))
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([_UNDEF] * self.nsyms)
        return c

    def find(self, c):
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def unify(self, c1, c2):
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

    def follow_word(self, c, symbols):
        for sym in symbols:
            c = self.find(c)
            row = self.neighbors[c]
            if row[sym] == _UNDEF:
                row[sym] = self.add_coset()
            c = self.find(row[sym])
        return c

    def live_count(self):
        return sum(1 for i in range(len(self.labels)) if self.find(i) == i)


def reference_todd_coxeter(presentation, extra_relators=(), subgroup_generators=(),
                           max_cosets=100_000):
    ngens = presentation.ngens
    relators = []
    for i in range(ngens):
        relators.append((2 * i, 2 * i + 1))
        relators.append((2 * i + 1, 2 * i))
    for rel in tuple(presentation.relators) + tuple(extra_relators):
        relators.append(_symbols(free_reduce(tuple(rel))))
    table = _Table(ngens, max_cosets)
    start = table.add_coset()
    for word in subgroup_generators:
        table.unify(table.follow_word(start, _symbols(free_reduce(tuple(word)))), start)
    # whole passes until one changes nothing
    while True:
        defined_before = len(table.labels)
        live_before = table.live_count()
        scan = 0
        while scan < len(table.labels):
            if table.find(scan) == scan:
                for rel in relators:
                    c = table.find(scan)
                    table.unify(table.follow_word(c, rel), c)
            scan += 1
        if len(table.labels) == defined_before and table.live_count() == live_before:
            break
    return table.live_count()
