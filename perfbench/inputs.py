"""Seeded input files for the benchmark jobs.

Seed 0 keeps the catalog labelings and hands built-in racks to the CLI as
``--builtin``.  Any other seed relabels every rack by a permutation drawn
from the seed and writes it as a ``--file`` rack, with its cocycle as a
``file:`` cocycle and the Yetter-Drinfeld data rebuilt over the relabeled
rack.  Every oracle in ``workloads.py`` is invariant under relabeling.

Paths handed to the CLI are relative to the checkout root, so the
``--no-meta`` output of a job (which echoes its arguments) depends only on
the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from rackcover.bosonization import datum_from_generators, datum_to_json, rank_one_datum
from rackcover.braiding import BraidedSpace, Cocycle, chi_cocycle
from rackcover.groups import FiniteGroup
from rackcover.racks import catalog, rack_to_json, transposition_elements

# cocycle specs the CLI accepts by name; any other spec is written as a file
CLI_COCYCLES = ("const:-1", "chi")


class Inputs:
    """Writes the files one seed's jobs read, as the jobs are built."""

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.directory = directory
        self._perms: dict[str, list[int]] = {}
        directory.mkdir(parents=True, exist_ok=True)

    def perm(self, rack_spec: str) -> list[int]:
        """The relabeling x -> perm[x] of one rack; identity at seed 0."""
        if rack_spec not in self._perms:
            n = catalog(rack_spec).n
            perm = list(range(n))
            if self.seed:
                # str seeds hash by sha512: independent of PYTHONHASHSEED
                random.Random(f"{self.seed}/{rack_spec}").shuffle(perm)
            self._perms[rack_spec] = perm
        return self._perms[rack_spec]

    def _write(self, name: str, data: dict) -> str:
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True))
        return path.as_posix()

    @staticmethod
    def _slug(text: str) -> str:
        return text.replace(":", "_").replace(",", "_").replace("-", "m")

    def rack_args(self, rack_spec: str) -> list[str]:
        if self.seed == 0:
            return ["--builtin", rack_spec]
        rack = catalog(rack_spec).relabel(tuple(self.perm(rack_spec)))
        return ["--file", self._write(f"rack-{self._slug(rack_spec)}", rack_to_json(rack))]

    def cocycle_exponents(self, rack_spec: str, cocycle_spec: str):
        """(N, exponent table) of a cocycle spec on the relabeled rack."""
        rack = catalog(rack_spec)
        if cocycle_spec == "chi":
            cocycle = chi_cocycle(_transpositions_n(rack_spec))
        elif cocycle_spec == "const:-1":
            cocycle = Cocycle.constant_minus_one(rack)
        elif cocycle_spec == "zeta3":
            cocycle = Cocycle.constant(rack, 3, 1)
        else:
            raise ValueError(f"unknown cocycle spec {cocycle_spec!r}")
        perm = self.perm(rack_spec)
        exp = [[0] * rack.n for _ in range(rack.n)]
        for x in range(rack.n):
            for y in range(rack.n):
                exp[perm[x]][perm[y]] = cocycle.exponents[x][y]
        return cocycle.order, exp

    def cocycle_arg(self, rack_spec: str, cocycle_spec: str) -> str:
        if self.seed == 0 and cocycle_spec in CLI_COCYCLES:
            return cocycle_spec
        order, exp = self.cocycle_exponents(rack_spec, cocycle_spec)
        name = f"cocycle-{self._slug(rack_spec)}-{self._slug(cocycle_spec)}"
        return "file:" + self._write(name, {"N": order, "exp": exp})

    def s3_datum(self, cocycle_spec: str) -> str:
        """S_3 acting on its relabeled transpositions, graded by themselves."""
        rack_spec = "transpositions:3"
        perm = self.perm(rack_spec)
        rack = catalog(rack_spec).relabel(tuple(perm))
        order, exp = self.cocycle_exponents(rack_spec, cocycle_spec)
        space = BraidedSpace(rack, Cocycle(rack, order, tuple(map(tuple, exp))))
        elems = transposition_elements(3)
        group = FiniteGroup.from_permutations(elems, label="S3")
        degrees = [None] * 3
        for x, g in enumerate(elems):
            degrees[perm[x]] = g
        datum = datum_from_generators(space, group, degrees)
        return self._write(f"datum-s3-{self._slug(cocycle_spec)}", datum_to_json(datum))

    def rank_one_datum(self, group_order: int, q_order: int) -> str:
        """One vector over C_group_order, acted on by a root of order q_order."""
        datum = rank_one_datum(group_order, q_order)
        return self._write(f"datum-c{group_order}-q{q_order}", datum_to_json(datum))


def _transpositions_n(rack_spec: str) -> int:
    name, _, arg = rack_spec.partition(":")
    if name != "transpositions":
        raise ValueError("the chi cocycle needs a transpositions:n rack")
    return int(arg)
