"""Spans and counters around calls into the layers of ``rackcover``.

The wrappers live here, in the benchmark, not in the program.  Each traced
function is replaced at every module attribute that holds it, because
``from .linalg import rank_kernel`` gives ``rackcover.nichols`` a binding
of its own that callers in ``nichols`` look up.  Methods are replaced on
their class.  ``CycScalar`` operations are counted, not spanned: a span
per scalar operation would cost more than the operation.

A span is ``[name, start, end, parent, job]``, with ``parent`` the index
of the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from rackcover import (
    bosonization, braiding, cli, coset, cyclotomic, envgroup, groups, linalg,
    nichols, racks,
)

# (module, dotted attribute): a function of the module or a class member
SPANNED = [
    (cli, "main"),
    (nichols, "symmetrizer_matrix"),
    (nichols, "GradedBasis.__init__"),
    (nichols, "minimal_elements"),
    (nichols, "word_blocks"),
    (nichols, "hilbert_series"),
    (nichols, "covering_relators"),
    (linalg, "rank_kernel"),
    (linalg, "ExactMatrix.apply"),
    (linalg, "support_minimal_vectors"),
    (linalg, "IncrementalSpan.add"),
    (linalg, "IncrementalSpan.coordinates"),
    (linalg, "smith_normal_form"),
    (linalg, "determinant"),
    (braiding, "BraidedSpace.__init__"),
    (braiding, "quadratic_analysis"),
    (braiding, "c_orbit_census"),
    (bosonization, "build_slice"),
    (bosonization, "verify_hopf"),
    (bosonization, "covering_map_check"),
    (bosonization, "yd_verify"),
    (coset, "todd_coxeter"),
    (envgroup, "abelianization"),
    (envgroup, "enveloping_presentation"),
    (groups, "FiniteGroup.from_permutations"),
    (racks, "Rack.inner_group"),
]

# CycScalar members counted per call, by counter name
SCALAR_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub",
    "__rsub__": "addsub", "__neg__": "addsub",
    "inverse": "inverse", "lift": "lift", "__init__": "new",
}

# sizes taken from a traced call's arguments or result, by span name
SIZES = {
    "nichols.symmetrizer_matrix": lambda a, r: {"cols": r.cols, "nnz": len(r.entries)},
    "linalg.rank_kernel": lambda a, r: {"cols": a[0].cols},
    "linalg.support_minimal_vectors": lambda a, r: {"ambient": a[1]},
    "bosonization.build_slice": lambda a, r: {"dim": r.dimension},
    "bosonization.verify_hopf": lambda a, r: {
        "instances": sum(count for _, count, _ in r.axioms)},
    "coset.todd_coxeter": lambda a, r: {"index": r},
}


def span_name(module, attr: str) -> str:
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
    return name.removesuffix(".__init__")


class Tracer:
    """Records spans and counters while installed; one per process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []

    # --- installing --------------------------------------------------

    def install(self):
        for module, attr in SPANNED:
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                orig = cls.__dict__[member]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._spanned(span_name(module, attr), orig.__func__))
                else:
                    wrapped = self._spanned(span_name(module, attr), orig)
                setattr(cls, member, wrapped)
            else:
                orig = getattr(module, attr)
                self._rebind(orig, self._spanned(span_name(module, attr), orig))
        scalar = cyclotomic.CycScalar
        for member, counter in SCALAR_OPS.items():
            setattr(scalar, member, self._counted(f"cyclotomic.{counter}.calls",
                                                  scalar.__dict__[member]))
        coset.CosetTable.add_coset = self._counted(
            "coset.cosets_defined", coset.CosetTable.add_coset)

    @staticmethod
    def _rebind(orig, wrapped):
        """Replace `orig` at every rackcover module attribute bound to it."""
        for name, module in list(sys.modules.items()):
            if name == "rackcover" or name.startswith("rackcover."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)

    def _spanned(self, name: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        size = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[f"{name}.calls"] += 1
            if size is not None:
                for key, value in size(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counted(self, counter: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    # --- reading -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> dict:
        totals: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return totals

    def self_by_job(self) -> dict:
        totals: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[4]] += own
        return totals

    def write(self, path):
        """One JSON line per span."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def source_lines(path) -> int:
    """Lines that are neither blank nor comments."""
    with open(path) as handle:
        return sum(1 for line in handle if line.strip() and not line.lstrip().startswith("#"))


MODULES = [
    "bosonization", "braiding", "cli", "coset", "cyclotomic", "envgroup",
    "errors", "groups", "linalg", "nichols", "presentations", "racks",
]


def sloc(package_dir) -> dict:
    """Source lines per module; a module that has been deleted has none."""
    paths = {m: package_dir / f"{m}.py" for m in MODULES}
    return {f"{m}.sloc": source_lines(p) if p.exists() else 0 for m, p in paths.items()}

