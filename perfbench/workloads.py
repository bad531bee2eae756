"""The benchmark's workloads: lists of ``rackcover`` CLI jobs with oracles.

Every expected value is invariant under relabeling the rack, so one oracle
serves every seed.  Sources:

* Hilbert series: Fomin-Kirillov (1999) for the transposition racks and
  ``four_cycles_S4``, ``(2)_t^2 (3)_t (6)_t`` for the tetrahedron rack,
  ``(4)_t^4 (5)_t`` for ``affine:5,g`` (Grana 2000), and
  ``(3)_t^2 (3)_{t^2}`` for the rank-two Cartan type A_2 at zeta_3;
* ``dims`` of ``transpositions:3`` with the constant zeta_3 cocycle: no
  published series, cross-checked once against the dense oracle of the
  test suite by ``crosscheck.py``;
* the degree-2 identity ``dim B^2 = d^2 - #QR``;
* closed forms computed here: c-orbit counts, the orbit census of the
  transposition racks, slice dimensions ``|G| * sum(graded dims)`` and the
  number of axiom instances a slice of given graded dimensions has;
* group orders (S_5, and the quotients of the enveloping groups of
  ``four_cycles_S4`` and ``tetrahedron``) and the relator and
  minimal-element counts measured at the commit that introduced the
  benchmark (all label-invariant).

A check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from pathlib import Path
from typing import Callable

from rackcover.racks import catalog

from inputs import Inputs

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    check: Check


def _expect(path: str, expected) -> Check:
    """Compare payload['result'][k1][k2]... with `expected`."""
    keys = path.split(".")

    def check(payload: dict) -> list:
        value = payload["result"]
        for key in keys:
            value = value[key]
        if value != expected:
            return [f"{path} = {value!r}, expected {expected!r}"]
        return []

    return check


def _all(*checks: Check) -> Check:
    def check(payload: dict) -> list:
        return [problem for c in checks for problem in c(payload)]

    return check


def _counts_by_degree(key: str, expected: dict) -> Check:
    def check(payload: dict) -> list:
        got = {deg: len(items) for deg, items in payload["result"][key].items()}
        want = {str(deg): count for deg, count in expected.items()}
        return [] if got == want else [f"{key} counts {got}, expected {want}"]

    return check


def _dims(inputs: Inputs, rack: str, cocycle: str, degree: int, expected) -> Job:
    argv = ("nichols", "dims", *inputs.rack_args(rack),
            "--cocycle", inputs.cocycle_arg(rack, cocycle),
            "--max-degree", str(degree))
    check = _all(_expect("dims", list(expected)),
                 _expect("total_up_to_cutoff", sum(expected)))
    return Job(f"dims {rack} {cocycle} {degree}", argv, check)


def _relators(inputs: Inputs, rack: str, cocycle: str, degree: int, counts) -> Job:
    argv = ("nichols", "relators", *inputs.rack_args(rack),
            "--cocycle", inputs.cocycle_arg(rack, cocycle),
            "--max-degree", str(degree))
    return Job(f"relators {rack} {cocycle} {degree}", argv,
               _counts_by_degree("relators_by_degree", counts))


def _closed(sizes, cutoff: int, arity: int) -> int:
    """Tuples of `arity` basis elements whose degrees sum to at most
    `cutoff`, with sizes[n] basis elements in degree n."""
    counts = {0: 1}
    for _ in range(arity):
        nxt: dict = {}
        for total, count in counts.items():
            for degree, size in enumerate(sizes):
                if total + degree <= cutoff:
                    nxt[total + degree] = nxt.get(total + degree, 0) + count * size
        counts = nxt
    return sum(counts.values())


def _bosonize(cutoff: int, group_order: int, dims) -> Check:
    """Slice dimension |G| * sum(dims) and graded dims; every axiom is
    checked on each basis element, and associativity and the bialgebra
    axiom on each triple and pair in closed degrees."""
    sizes = [group_order * d for d in dims]
    dimension = sum(sizes)
    axioms = {name: dimension for name in ("unit", "counit", "coassociativity", "antipode")}
    axioms["associativity"] = _closed(sizes, cutoff, 3)
    axioms["bialgebra"] = _closed(sizes, cutoff, 2)

    def axiom_counts(payload: dict) -> list:
        got = {a["axiom"]: a["instances"] for a in payload["result"]["axioms"]}
        return [] if got == axioms else [f"axiom instances {got}, expected {axioms}"]

    return _all(
        _expect("dimension", dimension),
        _expect("graded_dims", list(dims)),
        _expect("group_order", group_order),
        _expect("all_axioms_pass", True),
        axiom_counts,
    )


# ---------------------------------------------------------------------------
# paper tables, checked against quantities computed here
# ---------------------------------------------------------------------------


def c_orbit_count(rack_spec: str) -> int:
    """Orbits of (x, y) -> (x |> y, x) on X x X."""
    table = catalog(rack_spec).table
    n = len(table)
    seen = set()
    orbits = 0
    for start in ((x, y) for x in range(n) for y in range(n)):
        if start in seen:
            continue
        orbits += 1
        pair = start
        while pair not in seen:
            seen.add(pair)
            x, y = pair
            pair = (table[x][y], x)
    return orbits


# published dim B^2 of the chi-twisted transposition racks: FK_3, FK_4, FK_5
_CHI_DIM2 = {"transpositions:3": 4, "transpositions:4": 19, "transpositions:5": 55}


def _check_table_53(payload: dict) -> list:
    """(#orbits, #QR) per row.  Orbits are counted here.  With q = -1 every
    orbit gives one kernel line of 1 + c, so #QR = #orbits; for chi,
    #QR = d^2 - dim B^2 from the published series; the rank-two Cartan row
    at zeta_3 has no quadratic relations."""
    specs = {
        "S_3": "transpositions:3", "S_4": "transpositions:4",
        "S_5": "transpositions:5", "B": "four_cycles_S4", "T": "tetrahedron",
        "Aff(5,2)": "affine:5,2", "Aff(5,3)": "affine:5,3",
        "Aff(7,3)": "affine:7,3", "Aff(7,5)": "affine:7,5",
        "D_4": "reflections_D4",
    }
    problems = []
    rows = {row["rack"]: row for row in payload["result"]["rows"]}
    for label in ("D_3", "T'"):
        if rows.get(label, {}).get("note") != "needs external cocycle":
            problems.append(f"row {label} should need an external cocycle")
    for label, spec in specs.items():
        row = rows.get(label)
        if row is None:
            problems.append(f"row {label} missing")
            continue
        orbits = c_orbit_count(spec)
        d = catalog(spec).n
        if row["cocycle"] == "chi":
            qr = d * d - _CHI_DIM2[spec]
        else:
            qr = orbits
        if (row["d"], row["orbits"], row["qr"]) != (d, orbits, qr):
            problems.append(f"row {label}: {row}, expected d={d} orbits={orbits} qr={qr}")
    cartan = rows.get("rank 2")
    if cartan is None or (cartan["orbits"], cartan["qr"]) != (c_orbit_count("abelian:2"), 0):
        problems.append(f"rank 2 row {cartan}")
    return problems


def _check_table_52(n_max: int) -> Check:
    """Orbit sizes of the transposition racks: one per transposition, one
    per unordered pair of disjoint ones, two per 3-subset of points."""

    def check(payload: dict) -> list:
        want = []
        for n in range(3, n_max + 1):
            d = comb(n, 2)
            sizes = (d, d * comb(n - 2, 2) // 2, 2 * comb(n, 3))
            total = sum(sizes)
            want.append({"n": n, "size1": sizes[0], "size2": sizes[1],
                         "size3": sizes[2], "total": total,
                         "excess": total - comb(d, 2)})
        got = payload["result"]["rows"]
        return [] if got == want else [f"table 5.2 rows {got}, expected {want}"]

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def graded_deep(inputs: Inputs) -> list:
    return [
        # type A_2 at zeta_3: (3)_t^2 (3)_{t^2}, dimension 27
        _dims(inputs, "abelian:2", "zeta3", 8, (1, 2, 4, 4, 5, 4, 4, 2, 1)),
        # prefix of (2)_t^2 (3)_t (6)_t
        _dims(inputs, "tetrahedron", "const:-1", 5, (1, 4, 8, 11, 12, 12)),
    ]


# dense N = 3 entries; checked against the dense oracle by crosscheck.py
T3_ZETA3_DIMS = (1, 3, 9, 21, 50, 111)


def graded_wide(inputs: Inputs) -> list:
    fk4 = (1, 6, 19, 42, 71)  # prefix of (2)^2 (3)^2 (4)^2
    return [
        _dims(inputs, "transpositions:4", "const:-1", 4, fk4),
        _dims(inputs, "four_cycles_S4", "const:-1", 4, fk4),
        _dims(inputs, "affine:5,2", "const:-1", 4, (1, 5, 15, 35, 66)),
        _dims(inputs, "transpositions:3", "zeta3", 5, T3_ZETA3_DIMS),
    ]


def hopf(inputs: Inputs) -> list:
    jobs = []
    for datum, cutoff, order, dims in (
        # the full 12-dimensional B(V) of S_3, so B(V) # kS_3 has dimension 72
        (inputs.s3_datum("chi"), 4, 6, (1, 3, 4, 3, 1)),
        (inputs.s3_datum("const:-1"), 3, 6, (1, 3, 4, 3)),
        # rank one: B(V) = k[x]/(x^m) with m the order of q
        (inputs.rank_one_datum(12, 3), 2, 12, (1, 1, 1)),
        (inputs.rank_one_datum(4, 4), 3, 4, (1, 1, 1, 1)),
    ):
        argv = ("hopf", "bosonize", "--datum", datum, "--cutoff", str(cutoff), "--verify")
        jobs.append(Job(f"bosonize {Path(datum).stem} {cutoff}", argv,
                        _bosonize(cutoff, order, dims)))
    # C_8 -> C_4, k -> k mod 4; the kernel {0, 4} acts trivially.  The
    # source slice has 8 basis elements in each degree 0..3.
    images = ",".join(str(k % 4 + 1) for k in range(8))
    argv = ("hopf", "cover", "--source", inputs.rank_one_datum(8, 4),
            "--target", inputs.rank_one_datum(4, 4), "--images", images,
            "--cutoff", "3")
    jobs.append(Job("cover c8-q4 c4-q4 3", argv, _all(
        _expect("verified", True),
        _expect("kernel_size", 2),
        _expect("lifts_per_element", 2),
        _expect("coproducts_checked", 32),
        _expect("algebra_products_checked", _closed([8] * 4, 3, 2)),
        # x^2 and x^3 are nonzero: no relations below degree 4
        _expect("minimal_elements_checked", 0),
    )))
    return jobs


def relators(inputs: Inputs) -> list:
    def tc(rack: str, relator: str, index: int) -> Job:
        argv = ("group", "tc", *inputs.rack_args(rack), "--extra-relator", relator)
        return Job(f"tc {rack} {relator}", argv, _expect("index", index))

    t5 = "transpositions:5"
    return [
        _relators(inputs, "transpositions:4", "const:-1", 3, {2: 27, 3: 1254}),
        _relators(inputs, "tetrahedron", "const:-1", 3, {2: 12, 3: 158}),
        _relators(inputs, "transpositions:3", "chi", 4, {2: 6, 3: 9, 4: 11}),
        Job("minimal tetrahedron const:-1 3",
            ("nichols", "minimal", *inputs.rack_args("tetrahedron"),
             "--cocycle", inputs.cocycle_arg("tetrahedron", "const:-1"),
             "--max-degree", "3"),
            _counts_by_degree("minimal_elements", {2: 12, 3: 34})),
        tc(t5, "x1 x1", 120),  # S_5
        tc("four_cycles_S4", "x1^4", 96),
        tc("tetrahedron", "x1^3", 24),
        Job("abelianization transpositions:5",
            ("group", "abelianization", *inputs.rack_args(t5)),
            _all(_expect("free_rank", 1), _expect("torsion", []))),
        Job("quadratic transpositions:5 chi",
            ("braid", "quadratic", *inputs.rack_args(t5),
             "--cocycle", inputs.cocycle_arg(t5, "chi")),
            _all(_expect("dim2", _CHI_DIM2[t5]), _expect("qr", 10**2 - _CHI_DIM2[t5]))),
        Job("paper table 5.3", ("paper", "table", "--which", "5.3"), _check_table_53),
        Job("paper table 5.2 8", ("paper", "table", "--which", "5.2", "--n-max", "8"),
            _check_table_52(8)),
    ]


WORKLOADS = {
    "graded-deep": graded_deep,
    "graded-wide": graded_wide,
    "hopf": hopf,
    "relators": relators,
}


def probe(inputs: Inputs) -> list:
    """One small job through every traced layer, appended to traced runs so
    that each per-layer metric is measured on every workload."""
    t3 = "transpositions:3"
    rack = inputs.rack_args(t3)
    chi = inputs.cocycle_arg(t3, "chi")
    jobs = [
        Job("rack info", ("rack", "info", *rack), _expect("inner_order", 6)),
        Job("census", ("braid", "census", *rack, "--cocycle", chi),
            _expect("total", 5)),
        Job("quadratic", ("braid", "quadratic", *rack, "--cocycle", chi),
            _expect("dim2", _CHI_DIM2[t3])),
        _dims(inputs, t3, "chi", 3, (1, 3, 4, 3)),
        _relators(inputs, t3, "chi", 2, {2: 6}),
        Job("abelianization", ("group", "abelianization", *rack),
            _all(_expect("free_rank", 1), _expect("torsion", []))),
        Job("tc", ("group", "tc", *rack, "--extra-relator", "x1 x1"),
            _expect("index", 6)),
        Job("bosonize",
            ("hopf", "bosonize", "--datum", inputs.rank_one_datum(2, 2),
             "--cutoff", "2", "--verify"),
            _all(_expect("dimension", 4), _expect("all_axioms_pass", True))),
        Job("cover",
            ("hopf", "cover", "--source", inputs.rank_one_datum(4, 2),
             "--target", inputs.rank_one_datum(2, 2), "--images", "1,2,1,2",
             "--cutoff", "2"),
            _all(_expect("verified", True), _expect("kernel_size", 2))),
    ]
    return [replace(job, id=f"probe {job.id}") for job in jobs]
