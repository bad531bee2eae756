"""Command-line front end.

Commands: rack {check,info}, braid {check,census,quadratic},
nichols {dims,relators,minimal}, group {envelope,abelianization,quotient,
tc,coverings}, hopf {bosonize,cover}, paper table.

Exit codes: 0 success, 1 input/validation failure, 2 resource bound,
3 internal invariant violation.  Output is JSON or TSV; identical inputs
give byte-identical output when --no-meta suppresses the timestamp.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .braiding import (
    BraidedSpace,
    Cocycle,
    braid_check,
    c_orbit_census,
    chi_cocycle,
    fk_census_formula,
    quadratic_analysis,
)
from .coset import todd_coxeter
from .envgroup import (
    abelianization,
    covering_lattice,
    enveloping_presentation,
    hom_from_generator_images,
    rack_inner_hom,
    verify_quotient,
)
from .errors import (
    BoundExceededError,
    CosetLimitError,
    InternalCheckError,
    RackcoverError,
    ValidationError,
)
from .groups import load_group_json
from .nichols import covering_relators, hilbert_series, minimal_elements
from .presentations import Presentation, default_labels, format_word, parse_word
from .racks import catalog, catalog_names, rack_from_json
from .racks import transpositions_rack


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _resolve_rack(args):
    if args.builtin and args.file:
        raise ValidationError("give one of --builtin and --file, not both")
    if args.builtin:
        return catalog(args.builtin)
    if args.file:
        return rack_from_json(_load_json(args.file))
    raise ValidationError("need --builtin or --file")


def _resolve_cocycle(rack, spec: str) -> Cocycle:
    if spec.startswith("const:"):
        value = spec[len("const:"):]
        try:
            k = int(value)
        except ValueError as exc:
            raise ValidationError(f"bad constant cocycle {spec!r}") from exc
        if k == 1:
            return Cocycle.constant(rack, 1, 0)
        if k == -1:
            return Cocycle.constant_minus_one(rack)
        raise ValidationError("constant cocycles are const:1 or const:-1")
    if spec == "chi":
        n = _transposition_count_to_n(rack)
        return chi_cocycle(n)
    if spec.startswith("file:"):
        return Cocycle.from_json(rack, _load_json(spec[len("file:"):]))
    raise ValidationError(f"unknown cocycle spec {spec!r}")


def _transposition_count_to_n(rack) -> int:
    for n in range(2, 40):
        if n * (n - 1) // 2 == rack.n:
            if rack.table == transpositions_rack(n).table:
                return n
            break
    raise ValidationError("the chi cocycle needs a transpositions(n) rack")


def _parse_images(text: str, elements) -> list:
    """The elements named by a comma-separated list of 1-based indices."""
    images = []
    for value in text.split(","):
        try:
            i = int(value)
        except ValueError:
            raise ValidationError(f"--images: {value!r} is not an integer") from None
        if not 1 <= i <= len(elements):
            raise ValidationError(
                f"--images: index {i} is outside 1..{len(elements)}"
            )
        images.append(elements[i - 1])
    return images


def _space(args) -> BraidedSpace:
    rack = _resolve_rack(args)
    cocycle = _resolve_cocycle(rack, args.cocycle)
    return BraidedSpace(rack, cocycle)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(args, command: str, result: dict, tsv_rows=None):
    payload = {
        "command": command,
        "version": __version__,
        "config": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func",) and value is not None
        },
        "result": result,
    }
    if not args.no_meta:
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    # TSV: header comment lines, then rows
    if not args.no_meta:
        print(f"# {command}\tversion={__version__}\t{payload.get('generated_at')}")
    else:
        print(f"# {command}\tversion={__version__}")
    if tsv_rows is None:
        tsv_rows = [(key, _tsv_scalar(value)) for key, value in sorted(result.items())]
    for row in tsv_rows:
        print("\t".join(str(cell) for cell in row))


def _tsv_scalar(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value


# ---------------------------------------------------------------------------
# rack commands
# ---------------------------------------------------------------------------


def cmd_rack_check(args):
    rack = _resolve_rack(args)
    _emit(args, "rack check", {"valid": True, "n": rack.n, "label": rack.label})


def cmd_rack_info(args):
    rack = _resolve_rack(args)
    inner = rack.inner_group()
    orbits = rack.orbits()
    fingerprint = inner.fingerprint()
    center_order = len(inner.center())
    certified = center_order == 1 and rack.is_faithful()
    result = {
        "label": rack.label,
        "n": rack.n,
        "orbits": len(orbits),
        "orbit_blocks": orbits,
        "decomposable": rack.is_decomposable(),
        "quandle": rack.is_quandle(),
        "faithful": rack.is_faithful(),
        "inner_order": inner.order,
        "inner_abelian_invariants": list(fingerprint[1]),
        "inner_center_order": center_order,
        "inner_order_histogram": {str(k): v for k, v in fingerprint[3]},
        "central_quotient_certified": certified,
    }
    _emit(args, "rack info", result)


# ---------------------------------------------------------------------------
# braid commands
# ---------------------------------------------------------------------------


def cmd_braid_check(args):
    rack = _resolve_rack(args)
    if args.cocycle.startswith("file:"):
        # load without from_json's braid check so a broken cocycle can be
        # reported with its witness rather than rejected up front
        cocycle = Cocycle.read_json(rack, _load_json(args.cocycle[len("file:"):]))
    else:
        cocycle = _resolve_cocycle(rack, args.cocycle)
    ok, witness = braid_check(rack, cocycle)
    result = {"braid_equation": ok}
    if witness is not None:
        result["witness"] = list(witness)
    _emit(args, "braid check", result)
    if not ok:
        raise ValidationError(f"braid equation fails at {witness}")


def cmd_braid_census(args):
    space = _space(args)
    census = c_orbit_census(space)
    result = {
        "d": space.dim,
        "total": census.total,
        "histogram": {str(size): count for size, count in census.histogram},
    }
    rows = [("d", space.dim), ("total", census.total)] + [
        (f"size_{size}", count) for size, count in census.histogram
    ]
    _emit(args, "braid census", result, tsv_rows=rows)


def cmd_braid_quadratic(args):
    space = _space(args)
    report = quadratic_analysis(space)
    result = {
        "d": space.dim,
        "orbits": report.orbit_count,
        "qr": report.total_qr,
        "dim2": report.dim2,
        "full": report.full,
        "many": report.many,
        "kernel_dims": [orbit.kernel_dim for orbit in report.orbits],
    }
    _emit(args, "braid quadratic", result)


# ---------------------------------------------------------------------------
# nichols commands
# ---------------------------------------------------------------------------


def cmd_nichols_dims(args):
    space = _space(args)
    try:
        report = hilbert_series(space, args.max_degree, max_cols=args.max_cols)
    except BoundExceededError as exc:
        # the degrees below the bound are exact: print them before exit 2
        _emit(args, "nichols dims", {**exc.partial.to_json(), "partial": True})
        raise
    _emit(args, "nichols dims", report.to_json())


def _relators_payload(space, result) -> dict:
    labels = default_labels(space.dim)
    per_degree = {}
    for relset in result.per_degree:
        per_degree[str(relset.degree)] = [
            format_word(rel, labels) for rel in relset.relators
        ]
    return {
        "generators": space.dim,
        "relators_by_degree": per_degree,
        "presentation": result.presentation.to_json(),
    }


def cmd_nichols_relators(args):
    space = _space(args)
    try:
        result = covering_relators(space, args.max_degree, max_cols=args.max_cols)
    except BoundExceededError as exc:
        _emit(args, "nichols relators",
              {**_relators_payload(space, exc.partial), "partial": True})
        raise
    _emit(args, "nichols relators", _relators_payload(space, result))


def cmd_nichols_minimal(args):
    space = _space(args)
    out = {}
    for degree in range(2, args.max_degree + 1):
        try:
            found = minimal_elements(space, degree, max_cols=args.max_cols)
        except BoundExceededError as exc:
            _emit(args, "nichols minimal", {"minimal_elements": out, "partial": True})
            raise BoundExceededError(str(exc), partial=out) from None
        out[str(degree)] = [
            {
                "words": [list(w) for w in element.words],
                "coefficients": [
                    [list(word), str(value)] for word, value in element.vector
                ],
            }
            for element in found
        ]
    _emit(args, "nichols minimal", {"minimal_elements": out})


# ---------------------------------------------------------------------------
# group commands
# ---------------------------------------------------------------------------


def cmd_group_envelope(args):
    rack = _resolve_rack(args)
    pres = enveloping_presentation(rack)
    result = {
        "generators": pres.ngens,
        "relators": pres.format_relators(),
        "relator_count": len(pres.relators),
    }
    _emit(args, "group envelope", result)


def _resolve_presentation(args) -> Presentation:
    if args.presentation:
        if args.builtin or args.file:
            raise ValidationError("give one of --presentation and a rack, not both")
        return Presentation.from_json(_load_json(args.presentation))
    rack = _resolve_rack(args)
    return enveloping_presentation(rack)


def cmd_group_abelianization(args):
    pres = _resolve_presentation(args)
    free_rank, torsion = abelianization(pres)
    _emit(
        args,
        "group abelianization",
        {"free_rank": free_rank, "torsion": list(torsion)},
    )


def cmd_group_quotient(args):
    rack = _resolve_rack(args)
    if bool(args.group) != bool(args.images):
        raise ValidationError("give --group and --images together")
    if args.group:
        target = load_group_json(_load_json(args.group))
        images = _parse_images(args.images, target.elements)
        hom = verify_quotient(enveloping_presentation(rack), target, images)
    else:
        hom = rack_inner_hom(rack)
    _emit(
        args,
        "group quotient",
        {
            "verified": True,
            "target_order": hom.target.order,
            "surjective": True,
        },
    )


def cmd_group_tc(args):
    pres = _resolve_presentation(args)
    labels = pres.label_list()
    extras = tuple(parse_word(text, labels) for text in (args.extra_relator or []))
    subgens = tuple(parse_word(text, labels) for text in (args.subgroup or []))
    try:
        index = todd_coxeter(
            pres,
            extra_relators=extras,
            subgroup_generators=subgens,
            max_cosets=args.max_cosets,
        )
    except CosetLimitError as exc:
        # how far the enumeration got, before exit 2
        _emit(args, "group tc", {"cosets_defined": exc.table_size,
                                 "max_cosets": exc.max_cosets, "partial": True})
        raise
    _emit(args, "group tc", {"index": index, "max_cosets": args.max_cosets})


def cmd_group_coverings(args):
    source = load_group_json(_load_json(args.group))
    target = load_group_json(_load_json(args.target))
    images = _parse_images(args.images, target.elements)
    hom = hom_from_generator_images(source, target, images)
    lattice = covering_lattice(hom)
    _emit(
        args,
        "group coverings",
        {
            "source_order": source.order,
            "target_order": target.order,
            "kernel_order": len(lattice.kernel),
            "commutator_order": len(lattice.commutator),
            "coverings": [c.order for c in lattice.coverings],
            "count": lattice.count,
        },
    )


# ---------------------------------------------------------------------------
# hopf commands
# ---------------------------------------------------------------------------


def cmd_hopf_bosonize(args):
    from .bosonization import build_slice, datum_from_json, slice_to_json, verify_hopf

    datum = datum_from_json(_load_json(args.datum))
    try:
        slice_ = build_slice(datum, args.cutoff, max_dim=args.max_dim)
    except BoundExceededError as exc:
        # every degree built is exact: print their dims before exit 2
        _emit(args, "hopf bosonize", {"graded_dims": list(exc.partial), "partial": True})
        raise
    result = {
        "dimension": slice_.dimension,
        "graded_dims": list(slice_.dims),
        "group_order": datum.group.order,
    }
    if args.export_structure:
        result["structure"] = slice_to_json(slice_)
    if args.verify:
        report = verify_hopf(slice_)
        result["axioms"] = [
            {"axiom": name, "instances": count, "degrees": note}
            for name, count, note in report.axioms
        ]
        result["skipped"] = [list(item) for item in report.skipped]
        result["group_likes"] = report.group_likes
        result["all_axioms_pass"] = True
    _emit(args, "hopf bosonize", result)


def cmd_hopf_cover(args):
    from dataclasses import asdict

    from .bosonization import covering_map_check, datum_from_json

    source = datum_from_json(_load_json(args.source))
    target = datum_from_json(_load_json(args.target))
    images = _parse_images(args.images, target.group.elements)
    hom = hom_from_generator_images(source.group, target.group, images)
    try:
        result = covering_map_check(source, target, hom, cutoff=args.cutoff)
    except BoundExceededError as exc:
        # a slice above 5000 basis elements carries the dims it built, the
        # minimal-element pass the counts up to its last complete degree
        partial = exc.partial
        done = {"graded_dims": list(partial)} if isinstance(partial, tuple) else asdict(partial)
        _emit(args, "hopf cover", {**done, "partial": True})
        raise
    _emit(args, "hopf cover", {"verified": True, **asdict(result)})


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------


def _table_52(n_max: int):
    rows = []
    for n in range(3, n_max + 1):
        formula = fk_census_formula(n)
        rack = transpositions_rack(n)
        census = c_orbit_census(
            BraidedSpace(rack, Cocycle.constant_minus_one(rack))
        )
        if census.total != formula.total:
            raise InternalCheckError(
                f"census {census.total} disagrees with formula {formula.total}"
            )
        sizes = dict(census.histogram)
        if (
            sizes.get(1, 0) != formula.size1
            or sizes.get(2, 0) != formula.size2
            or sizes.get(3, 0) != formula.size3
        ):
            raise InternalCheckError("census breakdown disagrees with formula")
        rows.append(
            {
                "n": n,
                "size1": formula.size1,
                "size2": formula.size2,
                "size3": formula.size3,
                "total": formula.total,
                "excess": formula.excess,
            }
        )
    return rows


_TABLE_53_BUILTINS = [
    # (display label, rack spec, cocycle spec)
    ("S_3", "transpositions:3", "chi"),
    ("S_4", "transpositions:4", "chi"),
    ("S_5", "transpositions:5", "chi"),
    ("D_3", "dihedral:3", None),
    ("B", "four_cycles_S4", "const:-1"),
    ("T", "tetrahedron", "const:-1"),
    ("T'", "tetrahedron", None),
    ("Aff(5,2)", "affine:5,2", "const:-1"),
    ("Aff(5,3)", "affine:5,3", "const:-1"),
    ("Aff(7,3)", "affine:7,3", "const:-1"),
    ("Aff(7,5)", "affine:7,5", "const:-1"),
    ("D_4", "reflections_D4", "const:-1"),
]


def _table_53():
    rows = []
    for label, rack_spec, cocycle_spec in _TABLE_53_BUILTINS:
        rack = catalog(rack_spec)
        row = {"rack": label, "d": rack.n}
        if cocycle_spec is None:
            row["orbits"] = None
            row["qr"] = None
            row["note"] = "needs external cocycle"
            rows.append(row)
            continue
        cocycle = _resolve_cocycle(rack, cocycle_spec)
        report = quadratic_analysis(BraidedSpace(rack, cocycle))
        row["orbits"] = report.orbit_count
        row["qr"] = report.total_qr
        row["cocycle"] = cocycle_spec
        rows.append(row)
    # the rank-2 example of Cartan type: cubic relations only
    from .racks import abelian_rack

    rack = abelian_rack(2)
    cartan = Cocycle(rack, 3, ((1, 1), (1, 1)))
    report = quadratic_analysis(BraidedSpace(rack, cartan))
    rows.append(
        {
            "rack": "rank 2",
            "d": 2,
            "orbits": report.orbit_count,
            "qr": report.total_qr,
            "cocycle": "cartan zeta3",
            "note": "published orbit cell uses a different count; census shown",
        }
    )
    return rows


def cmd_paper_table(args):
    if args.which == "5.2":
        rows = _table_52(args.n_max)
        tsv = [("n", "size1", "size2", "size3", "total", "excess")] + [
            (r["n"], r["size1"], r["size2"], r["size3"], r["total"], r["excess"])
            for r in rows
        ]
        _emit(args, "paper table", {"which": "5.2", "rows": rows}, tsv_rows=tsv)
        return
    if args.which == "5.3":
        rows = _table_53()
        tsv = [("rack", "d", "orbits", "qr", "note")] + [
            (
                r["rack"],
                r["d"],
                "-" if r["orbits"] is None else r["orbits"],
                "-" if r["qr"] is None else r["qr"],
                r.get("note", ""),
            )
            for r in rows
        ]
        _emit(args, "paper table", {"which": "5.3", "rows": rows}, tsv_rows=tsv)
        return
    raise ValidationError("--which must be 5.2 or 5.3")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("tsv", "json"), default="json")
    parser.add_argument("--no-meta", action="store_true",
                        help="omit the timestamp for byte-stable output")


def _add_rack_source(parser):
    parser.add_argument("--builtin", help=f"catalog rack, e.g. {catalog_names()}")
    parser.add_argument("--file", help="rack JSON file")


def _add_cocycle(parser):
    parser.add_argument(
        "--cocycle",
        default="const:-1",
        help="const:<1|-1>, chi, or file:<path>",
    )


# what --max-cols bounds in each degree n; exit 2 prints the degrees below
MAX_COLS_HELP = {
    "dims": "most candidate columns d * dim B^(n-1) per degree (default 10000)",
    "relators": "most symmetrizer columns d^n per degree (default 10000)",
    "minimal": "most symmetrizer columns d^n per degree (default 10000)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rackcover",
        description="exact invariants of braided rack spaces and their coverings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="topic", required=True)

    rack = top.add_parser("rack").add_subparsers(dest="cmd", required=True)
    p = rack.add_parser("check")
    _add_rack_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_rack_check)
    p = rack.add_parser("info")
    _add_rack_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_rack_info)

    braid = top.add_parser("braid").add_subparsers(dest="cmd", required=True)
    for name, func in (
        ("check", cmd_braid_check),
        ("census", cmd_braid_census),
        ("quadratic", cmd_braid_quadratic),
    ):
        p = braid.add_parser(name)
        _add_rack_source(p)
        _add_cocycle(p)
        _add_common(p)
        p.set_defaults(func=func)

    nichols = top.add_parser("nichols").add_subparsers(dest="cmd", required=True)
    for name, func in (
        ("dims", cmd_nichols_dims),
        ("relators", cmd_nichols_relators),
        ("minimal", cmd_nichols_minimal),
    ):
        p = nichols.add_parser(name)
        _add_rack_source(p)
        _add_cocycle(p)
        p.add_argument("--max-degree", type=int, default=4)
        p.add_argument("--max-cols", type=int, default=10**4, help=MAX_COLS_HELP[name])
        _add_common(p)
        p.set_defaults(func=func)

    group = top.add_parser("group").add_subparsers(dest="cmd", required=True)
    p = group.add_parser("envelope")
    _add_rack_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_group_envelope)
    p = group.add_parser("abelianization")
    _add_rack_source(p)
    p.add_argument("--presentation", help="presentation JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_group_abelianization)
    p = group.add_parser("quotient")
    _add_rack_source(p)
    p.add_argument("--group", help="target group JSON file (default: inner group)")
    p.add_argument("--images", help="1-based target element indices, comma separated")
    _add_common(p)
    p.set_defaults(func=cmd_group_quotient)
    p = group.add_parser("tc")
    _add_rack_source(p)
    p.add_argument("--presentation", help="presentation JSON file")
    p.add_argument("--extra-relator", action="append",
                   help="extra relator word, e.g. 'x1 x1' (repeatable)")
    p.add_argument("--subgroup", action="append",
                   help="subgroup generator word (repeatable)")
    p.add_argument("--max-cosets", type=int, default=100_000,
                   help="most cosets defined, merged ones included (default 100000)")
    _add_common(p)
    p.set_defaults(func=cmd_group_tc)
    p = group.add_parser("coverings")
    p.add_argument("--group", required=True, help="source group JSON file")
    p.add_argument("--target", required=True, help="target group JSON file")
    p.add_argument("--images", required=True,
                   help="images of source generators, 1-based target indices")
    _add_common(p)
    p.set_defaults(func=cmd_group_coverings)

    hopf = top.add_parser("hopf").add_subparsers(dest="cmd", required=True)
    p = hopf.add_parser("bosonize")
    p.add_argument("--datum", required=True, help="Yetter-Drinfeld datum JSON")
    p.add_argument("--cutoff", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=5000)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--export-structure", action="store_true",
                   help="include all structure constants in the output")
    _add_common(p)
    p.set_defaults(func=cmd_hopf_bosonize)
    p = hopf.add_parser("cover")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--cutoff", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_hopf_cover)

    paper = top.add_parser("paper").add_subparsers(dest="cmd", required=True)
    p = paper.add_parser("table")
    p.add_argument("--which", required=True, choices=("5.2", "5.3"))
    p.add_argument("--n-max", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_paper_table)

    return parser


# the least value of each bound, for every command that takes it: a degree
# may be 0, a resource bound must admit one column, basis element or coset,
# and Table 5.2 starts at n = 3
_BOUND_MINIMUM = {"max_degree": 0, "cutoff": 0, "max_cols": 1, "max_dim": 1,
                  "max_cosets": 1, "n_max": 3}
# the greatest --max-degree and --cutoff: the kernel dimension d^n of the
# top degree still prints as a JSON integer for every d below about 20000,
# and an infinite B(V) (one letter with q = 1) has a nonzero degree up to
# any cutoff, where its slice builds in time cubic in the cutoff (0.5 s at
# 100 and 3.6 s at 200 over the trivial group)
MAX_DEGREE = 1000


def _check_bounds(args):
    for name, minimum in _BOUND_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            flag = "--" + name.replace("_", "-")
            least = "nonnegative" if minimum == 0 else f"at least {minimum}"
            raise ValidationError(f"{flag} must be {least}, got {value}")
    for name in ("max_degree", "cutoff"):
        value = getattr(args, name, None)
        if value is not None and value > MAX_DEGREE:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be at most {MAX_DEGREE}, got {value}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call of `main` and kept for
    the process: parsing reads it and changes nothing in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_bounds(args)
        args.func(args)
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except RackcoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
