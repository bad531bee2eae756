import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rackcover

from rackcover.bosonization import (
    YDDatum,
    datum_from_generators,
    datum_from_json,
    datum_to_json,
    rank_one_datum,
    yd_verify,
)
from rackcover.braiding import BraidedSpace, Cocycle, chi_cocycle
from rackcover.cyclotomic import CycScalar
from rackcover.cli import main
from rackcover.groups import group_to_json, FiniteGroup
from rackcover.racks import (
    abelian_rack,
    catalog,
    rack_to_json,
    transposition_elements,
    transpositions_rack,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--no-meta")
    assert code == 0, err
    return json.loads(out)["result"]


def test_rack_info_builtin(capsys):
    result = run_json(capsys, "rack", "info", "--builtin", "affine:5,2")
    assert result["n"] == 5
    assert result["inner_order"] == 20


def test_rack_info_tetrahedron(capsys):
    result = run_json(capsys, "rack", "info", "--builtin", "tetrahedron")
    assert result["inner_order"] == 12


def test_rack_check_file_and_broken(tmp_path, capsys):
    rack = transpositions_rack(3)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rack_to_json(rack)))
    code, out, _ = run(capsys, "rack", "check", "--file", str(good), "--no-meta")
    assert code == 0
    data = rack_to_json(rack)
    data["table"][0][1], data["table"][0][2] = (
        data["table"][0][2],
        data["table"][0][1],
    )
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, _, err = run(capsys, "rack", "check", "--file", str(broken), "--no-meta")
    assert code == 1
    assert "NotSelfDistributive" in err or "NotBijective" in err


def test_braid_census_row(capsys):
    result = run_json(
        capsys,
        "braid", "census", "--builtin", "transpositions:4",
        "--cocycle", "const:-1",
    )
    assert result["total"] == 17
    assert result["histogram"] == {"1": 6, "2": 3, "3": 8}


def test_braid_quadratic_chi(capsys):
    result = run_json(
        capsys,
        "braid", "quadratic", "--builtin", "transpositions:6",
        "--cocycle", "chi",
    )
    assert result["full"] is True
    assert result["many"] is False
    assert result["qr"] == 100


def test_paper_table_52(capsys):
    result = run_json(capsys, "paper", "table", "--which", "5.2", "--n-max", "6")
    rows = {r["n"]: (r["total"], r["excess"]) for r in result["rows"]}
    assert rows == {3: (5, 2), 4: (17, 2), 5: (45, 0), 6: (100, -5)}


def test_paper_table_53(capsys):
    result = run_json(capsys, "paper", "table", "--which", "5.3")
    rows = {r["rack"]: (r["orbits"], r["qr"]) for r in result["rows"]}
    assert rows["S_4"] == (17, 17)
    assert rows["B"] == (17, 17)
    assert rows["T"] == (8, 8)
    assert rows["Aff(5,2)"] == (10, 10)
    assert rows["Aff(7,5)"] == (21, 21)
    assert rows["D_4"] == (4, 4)
    assert rows["D_3"] == (None, None)  # needs an external cocycle
    assert rows["rank 2"][1] == 0


def test_nichols_dims(capsys):
    result = run_json(
        capsys,
        "nichols", "dims", "--builtin", "transpositions:3",
        "--cocycle", "const:-1", "--max-degree", "6",
    )
    assert result["dims"] == [1, 3, 4, 3, 1, 0, 0]
    assert result["total_up_to_cutoff"] == 12


def test_group_envelope(capsys):
    result = run_json(capsys, "group", "envelope", "--builtin", "transpositions:3")
    assert result["generators"] == 3
    assert result["relator_count"] == 6


def test_group_abelianization(capsys):
    result = run_json(
        capsys, "group", "abelianization", "--builtin", "reflections_D4"
    )
    assert result["free_rank"] == 2
    assert result["torsion"] == []


def test_group_quotient_inner(capsys):
    result = run_json(capsys, "group", "quotient", "--builtin", "tetrahedron")
    assert result["verified"] is True
    assert result["target_order"] == 12


def test_group_tc(capsys):
    result = run_json(
        capsys,
        "group", "tc", "--builtin", "transpositions:3",
        "--extra-relator", "x1 x1",
    )
    assert result["index"] == 6


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    # main builds its argparse tree once per process: two calls with
    # different relators, with an argparse error between them, each print
    # what the command prints in a process of its own
    src = Path(rackcover.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    t3 = ["group", "tc", "--builtin", "transpositions:3", "--no-meta"]
    calls = [
        [*t3, "--extra-relator", "x1 x1"],
        [*t3, "--extra-relator"],  # the flag lacks its value: exit 2
        [*t3, "--extra-relator", "x1 x2"],
    ]
    seen = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "rackcover.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        seen.append((code, out))
    assert [code for code, _ in seen] == [0, 2, 0]
    assert seen[0][1] != seen[2][1]


def test_group_tc_transpositions_6(capsys):
    # S_6: the follow-and-define enumerator this replaced ran out of its
    # default 100000 cosets here
    result = run_json(
        capsys,
        "group", "tc", "--builtin", "transpositions:6", "--extra-relator", "x1 x1",
    )
    assert result["index"] == 720


def test_group_tc_limit_exit_code(capsys):
    code, _, err = run(
        capsys,
        "group", "tc", "--builtin", "tetrahedron", "--max-cosets", "3",
        "--no-meta",
    )
    assert code == 2
    assert "exceeded" in err


def test_group_tc_bound_prints_partial_result(capsys):
    code, out, err = run(
        capsys,
        "group", "tc", "--builtin", "transpositions:6", "--extra-relator", "x1 x1",
        "--max-cosets", "50", "--no-meta",
    )
    assert code == 2
    assert err == "bound exceeded: coset table exceeded 50 cosets (defined 50)\n"
    result = json.loads(out)["result"]
    assert result == {"cosets_defined": 50, "max_cosets": 50, "partial": True}


def test_group_coverings(tmp_path, capsys):
    c4 = FiniteGroup.from_permutations([(1, 2, 3, 0)])
    c2 = FiniteGroup.from_permutations([(1, 0)])
    f_c4 = tmp_path / "c4.json"
    f_c2 = tmp_path / "c2.json"
    f_c4.write_text(json.dumps(group_to_json(c4)))
    f_c2.write_text(json.dumps(group_to_json(c2)))
    # the generator of C4 maps to the generator of C2: element index 2 in
    # BFS order (identity first)
    result = run_json(
        capsys,
        "group", "coverings", "--group", str(f_c4), "--target", str(f_c2),
        "--images", "2",
    )
    assert result["count"] == 2
    assert sorted(result["coverings"]) == [2, 4]


def test_hopf_bosonize_sweedler(tmp_path, capsys):
    datum = rank_one_datum(group_order=2, q_order=2)
    path = tmp_path / "sweedler.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    result = run_json(
        capsys,
        "hopf", "bosonize", "--datum", str(path), "--cutoff", "2", "--verify",
    )
    assert result["dimension"] == 4
    assert result["all_axioms_pass"] is True


def test_hopf_bosonize_bound_prints_partial_result(tmp_path, capsys):
    # the Sweedler slice has dimension 2 in degree 0 and 4 up to degree 1,
    # so a bound of 3 trips after degree 1; the dims built are printed
    path = tmp_path / "sweedler.json"
    path.write_text(json.dumps(datum_to_json(rank_one_datum(group_order=2, q_order=2))))
    code, out, err = run(
        capsys,
        "hopf", "bosonize", "--datum", str(path), "--cutoff", "2", "--max-dim", "3",
        "--no-meta",
    )
    assert code == 2
    assert err == "bound exceeded: slice dimension 4 exceeds 3\n"
    result = json.loads(out)["result"]
    assert result == {"graded_dims": [1, 1], "partial": True}


def test_hopf_cover_c4_to_c2(tmp_path, capsys):
    source = rank_one_datum(group_order=4, q_order=2)
    target = rank_one_datum(group_order=2, q_order=2)
    fs = tmp_path / "s.json"
    ft = tmp_path / "t.json"
    fs.write_text(json.dumps(datum_to_json(source)))
    ft.write_text(json.dumps(datum_to_json(target)))
    # table-form groups list every element as a generator, so the image
    # list spells out the whole map C4 -> C2
    result = run_json(
        capsys,
        "hopf", "cover", "--source", str(fs), "--target", str(ft),
        "--images", "1,2,1,2", "--cutoff", "2",
    )
    assert result["verified"] is True
    assert result["lifts_per_element"] == 2


def _identity_cover_argv(path) -> list:
    """`hopf cover` of the datum file onto itself by the identity map."""
    group = datum_from_json(json.loads(path.read_text())).group
    images = ",".join(str(group.elements.index(g) + 1) for g in group.generators)
    return ["hopf", "cover", "--source", str(path), "--target", str(path),
            "--images", images, "--no-meta"]


def test_hopf_cover_slice_bound_prints_the_dims_built(tmp_path, capsys):
    # with q = 1 on the transpositions of S_4, (1 + 6 + 33 + 180) * 24 =
    # 5280 basis elements pass the slice bound of 5000 at degree 3
    rack = transpositions_rack(4)
    elems = transposition_elements(4)
    datum = datum_from_generators(BraidedSpace(rack, Cocycle.constant(rack, 1)),
                                  FiniteGroup.from_permutations(elems, label="S4"), elems)
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    code, out, err = run(capsys, *_identity_cover_argv(path), "--cutoff", "4")
    assert code == 2
    assert err == "bound exceeded: slice dimension 5280 exceeds 5000\n"
    assert json.loads(out)["result"] == {"graded_dims": [1, 6, 33, 180], "partial": True}


def test_hopf_cover_support_bound_prints_the_degrees_completed(tmp_path, capsys, monkeypatch):
    # the FK_4 chi support searches take at most 3 pivot steps in degree 2
    # and up to 156 in degree 3: a bound of 3 stops the pass after the 27
    # elements of degree 2, with every map check done
    monkeypatch.setattr("rackcover.linalg.MAX_SUPPORT_STEPS", 3)
    write_chi_datum(tmp_path / "s4chi.json", 4)
    code, out, err = run(capsys, *_identity_cover_argv(tmp_path / "s4chi.json"), "--cutoff", "3")
    assert code == 2
    assert err == "bound exceeded: support search exceeds 3 pivot steps\n"
    # B(V)'s dims (1, 6, 19, 42) give a slice of 68 * 24 = 1632 coproducts
    assert json.loads(out)["result"] == {
        "kernel_size": 1, "lifts_per_element": 1, "minimal_elements_checked": 27,
        "algebra_products_checked": 229824, "coproducts_checked": 1632, "partial": True,
    }


def test_nichols_minimal_dihedral_5_at_degree_3_under_relabeling(tmp_path, capsys):
    # blocks of any size go to the walk, whose searches here stay far below
    # the step bound; a relabeled rack file gives the same counts
    perm = (3, 0, 4, 1, 2)
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(rack_to_json(catalog("dihedral:5").relabel(perm))))
    for source in (("--builtin", "dihedral:5"), ("--file", str(path))):
        result = run_json(capsys, "nichols", "minimal", *source, "--max-degree", "3")
        counts = {n: len(elements) for n, elements in result["minimal_elements"].items()}
        assert counts == {"2": 40, "3": 1020}, source


def test_unknown_builtin_exit_code(capsys):
    code, _, err = run(capsys, "rack", "info", "--builtin", "mystery", "--no-meta")
    assert code == 1


def test_deterministic_output(capsys):
    args = (
        "braid", "census", "--builtin", "transpositions:3",
        "--cocycle", "const:-1", "--format", "tsv", "--no-meta",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_json_output_parses_and_echoes_config(capsys):
    code, out, _ = run(
        capsys,
        "braid", "census", "--builtin", "transpositions:3",
        "--cocycle", "const:-1", "--no-meta",
    )
    payload = json.loads(out)
    assert payload["version"]
    assert payload["config"]["builtin"] == "transpositions:3"
    assert "generated_at" not in payload


def test_nichols_dims_bound_prints_partial_result(capsys):
    code, out, err = run(
        capsys,
        "nichols", "dims", "--builtin", "transpositions:3",
        "--max-cols", "10", "--no-meta",
    )
    assert code == 2
    assert err.startswith("bound exceeded:")
    result = json.loads(out)["result"]
    assert result["partial"] is True
    # degree 3 has 3 * dim B^2 = 12 > 10 candidate columns
    assert result["dims"] == [1, 3, 4]
    assert result["cutoff"] == 2


@pytest.mark.parametrize("command", ["relators", "minimal"])
def test_nichols_symmetrizer_bound_prints_completed_degrees(capsys, command):
    # d^3 = 27 > 10 symmetrizer columns trips at degree 3; degree 2 is
    # printed exactly as a run that stops there prints it
    rack = ("--builtin", "transpositions:3", "--no-meta")
    code, out, err = run(
        capsys, "nichols", command, *rack, "--max-degree", "3", "--max-cols", "10"
    )
    assert code == 2
    assert err == "bound exceeded: degree 3 needs 27 columns, bound is 10\n"
    code2, out2, _ = run(capsys, "nichols", command, *rack, "--max-degree", "2")
    assert code2 == 0
    expected = json.loads(out2)["result"]
    assert json.loads(out)["result"] == {**expected, "partial": True}


def test_nichols_dims_column_bound_applies_from_degree_one(capsys):
    # the column bound is checked on the candidate count d * dim B^(n-1)
    # at every degree from 1 on
    code, out, err = run(
        capsys,
        "nichols", "dims", "--builtin", "transpositions:3",
        "--max-cols", "2", "--no-meta",
    )
    assert code == 2
    assert err.startswith("bound exceeded:")
    result = json.loads(out)["result"]
    assert result["partial"] is True
    assert result["dims"] == [1]  # degree 1 has 3 > 2 candidate columns
    assert result["cutoff"] == 0


@pytest.mark.parametrize("max_cols,code", [(12, 0), (11, 2)])
def test_nichols_dims_top_degree_counts_every_candidate(capsys, max_cols, code):
    # the top degree leaves out words whose suffix is not kept, but the
    # bound still counts all d * dim B^2 = 12 candidates of degree 3
    exit_code, out, err = run(
        capsys,
        "nichols", "dims", "--builtin", "transpositions:3", "--max-degree", "3",
        "--max-cols", str(max_cols), "--no-meta",
    )
    assert exit_code == code, err
    result = json.loads(out)["result"]
    if code == 0:
        assert result["dims"] == [1, 3, 4, 3]
    else:
        assert err == "bound exceeded: degree 3 needs 12 candidate columns, bound is 11\n"
        assert result["dims"] == [1, 3, 4]


def _datum_missing(key):
    data = datum_to_json(rank_one_datum(group_order=2, q_order=2))
    del data[key]
    return data


def _datum_with(key, value):
    data = datum_to_json(rank_one_datum(group_order=2, q_order=2))
    data[key] = value
    return data


MALFORMED = [
    ("rack-no-table", {"n": 3}, ["rack", "check", "--file"]),
    ("rack-bad-entry", {"n": 1, "table": [["a"]]}, ["rack", "info", "--file"]),
    ("rack-not-object", [1, 2], ["rack", "check", "--file"]),
    ("cocycle-no-exp", {"N": 2},
     ["braid", "quadratic", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-zero-order", {"N": 0, "exp": [[1] * 3] * 3},
     ["braid", "check", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-negative-order", {"N": -2, "exp": [[1] * 3] * 3},
     ["braid", "census", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    # exponents and orders must be ints: a float, even an integral one,
    # or a bool is rejected by every command that reads the cocycle
    ("cocycle-fractional-exponent", {"N": 2, "exp": [[1.5] * 3] * 3},
     ["braid", "check", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-fractional-exponent-dims", {"N": 2, "exp": [[1.5] * 3] * 3},
     ["nichols", "dims", "--builtin", "transpositions:3", "--max-degree", "3",
      "--cocycle", "file:"]),
    ("cocycle-integral-float-exponent", {"N": 2, "exp": [[1.0] * 3] * 3},
     ["nichols", "relators", "--builtin", "transpositions:3", "--max-degree", "2",
      "--cocycle", "file:"]),
    ("cocycle-integral-float-exponent-check", {"N": 2, "exp": [[1] * 3, [1] * 3, [1, 1, 1.0]]},
     ["braid", "check", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-bool-exponent", {"N": 2, "exp": [[True] * 3] * 3},
     ["braid", "quadratic", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-bool-order", {"N": True, "exp": [[0] * 3] * 3},
     ["braid", "check", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-float-order", {"N": 2.0, "exp": [[1] * 3] * 3},
     ["braid", "quadratic", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    # d^n at a degree far past the bound overflowed the int-to-string limit
    # of the JSON output with a traceback
    ("max-degree-above-bound", {"N": 2, "exp": [[1] * 3] * 3},
     ["nichols", "dims", "--builtin", "transpositions:3", "--max-degree", "9100",
      "--cocycle", "file:"]),
    ("group-no-degree", {"generators": [[2, 1]]},
     ["group", "coverings", "--images", "2", "--target", "SELF", "--group"]),
    ("group-bad-table", {"order": 2, "table": 5},
     ["group", "coverings", "--images", "2", "--target", "SELF", "--group"]),
    ("presentation-bad-relator", {"generators": 2, "relators": [3]},
     ["group", "abelianization", "--presentation"]),
    ("presentation-no-relators", {"generators": 2},
     ["group", "tc", "--presentation"]),
    ("presentation-negative-count", {"generators": -1, "relators": []},
     ["group", "abelianization", "--presentation"]),
    # labels are a list of distinct names that parse_word can split out:
    # a string was read letter by letter, a repeated name let the second
    # one win, and numbers failed only on the first relator
    ("presentation-labels-string",
     {"generators": 2, "labels": "st", "relators": ["s s", "t t", "s t s t s t"]},
     ["group", "abelianization", "--presentation"]),
    ("presentation-labels-repeated", {"generators": 2, "labels": ["s", "s"], "relators": ["s s"]},
     ["group", "tc", "--extra-relator", "s", "--presentation"]),
    ("presentation-labels-numbers", {"generators": 2, "labels": [1, 2], "relators": ["x1 x2"]},
     ["group", "abelianization", "--presentation"]),
    ("datum-no-action", _datum_missing("action"), ["hopf", "bosonize", "--datum"]),
    ("datum-degree-out-of-range", _datum_with("deg", [3]), ["hopf", "bosonize", "--datum"]),
    ("datum-bad-scalar", _datum_with("action", [[[1, "two"]], [[1, "2 1"]]]),
     ["hopf", "bosonize", "--datum"]),
    # counts, entries and indices must be ints in every loader, as in the
    # cocycle: neither a bool nor an integral float passes for one
    ("rack-bool-size", {"n": True, "table": [[1]]}, ["rack", "info", "--file"]),
    ("rack-bool-entry", {"n": 1, "table": [[True]]}, ["rack", "info", "--file"]),
    ("rack-float-entry", {"n": 1, "table": [[1.0]]}, ["rack", "info", "--file"]),
    # a label, when given, is a string
    ("rack-bool-label", {"n": 1, "table": [[1]], "label": True}, ["rack", "info", "--file"]),
    ("presentation-bool-count", {"generators": True, "relators": ["x1 x1"]},
     ["group", "tc", "--presentation"]),
    ("group-bool-table-entry", {"order": 2, "table": [[1, 2], [2, True]]},
     ["group", "coverings", "--images", "1,2", "--target", "SELF", "--group"]),
    ("group-bool-generator", {"degree": 2, "generators": [[2, True]]},
     ["group", "coverings", "--images", "2", "--target", "SELF", "--group"]),
    ("datum-bool-degree", _datum_with("deg", [True]), ["hopf", "bosonize", "--datum"]),
    ("datum-bool-target", _datum_with("action", [[[True, "2 0"]], [[True, "2 1"]]]),
     ["hopf", "bosonize", "--datum"]),
    # root-of-unity orders are bounded by cyclotomic.MAX_ORDER, and positive
    ("cocycle-huge-order-dims", {"N": 100000000000, "exp": [[1] * 3] * 3},
     ["nichols", "dims", "--builtin", "transpositions:3", "--max-degree", "3",
      "--cocycle", "file:"]),
    ("cocycle-huge-order-check", {"N": 100000000000, "exp": [[1] * 3] * 3},
     ["braid", "check", "--builtin", "transpositions:3", "--cocycle", "file:"]),
    ("cocycle-order-above-bound", {"N": 1000003, "exp": [[1]]},
     ["nichols", "dims", "--builtin", "abelian:1", "--max-degree", "3",
      "--cocycle", "file:"]),
    ("datum-huge-scalar-order", _datum_with("action", [[[1, "100000000000 1"]], [[1, "2 1"]]]),
     ["hopf", "bosonize", "--datum"]),
    ("datum-zero-scalar-order", _datum_with("action", [[[1, "0 1"]], [[1, "2 1"]]]),
     ["hopf", "bosonize", "--datum"]),
    ("datum-negative-scalar-order", _datum_with("action", [[[1, "-3 1"]], [[1, "2 1"]]]),
     ["hopf", "bosonize", "--datum"]),
    # each order is in bound, but their lcm is not
    ("datum-cocycle-and-scalar-orders-coprime",
     {**_datum_with("cocycle", {"N": 991, "exp": [[0]]}),
      "action": [[[1, "997 0"]], [[1, "2 1"]]]},
     ["hopf", "bosonize", "--datum"]),
    ("datum-scalar-orders-coprime", _datum_with("action", [[[1, "997 0"]], [[1, "991 1"]]]),
     ["hopf", "bosonize", "--datum"]),
]


@pytest.mark.parametrize("name,data,argv", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_file_exits_one(tmp_path, capsys, name, data, argv):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    args = [str(path) if a == "SELF" else a for a in argv]
    if args[-1] == "file:":
        args[-1] += str(path)
    else:
        args.append(str(path))
    code, _, err = run(capsys, *args, "--no-meta")  # an uncaught error fails here
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _images_argv(tmp_path, command):
    """argv for a command taking --images; every target group is C2."""
    if command == "hopf cover":
        source = tmp_path / "source.json"
        target = tmp_path / "target.json"
        source.write_text(json.dumps(datum_to_json(rank_one_datum(4, 2))))
        target.write_text(json.dumps(datum_to_json(rank_one_datum(2, 2))))
        return ["hopf", "cover", "--source", str(source), "--target", str(target)]
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps(group_to_json(FiniteGroup.from_permutations([(1, 0)]))))
    if command == "group quotient":
        return ["group", "quotient", "--builtin", "abelian:1", "--group", str(c2)]
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps(group_to_json(FiniteGroup.from_permutations([(1, 2, 3, 0)]))))
    return ["group", "coverings", "--group", str(c4), "--target", str(c2)]


# "3" is one past the order of the target C2; "0" used to pick its last element
@pytest.mark.parametrize("images", ["x", "0", "3"])
@pytest.mark.parametrize("command", ["group quotient", "group coverings", "hopf cover"])
def test_bad_images_exit_one(tmp_path, capsys, command, images):
    argv = _images_argv(tmp_path, command)
    code, out, err = run(capsys, *argv, "--images", images, "--no-meta")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --images: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# flags that name a second input, or an input the command would not read;
# each used to be dropped without a word, and the command exited 0
CONFLICTING_INPUTS = {
    "quotient --images without --group":
        ["group", "quotient", "--builtin", "transpositions:3", "--images", "banana"],
    "quotient --group without --images":
        ["group", "quotient", "--builtin", "transpositions:3", "--group", "GROUP"],
    "tc --builtin and --presentation":
        ["group", "tc", "--builtin", "transpositions:3", "--presentation", "PRESENTATION"],
    "abelianization --file and --presentation":
        ["group", "abelianization", "--file", "RACK", "--presentation", "PRESENTATION"],
    "rack info --builtin and --file":
        ["rack", "info", "--builtin", "transpositions:3", "--file", "RACK"],
    "nichols dims --builtin and --file":
        ["nichols", "dims", "--builtin", "transpositions:3", "--file", "RACK"],
}


@pytest.mark.parametrize("case", list(CONFLICTING_INPUTS))
def test_conflicting_inputs_exit_one(tmp_path, capsys, case):
    files = {
        "RACK": rack_to_json(abelian_rack(2)),
        "PRESENTATION": {"generators": 1, "relators": ["x1^2"]},
        "GROUP": group_to_json(FiniteGroup.from_permutations([(1, 0)])),
    }
    argv = []
    for arg in CONFLICTING_INPUTS[case]:
        if arg in files:
            path = tmp_path / f"{arg.lower()}.json"
            path.write_text(json.dumps(files[arg]))
            arg = str(path)
        argv.append(arg)
    code, out, err = run(capsys, *argv, "--no-meta")
    assert (code, out) == (1, "")
    assert err.startswith("error: give ")
    assert err.count("\n") == 1 and "Traceback" not in err


# each case ends with the bound flag and its value
NEGATIVE_BOUNDS = {
    "nichols dims": ["nichols", "dims", "--builtin", "transpositions:3", "--max-degree", "-1"],
    "nichols minimal":
        ["nichols", "minimal", "--builtin", "transpositions:3", "--max-degree", "-1"],
    "nichols relators":
        ["nichols", "relators", "--builtin", "transpositions:3", "--max-degree", "-1"],
    "hopf bosonize": ["hopf", "bosonize", "--datum", "DATUM", "--verify", "--cutoff", "-1"],
    "hopf cover": ["hopf", "cover", "--source", "DATUM", "--target", "DATUM",
                   "--images", "1,2", "--cutoff", "-2"],
    "nichols dims --max-cols 0":
        ["nichols", "dims", "--builtin", "transpositions:3", "--max-cols", "0"],
    "nichols dims --max-cols -5":
        ["nichols", "dims", "--builtin", "transpositions:3", "--max-cols", "-5"],
    "hopf bosonize --max-dim 0": ["hopf", "bosonize", "--datum", "DATUM", "--max-dim", "0"],
    "hopf bosonize --max-dim -1": ["hopf", "bosonize", "--datum", "DATUM", "--max-dim", "-1"],
    "group tc --max-cosets 0":
        ["group", "tc", "--builtin", "transpositions:3", "--max-cosets", "0"],
    "group tc --max-cosets -4":
        ["group", "tc", "--builtin", "transpositions:3", "--max-cosets", "-4"],
    "paper table --n-max 2": ["paper", "table", "--which", "5.2", "--n-max", "2"],
    "paper table --n-max -3": ["paper", "table", "--which", "5.2", "--n-max", "-3"],
}

# the least value of each bound, as the error message states it
LEAST = {
    "--max-degree": "nonnegative",
    "--cutoff": "nonnegative",
    "--max-cols": "at least 1",
    "--max-dim": "at least 1",
    "--max-cosets": "at least 1",
    "--n-max": "at least 3",
}


# unchecked, these bounds exited 0 with an empty result, printed "verified":
# true with no checks, failed an internal invariant at degree 0, exited 2 on
# a bound that could never hold, or died with a ValueError traceback
@pytest.mark.parametrize("command", list(NEGATIVE_BOUNDS))
def test_negative_degree_bound_exits_one(tmp_path, capsys, command):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(datum_to_json(rank_one_datum(2, 2))))
    argv = [str(path) if a == "DATUM" else a for a in NEGATIVE_BOUNDS[command]]
    flag, value = argv[-2:]
    code, out, err = run(capsys, *argv, "--no-meta")
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be {LEAST[flag]}, got {value}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("rack,cocycle,degree", [
    ("transpositions:3", "chi", 9100), ("abelian:2", "const:-1", 15000)])
def test_max_degree_above_bound_exits_one(capsys, rack, cocycle, degree):
    argv = ["nichols", "dims", "--builtin", rack, "--cocycle", cocycle, "--no-meta"]
    code, out, err = run(capsys, *argv, "--max-degree", str(degree))
    assert (code, out) == (1, "")
    assert err == f"error: --max-degree must be at most 1000, got {degree}\n"
    # the bound itself is taken, and d^1000 prints
    code, out, _ = run(capsys, *argv, "--max-degree", "1000")
    assert code == 0 and json.loads(out)["result"]["kernel_dims"][-1] > 0


# an infinite B(V) (one letter with q = 1) has a nonzero degree up to any
# cutoff, and its slice builds in time cubic in the cutoff; the bound itself
# is taken, and on the finite B(V) = k[x]/(x^2) both commands stop building
# at degree 2, so cutoff 1000 costs what cutoff 2 does
@pytest.mark.parametrize("command", ["hopf bosonize", "hopf cover"])
def test_cutoff_above_bound_exits_one(tmp_path, capsys, command):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(datum_to_json(rank_one_datum(2, 2))))
    argv = [str(path) if a == "DATUM" else a for a in NEGATIVE_BOUNDS[command][:-1]]
    code, out, err = run(capsys, *argv, "100000", "--no-meta")
    assert (code, out) == (1, "")
    assert err == "error: --cutoff must be at most 1000, got 100000\n"
    code, out, _ = run(capsys, *argv, "1000", "--no-meta")
    passed = "all_axioms_pass" if command == "hopf bosonize" else "verified"
    assert code == 0 and json.loads(out)["result"][passed] is True


# sha256 of the --no-meta stdout as the README promises it byte-stable; a
# change of these digests is a change of the output format or of a result
GOLDEN = {
    ("hopf", "bosonize", "--datum", "taft3.json", "--cutoff", "2",
     "--export-structure", "--verify"):
        "2449ed47a9de91fc3bb6194f6003393019f66574e6d0e830e848d7db6f72f0c6",
    ("hopf", "bosonize", "--datum", "s3chi.json", "--cutoff", "2",
     "--export-structure", "--verify"):
        "17c9b72c4ea7fd30732706c2a60526f8e770d859fd7f8385b5da2049e3071e2e",
    # pins products of degree 3 and 4, which the cutoff-2 entry does not
    ("hopf", "bosonize", "--datum", "s3chi.json", "--cutoff", "4",
     "--export-structure"):
        "946cf3a549a1e604c1de2974872bb8e3b01fafc3cb333b24a76f5f68d051c1d0",
    # letters acted on by scalars stored at orders 12 and 3 over a cocycle
    # of order 4: the export writes constants at orders 1, 4 and 12
    ("hopf", "bosonize", "--datum", "c12.json", "--cutoff", "2",
     "--export-structure"):
        "c9e8b480177973296efbc8c9dae57439b377c8fb6027740d649f9b848a88478d",
    ("nichols", "minimal", "--builtin", "tetrahedron", "--max-degree", "3"):
        "2c2a7e8ff47cca757930d346417a3dc5c678391b62158b176980c3dc07b87332",
    ("nichols", "dims", "--builtin", "transpositions:3", "--cocycle", "chi",
     "--max-degree", "4"):
        "17c9afa6ef4498818631dd039c7337b9d908e5d34ff443172941d52990081299",
    ("nichols", "minimal", "--builtin", "transpositions:3", "--cocycle", "chi",
     "--max-degree", "4"):
        "96fd6796af946da770be78e39e4c2693b706d3d8811787fc30dfe0184c6b92fb",
    # "many" true
    ("braid", "quadratic", "--builtin", "transpositions:4", "--cocycle", "chi"):
        "2bbeb6570f1505517fde74933a9c8beb8e3f3af7d9a8c612a8f912c5459d146b",
    # "many" false, "full" true
    ("braid", "quadratic", "--builtin", "transpositions:6", "--cocycle", "chi"):
        "b32e95632af4cd813a3de8070ffe2b91f09b9683561ff4cbd808c7048cedd6e6",
    ("rack", "info", "--builtin", "four_cycles_S4"):
        "fc672272e686780a199b78c1b70b0d7f085ebce35f63211356513099c407fff1",
}


def c12_mixed_order_datum():
    """Two letters over C12 = <g>, deg x0 = g^3 and deg x1 = g^6; g acts on
    x0 by zeta_12 and on x1 by zeta_3, so q = (i 1; -1 1) has order 4."""
    rack = abelian_rack(2)
    space = BraidedSpace(rack, Cocycle(rack, 4, ((1, 0), (2, 0))))
    group = FiniteGroup.cyclic(12)
    action = {
        j: ((0, CycScalar.root_of_unity(12, j)), (1, CycScalar.root_of_unity(3, j % 3)))
        for j in group.elements
    }
    datum = YDDatum(space, group, (3, 6), action)
    yd_verify(datum)
    return datum


def write_chi_datum(path, n=3):
    """The transpositions of S_n with the chi cocycle, graded by themselves
    inside S_n."""
    cocycle = chi_cocycle(n)
    elems = transposition_elements(n)
    datum = datum_from_generators(
        BraidedSpace(cocycle.rack, cocycle),
        FiniteGroup.from_permutations(elems, label=f"S{n}"),
        elems,
    )
    path.write_text(json.dumps(datum_to_json(datum)))


def test_no_meta_output_is_byte_stable(tmp_path, monkeypatch, capsys):
    # relative datum paths: the config block echoes them into the output
    monkeypatch.chdir(tmp_path)
    taft = rank_one_datum(group_order=3, q_order=3)
    (tmp_path / "taft3.json").write_text(json.dumps(datum_to_json(taft)))
    write_chi_datum(tmp_path / "s3chi.json")
    (tmp_path / "c12.json").write_text(json.dumps(datum_to_json(c12_mixed_order_datum())))
    for argv, digest in GOLDEN.items():
        code, out, err = run(capsys, *argv, "--no-meta")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", [
    ["hopf", "bosonize", "--datum", "s3chi.json", "--cutoff", "2", "--export-structure"],
    ["nichols", "relators", "--builtin", "tetrahedron", "--max-degree", "3"],
], ids=["hopf-bosonize", "nichols-relators"])
def test_no_meta_output_is_independent_of_the_hash_seed(tmp_path, argv):
    write_chi_datum(tmp_path / "s3chi.json")
    src = Path(rackcover.__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "rackcover.cli", *argv, "--no-meta"],
            cwd=tmp_path, env=env, capture_output=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]
