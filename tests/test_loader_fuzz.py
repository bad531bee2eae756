"""A seeded fuzz of the JSON file loaders through `cli.main`.

Each case starts from a valid rack, cocycle, group, presentation or datum
file and breaks it in one place: it deletes a required key, or puts a
value of a kind the slot never takes where one value stood (a bool, a
float, null, a string, a list or an object; an int only where no int is
valid).  Every broken file must end with exit 1 and one `error:` line on
stderr; an uncaught exception fails the test with its traceback."""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackcover.bosonization import datum_to_json, rank_one_datum
from rackcover.cli import main
from rackcover.racks import rack_to_json, transpositions_rack

# name -> (valid document, argv with PATH where the file goes); a group
# file maps onto itself by the identity, its generators' --images
BASES = {
    "rack": (
        {**rack_to_json(transpositions_rack(3)), "label": "S3 transpositions"},
        ["rack", "info", "--file", "PATH"],
    ),
    "cocycle": (
        {"N": 2, "exp": [[1] * 3] * 3},
        ["braid", "check", "--builtin", "transpositions:3", "--cocycle", "file:PATH"],
    ),
    "group-generators": (
        {"degree": 3, "generators": [[2, 1, 3], [1, 3, 2]]},
        ["group", "coverings", "--group", "PATH", "--target", "PATH", "--images", "2,3"],
    ),
    "group-table": (
        {"order": 2, "table": [[1, 2], [2, 1]]},
        ["group", "coverings", "--group", "PATH", "--target", "PATH", "--images", "1,2"],
    ),
    "presentation": (
        {"generators": 2, "labels": ["s", "t"], "relators": ["s s", "t t", "s t s t s t"]},
        ["group", "abelianization", "--presentation", "PATH"],
    ),
    "datum": (
        datum_to_json(rank_one_datum(2, 2)),
        ["hopf", "bosonize", "--datum", "PATH", "--cutoff", "1"],
    ),
}

OPTIONAL_KEYS = {"label", "labels"}

# replacements by the kind of the value they replace; no int for a string,
# since a datum scalar may be a rational, and for a list no iterable but
# a string, which reads as a list of its letters
WRONG = {
    int: [True, False, 1.5, 2.0, None, "1", [1], {"n": 1}],
    str: [True, 1.5, None, [], ["s"], {}],
    list: [True, 0, 7, 1.5, None, "st"],
    dict: [True, 0, 1.5, None, "n", [], [1, 2]],
}


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _run(argv, path):
    args = [a.replace("PATH", str(path)) for a in argv] + ["--no-meta"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@st.composite
def broken_files(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[name][0])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return name, draw(st.sampled_from(WRONG[dict]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(parent, dict) and key not in OPTIONAL_KEYS and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(WRONG[type(parent[key])]))
    return name, doc


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_fuzz_base_is_valid(tmp_path, name):
    doc, argv = BASES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(argv, path)
    assert code == 0, err
    assert out


@settings(max_examples=600)
@given(case=broken_files())
def test_broken_input_file_exits_one_with_one_line(case):
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(BASES[name][1], path)
    assert (code, out) == (1, ""), (name, doc, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (name, doc, err)
