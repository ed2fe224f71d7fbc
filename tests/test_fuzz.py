"""Bad input never escapes as anything but InputError, or exit 2 from the CLI.

Each parser gets arbitrary text and a bundled fixture with one line
changed; it must return or raise InputError.  The cheap subcommands, and
`run-all` on a copy of the fixture tree, get the same changed fixtures and
must exit 0, 1 or 2, and on 2 print one line naming the file and nothing
on stdout.  `run-all`'s report keeps to the recorded report's ids.
"""

import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srcy import fixtures
from srcy.cli import main
from srcy.fileio import (
    InputError,
    load_triangulation,
    parse_complexes_file,
    parse_component_table,
    parse_fan_file,
    parse_matrix_file,
    parse_monomial_file,
    parse_point_file,
    parse_vector_file,
)

PARSERS = {
    "matrix": (parse_matrix_file, "families/degree13_oneparam.mat"),
    "vector": (parse_vector_file, "families/degree13_expected.gens"),
    "fan": (parse_fan_file, "toric/subdivision.fan"),
    "monomial": (parse_monomial_file, "toric/hypersurface.fpoly"),
    "component table": (parse_component_table, "toric/components.tbl"),
    "complexes": (parse_complexes_file, "cohomology/ci_degree12.complexes"),
    "triangulation": (load_triangulation, "triangulations/p7_1.tri"),
    "point": (parse_point_file, "toric/scroll_polytope.txt"),
}

# words of the file formats, so that a changed line gets past the first checks
TOKENS = [
    "0", "1", "-1", "13", "1/0", "x", "x0", "x1", "s", ":", "(", ")", "^", "+", "*", "..",
    "x1..x3", "dim", "len", "vars", "entry", "ambient", "resolution", "term", "lattice", "rays",
    "sigma", "cones", "monomials", "invariant_monomials", "P2", "structure_sheaf",
    "ideal_square", "1,0,0,0", "(0)^1",
]
# what a word or number of a fixture becomes: another count or index, a sign, nothing
AWKWARD = ["0", "3", "-3", "1/0", "x", ""]
token_lines = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
FIXED = settings(deadline=None, derandomize=True, database=None)


def _text(rel):
    return (fixtures.fixture_dir() / rel).read_text()


@st.composite
def one_line_changed(draw, text):
    """`text` with one word swapped, or one line replaced, inserted or deleted."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    words = list(re.finditer(r"[\w/.]+", lines[i]))
    how = draw(st.sampled_from(["word"] * 3 + ["replace", "insert", "delete"]))
    if how == "word" and words:
        m = draw(st.sampled_from(words))
        lines[i] = lines[i][:m.start()] + draw(st.sampled_from(AWKWARD)) + lines[i][m.end():]
    elif how == "insert":
        lines.insert(i, draw(token_lines))
    elif how == "delete":
        del lines[i]
    else:
        lines[i] = draw(token_lines | st.text(max_size=12))
    return "\n".join(lines) + "\n"


def _returns_or_raises_input_error(parse, text):
    try:
        parse(text)
    except InputError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(FIXED, max_examples=15)
@given(text=st.text(max_size=60) | st.lists(token_lines, max_size=8).map("\n".join))
def test_parser_on_any_text(name, text):
    _returns_or_raises_input_error(PARSERS[name][0], text)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(FIXED, max_examples=60)
@given(data=st.data())
def test_parser_on_a_fixture_with_one_line_changed(name, data):
    parse, rel = PARSERS[name]
    _returns_or_raises_input_error(parse, data.draw(one_line_changed(_text(rel))))


MAT13 = str(fixtures.fixture_dir() / "families/degree13_oneparam.mat")
COMMANDS = {
    "pfaffian": (["pfaffian"], "families/degree13_oneparam.mat"),
    "torus-group": (["torus-group"], "families/quintic.gens"),
    "verify-family": (["verify-family", MAT13], "families/degree13_expected.gens"),
    "cohom": (["cohom", "hodge"], "cohomology/ci_degree12.complexes"),
    "sr": (["sr"], "triangulations/p7_1.tri"),
    "run-all": (["run-all", "--format", "json", "--fixtures"], None),
}
FIXTURE_FILES = sorted(str(p.relative_to(fixtures.fixture_dir()))
                       for p in fixtures.fixture_dir().rglob("*") if p.is_file())
GOLDEN_IDS = {c["id"] for c in json.loads(
    (Path(__file__).parent / "data" / "run_all.json").read_text())["checks"]}


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(FIXED, max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_subcommand_on_a_fixture_with_one_line_changed(name, data, tmp_path_factory, capsys):
    argv, rel = COMMANDS[name]
    tmp = tmp_path_factory.mktemp("fuzz")
    if rel is None:  # run-all: a copy of the fixture tree with one file changed
        shutil.copytree(fixtures.fixture_dir(), tmp, dirs_exist_ok=True)
        rel = data.draw(st.sampled_from(FIXTURE_FILES))
        path, target = tmp / rel, tmp
    else:
        path = target = tmp / rel.split("/")[1]
    path.write_text(data.draw(one_line_changed(_text(rel))))
    code = main([*argv, str(target)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        # run-all may name another fixture, one that the changed file contradicts
        named = "%s: " % path if target == path else "%s/" % tmp
        assert out == "" and err.startswith(named) and err.count("\n") == 1
    elif target != path:
        assert {c["id"] for c in json.loads(out)["checks"]} <= GOLDEN_IDS
