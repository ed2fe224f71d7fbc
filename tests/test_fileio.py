import pytest

from srcy.fileio import (
    InputError,
    expand_var_names,
    geometry_and_params,
    load,
    load_triangulation,
    parse_complexes_file,
    parse_component_table,
    parse_fan_file,
    parse_matrix_file,
    parse_monomial_file,
    parse_point_file,
    parse_vector_file,
)


def test_expand_var_names():
    assert expand_var_names(["x1..x3", "s"]) == ["x1", "x2", "x3", "s"]
    assert expand_var_names(["t10..t12"]) == ["t10", "t11", "t12"]
    assert expand_var_names(["x1..x1"]) == ["x1"]
    for tok, reason in (("x1..t3", "mixes prefixes"), ("x3..x1", "ends below its start"),
                        ("x1..", "needs a start and an end index"),
                        ("..x3", "needs a start and an end index"),
                        ("x..x3", "needs a start and an end index")):
        with pytest.raises(ValueError, match=reason):
            expand_var_names([tok])


def test_geometry_split():
    geo, params = geometry_and_params(["x1", "x2", "t1", "s"])
    assert geo == ["x1", "x2"] and params == ["t1", "s"]


def test_matrix_file_round_trip():
    text = """
    dim 3
    vars x1..x3 s
    entry 1 2: x1 + s*x2
    entry 1 3: -x3
    """
    matrix, ring = parse_matrix_file(text)
    assert matrix.dim == 3
    assert matrix.entry(2, 1) == -ring.parse("x1 + s*x2")
    assert matrix.entry(2, 3).is_zero()


def test_matrix_file_rejects_lower_triangle():
    with pytest.raises(ValueError):
        parse_matrix_file("dim 2\nvars x1\nentry 2 1: x1\n")


def test_matrix_dim_is_capped_for_the_pfaffian():
    """dim 20 is the largest a matrix file may have; a vector's len is not capped there."""
    matrix, _ring = parse_matrix_file("dim 20\nvars x1\nentry 19 20 : x1\n")
    assert matrix.dim == 20
    with pytest.raises(InputError, match="dim 21 is above 20") as err:
        parse_matrix_file("dim 21\nvars x1\n")
    assert err.value.line == 1
    assert len(parse_vector_file("len 21\nvars x1\n")[0]) == 21


def test_vector_file():
    vec, ring = parse_vector_file("len 2\nvars x1 x2\nentry 2: x1*x2\n")
    assert vec[0].is_zero()
    assert str(vec[1]) == "x1*x2"


@pytest.mark.parametrize("parse, text, reason", [
    (parse_matrix_file, "dim 2\nvars x1\nentry 1 : x1\n", "expected 'entry i j : poly'"),
    (parse_matrix_file, "dim 2\nvars x1\nentry 1 2 x1\n", "expected 'entry i j : poly'"),
    (parse_matrix_file, "dim 2\nvars x1\nentry 1 b : x1\n", "indices must be integers"),
    (parse_matrix_file, "dim 2\nentry 1 2 : x1\nvars x1\n", "entry before the size and vars"),
    (parse_matrix_file, "vars x1\nentry 1 2 : x1\ndim 2\n", "entry before the size and vars"),
    (parse_matrix_file, "dim 2\nvars x1\nentry 1 3 : x1\n", "out of range 1..2"),
    (parse_matrix_file, "dim 2\nvars x1\nentry 1 2 : y\n", "unknown variable 'y'"),
    (parse_vector_file, "len 1\nvars x1\nentry 1 1 : x1\n", "expected 'entry i : poly'"),
    (parse_vector_file, "len 1\nvars x1\nentry one : x1\n", "indices must be integers"),
    (parse_vector_file, "len 1\nentry 1 : x1\nvars x1\n", "entry before the size and vars"),
    (parse_vector_file, "len 1\nvars x1\nentry 2 : x1\n", "out of range 1..1"),
    (parse_vector_file, "len 1\nvars x1\nentry 0 : x1\n", "out of range 1..1"),
])
def test_entry_line_errors(parse, text, reason):
    with pytest.raises(ValueError, match=reason):
        parse(text)


UNIT_FAN = """lattice
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
rays
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
sigma
1 2 3 4
cones
1 2 3 4
"""


def test_fan_file_errors():
    assert parse_fan_file(UNIT_FAN).cones == [(0, 1, 2, 3)]
    with pytest.raises(InputError, match="line 1: data before any section header"):
        parse_fan_file("1 2 3\n")
    for old, new, reason in (
        ("cones\n1 2 3 4\n", "cones\n", "empty cones block"),
        ("rays\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "rays\n", "empty rays block"),
        ("rays\n1 0 0 0\n0 1 0 0", "rays\n1 0 0 0\n0 1 0", "line 8: ray has 3 entries, not 4"),
        ("lattice\n1 0 0 0", "lattice\n1 0 0 0 0", "line 2: lattice row has 5 entries, not 4"),
        ("lattice\n1 0 0 0\n", "lattice\n", "lattice has 3 rows, not 4"),
        ("lattice\n1 0 0 0", "lattice\n1/0 0 0 0", "line 2: zero denominator in '1/0'"),
        ("lattice\n1 0 0 0", "lattice\n1.5 0 0 0", "line 2: '1.5' is not an integer or a fraction p/q"),
        ("sigma\n1 2 3 4", "sigma\n1 2 3", "sigma lists 3 rays, not 4"),
        ("sigma\n1 2 3 4", "sigma\n1 2 3 5", "line 12: ray index 5 out of range 1..4"),
        ("cones\n1 2 3 4", "cones\n0 1 2 3", "line 14: ray index 0 out of range 1..4"),
        ("cones\n1 2 3 4", "cones\n1 2 3", "line 14: cone has 3 entries, not 4"),
        ("cones\n1 2 3 4", "cones\n1 2 2 4", "line 14: repeated ray index"),
        ("cones\n1 2 3 4", "cones\n1 2 x 4", "line 14: ray indices must be whitespace-separated"
         " integers"),
        ("0 0 0 1\nrays", "1 1 0 0\nrays", "lattice basis matrix is singular"),
    ):
        assert old in UNIT_FAN
        with pytest.raises(InputError) as exc:
            parse_fan_file(UNIT_FAN.replace(old, new))
        assert str(exc.value) == reason


def test_component_table():
    rows = parse_component_table("E1 1,0,0,0 P2 3\n")
    assert rows == [("E1", (1, 0, 0, 0), "P2", 3)]


def test_monomial_file_sections():
    mono, inv = parse_monomial_file("monomials\n1 0 0 0\ninvariant_monomials\n2 1 0 3\n")
    assert mono == [(1, 0, 0, 0)] and inv == [(2, 1, 0, 3)]


def test_complexes_file():
    text = """
    ambient 6
    resolution structure_sheaf
    term 0: (0)^1
    term 1: (-2)^2 + (-3)^1
    resolution ideal_square
    term 0: (-4)^1
    term 1: (-6)^2
    term 2: (-8)^1
    """
    n, res = parse_complexes_file(text)
    assert n == 6
    assert res["structure_sheaf"] == [((0, 1),), ((-2, 2), (-3, 1))]
    assert res["ideal_square"] == [((-4, 1),), ((-6, 2),), ((-8, 1),)]


def test_input_error_names_what_it_knows():
    assert str(InputError("bad")) == "bad"
    assert str(InputError("bad", line=3)) == "line 3: bad"
    assert str(InputError("bad", "f.mat")) == "f.mat: bad"
    assert str(InputError("bad", "f.mat", 3)) == "f.mat: line 3: bad"
    assert isinstance(InputError("bad"), ValueError)


@pytest.mark.parametrize("parse, text, message", [
    (parse_matrix_file, "# m\ndim 2\nvars x1\n\nentry 1 2 : x1 +\n",
     "line 5: unexpected end of polynomial"),
    (parse_matrix_file, "dim two\n", "line 1: dim must be an integer >= 0, got 'two'"),
    (parse_matrix_file, "dim 2\n", "matrix file needs dim and vars headers"),
    (parse_complexes_file, "ambient 6\nambient 6\n", "line 2: second ambient header"),
    (parse_vector_file, "len 1\nvars x1..t2\n", "line 2: range 'x1..t2' mixes prefixes"),
    (parse_vector_file, "len 1\nvars x1 x1\n", "line 2: duplicate variable names: ('x1', 'x1')"),
    (parse_vector_file, "len 1\nvars x3..x1\n", "line 2: range 'x3..x1' ends below its start"),
    (parse_vector_file, "len 1\nvars x1..\n",
     "line 2: range 'x1..' needs a start and an end index"),
    # a name the polynomial grammar cannot read, spelled out or made by a range
    (parse_matrix_file, "dim 2\nvars x1 2y ½\nentry 1 2 : x1\n",
     "line 2: variable name '2y' is not a letter or '_' followed by letters, digits or '_'"),
    (parse_vector_file, "len 1\nvars x1 ½\n",
     "line 2: variable name '½' is not a letter or '_' followed by letters, digits or '_'"),
    (parse_vector_file, "len 1\n\nvars 2y1..2y3\n",
     "line 3: variable name '2y1' is not a letter or '_' followed by letters, digits or '_'"),
    (parse_matrix_file, "dim 2\n# again\ndim 2\n", "line 3: second dim header"),
    (parse_matrix_file, "dim 2\nvars x1\nentry 1 2 : x1\nvars x2 x1\n",
     "line 4: second vars header"),
    (parse_matrix_file, "dim 3\nvars x1\nentry 1 2 : x1\nentry 1 3 : 1\nentry 1 2 : 1\n",
     "line 5: second entry 1 2"),
    (parse_vector_file, "len 1\nvars x1\nlen 2\n", "line 3: second len header"),
    (parse_vector_file, "len 2\nvars x1\nentry 2 : x1\n\nentry 2 : x1\n",
     "line 5: second entry 2"),
    (parse_complexes_file, "ambient 6\nresolution a\nterm 0: (0)^1\nterm 0: (-1)^1\n",
     "line 4: second term 0 in resolution a"),
    (parse_complexes_file, "ambient 6\nresolution a\nterm 0: (0)^1\nresolution b\n"
     "term 0: (0)^1\nresolution a\n", "line 6: second resolution a"),
    (parse_monomial_file, "monomials\n1 0 0 0\n1 a 0 0\n",
     "line 3: exponents must be whitespace-separated integers"),
    (parse_monomial_file, "monomials\n1 0 0 0\ninvariant_monomials\n\n0 0 13\n",
     "line 5: monomial has 3 entries, not 4"),
    (parse_monomial_file, "monomials\n1 0 0 0 1\n", "line 2: monomial has 5 entries, not 4"),
    (parse_monomial_file, "\n1 0\n", "line 2: data before any section header: '1 0'"),
    (parse_component_table, "# t\nE1 1,0,0,0 P2 x\n", "line 2: chi must be an integer, got 'x'"),
    (parse_complexes_file, "ambient 6\nresolution a\nterm 0: (0)^1 + 3\n",
     "line 3: malformed twist term '3'"),
    (parse_complexes_file, "ambient 6\nresolution a\nfoo\n",
     "line 3: unrecognized complexes-file line: 'foo'"),
    (parse_complexes_file, "ambient 6\nresolution structure_sheaf\nterm 0: (0)^1\n"
     "term 1: (-2)^1\n", "no ideal_square resolution"),
    (load_triangulation, "0 1 2\n\n0 1 1\n", "line 3: repeated vertex in facet"),
    (load_triangulation, "0 1 2\n0 -1 2\n", "line 2: negative vertex label"),
    (load_triangulation, "0 1 2\n2 1 0\n", "line 2: duplicate facet [0, 1, 2]"),
    (load_triangulation, "0 1\n0 1 2\n", "line 1: facet [0, 1] is contained in another facet"),
    (load_triangulation, "# only a comment\n", "empty triangulation file"),
    (parse_point_file, "0 0 0\n0 x 0\n", "line 2: points must be whitespace-separated integers"),
    (parse_point_file, "0 0 0\n\n1 1\n", "line 3: point has 2 entries, not 3"),
    (parse_point_file, "0 0 0\n1 1 1 1\n", "line 2: point has 4 entries, not 3"),
    (parse_point_file, "# no points\n", "empty point file"),
    (parse_monomial_file, "monomials\ninvariant_monomials\n2 1 0 3\n", "empty monomials block"),
    (parse_monomial_file, "monomials\n1 0 0 0\ninvariant_monomials\n",
     "empty invariant_monomials block"),
    (parse_component_table, "E1 1,0,0,0 P2 3\nE2 1,1,0,0 Bl2F1 5\n",
     "line 2: row E2: tag Bl2F1 has chi 6, recorded 5"),
    # row k is Ek, so a report id never depends on a label typo
    (parse_component_table, "E1 1,0,0,0 P2 3\n# E2 next\nE1 1,1,0,0 P2 3\n",
     "line 3: label E1 is not E2"),
    (parse_component_table, "E11 1,0,0,0 P2 3\n", "line 1: label E11 is not E1"),
    # each field named, not Python's own int() or unpacking text
    (parse_complexes_file, "ambient 6\nresolution a\nterm x: (0)^1\n",
     "line 3: term index must be an integer, got 'x'"),
    (parse_complexes_file, "ambient 6\nresolution a\nterm 0: (a)^1\n",
     "line 3: malformed twist term '(a)^1'"),
    (parse_complexes_file, "ambient 6\nresolution a\nterm 0: (0)^1 + (1)^\n",
     "line 3: malformed twist term '(1)^'"),
    (parse_complexes_file, "ambient 6\nresolution a\nterm 0: (0)^1)^2\n",
     "line 3: malformed twist term '(0)^1)^2'"),
])
def test_bad_line_names_its_number(parse, text, message):
    with pytest.raises(InputError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_load_names_the_path(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("dim 2\nvars x1\nentry 1 2 : y\n")
    for target, message in (
        (path, "%s: line 3: unknown variable 'y' in polynomial" % path),
        (tmp_path / "missing.mat", "%s: No such file or directory" % (tmp_path / "missing.mat")),
        (tmp_path, "%s: Is a directory" % tmp_path),
    ):
        with pytest.raises(InputError) as exc:
            load(target, parse_matrix_file)
        assert str(exc.value) == message
    path.write_bytes(b"dim 2\n\xff\n")
    with pytest.raises(InputError) as exc:
        load(path, parse_matrix_file)
    assert exc.value.path == path and "can't decode byte 0xff" in exc.value.reason
    path.write_text("0 1\n")
    assert load(path, load_triangulation).facets == {frozenset({0, 1})}
