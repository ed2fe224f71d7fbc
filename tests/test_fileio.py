import pytest

from srcy.fileio import (
    expand_var_names,
    geometry_and_params,
    parse_complexes_file,
    parse_component_table,
    parse_fan_file,
    parse_matrix_file,
    parse_monomial_file,
    parse_vector_file,
)


def test_expand_var_names():
    assert expand_var_names(["x1..x3", "s"]) == ["x1", "x2", "x3", "s"]
    assert expand_var_names(["t10..t12"]) == ["t10", "t11", "t12"]
    with pytest.raises(ValueError):
        expand_var_names(["x1..t3"])


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
1 0 0
0 1 0
0 0 1
rays
1 0 0
0 1 0
0 0 1
sigma
1 2 3
cones
1 2 3
"""


def test_fan_file_errors():
    assert parse_fan_file(UNIT_FAN).cones == [(0, 1, 2)]
    with pytest.raises(ValueError):
        parse_fan_file("1 2 3\n")
    for old, new, reason in (
        ("cones\n1 2 3\n", "cones\n", "empty cones block"),
        ("rays\n1 0 0\n0 1 0\n0 0 1\n", "rays\n", "empty rays block"),
        ("rays\n1 0 0\n0 1 0", "rays\n1 0 0\n0 1", "ray 2 has 2 entries, not 3"),
        ("lattice\n1 0 0", "lattice\n1 0 0 0", "lattice row 1 has 4 entries, not 3"),
        ("sigma\n1 2 3", "sigma\n1 2", "sigma lists 2 rays, not 3"),
        ("sigma\n1 2 3", "sigma\n1 2 4", "ray index 4 out of range 1..3"),
        ("cones\n1 2 3", "cones\n0 1 2", "ray index 0 out of range 1..3"),
        ("0 0 1\nrays", "1 1 0\nrays", "lattice basis matrix is singular"),
    ):
        assert old in UNIT_FAN
        with pytest.raises(ValueError, match=reason):
            parse_fan_file(UNIT_FAN.replace(old, new))


def test_component_table():
    rows = parse_component_table("E1 1,0,0,0 P2 3\n")
    assert rows == [("E1", (1, 0, 0, 0), "P2", 3)]


def test_monomial_file_sections():
    mono, inv = parse_monomial_file("monomials\n1 0\ninvariant_monomials\n2 1\n")
    assert mono == [(1, 0)] and inv == [(2, 1)]


def test_complexes_file():
    text = """
    ambient 6
    resolution demo
    term 0: (0)^1
    term 1: (-2)^2 + (-3)^1
    """
    res = parse_complexes_file(text)
    assert [t.twists for t in res["demo"]] == [((0, 1),), ((-2, 2), (-3, 1))]
    assert res["demo"][0].n == 6
