import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from srcy import fixtures
from srcy.cli import main
from srcy.fileio import InputError, geometry_and_params
from srcy.polynomial import PolyRing
from srcy.report import VerificationReport, emit
from srcy.torusgroup import verify_character
from srcy.verify import SECTIONS, run_all
from test_simplicial import _link
from test_symmetry import _reference_closure


def _data(rel):
    return str(fixtures.fixture_dir() / rel)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _python(*args):
    """A fresh interpreter run with `args`, with this srcy first on its path."""
    import srcy

    src = str(Path(srcy.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_every_public_name_is_bound_on_the_package():
    import srcy

    namespace = {}
    exec("from srcy import *", namespace)  # a name in __all__ that is not bound raises here
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(srcy.__all__)


# Layers that neither `import srcy` nor loading the bundled fixtures needs.
LAZY_LAYERS = ("verify", "report", "deformation", "symmetry", "torusgroup", "families",
               "sr_ideal", "toric", "cohomology", "cli")

# Standard-library modules that no srcy process imports: each costs a
# start-up share and no check needs it.
UNUSED_STDLIB = ("dataclasses", "inspect")

# Run in a fresh interpreter: load every fixture, as the benchmark's set-up
# does, then print what the package namespace looked like and resolves to.
LAZY_CHILD = """
import json, pkgutil, sys
import srcy
from srcy import fixtures
for name in fixtures.TRIANGULATIONS:
    fixtures.triangulation(name)
for path in sorted((fixtures.fixture_dir() / "families").iterdir()):
    (fixtures.family_matrix if path.suffix == ".mat" else fixtures.generator_vector)(path.stem)
fixtures.subdivision_fan()
fixtures.hypersurface_monomials()
fixtures.component_table()
fixtures.scroll_polytope()
fixtures.ci_complexes()
facts = {"loaded": [m for m in %r if "srcy." + m in sys.modules],
         "bound": [n for n in srcy.__all__ if n in vars(srcy)],
         "stdlib": [m for m in %r if m in sys.modules]}
facts["emit"] = srcy.report.emit is sys.modules["srcy.report"].emit
import srcy.pfaffian
facts["pfaffian"] = srcy.pfaffian is sys.modules["srcy.pfaffian"].pfaffian
values = {n: getattr(srcy, n) for n in srcy.__all__}
facts["stdlib_all"] = [m for m in %r if m in sys.modules]  # pkgutil below imports inspect
facts["not_home"] = [n for n, v in values.items()
                     if getattr(sys.modules.get(getattr(v, "__module__", "")), n, None) is not v]
facts["not_cached"] = [n for n, v in values.items() if vars(srcy).get(n) is not v]
facts["submodules"] = [m.name for m in pkgutil.iter_modules(srcy.__path__)]
facts["not_module"] = [m for m in facts["submodules"] if m not in ("__main__", "pfaffian")
                       and getattr(srcy, m) is not sys.modules["srcy." + m]]
facts["not_in_dir"] = sorted(set(srcy.__all__) - set(dir(srcy)))
facts["unknown_resolves"] = hasattr(srcy, "no_such_layer")
print(json.dumps(facts))
""" % (LAZY_LAYERS, UNUSED_STDLIB, UNUSED_STDLIB)


def test_import_loads_each_layer_on_first_use():
    import srcy

    done = _python("-c", LAZY_CHILD)
    assert done.returncode == 0, done.stderr
    facts = json.loads(done.stdout)
    assert facts["loaded"] == []
    # neither loading the fixtures nor binding every public name imports these
    assert facts["stdlib"] == [] and facts["stdlib_all"] == []
    # `pfaffian` is bound at import, every other public name on first use
    assert facts["bound"] == ["pfaffian"]
    assert facts["not_cached"] == []
    assert facts["emit"] is True and facts["pfaffian"] is True
    assert facts["not_home"] == [] and facts["not_module"] == [] and facts["not_in_dir"] == []
    assert facts["unknown_resolves"] is False
    # a public name that is also a submodule must be bound at import, as `pfaffian` is
    assert set(srcy.__all__) & set(facts["submodules"]) == {"pfaffian"}


def _json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, argv
    return json.loads(out)


# The tests below check what one subcommand's output implies about another's
# or about its input file; the outputs themselves are pinned in the manifest.


def test_t1_command(capsys, complexes):
    for name, k in complexes.items():
        payload = _json(capsys, "t1", _data("triangulations/%s.tri" % name))
        elements = payload["elements"]
        assert payload["dimension"] == len(elements) == len({json.dumps(e) for e in elements})
        for e in elements:
            a, b = frozenset(e["a"]), frozenset(e["b"])
            # a face a, and b of at least two vertices of a's link, off a
            assert frozenset(a) in k.faces() and len(b) >= 2 and b <= set(_link(k, a).vertices)
            assert len(e["a_vector"]) == len(a) and min(e["a_vector"]) >= 1
            assert sum(e["a_vector"]) == len(b)


def test_aut_and_orbits(capsys, complexes):
    for name, k in complexes.items():
        path = _data("triangulations/%s.tri" % name)
        aut = _json(capsys, "aut", path)
        orbits = _json(capsys, "orbits", path)
        dim = _json(capsys, "t1", path)["dimension"]
        gens = [dict(zip(k.vertices, g)) for g in aut["generators"]]
        # the generators map facets to facets and generate a group of the printed order
        for image in gens:
            assert {frozenset(image[v] for v in f) for f in k.facets} == k.facets
        assert len(_reference_closure(k.vertices, gens)) == aut["order"] == orbits["order"]
        # the orbits partition t1's basis, and each size divides the order
        blocks = orbits["blocks"]
        assert sorted(i for b in blocks for i in b) == list(range(dim))
        assert orbits["orbit_sizes"] == sorted(len(b) for b in blocks)
        assert orbits["orbit_count"] == len(blocks)
        assert all(aut["order"] % len(b) == 0 for b in blocks)


def test_bad_triangulation_exits_cleanly(capsys, tmp_path):
    missing = tmp_path / "missing.tri"
    bad = tmp_path / "bad.tri"
    bad.write_text("0 1 2\n0 1 x\n")
    for cmd in ("aut", "orbits", "t1", "sr"):
        assert main([cmd, str(missing)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "%s: No such file or directory\n" % missing)
        assert main([cmd, str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "%s: line 2: facets must be whitespace-separated integers\n" % bad


def test_bad_fan_exits_cleanly(capsys, tmp_path):
    missing = tmp_path / "missing.fan"
    truncated = tmp_path / "truncated.fan"
    truncated.write_bytes(Path(_data("toric/subdivision.fan")).read_bytes()[:300])
    assert main(["toric", "verify", str(missing)]) == 2
    assert capsys.readouterr() == ("", "%s: No such file or directory\n" % missing)
    assert main(["toric", "verify", str(truncated)]) == 2
    assert capsys.readouterr() == ("", "%s: empty sigma block\n" % truncated)


def test_missing_input_files_exit_cleanly(capsys, tmp_path):
    missing = tmp_path / "missing"
    for argv in (["pfaffian", missing], ["verify-family", missing, missing],
                 ["torus-group", missing], ["cohom", "hodge", missing]):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr() == ("", "%s: No such file or directory\n" % missing)


def test_bad_matrix_and_vector_exit_cleanly(capsys, tmp_path):
    mat = tmp_path / "short.mat"
    mat.write_text("dim 2\nvars x1\nentry 1 : x1\n")
    gens = tmp_path / "early.gens"
    gens.write_text("len 1\nentry 1 : x1\nvars x1\n")
    for argv, err in (
        (["pfaffian", mat],
         "%s: line 3: expected 'entry i j : poly', got 'entry 1 : x1'\n" % mat),
        (["torus-group", gens],
         "%s: line 2: entry before the size and vars headers: 'entry 1 : x1'\n" % gens),
    ):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr() == ("", err)


def _exits_2(capsys, argv, err):
    """The command exits 2 with nothing on stdout and `err` on stderr."""
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr() == ("", err)


def _where(path, line):
    """The `<path>` or `<path>: line <n>` that starts an input error."""
    return str(path) if line is None else "%s: line %d" % (path, line)


CI_TEXT = Path(_data("cohomology/ci_degree12.complexes")).read_text()


@pytest.mark.parametrize("text, reason, line", [
    ("ambient 6\nterm 0: (0)^1\n",
     "term before the ambient and resolution headers: 'term 0: (0)^1'", 2),
    (CI_TEXT.replace("ambient 6", ""),
     "term before the ambient and resolution headers: 'term 0: (0)^1'", 8),
    ("ambient 6\nresolution structure_sheaf\nterm 0 (0)^1\n",
     "expected 'term i: twists', got 'term 0 (0)^1'", 3),
    ("ambient 6\nresolution structure_sheaf\nterm 1: (0)^1\n",
     "resolution structure_sheaf needs terms 0..k, has [1]", 2),
    (CI_TEXT.replace("resolution structure_sheaf", "resolution sheaf"),
     "no structure_sheaf resolution", None),
    (CI_TEXT.replace("ambient 6", "ambient 3"), "ambient must be an integer >= 4, got '3'", 6),
    (CI_TEXT.replace("term 1: (-2)^2 + (-3)^1\nterm 2: (-5)^2 + (-4)^1\nterm 3: (-7)^1\n", ""),
     "resolution structure_sheaf has 1 term, needs at least 2", 7),
    (CI_TEXT.replace("term 2: (-9)^2 + (-10)^1\n", ""),
     "resolution ideal_square has 2 terms, needs 3", 12),
    (CI_TEXT + "ambient 7\n", "second ambient header", 16),
    (CI_TEXT.replace("term 2: (-5)^2", "term 1: (-5)^2"),
     "second term 1 in resolution structure_sheaf", 10),
    (CI_TEXT + "resolution ideal_square\nterm 0: (0)^1\n", "second resolution ideal_square", 16),
    (CI_TEXT.replace("resolution ideal_square", "resolution ideal_square extra"),
     "expected 'resolution name', got 'resolution ideal_square extra'", 12),
    (CI_TEXT.replace("term 3: (-7)^1", "term 3: (-7)^-1"),
     "multiplicity must be >= 1 in twist term '(-7)^-1'", 11),
    (CI_TEXT.replace("term 1: (-2)^2 + (-3)^1", "term 1: (-2)^2 + (3)^0"),
     "multiplicity must be >= 1 in twist term '(3)^0'", 9),
])
def test_malformed_complexes_file_exits_2(capsys, tmp_path, text, reason, line):
    path = tmp_path / "bad.complexes"
    path.write_text(text)
    assert text != CI_TEXT
    _exits_2(capsys, ["cohom", "hodge", path], "%s: %s\n" % (_where(path, line), reason))


FAN_TEXT = Path(_data("toric/subdivision.fan")).read_text()
MAT13 = _data("families/degree13_oneparam.mat")


@pytest.mark.parametrize("argv, text, reason", [
    (["pfaffian"], "dim 2\nvars x1\nentry 1 2 : 1/0\n", "line 3: zero denominator in '1/0'"),
    (["pfaffian"], "dim -3\nvars x1\n", "line 1: dim must be an integer >= 0, got '-3'"),
    (["torus-group"], "len -1\nvars x1\n", "line 1: len must be an integer >= 0, got '-1'"),
    (["torus-group"], "len 2\nvars x1 x2\nentry 1 : x1^2 - x2^2\n", "generator 2 is zero"),
    (["torus-group"], "len 1\nvars x1 x2\nentry 1 : x1^2 + x2\n",
     "generator 1 is not homogeneous in the geometry variables"),
    (["verify-family", MAT13], "len 5\nvars x0 s\n", "variable x0 is not among the matrix's vars"),
    (["verify-family", MAT13], "len 4\nvars x1..x7 s\n",
     "vector has 4 entries, not the matrix's dim 5"),
    (["verify-family", MAT13], "len 6\nvars x1..x7 s\n",
     "vector has 6 entries, not the matrix's dim 5"),
    (["toric", "verify"], FAN_TEXT.replace("1/13 0 0 0", "1/0 0 0 0"),
     "line 5: zero denominator in '1/0'"),
    (["toric", "verify"], "lattice\n1 0\n0 1\nrays\n1 0\n0 1\nsigma\n1 2\ncones\n1 2\n",
     "line 2: lattice row has 2 entries, not 4"),
    (["torus-group"], "len 1\nvars t\nentry 1 : t\n",
     "no geometry variables (names starting with x)"),
    (["sr"], "0 1 2\n3\n", "degree is defined for pure complexes only"),
    (["cohom", "hodge"], CI_TEXT.replace("ambient 6", "ambient 5"),
     "resolution leaves O_X(-1) undetermined at [('O_X(-1)', 2), ('O_X(-1)', 3)]"),
    (["cohom", "hodge"], CI_TEXT.replace("ambient 6", "ambient 7"),
     "exact window [('O_X(-1)^8', 4)] has alternating sum 8"),
    (["pfaffian"], "dim 2\nvars x1\nentry 1 2 : 7^99999999\n",
     "line 3: exponent 99999999 is above the limit 1000"),
    (["pfaffian"], "dim 1001\nvars x1\n", "line 1: dim 1001 is above the limit 1000"),
    (["torus-group"], "len 1001\nvars x1\n", "line 1: len 1001 is above the limit 1000"),
    (["pfaffian"], "dim 2\nvars x1..x1001\n", "line 2: range 'x1..x1001' has more than 1000 names"),
    (["pfaffian"], "dim 2\nvars x1..x8\nentry 1 2 : (x1+x2+x3+x4+x5+x6+x7+x8)^1000\n",
     "line 3: power 1000 of a polynomial with 8 terms may have 204032533091695451 terms, "
     "above the limit 10000"),
    (["pfaffian"], "dim 21\nvars x1\n", "line 1: dim 21 is above 20, the largest a matrix file may have"),
    (["pfaffian"], "dim 4\nvars x1\nentry 1 2 : (x1^1000)^20\nentry 3 4 : (x1^1000)^20\n",
     "a product exponent is above the limit 32767"),
    (["pfaffian"], "dim 2\nvars x1\nentry 1 2 : x1^40000\n",
     "line 3: exponent 40000 is above the limit 1000"),
    # entry (1, 3) of the matrix is x1*x2
    (["verify-family", MAT13], "len 5\nvars x1..x7 s\nentry 3 : (x1^1000)^32*x1^767\n",
     "a product exponent is above the limit 32767"),
    # a two-term structure-sheaf resolution, so J_X is its one term (-7)^1
    (["cohom", "hodge"], CI_TEXT.replace("term 1: (-2)^2 + (-3)^1\nterm 2: (-5)^2 + (-4)^1\n"
                                         "term 3: (-7)^1\n", "term 1: (-7)^1\n"),
     "exact window [('J_X', 6)] has alternating sum 1"),
    (["pfaffian"], "dim 2\nvars x1\nentry 1 2 : x1\nvars x2 x1\n", "line 4: second vars header"),
    (["pfaffian"], "dim 2\nvars x3..x1\nentry 1 2 : 1\n",
     "line 2: range 'x3..x1' ends below its start"),
    (["torus-group"], "len 1\nvars x1\nentry 1 : x1\nentry 1 : x1^2\n", "line 4: second entry 1"),
    (["pfaffian"], "dim 5\nvars x1\nentry 1 2 : (x1^1000)^20\nentry 3 4 : (x1^1000)^20\n",
     "a product exponent is above the limit 32767"),
    (["pfaffian"], "dim 2\nvars x1 2y ½\nentry 1 2: x1\n",
     "line 2: variable name '2y' is not a letter or '_' followed by letters, digits or '_'"),
    (["torus-group"], "len 1\nvars x1 x2..x3 2y1..2y3\nentry 1 : x1\n",
     "line 2: variable name '2y1' is not a letter or '_' followed by letters, digits or '_'"),
])
def test_bad_input_file_exits_2(capsys, tmp_path, argv, text, reason):
    path = tmp_path / "input"
    path.write_text(text)
    _exits_2(capsys, [*argv, path], "%s: %s\n" % (path, reason))


@pytest.mark.parametrize("labels", [(0, 1, 2, 3), (7, 8, 9, 10)], ids=["0-3", "7-10"])
@pytest.mark.parametrize("cmd", ["t1", "orbits"])
def test_triangulation_that_is_not_a_3_sphere_exits_2(capsys, tmp_path, cmd, labels):
    # a frozenset of 7..10 iterates as 8, 9, 10, 7; the failing triangles
    # still come by ascending dropped vertex
    path = tmp_path / "simplex.tri"
    path.write_text("%s\n" % " ".join(map(str, labels)))
    failures = ["triangle %s lies in 1 facets" % [v for v in labels if v != dropped]
                for dropped in labels]
    failures.append("Euler characteristic 1 != 0")
    failures.extend("link of vertex %d is not a 2-sphere" % v for v in labels)
    _exits_2(capsys, [cmd, path],
             "%s: complex fails 3-sphere checks: %s\n" % (path, "; ".join(failures)))


def _toric_copy(tmp_path, name, old, new):
    path = tmp_path / name
    text = Path(_data("toric/" + name)).read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return path


def test_fan_with_a_cut_cone_exits_2(capsys, tmp_path):
    fan = _toric_copy(tmp_path, "subdivision.fan", "16 2 5 11", "16 2 5")
    fpoly, table = _data("toric/hypersurface.fpoly"), _data("toric/components.tbl")
    err = "%s: line 34: cone has 3 entries, not 4\n" % fan
    _exits_2(capsys, ["toric", "crepancy", fan, fpoly], err)
    _exits_2(capsys, ["toric", "charts", fan, fpoly], err)
    _exits_2(capsys, ["toric", "euler", fan, fpoly, table], err)


@pytest.mark.parametrize("argv", [["charts"], ["euler", _data("toric/hypersurface.fpoly")],
                                  ["crepancy"]])
def test_toric_without_its_files_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["toric", argv[0], _data("toric/subdivision.fan"), *argv[1:]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "the following arguments are required" in err


@pytest.mark.parametrize("old, new, reason, line", [
    ("E1 6,-2,-1,-2 P2 3", "E1 6,-2,-1,-2 P9 3", "unrecognized surface tag 'P9'", 2),
    ("E1 6,-2,-1,-2 P2 3", "E1 9,9,9,9 P2 3", "row E1: 9,9,9,9 is not a ray of the fan", None),
    ("E1 6,-2,-1,-2 P2 3", "E1 6,-2,-1,-2 P2",
     "expected 'label ray type chi', got 'E1 6,-2,-1,-2 P2'", 2),
    ("E1 6,-2,-1,-2 P2 3", "E1 6,-2,x,-2 P2 3", "ray entry must be an integer, got 'x'", 2),
    ("E3 11,-4,-2,-5 F5 4", "E3 11,-4,-2,-5 F-5 4", "unrecognized surface tag 'F-5'", 4),
    ("E4 7,-2,-1,-3 F2 4", "E4 7,-2,-1,-3 F+2 4", "unrecognized surface tag 'F+2'", 5),
    ("E4 7,-2,-1,-3 F2 4", "E4 7,-2,-1,-3 F02 4", "unrecognized surface tag 'F02'", 5),
    ("E4 7,-2,-1,-3 F2 4", "E4 7,-2,-1,-3 F\u0662 4", "unrecognized surface tag 'F\u0662'", 5),
    ("E10 1,0,0,0 Bl3P2 6", "E10 1,0,0,0 Bl0P2 6", "unrecognized surface tag 'Bl0P2'", 11),
    ("E3 11,-4,-2,-5 F5 4", "E3 11,-4,-2,-5 F 4", "unrecognized surface tag 'F'", 4),
    ("E2 3,-1,0,-1 Bl1F2 5", "E2 3,-1,0,-1 BlF 5", "unrecognized surface tag 'BlF'", 3),
    ("E7 15,-5,-3,-6 Bl3F2 7", "E7 15,-5,-3,-6 Bl3F2 8",
     "row E7: tag Bl3F2 has chi 7, recorded 8", 8),
    ("E1 6,-2,-1,-2 P2 3", "E1 6,-2,-1,-2 P2 x", "chi must be an integer, got 'x'", 2),
])
def test_bad_component_table_row_exits_2(capsys, tmp_path, old, new, reason, line):
    table = _toric_copy(tmp_path, "components.tbl", old, new)
    _exits_2(capsys, ["toric", "euler", _data("toric/subdivision.fan"),
                      _data("toric/hypersurface.fpoly"), table],
             "%s: %s\n" % (_where(table, line), reason))


@pytest.mark.parametrize("new, reason", [
    ("1 2 3", "line 10: monomial has 3 entries, not 4"),
    ("1 0 0 0", "monomial (1, 0, 0, 0) has non-integral chart exponent 3/13 in cone 1"),
])
def test_bad_invariant_monomial_exits_2(capsys, tmp_path, new, reason):
    fpoly = _toric_copy(tmp_path, "hypersurface.fpoly", "2 0 8 0", new)
    _exits_2(capsys, ["toric", "charts", _data("toric/subdivision.fan"), fpoly],
             "%s: %s\n" % (fpoly, reason))


def test_empty_monomial_block_exits_2(capsys, tmp_path):
    # crepancy takes a minimum over these monomials
    fpoly = _toric_copy(tmp_path, "hypersurface.fpoly",
                        "monomials\n2 0 0 0\n0 3 0 0\n0 0 5 0\n0 0 1 2\n", "monomials\n")
    _exits_2(capsys, ["toric", "crepancy", _data("toric/subdivision.fan"), fpoly],
             "%s: empty monomials block\n" % fpoly)


def test_sr_command(capsys, complexes):
    for name, k in complexes.items():
        payload = _json(capsys, "sr", _data("triangulations/%s.tri" % name))
        gens = [{int(v) for v in g} for g in payload["generators"]]
        # a vertex set is a face exactly when it holds no generator
        for n in range(len(k.vertices) + 1):
            for s in itertools.combinations(k.vertices, n):
                assert (frozenset(s) in k.faces()) == (not any(g <= set(s) for g in gens)), (name, s)
        # the h-vector of a 3-sphere is symmetric, and sums to the degree
        h = payload["hilbert_numerator"]
        assert h == h[::-1] and sum(h) == payload["degree"]


def _generic_skew_file(tmp_path, dim):
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    names = {p: "x%d" % n for n, p in enumerate(pairs, 1)}
    path = tmp_path / ("generic%d.mat" % dim)
    path.write_text("dim %d\nvars x1..x%d\n" % (dim, len(pairs))
                    + "".join("entry %d %d : %s\n" % (i, j, names[i, j]) for i, j in pairs))
    ring = PolyRing(names.values())
    return str(path), ring, {p: ring.parse(v) for p, v in names.items()}


def _pf4(m, a, b, c, d):
    return m[a, b] * m[c, d] - m[a, c] * m[b, d] + m[a, d] * m[b, c]


def test_pfaffian_command(capsys, tmp_path):
    # generic skew matrices against the 4x4 Pfaffian written out
    path, ring, m = _generic_skew_file(tmp_path, 4)
    assert ring.parse(_json(capsys, "pfaffian", path)["pfaffian"]) == _pf4(m, 1, 2, 3, 4)
    path, ring, m = _generic_skew_file(tmp_path, 5)
    printed = _json(capsys, "pfaffian", path)["principal_pfaffians"]
    # f_i = (-1)^i Pf(M without row and column i)
    expected = [(-1) ** i * _pf4(m, *(j for j in range(1, 6) if j != i)) for i in range(1, 6)]
    assert [ring.parse(p) for p in printed] == expected


def test_verify_family_command(capsys, tmp_path):
    # one first-order sign flipped: M1 . f1 no longer vanishes mod s^2
    text = Path(_data("families/degree13_expected.gens")).read_text()
    assert text.count("x1*x2*x5 + s*x3") == 1
    slipped = tmp_path / "slipped.gens"
    slipped.write_text(text.replace("x1*x2*x5 + s*x3", "x1*x2*x5 - s*x3"))
    code, out = run_cli(capsys, "verify-family", MAT13, str(slipped))
    assert (code, out) == (1, '{"first_order_syzygy":false}\n')


def test_torus_group_command(capsys):
    payload = _json(capsys, "torus-group", _data("families/quintic.gens"))
    assert payload["order"] == math.prod(payload["invariant_factors"])
    # each generator is a character: all terms of the quintic share its weight
    gens, ring = fixtures.generator_vector("quintic")
    geo, _params = geometry_and_params(ring.names)
    exponent = payload["invariant_factors"][-1]
    assert payload["generators"]
    assert all(verify_character(gens, g, exponent, geo) for g in payload["generators"])


def _toric_paths():
    return [_data("toric/%s" % n)
            for n in ("subdivision.fan", "hypersurface.fpoly", "components.tbl")]


def test_toric_commands(capsys):
    fan, fpoly, table = _toric_paths()
    verify = _json(capsys, "toric", "verify", fan)
    assert verify["ok"] is True and verify["problems"] == []
    charts = _json(capsys, "toric", "charts", fan, fpoly)
    assert len(charts["charts"]) == verify["cones"]
    # crepant exactly on the rays whose divisor meets the strict transform
    crepancy = _json(capsys, "toric", "crepancy", fan, fpoly)
    assert crepancy["crepant"] == charts["meeting_rays"]
    # inclusion-exclusion over the components, P^1 double curves and triple points
    euler = _json(capsys, "toric", "euler", fan, fpoly, table)
    assert euler["chi_exceptional"] == (sum(c["chi"] for c in euler["components"])
                                        - 2 * euler["edges"] + euler["triangles"])


def _ci_euler(n, degrees):
    """Euler number of a complete-intersection 3-fold in P^n: deg * c_3."""
    c = [math.comb(n + 1, k) for k in range(4)]  # (1 + H)^(n+1) up to H^3
    for d in degrees:  # divided by 1 + dH
        c = [sum(c[k - j] * (-d) ** j for j in range(k + 1)) for k in range(4)]
    return math.prod(degrees) * c[3]


def test_cohom_and_milnor(capsys):
    payload = _json(capsys, "cohom", "hodge", _data("cohomology/ci_degree12.complexes"))
    # Lefschetz gives h11 = 1; the structure sheaf's term 1, (-2)^2 + (-3)^1,
    # cuts out the (2, 2, 3) complete intersection in P^6
    assert payload["h11"] == 1
    assert 2 * (payload["h11"] - payload["h12"]) == _ci_euler(6, (2, 2, 3))
    # Milnor-Orlik: the product of (1/w - 1) over the weights
    weights = [Fraction(2, 5), Fraction(1, 3), Fraction(1, 5), Fraction(1, 2)]
    payload = _json(capsys, "milnor", *map(str, weights))
    assert payload["milnor"] == math.prod(1 / w - 1 for w in weights)


def test_torus_group_on_one_variable_is_trivial(capsys, tmp_path):
    path = tmp_path / "one.gens"
    path.write_text("len 1\nvars x1\nentry 1 : x1^3\n")
    code, out = run_cli(capsys, "torus-group", str(path))
    assert code == 0
    assert out == '{"finite":true,"order":1,"invariant_factors":[],"generators":[]}\n'


def test_cohom_ideal_square_first_term_with_cohomology(capsys, tmp_path):
    # (-7)^3 has h^6 = 3 on P^6
    path = tmp_path / "input"
    path.write_text(CI_TEXT.replace("term 0: (-4)^3 + (-5)^2 + (-6)^1",
                                    "term 0: (-4)^3 + (-5)^2 + (-6)^1 + (-7)^3"))
    assert run_cli(capsys, "cohom", "hodge", str(path)) == (0, (
        '{"h11":1,"h12":76,"intermediates":{"h0_ox":1,"h3_ox":1,"h3_ox_minus1":7,'
        '"h4_ideal":1,"h4_j2":125,"h3_conormal":124,"h3_omega_restr":48,"h1_omega_restr":1}}\n'))


@pytest.mark.parametrize("weights, reason", [
    (["abc"], "invalid weight 'abc'"),
    (["1/0"], "invalid weight '1/0'"),
    (["2", "1/3"], "weight 2 is not strictly between 0 and 1"),
])
def test_milnor_bad_weights_are_a_usage_error(capsys, weights, reason):
    with pytest.raises(SystemExit) as exc:
        main(["milnor", *weights])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: argument weights: %s\n" % reason)


def test_milnor_non_integral_number_exits_2(capsys):
    _exits_2(capsys, ["milnor", "1/2", "2/5"],
             "srcy milnor: weights do not give an integral Milnor number: 3/2\n")


def test_run_all_sections_and_exit_codes(capsys):
    code, out = run_cli(capsys, "run-all", "--only", "milnor", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1
    assert all(c["status"] == "pass" for c in payload["checks"])


@pytest.mark.parametrize("only, name", [("bogus", "bogus"), ("sr,", ""), ("", "")])
def test_run_all_unknown_section_is_a_usage_error(capsys, only, name):
    with pytest.raises(SystemExit) as exc:
        main(["run-all", "--only", only])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: argument --only: unknown section %r" % name in err


def test_run_all_missing_fixtures(tmp_path, capsys):
    code = main(["run-all", "--fixtures", str(tmp_path), "--only", "sr"])
    capsys.readouterr()
    assert code == 2


def test_run_all_detects_corruption(tmp_path, capsys):
    import shutil

    src = fixtures.fixture_dir()
    shutil.copytree(src, tmp_path / "data")
    fan = tmp_path / "data" / "toric" / "subdivision.fan"
    fan.write_text(fan.read_text().replace("16 2 5 11", "16 2 5 10"))
    code, out = run_cli(capsys, "run-all", "--fixtures", str(tmp_path / "data"),
                        "--only", "toric", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert any(c["status"] == "fail" for c in payload["checks"])
    # other sections still pass against the same directory
    code, _out = run_cli(capsys, "run-all", "--fixtures", str(tmp_path / "data"),
                         "--only", "sr,milnor", "--format", "json")
    assert code == 0


def test_each_run_all_section_reads_a_fixture_file_once(monkeypatch):
    """Each section alone reads no file twice and reports its slice of the golden report."""
    golden = json.loads((Path(__file__).parent / "data" / "run_all.json").read_text())["checks"]
    original, loads = fixtures.load, []

    def counted(path, parse):
        loads.append(path)
        return original(path, parse)

    monkeypatch.setattr(fixtures, "load", counted)
    twice, slices = {}, {}
    for section in SECTIONS + (None,):
        loads.clear()
        report = run_all(only=[section] if section else None)
        twice[section] = sorted({str(p) for p in loads if loads.count(p) > 1})
        if section:
            slices[section] = json.loads(emit(report, "json"))["checks"]
    assert twice == {section: [] for section in SECTIONS + (None,)}
    assert slices == {section: [c for c in golden if c["id"].startswith(section + ".")]
                      for section in SECTIONS}
    assert len(loads) == 21  # the whole run, each fixture file once


def test_a_fixture_set_calls_each_parser_through_its_module_binding(monkeypatch):
    """A wrapper bound over a `fileio` parser after import, as a tracer binds one, is called."""
    from srcy import fileio

    fx, called = fixtures.FixtureSet(), []
    names = {"triangulation": "p7_1", "family_matrix": "p7_1", "generator_vector": "quintic"}
    for kind, (_rel, parser) in fixtures.KINDS.items():
        monkeypatch.setattr(fileio, parser, lambda text, p=parser, f=getattr(fileio, parser):
                            called.append(p) or f(text))
        fx(kind, names.get(kind))
    assert called == [parser for _rel, parser in fixtures.KINDS.values()]


def test_a_failed_fixture_read_keeps_nothing(tmp_path):
    import shutil

    fx = fixtures.FixtureSet(tmp_path)
    with pytest.raises(InputError):
        fx("scroll_polytope")
    shutil.copytree(fixtures.fixture_dir() / "toric", tmp_path / "toric")
    assert fx("scroll_polytope") == fixtures.scroll_polytope()


@pytest.mark.parametrize("rel, section", [
    ("families/p7_1.mat", "pfaffian"),
    ("triangulations/p7_2.tri", "milnor"),
    ("toric/scroll_polytope.txt", "toric"),
])
def test_run_all_malformed_fixture_exits_2(tmp_path, capsys, rel, section):
    import shutil

    shutil.copytree(fixtures.fixture_dir(), tmp_path / "data")
    path = tmp_path / "data" / rel
    text = path.read_text() + "3 x\n"
    path.write_text(text)
    reason = {
        "families/p7_1.mat": "unrecognized matrix-file line: '3 x'",
        "triangulations/p7_2.tri": "facets must be whitespace-separated integers",
        "toric/scroll_polytope.txt": "points must be whitespace-separated integers",
    }[rel]
    _exits_2(capsys, ["run-all", "--fixtures", tmp_path / "data", "--only", section],
             "%s: line %d: %s\n" % (path, len(text.splitlines()), reason))


def test_run_all_cohom_fixture_without_structure_sheaf_exits_2(tmp_path, capsys):
    import shutil

    shutil.copytree(fixtures.fixture_dir(), tmp_path / "data")
    path = tmp_path / "data" / "cohomology" / "ci_degree12.complexes"
    path.write_text(CI_TEXT.replace("resolution structure_sheaf", "resolution sheaf"))
    _exits_2(capsys, ["run-all", "--fixtures", tmp_path / "data", "--only", "cohom"],
             "%s: no structure_sheaf resolution\n" % path)


@pytest.mark.parametrize("rel, edits, section, reason", [
    # the product of entries (1,2) and (3,4) has the term x1^40000*x2*x3
    ("families/p7_1.mat", [("- t83*x1*x3^2\n", "- t83*x1*x3^2 + (x1^1000)^20*x2\n"),
                           ("- t33*x6\n", "- t33*x6 + (x1^1000)^20*x3\n")],
     "pfaffian", "a product exponent is above the limit 32767"),
    ("cohomology/ci_degree12.complexes", [("ambient 6", "ambient 7")],
     "cohom", "exact window [('O_X(-1)^8', 4)] has alternating sum 8"),
    ("families/quintic.gens", [("- 5*t*x0*x1*x2*x3*x4", "- 5*t*x0*x1*x2*x3")],
     "torus", "generator 1 is not homogeneous in the geometry variables"),
    ("toric/hypersurface.fpoly", [("0 0 13 0\n", "0 0 13\n")],
     "toric", "line 12: monomial has 3 entries, not 4"),
    ("toric/scroll_polytope.txt", [("1 0 1\n", "1 1\n")],
     "toric", "line 5: point has 2 entries, not 3"),
    ("toric/hypersurface.fpoly", [("0 0 9 2\n", "0 0 9 1\n")],
     "toric", "monomial (0, 0, 9, 1) has non-integral chart exponent 86/13 in cone 1"),
    ("toric/components.tbl", [("E1 6,-2,-1,-2 P2 3", "E1 1,1,1,1 P2 3")],
     "toric", "row E1: 1,1,1,1 is not a ray of the fan"),
    ("families/degree14_expected.gens", [("entry 3: -x1*x6*x4 +", "entry 3: -x1*x6*x4*x7 +")],
     "torus", "generator 3 is not homogeneous in the geometry variables"),
    ("families/degree13_expected.gens", [("entry 3: x3*x4*x6 +", "entry 3: x3*x4*x6*x7 +")],
     "torus", "generator 3 is not homogeneous in the geometry variables"),
    # the product of entries (1,2) and (3,4) has the term x1^40000*x2*x3 again
    ("families/degree13_oneparam.mat", [("s*x7^2\n", "s*x7^2 + (x1^1000)^20*x2\n"),
                                        ("s*x6\n", "s*x6 + (x1^1000)^20*x3\n")],
     "pfaffian", "a product exponent is above the limit 32767"),
    ("toric/scroll_polytope.txt", [("0 0 0\n1 0 0\n0 1 0\n1 0 1\n0 0 4\n0 1 2\n", "")],
     "toric", "empty point file"),
    # four coplanar points, then three collinear ones
    ("toric/scroll_polytope.txt", [("1 0 1\n0 0 4\n0 1 2\n", "1 1 0\n")],
     "toric", "points do not span 3-space"),
    ("toric/scroll_polytope.txt", [("1 0 0\n0 1 0\n1 0 1\n0 0 4\n0 1 2\n", "1 1 1\n2 2 2\n")],
     "toric", "points do not span 3-space"),
])
def test_run_all_bad_fixture_data_exits_2(tmp_path, capsys, rel, edits, section, reason):
    import shutil

    shutil.copytree(fixtures.fixture_dir(), tmp_path / "data")
    path = tmp_path / "data" / rel
    text = path.read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text(text)
    _exits_2(capsys, ["run-all", "--fixtures", tmp_path / "data", "--only", section],
             "%s: %s\n" % (path, reason))


def _line(n, new):
    """An edit that replaces line n of a fixture by `new`, or deletes it if `new` is None."""
    def edit(text):
        lines = text.splitlines()
        lines[n - 1:n] = [] if new is None else [new]
        return "\n".join(lines) + "\n"
    return edit


# Fixture edits that once crashed a run-all section.  Input that is
# malformed, or contradicts another fixture, exits 2 naming the file (and the
# line, when there is one); well-formed data that is merely different fails
# checks, and the report keeps every recorded id.
@pytest.mark.parametrize("rel, edit, code, named", [
    # not a 3-sphere: t1, orbits and the Pfaffian lift need one
    ("triangulations/p7_4.tri", _line(3, None), 2, "triangulations/p7_4.tri"),
    # vertex 7 relabelled 12: the family matrix has no x12
    ("triangulations/p7_5.tri", lambda text: text.replace("7", "12"), 2, "families/p7_5.mat"),
    ("toric/subdivision.fan", _line(69, "12 10 7"), 2, "toric/subdivision.fan: line 69"),
    ("toric/subdivision.fan", _line(69, "3 1 10 7"), 2, "toric/subdivision.fan"),
    ("toric/subdivision.fan", _line(41, "1 1 12 7"), 2, "toric/subdivision.fan: line 41"),
    # four dependent rays, rejected at their line: a P1-bundle base once got a zero ray
    ("toric/subdivision.fan", _line(54, "5 17 18 16"), 2, "toric/subdivision.fan: line 54"),
    # the fan lacks the ray of table row E1, which a closure is looked up by
    ("toric/subdivision.fan", _line(19, "6 -2 -1 -3"), 2, "toric/components.tbl"),
    # a wrong ray: the fan is invalid, and the components it loses fail
    ("toric/subdivision.fan", _line(74, "4 5 8 15"), 1, None),
    # without y^8*x^3 the derived components no longer match the table
    ("toric/hypersurface.fpoly", _line(11, None), 2, "toric/components.tbl"),
    # two more variables: the stabilizer is infinite
    ("families/degree14_expected.gens", _line(3, "vars x1..x9 s"), 1, None),
    # the same sphere, relabelled: it lacks the recorded orbit blocks of degree13
    ("triangulations/p7_4.tri", lambda text: text.translate(str.maketrans("1234567", "2345671")),
     1, None),
])
def test_run_all_on_an_edited_fixture_exits_2_or_fails_checks(tmp_path, capsys, rel, edit,
                                                               code, named):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(fixtures.fixture_dir(), data)
    path = data / rel
    path.write_text(edit(path.read_text()))
    assert main(["run-all", "--fixtures", str(data), "--format", "json"]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("%s: " % (data / named)) and err.count("\n") == 1
    else:
        golden = json.loads((Path(__file__).parent / "data" / "run_all.json").read_text())
        assert err == ""
        assert [c["id"] for c in json.loads(out)["checks"]] == [c["id"] for c in golden["checks"]]


def test_run_all_imports_no_unused_stdlib_module():
    child = ("import json, sys; from srcy.cli import main; code = main(['run-all']); "
             "sys.stderr.write(json.dumps([m for m in %r if m in sys.modules]))" % (UNUSED_STDLIB,))
    done = _python("-c", child)
    assert done.returncode == 0 and done.stdout.endswith("result: ok\n"), done.stderr
    assert json.loads(done.stderr) == []


def test_no_record_has_a_mutable_default():
    """A default shared by every record built without that field must not change."""
    import importlib
    import pkgutil

    import srcy

    records = {}
    for info in pkgutil.iter_modules(srcy.__path__):
        if info.name != "__main__":
            module = importlib.import_module("srcy." + info.name)
            records.update((v.__name__, v) for v in vars(module).values()
                           if isinstance(v, type) and issubclass(v, tuple)
                           and v.__module__ == module.__name__)
    assert {"SurfaceType", "LinkType"} <= {n for n, r in records.items() if r._field_defaults}
    assert [(n, d) for n, r in records.items() for d in r._field_defaults.values()
            if isinstance(d, (list, dict, set))] == []


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "srcy", "run-all", "--only", "milnor")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("result: ok\n")


def test_emit_formats():
    empty = VerificationReport()
    assert emit(empty, "json") == b'{"version":1,"checks":[]}'
    empty.add("demo", 1, 1, "unit")
    text = emit(empty, "text").decode()
    assert "PASS" in text and text.endswith("result: ok\n")
    with pytest.raises(ValueError):
        emit(empty, "xml")


def test_reports_are_byte_identical():
    from srcy.verify import run_all

    a = emit(run_all(only=["sr", "t1", "torus"]), "json")
    b = emit(run_all(only=["sr", "t1", "torus"]), "json")
    assert a == b


# Every subcommand on the bundled fixtures: argv ($DATA is the fixture
# directory), exit code, and stdout in full, or its byte count and SHA-256
# when it is longer than 4 KiB.  An intended output change rewrites its entry.
CLI_MANIFEST = json.loads(
    (Path(__file__).parent / "data" / "cli" / "manifest.json").read_text()
)


@pytest.mark.parametrize("entry", CLI_MANIFEST,
                         ids=lambda e: " ".join(a.rsplit("/", 1)[-1] for a in e["argv"]))
def test_subcommand_stdout_is_pinned(capsys, entry):
    import hashlib

    argv = [a.replace("$DATA", str(fixtures.fixture_dir())) for a in entry["argv"]]
    code, out = run_cli(capsys, *argv)
    assert code == entry["exit"]
    if "stdout" in entry:
        assert out == entry["stdout"]
    else:
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (entry["bytes"], entry["sha256"])
