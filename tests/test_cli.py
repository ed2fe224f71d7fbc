import json
from pathlib import Path

import pytest

from srcy import fixtures
from srcy.cli import main
from srcy.report import VerificationReport, emit


def _data(rel):
    return str(fixtures.fixture_dir() / rel)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_t1_command(capsys):
    code, out = run_cli(capsys, "t1", _data("triangulations/p7_5.tri"))
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 56
    assert {"a": [1, 3], "a_vector": [1, 1], "b": [4, 7]} in payload["elements"]


def test_aut_and_orbits(capsys):
    code, out = run_cli(capsys, "aut", _data("triangulations/p7_3.tri"))
    assert code == 0
    assert out == (
        '{"order":48,"generators":[[1,2,3,5,4,6,7],[1,2,3,6,7,4,5],'
        '[1,3,2,4,5,6,7],[2,1,3,4,5,6,7]]}\n'
    )
    code, out = run_cli(capsys, "aut", _data("triangulations/p7_5.tri"))
    assert code == 0
    assert out == '{"order":14,"generators":[[1,7,6,5,4,3,2],[2,1,7,6,5,4,3]]}\n'
    code, out = run_cli(capsys, "orbits", _data("triangulations/p7_4.tri"))
    payload = json.loads(out)
    assert payload["orbit_count"] == 20
    assert sum(payload["orbit_sizes"]) == 67


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
        (["pfaffian", mat], "%s: expected 'entry i j : poly', got 'entry 1 : x1'\n" % mat),
        (["torus-group", gens],
         "%s: entry before the size and vars headers: 'entry 1 : x1'\n" % gens),
    ):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr() == ("", err)


def test_sr_command(capsys):
    code, out = run_cli(capsys, "sr", _data("triangulations/p7_1.tri"))
    payload = json.loads(out)
    assert payload["degree"] == 11
    assert ["4", "6"] in payload["generators"]


def test_pfaffian_command(capsys):
    code, out = run_cli(capsys, "pfaffian", _data("families/degree13_oneparam.mat"))
    payload = json.loads(out)
    assert len(payload["principal_pfaffians"]) == 5


def test_verify_family_command(capsys):
    code, out = run_cli(
        capsys, "verify-family",
        _data("families/degree13_oneparam.mat"),
        _data("families/degree13_expected.gens"),
    )
    assert json.loads(out)["first_order_syzygy"] is True
    assert code == 0


def test_torus_group_command(capsys):
    code, out = run_cli(capsys, "torus-group", _data("families/quintic.gens"))
    payload = json.loads(out)
    assert payload["order"] == 125 and payload["invariant_factors"] == [5, 5, 5]


def test_toric_commands(capsys):
    code, out = run_cli(capsys, "toric", "verify", _data("toric/subdivision.fan"))
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run_cli(capsys, "toric", "crepancy", _data("toric/subdivision.fan"),
                        _data("toric/hypersurface.fpoly"))
    assert len(json.loads(out)["crepant"]) == 10
    code, out = run_cli(capsys, "toric", "charts", _data("toric/subdivision.fan"),
                        _data("toric/hypersurface.fpoly"))
    payload = json.loads(out)
    assert payload["charts"]["1"] == "y1^2*y4 + y2^5*y3^3*y4^4 + y2*y3*y4^2 + 1"
    assert len(payload["meeting_rays"]) == 10
    code, out = run_cli(capsys, "toric", "euler", _data("toric/subdivision.fan"),
                        _data("toric/hypersurface.fpoly"), _data("toric/components.tbl"))
    payload = json.loads(out)
    assert payload["chi_exceptional"] == 25
    assert payload["edges"] == 25 and payload["triangles"] == 14


def test_cohom_and_milnor(capsys):
    code, out = run_cli(capsys, "cohom", "hodge", _data("cohomology/ci_degree12.complexes"))
    payload = json.loads(out)
    assert (payload["h11"], payload["h12"]) == (1, 73)
    code, out = run_cli(capsys, "milnor", "2/5", "1/3", "1/5", "1/2")
    assert json.loads(out)["milnor"] == 12


def test_run_all_sections_and_exit_codes(capsys):
    code, out = run_cli(capsys, "run-all", "--only", "milnor", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1
    assert all(c["status"] == "pass" for c in payload["checks"])


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


@pytest.mark.parametrize("rel, section", [
    ("families/p7_1.mat", "pfaffian"),
    ("triangulations/p7_2.tri", "milnor"),
    ("toric/scroll_polytope.txt", "toric"),
])
def test_run_all_malformed_fixture_exits_2(tmp_path, capsys, rel, section):
    import shutil

    shutil.copytree(fixtures.fixture_dir(), tmp_path / "data")
    path = tmp_path / "data" / rel
    path.write_text(path.read_text() + "3 x\n")
    code = main(["run-all", "--fixtures", str(tmp_path / "data"), "--only", section])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("fixture error: %s: " % path)
    assert "Traceback" not in captured.err


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    import srcy

    src = str(Path(srcy.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "srcy", "run-all", "--only", "milnor"],
                          env=env, capture_output=True, text=True, timeout=120)
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
