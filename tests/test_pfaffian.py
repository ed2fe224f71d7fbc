import gc
import random
import shutil
import sys
from fractions import Fraction

import pytest

from srcy import fixtures
from srcy.fileio import geometry_and_params
from srcy.pfaffian import (
    QuasiWeights,
    SkewPolyMatrix,
    milnor_quasihomogeneous,
    pfaffian,
    principal_pfaffians,
    quasi_weights,
    verify_first_order,
)
from srcy.polynomial import Poly, PolyRing
from srcy.report import VerificationReport
from srcy.verify import _check_specializations, run_all

RING = PolyRing(["a"])


def _const_skew(entries):
    dim = len(entries)
    upper = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            upper[(i + 1, j + 1)] = RING.const(entries[i][j])
    return SkewPolyMatrix(RING, dim, upper)


def _random_skew(rng, dim):
    entries = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            entries[i][j] = rng.randint(-9, 9)
            entries[j][i] = -entries[i][j]
    return _const_skew(entries)


def test_pfaffian_base_case():
    m = _const_skew([[0, 7], [-7, 0]])
    assert pfaffian(m).constant_value() == 7


def test_pfaffian_odd_is_zero():
    rng = random.Random(0)
    assert pfaffian(_random_skew(rng, 3)).is_zero()
    assert pfaffian(_random_skew(rng, 5)).is_zero()


def test_base_pfaffians_recover_monomial_generators(complexes):
    from srcy.sr_ideal import minimal_nonfaces

    for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5"):
        matrix, ring = fixtures.family_matrix(name)
        _geo, params = geometry_and_params(ring.names)
        base = SkewPolyMatrix(ring, matrix.dim, {
            k: p.truncate_above(params, 1) for k, p in matrix.upper.items()
        })
        f = principal_pfaffians(base)
        assert all(r.is_zero() for r in _reference_mul_vector(base, f))
        gens = minimal_nonfaces(complexes[name]).generators
        expected = set()
        for g in gens:
            exps = [0] * ring.nvars
            for v in g:
                exps[ring.index["x%d" % v]] = 1
            expected.add(str(ring.monomial(exps)))
        assert {str(p) for p in f} == expected


def test_entries_share_the_matrix_ring():
    other = PolyRing(["a", "b"])
    with pytest.raises(ValueError, match="mixed polynomial rings"):
        SkewPolyMatrix(RING, 2, {(1, 2): other.var("a")})


def test_principal_pfaffians_need_odd_dimension():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        principal_pfaffians(_random_skew(rng, 4))


def test_verify_first_order_and_negative_control():
    matrix, ring = fixtures.family_matrix("p7_2")
    _geo, params = geometry_and_params(ring.names)
    from srcy.pfaffian import first_order_pfaffians

    f1 = first_order_pfaffians(matrix, params)
    assert verify_first_order(matrix, f1, params)
    corrupted = dict(matrix.upper)
    corrupted[(1, 5)] = corrupted[(1, 5)] + ring.var("x2") * ring.var("t1")
    bad = SkewPolyMatrix(ring, matrix.dim, corrupted)
    assert not verify_first_order(bad, f1, params)


def test_sign_slip_fails_the_pfaffian_section(monkeypatch):
    """A Pfaffian that loses every second sign breaks M.f = 0 and the report."""
    module = sys.modules["srcy.pfaffian"]
    original = module._sub_pfaffian
    calls = []
    depth = [0]

    def slipped(m, indices, trunc, cache):
        # negate every second sub-Pfaffian handed back to `pfaffian` or
        # `principal_pfaffians`; the expansion's own recursive calls pass through
        depth[0] += 1
        try:
            p = original(m, indices, trunc, cache)
        finally:
            depth[0] -= 1
        if depth[0]:
            return p
        calls.append(indices)
        return -p if len(calls) % 2 == 0 else p

    monkeypatch.setattr(module, "_sub_pfaffian", slipped)
    report = run_all(only=["pfaffian"])
    assert not report.ok
    families = ["p7_1", "p7_2", "p7_3", "p7_4", "p7_5"]
    entries = ["base_generators", "base_syzygy", "lift_matches_basis", "first_order_syzygy"]
    specialized = ["pfaffian.%s.%s" % (e, name) for name in ("degree13", "degree14")
                   for e in ("specialized_generators", "orbit_family")]
    assert [c.id for c in report.checks] == ["pfaffian.square_is_det"] + [
        "pfaffian.%s.%s" % (e, name) for name in families for e in entries
    ] + specialized
    failed = {c.id: c.computed for c in report.failures()}
    for name in families:
        # every family is checked, and both of its syzygy entries fail
        assert failed["pfaffian.base_syzygy.%s" % name] is False
        assert failed["pfaffian.first_order_syzygy.%s" % name] is False
        assert failed["pfaffian.base_generators.%s" % name] is None
        assert failed["pfaffian.lift_matches_basis.%s" % name] is None
    # so is every specialized family, with nothing to compare
    assert all(failed[entry] is None for entry in specialized)


def test_a_missing_lift_fails_only_the_degree14_orbit_entry():
    report = VerificationReport()
    _check_specializations(report, fixtures.FixtureSet(), {})
    assert [(c.id, c.computed) for c in report.checks] == [
        ("pfaffian.specialized_generators.degree13", True), ("pfaffian.orbit_family.degree13", True),
        ("pfaffian.specialized_generators.degree14", True), ("pfaffian.orbit_family.degree14", None)]


def test_a_doubled_lift_coefficient_fails_the_degree14_orbit(tmp_path):
    """A p7_5 lift with t24 doubled matches no basis, and its orbit misses the printed family."""
    shutil.copytree(fixtures.fixture_dir(), tmp_path / "data")
    path = tmp_path / "data" / "families" / "p7_5.mat"
    text = path.read_text()
    assert text.count("+ t24*x2") == 1
    path.write_text(text.replace("+ t24*x2", "+ 2*t24*x2"))
    report = run_all(base=tmp_path / "data", only=["pfaffian"])
    assert [(c.id, c.computed) for c in report.failures()] == [
        ("pfaffian.lift_matches_basis.p7_5", False), ("pfaffian.orbit_family.degree14", False)]


def test_a_dropped_printed_generator_fails_the_degree13_comparison(tmp_path):
    """The printed vector must match every Pfaffian, not only a prefix of them."""
    shutil.copytree(fixtures.fixture_dir(), tmp_path / "data")
    path = tmp_path / "data" / "families" / "degree13_expected.gens"
    lines = [line for line in path.read_text().splitlines() if not line.startswith("entry 5:")]
    assert lines.count("len 5") == 1
    path.write_text("\n".join(lines).replace("len 5", "len 4") + "\n")
    report = run_all(base=tmp_path / "data", only=["pfaffian"])
    assert [(c.id, c.computed) for c in report.failures()] == [
        ("pfaffian.specialized_generators.degree13", False)]


def test_the_pfaffian_memo_needs_no_cycle_collector():
    """Reference counting frees the sub-Pfaffian memo when principal_pfaffians returns."""
    matrix, _ring = fixtures.family_matrix("p7_1")
    gc.collect()
    gc.disable()
    try:
        principal_pfaffians(matrix)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_mul_vector(m, vec, trunc=None):
    """M . vec, every row multiplied out on `entry`, which negates the lower triangle."""
    cols = range(1, m.dim + 1)
    return [Poly.dot(m.ring, [(m.entry(i, j), vec[j - 1]) for j in cols], trunc) for i in cols]


def test_annihilates_matches_the_entry_loop():
    """Sparse matrices and vectors, so that often all rows of M . vec but one vanish."""
    rng = random.Random(22)
    ring = PolyRing(["x", "y", "t"])
    terms = ["1", "-2/3", "x", "y^2", "t", "x*t", "-1/2*y*t^2"]

    def poly():
        if rng.random() < 0.5:
            return ring.zero()
        return ring.parse(" + ".join(rng.sample(terms, rng.randint(1, 2))))

    for dim in range(8):
        for _ in range(40 - 4 * dim):
            m = SkewPolyMatrix(ring, dim, {(i, j): poly() for i in range(1, dim + 1)
                                           for j in range(i + 1, dim + 1)})
            vec = [poly() for _ in range(dim)]
            for trunc in (None, (["t"], 1), (["t"], 2), (["x", "t"], 2)):
                residual = _reference_mul_vector(m, vec, trunc)
                assert m.annihilates(vec, trunc) == all(r.is_zero() for r in residual)


def test_annihilates_leaves_out_only_a_row_its_entry_implies():
    """Only the row of the first entry with a term of degree 0 in the truncation's names.

    The row of a zero entry, or of an entry that is a multiple of t modulo
    t^2, may hold the one nonzero row of M . vec.
    """
    ring = PolyRing(["x", "t"])
    zero, one, t = ring.zero(), ring.one(), ring.var("t")
    # M . (0, 0, 1) = (1, 0, 0)
    m = SkewPolyMatrix(ring, 3, {(1, 3): one})
    assert not m.annihilates([zero, zero, one])
    # M . (t, 0, 1) = (t, 0, -t^2), which is (t, 0, 0) modulo t^2
    m = SkewPolyMatrix(ring, 3, {(1, 3): t})
    assert not m.annihilates([t, zero, one], (["t"], 2))
    assert m.annihilates([t, zero, one], (["t"], 1))


def test_one_syzygy_residual_per_pfaffian_vector(monkeypatch):
    """M.f = 0 is multiplied out once per principal_pfaffians call, nowhere else."""
    original = SkewPolyMatrix.annihilates
    calls = []

    def counted(self, vec, trunc=None):
        calls.append(self.dim)
        return original(self, vec, trunc=trunc)

    monkeypatch.setattr(SkewPolyMatrix, "annihilates", counted)
    assert run_all(only=["pfaffian"]).ok
    assert len(calls) == 7


def test_milnor_numbers():
    w = quasi_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 5)],
                      ["w", "x", "y", "z"])
    assert milnor_quasihomogeneous(w) == 12
    assert milnor_quasihomogeneous(quasi_weights([Fraction(1, 2), Fraction(1, 2)])) == 1
    assert milnor_quasihomogeneous(quasi_weights([Fraction(1, 3), Fraction(1, 3)])) == 4
    with pytest.raises(ValueError):
        milnor_quasihomogeneous(quasi_weights([Fraction(2, 5), Fraction(1, 2)]))


def test_weights_lie_strictly_between_0_and_1():
    for bad in ([Fraction(1, 2), 1], [0, Fraction(1, 2)], [Fraction(3, 2)], [Fraction(-1, 3)]):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            quasi_weights(bad)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        QuasiWeights((Fraction(1, 2), Fraction(1)), ("x", "y"))


def test_milnor_matches_monomial_oracle():
    """dim of C[x,y]/(x^2, y^2) counted by brute force equals the product rule."""
    def jacobian_quotient_dim(exps):
        # Jacobian ideal of x^a + y^b is (x^(a-1), y^(b-1))
        a, b = exps
        return sum(
            1 for i in range(a - 1) for j in range(b - 1)
        )

    assert jacobian_quotient_dim((3, 3)) == milnor_quasihomogeneous(
        quasi_weights([Fraction(1, 3), Fraction(1, 3)])
    )
    assert jacobian_quotient_dim((2, 2)) == 1
