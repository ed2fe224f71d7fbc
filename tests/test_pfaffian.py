import random
import sys
from fractions import Fraction

import pytest

from srcy import fixtures
from srcy.fileio import geometry_and_params
from srcy.intlinalg import det
from srcy.pfaffian import (
    SkewPolyMatrix,
    evaluate_jacobian,
    milnor_quasihomogeneous,
    pfaffian,
    principal_pfaffians,
    quasi_weights,
    verify_first_order,
)
from srcy.polynomial import PolyRing
from srcy.verify import run_all

RING = PolyRing(["a"])


def _const_skew(entries):
    dim = len(entries)
    upper = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            upper[(i + 1, j + 1)] = RING.const(entries[i][j])
    return SkewPolyMatrix(RING, dim, upper)


def _det(matrix):
    return det([
        [matrix.entry(i, j).constant_value() for j in range(1, matrix.dim + 1)]
        for i in range(1, matrix.dim + 1)
    ])


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


def test_pfaffian_squares_to_determinant_many():
    rng = random.Random(20260810)
    count = 0
    for dim in (2, 4, 6, 8):
        for _ in range(30):
            m = _random_skew(rng, dim)
            assert pfaffian(m).constant_value() ** 2 == _det(m)
            count += 1
    assert count == 120


def test_pfaffian_row_column_scaling():
    rng = random.Random(5)
    for dim in (4, 6):
        for _ in range(10):
            m = _random_skew(rng, dim)
            i = rng.randint(1, dim)
            c = rng.randint(2, 5)
            scaled = m.scale_row_col(i, RING.const(c))
            assert pfaffian(scaled) == pfaffian(m) * c


def test_principal_pfaffians_satisfy_syzygy(complexes):
    for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5"):
        matrix, ring = fixtures.family_matrix(name)
        _geo, params = geometry_and_params(ring.names)
        base = SkewPolyMatrix(ring, matrix.dim, {
            k: p.substitute({t: 0 for t in params}) for k, p in matrix.upper.items()
        })
        f = principal_pfaffians(base)
        assert all(r.is_zero() for r in base.mul_vector(f))


def test_base_pfaffians_recover_monomial_generators(complexes):
    from srcy.sr_ideal import minimal_nonfaces

    for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5"):
        matrix, ring = fixtures.family_matrix(name)
        _geo, params = geometry_and_params(ring.names)
        base = SkewPolyMatrix(ring, matrix.dim, {
            k: p.substitute({t: 0 for t in params}) for k, p in matrix.upper.items()
        })
        f = principal_pfaffians(base)
        gens = minimal_nonfaces(complexes[name]).generators
        expected = set()
        for g in gens:
            exps = [0] * ring.nvars
            for v in g:
                exps[ring.index["x%d" % v]] = 1
            expected.add(str(ring.monomial(exps)))
        assert {str(p) for p in f} == expected


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
    original = module.pfaffian
    calls = []

    def slipped(m, trunc=None):
        calls.append(m.dim)
        p = original(m, trunc=trunc)
        return -p if len(calls) % 2 == 0 else p

    monkeypatch.setattr(module, "pfaffian", slipped)
    report = run_all(only=["pfaffian"])
    assert not report.ok
    [failure] = report.failures()
    assert failure.id == "pfaffian.completed"
    assert failure.computed.startswith("SyzygySignError")


def test_one_syzygy_residual_per_pfaffian_vector(monkeypatch):
    """M.f = 0 is multiplied out once per principal_pfaffians call, nowhere else."""
    original = SkewPolyMatrix.mul_vector
    calls = []

    def counted(self, vec, trunc=None):
        calls.append(self.dim)
        return original(self, vec, trunc=trunc)

    monkeypatch.setattr(SkewPolyMatrix, "mul_vector", counted)
    assert run_all(only=["pfaffian"]).ok
    assert len(calls) == 13


def test_specialized_matrices_match_printed_generators():
    for name, sign in (("degree13", 1), ("degree14", -1)):
        matrix, _ring = fixtures.family_matrix("%s_oneparam" % name)
        expected, _ring2 = fixtures.generator_vector("%s_expected" % name)
        f = principal_pfaffians(matrix)
        assert [sign * e.rename(matrix.ring) for e in expected] == f


def test_jacobian_at_fixture_points():
    matrix, _ring = fixtures.family_matrix("degree13_oneparam")
    gens = principal_pfaffians(matrix)
    half = {"s": Fraction(1, 2)}
    zeros = {v: 0 for v in ("x2", "x3", "x4", "x5", "x6", "x7")}
    values, rank = evaluate_jacobian(gens, "x1", zeros, params=half)
    assert all(v == 0 for v in values) and rank < 3

    smooth = dict(zeros, x2=-1)
    values, rank = evaluate_jacobian(gens, "x1", smooth, params=half)
    assert all(v == 0 for v in values) and rank == 3

    generic = dict(zeros, x2=1, x3=2)
    values, _rank = evaluate_jacobian(gens, "x1", generic, params=half)
    assert any(v != 0 for v in values)


def test_milnor_numbers():
    w = quasi_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 5)],
                      ["w", "x", "y", "z"])
    assert milnor_quasihomogeneous(w) == 12
    assert milnor_quasihomogeneous(quasi_weights([Fraction(1, 2), Fraction(1, 2)])) == 1
    assert milnor_quasihomogeneous(quasi_weights([Fraction(1, 3), Fraction(1, 3)])) == 4
    with pytest.raises(ValueError):
        milnor_quasihomogeneous(quasi_weights([Fraction(2, 5), Fraction(1, 2)]))


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
