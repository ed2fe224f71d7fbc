import random

import pytest

from srcy.intlinalg import (
    complete_to_basis,
    det,
    hnf_rows,
    kernel_basis_of_functional,
    mat_int_mul,
    mat_vec_int,
    primitive,
    quotient_projection,
    smith_normal_form,
    unimodular_inverse,
)


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        d, u, v = smith_normal_form(a)
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        prod = mat_int_mul(mat_int_mul(u, a), v)
        assert prod == d
        diag = [d[i][i] for i in range(min(nr, nc))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d[i][j] == 0


def test_known_cokernel():
    # columns 5e_i - e_j differences of the degree-5 Fermat lattice
    a = [[4, -1, -1, -1], [-1, 4, -1, -1], [-1, -1, 4, -1], [-1, -1, -1, 4]]
    d, _u, _v = smith_normal_form(a)
    assert [d[i][i] for i in range(4)] == [1, 5, 5, 5]


def test_complete_to_basis():
    rng = random.Random(2)
    for _ in range(30):
        v = [rng.randint(-8, 8) for _ in range(4)]
        if all(x == 0 for x in v):
            continue
        v = list(primitive(v))
        u = complete_to_basis(v)
        assert abs(det(u)) == 1
        assert mat_vec_int(u, v) == [1, 0, 0, 0]


def test_quotient_projection_kills_rays():
    rays = [[13, -5, -3, -6], [0, 1, 0, 0]]
    proj = quotient_projection(rays)
    assert len(proj) == 2
    for r in rays:
        assert mat_vec_int(proj, r) == [0, 0]
    # surjective: the 2x4 projection has a right inverse over Z
    d, _u, _v = smith_normal_form(proj)
    assert [d[i][i] for i in range(2)] == [1, 1]


def test_kernel_of_functional():
    basis = kernel_basis_of_functional([4, 0, 2])
    assert len(basis) == 2
    for b in basis:
        assert 4 * b[0] + 2 * b[2] == 0
    # saturated: content of the kernel lattice is 1
    d, _u, _v = smith_normal_form([list(b) for b in basis])
    assert [d[i][i] for i in range(2)] == [1, 1]


def test_hnf_rows_canonicalizes():
    rows = hnf_rows([[2, 4, 0], [1, 1, 1]])
    rows2 = hnf_rows([[1, 1, 1], [3, 5, 1], [2, 4, 0]])
    assert rows == rows2


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _elementary_product(rng, n):
    """A product of random row additions, swaps and negations: unimodular."""
    a = _identity(n)
    for _ in range(12):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.choice(("add", "swap", "negate"))
        if kind == "add" and i != j:
            f = rng.randint(-3, 3)
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
        elif kind == "swap":
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def test_unimodular_inverse(fan_data):
    fan = fan_data[0]
    matrices = [[[r[i] for r in fan.cone_rays(c)] for i in range(4)]
                for c in range(len(fan.cones))]
    assert len(matrices) == 53
    rng = random.Random(5)
    matrices += [_elementary_product(rng, rng.randint(1, 5)) for _ in range(40)]
    for a in matrices:
        inv = unimodular_inverse(a)
        assert all(type(x) is int for row in inv for x in row)
        assert mat_int_mul(a, inv) == mat_int_mul(inv, a) == _identity(len(a))
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse([[2, 1], [0, 1]])
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse([[1, 2], [2, 4]])
