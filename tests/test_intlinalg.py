import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srcy.intlinalg as la
from srcy.intlinalg import (
    complete_to_basis,
    det,
    inverse,
    kernel_basis_of_functional,
    mat_int_mul,
    mat_vec_int,
    primitive,
    quotient_projection,
    smith_normal_form,
    unimodular_inverse,
)
from srcy.toric import classify_toric_surface, orbit_closure_component


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
    # a non-square matrix is rejected before the elimination reads its columns
    for a in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="not square"):
            unimodular_inverse(a)


# -- the Fraction Gauss-Jordan loops and the complete-to-basis projection, kept
# as references for the fraction-free elimination and the Smith-form projection


def _reference_inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    aug = [m[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _reference_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result * sign


def _reference_quotient_projection(rays):
    n = len(rays[0])
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for k, ray in enumerate(rays):
        img = [sum(u[i][j] * ray[j] for j in range(n)) for i in range(n)]
        tail = img[k:]
        if all(x == 0 for x in tail):
            raise ValueError("rays are not independent modulo earlier ones")
        if primitive(tail) != tuple(tail):
            raise ValueError("ray is not primitive modulo the earlier rays")
        w = complete_to_basis(tail)
        full = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n - k):
            for j in range(n - k):
                full[k + i][k + j] = w[i][j]
        u = mat_int_mul(full, u)
        img = [sum(u[i][j] * ray[j] for j in range(n)) for i in range(n)]
        for i in range(k):
            if img[i] != 0:
                u[i] = [x - img[i] * y for x, y in zip(u[i], u[k])]
    return [u[i] for i in range(len(rays), n)]


_INTS = tuple(range(-4, 5))
_FRACTIONS = _INTS + tuple(Fraction(p, q) for p in (-3, -1, 1, 2, 5) for q in (2, 3, 7))


@st.composite
def _matrices(draw):
    """Square int or Fraction matrices of size 1-7; a drawn rank bound below
    the size gives singular ones (rank 0 is a zero matrix)."""
    n = draw(st.integers(1, 7))
    entry = st.sampled_from(draw(st.sampled_from((_INTS, _FRACTIONS))))

    def block(r, c):
        return [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]

    if draw(st.booleans()):
        return block(n, n)
    k = draw(st.integers(0, n - 1))
    left, right = block(n, k), block(k, n)
    return [[sum(row[t] * right[t][j] for t in range(k)) for j in range(n)] for row in left]


# the fixture fan's sigma as ray columns (det 13), and its lattice block
_SIGMA_COLUMNS = [[13, 0, 0, 0], [-5, 1, 0, 0], [-3, 0, 1, 0], [-6, 0, 0, 1]]
_LATTICE_BLOCK = [[Fraction(1, 13), 0, 0, 0], [Fraction(5, 13), 1, 0, 0],
                  [Fraction(3, 13), 0, 1, 0], [Fraction(6, 13), 0, 0, 1]]


@settings(max_examples=100, deadline=None)
@given(_matrices())
@example([])
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
@example(_SIGMA_COLUMNS)
@example(_LATTICE_BLOCK)
@example([[0, 1], [1, 0]])  # a row swap flips the sign
def test_elimination_matches_the_fraction_loops(rows):
    assert det(rows) == _reference_det(rows)
    try:
        expected = _reference_inverse(rows)
    except ValueError as exc:
        assert str(exc) == "matrix is singular"
        with pytest.raises(ValueError, match="^matrix is singular$"):
            inverse(rows)
    else:
        assert inverse(rows) == expected


def test_projection_of_one_ray_matches_the_reference(fan_data):
    rng = random.Random(17)
    rays = [list(r) for r in fan_data[0].rays]
    while len(rays) < 18 + 200:
        v = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
        if any(v):
            rays.append(list(primitive(v)))
    for ray in rays:
        assert quotient_projection([ray]) == _reference_quotient_projection([ray])


def test_projection_kills_basis_rays_and_is_onto():
    rng = random.Random(23)
    for _ in range(60):
        u = _elementary_product(rng, 4)
        for k in (1, 2, 3):
            rays = [[row[j] for row in u] for j in range(k)]
            proj = quotient_projection(rays)
            assert len(proj) == 4 - k
            for r in rays:
                assert mat_vec_int(proj, r) == [0] * (4 - k)
            d, _u, _v = smith_normal_form(proj)
            assert [d[i][i] for i in range(4 - k)] == [1] * (4 - k)


def test_projection_rejects_rays_outside_a_basis():
    with pytest.raises(ValueError):
        quotient_projection([[2, 0, 0, 0]])
    with pytest.raises(ValueError):
        quotient_projection([[1, 0, 0], [1, 0, 0]])


def _closures(fan):
    faces = sorted({pair for cone in fan.cones for pair in combinations(sorted(cone), 2)})
    out = []
    for pair in faces:
        closure = orbit_closure_component(fan, *pair)
        tag = str(classify_toric_surface(closure.rays)) if closure.complete else None
        out.append((closure.chi, closure.complete, tag))
    return out


def test_orbit_closures_agree_under_both_projections(fan_data, monkeypatch):
    fan = fan_data[0]
    closures = _closures(fan)
    assert len(closures) == 72
    monkeypatch.setattr(la, "quotient_projection", _reference_quotient_projection)
    assert _closures(fan) == closures
