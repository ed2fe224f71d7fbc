"""Randomized invariants, following the shapes the rest of the suite pins."""

from hypothesis import given, settings
from hypothesis import strategies as st

from srcy.intlinalg import det, mat_int_mul, smith_normal_form
from srcy.pfaffian import SkewPolyMatrix, pfaffian
from srcy.polynomial import PolyRing
from test_pfaffian import _scale_row_col

RING = PolyRing(["x", "y"])


@st.composite
def skew_matrices(draw, dims=(2, 4, 6)):
    dim = draw(st.sampled_from(dims))
    upper = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            upper[(i, j)] = RING.const(draw(st.integers(-7, 7)))
    return SkewPolyMatrix(RING, dim, upper)


def _det(matrix):
    return det([
        [matrix.entry(i, j).constant_value() for j in range(1, matrix.dim + 1)]
        for i in range(1, matrix.dim + 1)
    ])


@settings(max_examples=60, deadline=None)
@given(skew_matrices())
def test_pfaffian_square_equals_determinant(matrix):
    assert pfaffian(matrix).constant_value() ** 2 == _det(matrix)


@settings(max_examples=40, deadline=None)
@given(skew_matrices(dims=(4, 6)), st.integers(1, 6), st.integers(-5, 5).filter(bool))
def test_pfaffian_scaling_covariance(matrix, row, scalar):
    row = 1 + (row - 1) % matrix.dim
    scaled = _scale_row_col(matrix, row, RING.const(scalar))
    assert pfaffian(scaled) == pfaffian(matrix) * scalar


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_smith_normal_form_is_a_normal_form(rows):
    d, u, v = smith_normal_form(rows)
    assert mat_int_mul(mat_int_mul(u, rows), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), 3))]
    assert all(x >= 0 for x in diag)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(5))))
def test_snf_column_order_invariance(perm):
    base = [[4, -1, -1, -1, -1], [-1, 4, -1, -1, -1], [-1, -1, 4, -1, -1],
            [-1, -1, -1, 4, -1]]
    shuffled = [[row[i] for i in perm] for row in base]
    d1, _u, _v = smith_normal_form(base)
    d2, _u, _v = smith_normal_form(shuffled)
    assert [d1[i][i] for i in range(4)] == [d2[i][i] for i in range(4)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6)),
                min_size=0, max_size=8),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6)),
                min_size=0, max_size=8))
def test_polynomial_ring_axioms(terms_a, terms_b):
    def build(terms):
        p = RING.zero()
        for i, j, c in terms:
            p = p + RING.monomial((i, j), c)
        return p

    a, b = build(terms_a), build(terms_b)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    assert (a - a).is_zero()
