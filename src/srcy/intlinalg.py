"""Exact linear algebra over Z and Q (lists of lists, no floating point).

Everything here operates on small matrices (at most ~50 x 8).  One
fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968)
gives `det` and every inverse, over Q and Z; the Smith normal form is used
only for lattice operations: basis completion, quotient projections, kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


# -- fraction-free elimination -------------------------------------------------


def _integral(rows):
    """Each row times the lcm of its denominators, and those positive factors."""
    factors = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[int(x * s) for x in row] for row, s in zip(rows, factors)], factors


def _eliminate(m, ncols):
    """Gauss-Jordan reduce the int matrix `m` in place on its first `ncols` columns.

    Each step sets every other row to (p * row - f * pivot_row) // p_prev,
    with p the pivot, f the row's entry in the pivot column and p_prev the
    previous pivot; by Sylvester's identity every division is exact.
    Returns the rank, the sign of the row swaps and the last pivot.  When
    the first `ncols` columns are a nonsingular square block, that block
    ends as the last pivot times the identity, and the pivot is the block's
    determinant times the swap sign.
    """
    nr = len(m)
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(nr):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[r])]
        prev = p
        r += 1
    return r, sign, prev


def inverse(rows):
    """Inverse over Q; raises ValueError for a singular matrix.

    Reducing [S A | S], with S the diagonal of row factors, leaves
    p I on the left and p A^-1 on the right, p the last pivot.
    """
    m, factors = _integral(rows)
    n = len(m)
    aug = [row + [s * (i == j) for j in range(n)] for i, (row, s) in enumerate(zip(m, factors))]
    r, _sign, p = _eliminate(aug, n)
    if r < n:
        raise ValueError("matrix is singular")
    return [[Fraction(x, p) for x in row[n:]] for row in aug]


def det(rows):
    m, factors = _integral(rows)
    n = len(m)
    r, sign, p = _eliminate(m, n)
    return Fraction(sign * p, prod(factors)) if r == n else Fraction(0)


# -- integer normal forms ----------------------------------------------------


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (positive gcd)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in vec)


def smith_normal_form(rows):
    """Return (D, U, V) with D = U * A * V, U and V unimodular, D diagonal.

    The diagonal entries of D are nonnegative and each divides the next.
    """
    a = [[int(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, f):  # row i -= f * row j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col i -= f * col j
        for row in a:
            row[i] -= f * row[j]
        for row in v:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # find a smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: fold in any entry not divisible by the pivot
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def unimodular_inverse(rows):
    """Inverse over Z: [A | I] reduces to [p I | p A^-1], p = ±det A the last pivot."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    r, _sign, p = _eliminate(aug, n)
    if r < n or abs(p) != 1:
        raise ValueError("matrix is not unimodular")
    return [[p * x for x in row[n:]] for row in aug]


def complete_to_basis(vec):
    """Unimodular U with U @ vec = e1, for a primitive integer vector."""
    d, u, _v = smith_normal_form([[int(x)] for x in vec])
    if d[0][0] != 1:
        raise ValueError("vector is not primitive")
    return u


def quotient_projection(rays):
    """Projection Z^n -> Z^(n-k) modulo the span of the given k primitive rays.

    The rays must be part of a basis of Z^n (the relevant cones here are
    unimodular): with D = U * A * V the Smith form of the ray columns A,
    the first k diagonal entries of D are then 1, and the last n - k rows
    of U vanish on the rays and map Z^n onto Z^(n-k).  Returns those rows.
    """
    k = len(rays)
    d, u, _v = smith_normal_form([list(col) for col in zip(*rays)])
    if any(d[i][i] != 1 for i in range(k)):
        raise ValueError("rays are not part of a lattice basis")
    return u[k:]


def mat_int_mul(a, b):
    nr, mid, nc = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(nc)] for i in range(nr)]


def mat_vec_int(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def kernel_basis_of_functional(func):
    """A basis of {x in Z^n : func . x = 0}.

    With D = U * func * V the Smith form of the 1 x n row, D is zero past
    its first column, so the last n - 1 columns of the unimodular V lie in
    the kernel and span it.
    """
    n = len(func)
    _d, _u, v = smith_normal_form([list(func)])
    return [[v[i][j] for i in range(n)] for j in range(1, n)]
