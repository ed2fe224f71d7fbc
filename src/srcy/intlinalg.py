"""Exact linear algebra over Z and Q (lists of lists, no floating point).

Everything here operates on small matrices (at most ~50 x 8), so the
algorithms are the plain classical ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# -- rational elimination ----------------------------------------------------


def mat_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows):
    m = mat_fractions(rows)
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r


def inverse(rows):
    n = len(rows)
    m = mat_fractions(rows)
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


def det(rows):
    m = mat_fractions(rows)
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
    """Inverse of a unimodular integer matrix, as integers.

    If the Smith form D = U * A * V is the identity, A^-1 = V * U.
    """
    d, u, v = smith_normal_form(rows)
    if d != [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]:
        raise ValueError("matrix is not unimodular")
    return mat_int_mul(v, u)


def complete_to_basis(vec):
    """Unimodular U with U @ vec = e1, for a primitive integer vector."""
    n = len(vec)
    col = [[int(x)] for x in vec]
    d, u, _v = smith_normal_form(col)
    if abs(d[0][0]) != 1:
        raise ValueError("vector is not primitive")
    if d[0][0] == -1:
        u[0] = [-x for x in u[0]]
    return u


def quotient_projection(rays):
    """Projection Z^n -> Z^(n-k) modulo the span of the given primitive rays.

    The rays must be part of a basis of Z^n (the relevant cones here are
    unimodular).  Returns the (n-k) x n integer projection matrix.
    """
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
        # clear the entries above the new pivot so u @ ray == e_{k+1}
        img = [sum(u[i][j] * ray[j] for j in range(n)) for i in range(n)]
        for i in range(k):
            if img[i] != 0:
                u[i] = [x - img[i] * y for x, y in zip(u[i], u[k])]
    return [u[i] for i in range(len(rays), n)]


def mat_int_mul(a, b):
    nr, mid, nc = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(nc)] for i in range(nr)]


def mat_vec_int(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def kernel_basis_of_functional(func):
    """HNF-normalized basis of {x in Z^n : func . x = 0}."""
    n = len(func)
    _d, _u, v = smith_normal_form([list(func)])
    cols = [[v[i][j] for i in range(n)] for j in range(1, n)]
    return hnf_rows(cols)


def hnf_rows(vectors):
    """Row-style Hermite normal form of the lattice spanned by the vectors."""
    rows = [list(map(int, v)) for v in vectors]
    n = len(rows[0]) if rows else 0
    out = []
    col = 0
    while rows and col < n:
        nonzero = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not nonzero:
            rows = rest
            col += 1
            continue
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[col]))
            base = nonzero[0]
            reduced = [base]
            for r in nonzero[1:]:
                f = r[col] // base[col]
                rr = [x - f * y for x, y in zip(r, base)]
                if rr[col] != 0:
                    reduced.append(rr)
                elif any(rr):
                    rest.append(rr)
            nonzero = reduced
        pivot = nonzero[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        rows = rest
        col += 1
    # reduce entries above pivots
    for i in range(len(out) - 1, -1, -1):
        p = next(j for j in range(n) if out[i][j] != 0)
        for k in range(i):
            f = out[k][p] // out[i][p]
            if f:
                out[k] = [x - f * y for x, y in zip(out[k], out[i])]
    return out
