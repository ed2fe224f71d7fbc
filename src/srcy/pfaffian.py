"""Pfaffians of skew-symmetric polynomial matrices and related checks.

Sign conventions: the Pfaffian expands recursively along the first row,
normalized so Pf([[0, a], [-a, 0]]) = a.  Principal Pfaffians carry the
alternating sign that makes M . f = 0 hold identically; this is verified
symbolically whenever they are produced, on all rows of M . f but one,
which f^T M f = 0 for skew M then implies (`SkewPolyMatrix.annihilates`).

Each first-row expansion and each row of M . f is one `Poly.dot`, the
fused sum of products.  Sub-Pfaffians are memoized in a dict that
`pfaffian` or `principal_pfaffians` creates and passes down the plain
recursion, so the memo forms no reference cycle and is freed on return.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .polynomial import Poly, PolyRing


class SkewPolyMatrix:
    """Skew-symmetric matrix over a PolyRing; upper triangle is stored."""

    def __init__(self, ring, dim, upper):
        self.ring = ring
        self.dim = dim
        self.upper = {}
        for (i, j), p in upper.items():
            if not 1 <= i < j <= dim:
                raise ValueError("entry (%d,%d) outside the upper triangle" % (i, j))
            if p.ring != ring:
                raise ValueError("mixed polynomial rings")
            if p and not p.is_zero():
                self.upper[(i, j)] = p

    def entry(self, i, j):
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.upper.get((i, j), self.ring.zero())
        return -self.upper.get((j, i), self.ring.zero())

    def annihilates(self, vec, trunc=None):
        """Whether M . vec = 0, with every row but one formed by `Poly.dot(ring, pairs, trunc)`.

        M is skew, so vec^T M vec = 0: once every other row vanishes,
        vec[r] * (row r) = 0 too, and so row r = 0 when vec[r] is not a
        zero divisor.  Row r is left out for the first vec[r] with a
        nonzero term of degree 0 in the truncation's names (with no
        truncation, the first nonzero vec[r]).  In Q[x][t]/(t)^bound such
        an element times the lowest-degree part of a nonzero h is nonzero,
        so it is no zero divisor.  A stored entry e at (i, j) pairs with
        vec[j] in row i and with -vec[i] in row j, so each vector entry is
        negated once and no matrix entry is.
        """
        mask = self.ring.mask(trunc[0] if trunc else ())
        implied = next((r for r, v in enumerate(vec) if any(not k & mask for k in v.nums)), None)
        neg = [-v for v in vec]
        rows = [[] for _ in range(self.dim)]
        for (i, j), e in self.upper.items():
            rows[i - 1].append((e, vec[j - 1]))
            rows[j - 1].append((e, neg[i - 1]))
        return all(Poly.dot(self.ring, pairs, trunc).is_zero()
                   for r, pairs in enumerate(rows) if r != implied)


def _sub_pfaffian(m, indices, trunc, cache):
    """Pf of the principal submatrix of `m` on the increasing index tuple `indices`.

    Expands along the first row of the submatrix in one `Poly.dot` over the
    (+-entry, sub-Pfaffian) pairs.  `cache` maps each index tuple expanded
    so far to its Pfaffian and is owned by the caller, so the principal
    Pfaffians of one matrix share their expansions, and the memo holds no
    reference cycle: it is freed as soon as the caller drops it.
    """
    if indices in cache:
        return cache[indices]
    first, rest = indices[0], indices[1:]
    pairs = []
    for pos, j in enumerate(rest):
        e = m.upper.get((first, j))
        if e is not None:
            sub = _sub_pfaffian(m, rest[:pos] + rest[pos + 1:], trunc, cache)
            pairs.append((e if pos % 2 == 0 else -e, sub))
    cache[indices] = total = Poly.dot(m.ring, pairs, trunc)
    return total


def pfaffian(m):
    """Pfaffian by recursive first-row expansion; 0 when the size is odd."""
    if m.dim % 2 == 1:
        return m.ring.zero()
    return _sub_pfaffian(m, tuple(range(1, m.dim + 1)), None, {(): m.ring.one()})


class SyzygySignError(RuntimeError):
    pass


def principal_pfaffians(m, trunc=None):
    """Vector f with f_i = (-1)^i Pf(M with row/column i removed), M.f = 0.

    The identity M . f = 0 is checked symbolically; a failure means the
    sign convention has been broken somewhere upstream.  With
    trunc=(names, bound), every product drops the terms of degree >= bound
    in `names` before they are formed (`Poly.dot`), so the Pfaffians and
    the residual are truncated at that degree.
    """
    if m.dim % 2 == 0:
        raise ValueError("principal Pfaffians are taken for odd size")
    cache = {(): m.ring.one()}
    full = tuple(range(1, m.dim + 1))
    f = []
    for i in full:
        p = _sub_pfaffian(m, full[:i - 1] + full[i:], trunc, cache)
        f.append(-p if i % 2 == 1 else p)
    if not m.annihilates(f, trunc):
        raise SyzygySignError("principal Pfaffians do not satisfy M.f = 0")
    return f


def verify_first_order(m1, f1, params):
    """Whether M1 . f1 vanishes modulo quadratic terms in the parameters."""
    return m1.annihilates(f1, (params, 2))


def first_order_pfaffians(m1, params):
    """Principal Pfaffians of M1 with parameter degree >= 2 discarded."""
    return principal_pfaffians(m1, (params, 2))


# -- quasi-homogeneous singularities ---------------------------------------------


class QuasiWeights(namedtuple("QuasiWeights", "weights names")):
    """`weights`: Fractions in (0, 1), aligned with the variable `names`."""

    __slots__ = ()

    def __new__(cls, weights, names):
        for w in weights:
            if not (0 < w < 1):
                raise ValueError("weights must lie strictly between 0 and 1")
        return super().__new__(cls, weights, names)


def check_quasihomogeneous(f, weights):
    """True iff every monomial of f has weighted degree exactly 1."""
    wmap = dict(zip(weights.names, weights.weights))
    for e, _c in f.items():
        total = Fraction(0)
        for i, p in enumerate(e):
            if p:
                name = f.ring.names[i]
                if name not in wmap:
                    raise ValueError("no weight for variable %s" % name)
                total += p * wmap[name]
        if total != 1:
            return False
    return True


def milnor_quasihomogeneous(weights):
    """Milnor number prod(1/w_i - 1) of an isolated quasi-homogeneous germ."""
    mu = Fraction(1)
    for w in weights.weights:
        mu *= 1 / Fraction(w) - 1
    if mu.denominator != 1 or mu < 0:
        raise ValueError("weights do not give an integral Milnor number: %s" % mu)
    return int(mu)


def quasi_weights(values, names=None):
    values = tuple(Fraction(v) for v in values)
    names = tuple(names) if names else tuple("w%d" % i for i in range(len(values)))
    return QuasiWeights(values, names)
