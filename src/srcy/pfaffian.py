"""Pfaffians of skew-symmetric polynomial matrices and related checks.

Sign conventions: the Pfaffian expands recursively along the first row,
normalized so Pf([[0, a], [-a, 0]]) = a.  Principal Pfaffians carry the
alternating sign that makes M . f = 0 hold identically; this is verified
symbolically whenever they are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import rank as _rank
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
            if p and not p.is_zero():
                self.upper[(i, j)] = p

    def entry(self, i, j):
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.upper.get((i, j), self.ring.zero())
        return -self.upper.get((j, i), self.ring.zero())

    def delete(self, *indices):
        keep = [i for i in range(1, self.dim + 1) if i not in indices]
        pos = {old: new + 1 for new, old in enumerate(keep)}
        upper = {
            (pos[i], pos[j]): p
            for (i, j), p in self.upper.items()
            if i in pos and j in pos
        }
        return SkewPolyMatrix(self.ring, len(keep), upper)

    def scale_row_col(self, i, c):
        """Scale row i and column i simultaneously (keeps skew-symmetry)."""
        upper = {}
        for (a, b), p in self.upper.items():
            upper[(a, b)] = p * c if i in (a, b) else p
        return SkewPolyMatrix(self.ring, self.dim, upper)

    def mul_vector(self, vec, trunc=None):
        """M . vec, each product truncated by `trunc` as in `Poly.mul`."""
        out = []
        for i in range(1, self.dim + 1):
            s = self.ring.zero()
            for j in range(1, self.dim + 1):
                s = s + self.entry(i, j).mul(vec[j - 1], trunc)
            out.append(s)
        return out


def pfaffian(m, trunc=None):
    """Pfaffian by recursive first-row expansion; 0 when the size is odd.

    With trunc=(names, bound), every product drops the terms of degree
    >= bound in `names` before they are formed (`Poly.mul`), so the result
    is the Pfaffian truncated at that degree.
    """
    if m.dim % 2 == 1:
        return m.ring.zero()
    cache = {}

    def rec(indices):
        if not indices:
            return m.ring.one()
        key = indices
        if key in cache:
            return cache[key]
        first = indices[0]
        rest = indices[1:]
        total = m.ring.zero()
        for pos, j in enumerate(rest):
            e = m.entry(first, j)
            if e.is_zero():
                continue
            sub = rec(tuple(x for x in rest if x != j))
            term = e.mul(sub, trunc)
            total = total + term if pos % 2 == 0 else total - term
        cache[key] = total
        return total

    return rec(tuple(range(1, m.dim + 1)))


class SyzygySignError(RuntimeError):
    pass


def principal_pfaffians(m, trunc=None):
    """Vector f with f_i = (-1)^i Pf(M with row/column i removed), M.f = 0.

    The identity M . f = 0 is checked symbolically; a failure means the
    sign convention has been broken somewhere upstream.  `trunc` truncates
    the Pfaffians and the residual as in `pfaffian`.
    """
    if m.dim % 2 == 0:
        raise ValueError("principal Pfaffians are taken for odd size")
    f = []
    for i in range(1, m.dim + 1):
        p = pfaffian(m.delete(i), trunc)
        f.append(-p if i % 2 == 1 else p)
    residual = m.mul_vector(f, trunc)
    if any(not r.is_zero() for r in residual):
        raise SyzygySignError("principal Pfaffians do not satisfy M.f = 0")
    return f


def verify_first_order(m1, f1, params):
    """Whether M1 . f1 vanishes modulo quadratic terms in the parameters."""
    residual = m1.mul_vector(f1, (params, 2))
    return all(r.is_zero() for r in residual)


def first_order_pfaffians(m1, params):
    """Principal Pfaffians of M1 with parameter degree >= 2 discarded."""
    return principal_pfaffians(m1, (params, 2))


# -- point evaluation -----------------------------------------------------------


def evaluate_jacobian(gens, chart_var, point, params=None):
    """Exact values and Jacobian rank of dehomogenized generators.

    `point` assigns rational values to the affine coordinates (the chart
    variable itself is set to 1); `params` assigns rational values to any
    parameter variables.  The rank is computed over Q.
    """
    assignment = {chart_var: Fraction(1)}
    if params:
        assignment.update({k: Fraction(v) for k, v in params.items()})
    assignment.update({k: Fraction(v) for k, v in point.items()})
    ring = gens[0].ring
    missing = [n for n in ring.names if n not in assignment]
    if missing:
        raise ValueError("point leaves variables unset: %s" % missing)
    affine_vars = [n for n in point]
    values = [g.evaluate(assignment) for g in gens]
    jac = [
        [g.derivative(v).evaluate(assignment) for v in affine_vars]
        for g in gens
    ]
    return values, _rank(jac)


# -- quasi-homogeneous singularities ---------------------------------------------


@dataclass(frozen=True)
class QuasiWeights:
    weights: tuple  # Fractions in (0, 1), aligned with variable names
    names: tuple

    def __post_init__(self):
        for w in self.weights:
            if not (0 < w < 1):
                raise ValueError("weights must lie strictly between 0 and 1")


def check_quasihomogeneous(f, weights):
    """True iff every monomial of f has weighted degree exactly 1."""
    wmap = dict(zip(weights.names, weights.weights))
    for e, _c in f.terms.items():
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
