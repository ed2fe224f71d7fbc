"""Finite diagonal symmetry groups of polynomial families.

The subgroup of the quotient torus fixing each generator up to scalar is
read off from the exponent-vector differences inside each generator: the
characters that kill all differences form the group.  Projectively, the
differences live in the degree-zero sublattice of Z^n, and the group is
the torsion of that sublattice modulo the difference lattice.
"""

from __future__ import annotations

from collections import namedtuple

from .intlinalg import smith_normal_form


class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "invariant_factors generators")):
    """Its invariant factors, integers > 1 each dividing the next, and one
    weight vector per invariant factor as `generators`."""

    __slots__ = ()

    @property
    def order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


InfiniteStabilizer = namedtuple("InfiniteStabilizer", "torus_rank")


def geometry_exponents(poly, geometry_vars):
    idx = [poly.ring.index[v] for v in geometry_vars]
    return sorted({tuple(e[i] for i in idx) for e, _c in poly.items()})


def exponent_differences(gens, geometry_vars):
    """Differences of each generator's exponent vectors against its least one.

    Parameters and any non-geometry variables are ignored: they are
    treated as scalars of weight zero.  A zero generator, or one that is
    not homogeneous, raises ValueError naming its 1-based position.
    """
    diffs = []
    for n, g in enumerate(gens, 1):
        exps = geometry_exponents(g, geometry_vars)
        if not exps:
            raise ValueError("generator %d is zero" % n)
        ref = exps[0]
        for e in exps[1:]:
            diffs.append(tuple(a - b for a, b in zip(e, ref)))
            if sum(diffs[-1]) != 0:
                raise ValueError("generator %d is not homogeneous in the geometry variables" % n)
    return diffs


def diagonal_stabilizer(gens, geometry_vars):
    """Subgroup of the quotient torus preserving every generator up to scalar.

    All difference vectors have coordinate sum zero (the generators are
    homogeneous), so dropping the last coordinate expresses them in the
    basis e_i - e_n of the degree-zero sublattice; the group is the
    torsion of the cokernel, computed by Smith normal form.  Returns an
    InfiniteStabilizer record when the difference lattice has deficient
    rank; with one geometry variable the quotient torus is a point and
    the group is the trivial one.
    """
    n = len(geometry_vars)
    if n == 0:
        raise ValueError("no geometry variables (names starting with x)")
    diffs = exponent_differences(gens, geometry_vars)
    cols = [d[:-1] for d in diffs]
    if not cols:
        return InfiniteStabilizer(n - 1) if n > 1 else FiniteAbelianGroup([], [])
    a = [[c[i] for c in cols] for i in range(n - 1)]
    d, u, _v = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    rank = sum(1 for x in diag if x != 0)
    if rank < n - 1:
        return InfiniteStabilizer(n - 1 - rank)
    factors = []
    gens_out = []
    for i in range(n - 1):
        di = diag[i]
        if di <= 1:
            continue
        weight = [u[i][j] % di for j in range(n - 1)] + [0]
        factors.append(di)
        gens_out.append(weight)
    return FiniteAbelianGroup(factors, gens_out)


def verify_character(gens, weight, order, geometry_vars):
    """True iff all monomials inside each generator share a weight mod order."""
    for g in gens:
        exps = geometry_exponents(g, geometry_vars)
        vals = {sum(w * e for w, e in zip(weight, ev)) % order for ev in exps}
        if len(vals) > 1:
            return False
    return True
