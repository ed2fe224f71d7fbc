"""Degree-zero first-order deformations of Stanley-Reisner 3-spheres.

The contributing pairs are a face `a` and a vertex subset `b` of its link
for which the link decomposes as a join with the boundary of `b`.  In
degree zero, each admissible pair carries one basis element per way of
distributing |b| among the vertices of `a` with positive weights.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations

from .polynomial import BITS, PolyRing, _settled
from .simplicial import (
    OTHER,
    SimplicialComplex,
    classify_link,
    is_combinatorial_3sphere_candidate,
    is_sphere,
    once_per_complex,
    ridge_counts,
)
from .sr_ideal import minimal_nonfaces

# Admissible-b counts for the standard small links, before the degree-zero
# multiplicity is applied.  n-gons with n >= 5 contribute nothing.
LINK_CONTRIBUTIONS = {
    "two_points": lambda n: 1,
    "ngon": lambda n: {3: 4, 4: 2}.get(n, 0),
    "boundary_tetrahedron": lambda n: 11,
    "susp_triangle": lambda n: 5,
    "susp_quadrangle": lambda n: 3,
    "susp_ngon": lambda n: 1,
    "cyclic_polytope": lambda n: 1,
}


class T1BasisElement(namedtuple("T1BasisElement", "support a_vector b")):
    """`support`: the sorted vertices of the face a; `a_vector`: positive
    exponents, aligned with support; `b`: a frozenset of vertices."""

    __slots__ = ()

    def __new__(cls, support, a_vector, b):
        if set(support) & b:
            raise ValueError("a and b must be disjoint")
        if sum(a_vector) != len(b):
            raise ValueError("degree-zero condition sum(a) = |b| violated")
        if any(e <= 0 for e in a_vector):
            raise ValueError("a-vector entries must be positive")
        return super().__new__(cls, support, a_vector, b)

    def sort_key(self):
        return (self.support, tuple(sorted(self.b)), self.a_vector)


# -- join-decomposition test ---------------------------------------------------


def admissible_b(link, b):
    """Whether the subset b of the link's vertices contributes to T^1.

    With L' the full subcomplex on the complementary vertices, demands
    link = L' * boundary(b) with |L'| a sphere when b is not a face, and
    link = (L' * boundary(b)) union (boundary(L') * closure(b)) with |L'|
    a ball when b is a face.  Both sides are pure of the link's
    dimension, so they agree exactly when their facets do: the sets
    H union (b minus one vertex) for H a facet of L', and R union b for R
    a facet of the rim of the ball.  A facet of the link holding fewer
    than |b| - 1 vertices of b therefore rejects b before L' is built.
    """
    b = frozenset(b)
    if len(b) < 2:
        raise ValueError("b must have at least two vertices")
    if not b <= set(link.vertices):
        raise ValueError("b must lie in the link's vertex set")
    if any(len(f & b) < len(b) - 1 for f in link.facets):
        return False
    lprime = link.full_subcomplex(v for v in link.vertices if v not in b)
    target_dim = link.dim() - len(b) + 1
    if link.has_face(b):
        rim = _ball_rim(lprime, target_dim)
    else:
        rim = [] if is_sphere(lprime, target_dim) else None
    if rim is None:
        return False
    joined = {h | (b - {v}) for h in lprime.facets for v in b}
    return joined | {r | b for r in rim} == link.facets


def _ball_rim(c, d):
    """Facets of the boundary of c when c triangulates the d-ball, else None.

    For d <= 2: c is pure of dimension d and connected, with Euler
    characteristic 1, and its ridges lie in at most two facets; those in
    exactly one form a (d-1)-sphere.  The 0-ball's rim is the void complex.
    """
    if c.dim() != d or not c.is_pure():
        return None
    if d == 0:
        return [frozenset()] if len(c.vertices) == 1 else None
    if d > 2:
        raise ValueError("ball test implemented for dimension <= 2 only")
    counts = ridge_counts(c)
    rim = [r for r, n in counts.items() if n == 1]
    if (
        max(counts.values()) <= 2
        and is_sphere(SimplicialComplex(rim), d - 1)
        and c.is_connected()
        and c.euler_characteristic() == 1
    ):
        return rim
    return None


# -- enumeration ---------------------------------------------------------------


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@once_per_complex
def admissible_pairs(k):
    """All (face a, subset b) with an admissible join decomposition.

    Enumerated once per complex and kept with it, as an immutable tuple.
    """
    pairs = []
    for f in sorted(k.faces(), key=lambda f: (len(f), tuple(sorted(f)))):
        if not f:
            continue
        link = k.link(f)
        lverts = link.vertices
        for size in range(2, len(lverts) + 1):
            for b in combinations(lverts, size):
                if admissible_b(link, frozenset(b)):
                    pairs.append((tuple(sorted(f)), frozenset(b)))
    return tuple(pairs)


@once_per_complex
def t1_degree_zero_basis(k):
    """Canonically ordered basis of the degree-zero first-order deformations."""
    report = is_combinatorial_3sphere_candidate(k)
    if not report.ok:
        raise ValueError("complex fails 3-sphere checks: %s" % "; ".join(report.failures))
    basis = []
    for support, b in admissible_pairs(k):
        for avec in _compositions(len(b), len(support)):
            basis.append(T1BasisElement(support, avec, b))
    return tuple(sorted(basis, key=T1BasisElement.sort_key))


class CrosscheckRow(namedtuple("CrosscheckRow", "face link_type expected enumerated")):
    __slots__ = ()

    @property
    def ok(self):
        return self.expected == self.enumerated


def t1_link_table_crosscheck(k):
    """Compare enumerated admissible-b counts against the standard table.

    Covers faces whose links have dimension <= 2; the counts here are
    before degree-zero multiplicity.
    """
    enumerated = Counter(a for a, _b in admissible_pairs(k))
    rows = []
    for f in sorted(k.faces(), key=lambda f: (len(f), tuple(sorted(f)))):
        if not f:
            continue
        link = k.link(f)
        if link.dim() > 2 or link.facets == frozenset({frozenset()}):
            continue
        tag = classify_link(link)
        if tag == OTHER:
            raise ValueError("link of %s does not classify" % sorted(f))
        face = tuple(sorted(f))
        expected = LINK_CONTRIBUTIONS[tag.tag](tag.n)
        rows.append(CrosscheckRow(face, tag, expected, enumerated[face]))
    return rows


# -- perturbations and first-order family ---------------------------------------


def variable_ring(k, extra=()):
    """Ring with one x-variable per vertex (external labels) plus extras."""
    return PolyRing(["x%d" % v for v in k.vertices] + list(extra))


def generator_monomial(ring, p):
    """The monomial x_p = prod of x_v over the vertices v of p."""
    return ring.power_product(dict.fromkeys(("x%d" % v for v in p), 1))


def perturbation(elem, generators, ring):
    """Image monomial of each ideal generator under the basis element.

    Generator p (a vertex set) maps to x_p * x^a / x_b when b <= p, and to
    None otherwise.  Exponents stay nonnegative because a and b are
    disjoint.  Its key is key(p) plus `_image_offset`, as in `first_order_family`.
    """
    vertices = set().union(elem.support, elem.b, *generators)
    key = {v: 1 << (ring.index["x%d" % v] * BITS) for v in vertices}
    offset = _image_offset(elem, key)
    return {tuple(sorted(p)): _settled(ring, {sum(map(key.get, p)) + offset: 1}, 1)
            if elem.b <= set(p) else None for p in generators}


def _image_offset(elem, key):
    """sum a_i key(v_i) - key(b): added to x_p's key, it gives x_p * x^a / x_b's when b <= p."""
    return (sum(a * key[v] for v, a in zip(elem.support, elem.a_vector))
            - sum(key[v] for v in elem.b))


# `generators` are Polys of `ring`, linear in the parameter variables;
# `basis` holds one T1BasisElement per parameter, and `params` the
# parameter names, aligned with it.
FirstOrderFamily = namedtuple("FirstOrderFamily", "ring generators basis params")


def first_order_family(k):
    """One parameter per basis element; generators x_p + sum_i t_i phi_i(x_p).

    Each generator is one dict of packed keys, x_p's and each image's plus
    t_i's field, all distinct; `_settled` checks the exponent limit.
    """
    basis = t1_degree_zero_basis(k)
    params = ["t%d" % (i + 1) for i in range(len(basis))]
    ring = variable_ring(k, extra=params)
    key = {v: 1 << (ring.index["x%d" % v] * BITS) for v in k.vertices}
    gens = [(frozenset(p), sum(map(key.get, p))) for p in minimal_nonfaces(k).generators]
    nums = [{pkey: 1} for _p, pkey in gens]
    for t, elem in zip(params, basis):
        shift = _image_offset(elem, key) + (1 << (ring.index[t] * BITS))
        for acc, (p, pkey) in zip(nums, gens):
            if elem.b <= p:
                acc[pkey + shift] = 1
    return FirstOrderFamily(ring, [_settled(ring, acc, 1) for acc in nums], basis, params)
