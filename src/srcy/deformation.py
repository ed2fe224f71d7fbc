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
    _is_sphere,
    _union,
    ball_rim,
    bits,
    face_set,
    facet_masks,
    is_combinatorial_3sphere_candidate,
    labels_of,
    once_per_complex,
    submasks,
)
from .sr_ideal import minimal_nonfaces

# -- the link table: link classification --------------------------------------

# Admissible-b counts for the standard small links, before the degree-zero
# multiplicity is applied.  n-gons with n >= 5 contribute nothing, and
# neither does any other 2-sphere (see `_link_type`).
LINK_CONTRIBUTIONS = {
    "two_points": lambda n: 1,
    "ngon": lambda n: {3: 4, 4: 2}.get(n, 0),
    "boundary_tetrahedron": lambda n: 11,
    "susp_triangle": lambda n: 5,
    "susp_quadrangle": lambda n: 3,
    "susp_ngon": lambda n: 1,
    "cyclic_polytope": lambda n: 1,
    "other_sphere": lambda n: 0,
}


class LinkType(namedtuple("LinkType", "tag n", defaults=(None,))):
    __slots__ = ()

    def __str__(self):
        return self.tag if self.n is None else "%s(%d)" % (self.tag, self.n)


OTHER = LinkType("other")


def classify_link(link):
    """Classify a complex against the link table: `OTHER` unless it is a
    sphere of dimension 0, 1 or 2, and else `_link_type` on its facet masks;
    the answer depends only on the combinatorial type, so it is
    relabeling-invariant."""
    masks, d = facet_masks(link), link.dim()
    return _link_type(masks, d) if 0 <= d <= 2 and _is_sphere(masks, d) else OTHER


def _link_type(masks, d):
    """The link-table type of a d-sphere, 0 <= d <= 2, given by its facet
    masks; the caller certifies that it is one.

    Two points and n-gons are the 0- and 1-spheres.  A 2-sphere on nv
    vertices has 2nv - 4 triangles, and a vertex's degree is the number
    of triangles at it, since its link is a cycle.  There is one 2-sphere
    on 4 vertices, the boundary of the tetrahedron, and one on 5, the
    suspended triangle.  If two non-adjacent vertices have degree nv - 2,
    each one's link is a cycle on all nv - 2 other vertices, and their
    stars share no triangle, so they use up all 2nv - 4 triangles.  Each
    edge of one cycle then lies in a triangle of the other star, so the
    cycles agree and the sphere suspends the (nv - 2)-gon.  If two vertices
    u and w have degree nv - 1, the disk outside u's star has all nv - 1
    other vertices on its rim, u's link, so it triangulates a polygon
    without interior vertices.  w lies on that rim and is joined to every
    vertex, so all nv - 4 diagonals of the polygon start at w: the disk is
    a fan from w, and the sphere is the boundary of the cyclic polytope
    C(nv, 3).

    Any other 2-sphere is `other_sphere(nv)`, and it has no admissible b, by
    the join criterion of `admissible_b` (Altmann & Christophersen,
    Manuscripta Math. 115, 2004).  If b is not a face, the link is
    L' * boundary(b) with L' a (3 - |b|)-sphere: |b| = 2 makes it the
    suspension of the cycle L' from the two vertices of b, which are not
    adjacent and have degree nv - 2; |b| = 3 makes it the suspended
    triangle, and |b| = 4 the boundary of the tetrahedron.  If b is a face,
    the link is L' * boundary(b) union boundary(L') * b with L' a
    (3 - |b|)-ball: |b| = 2 makes L' a path, so the two vertices of b are
    adjacent and joined to every other vertex, both of degree nv - 1;
    |b| = 3 makes L' a point and the link the boundary of the tetrahedron.
    So a 2-sphere on six or more vertices with neither apex pattern admits
    no b.
    """
    nv = _union(masks).bit_count()
    if d < 2:
        return LinkType("ngon", nv) if d else LinkType("two_points")
    if nv < 6:
        return LinkType("boundary_tetrahedron" if nv == 4 else "susp_triangle")
    degree = Counter(v for m in masks for v in bits(m))
    apexes = [v for v, n in degree.items() if n == nv - 2]
    if any(not any(m & (u | w) == u | w for m in masks) for u, w in combinations(apexes, 2)):
        return LinkType("susp_quadrangle") if nv == 6 else LinkType("susp_ngon", nv - 2)
    if sum(n == nv - 1 for n in degree.values()) >= 2:
        return LinkType("cyclic_polytope", nv)
    return LinkType("other_sphere", nv)


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
    a facet of the rim.  So a facet missing two vertices of b rejects b.
    """
    b = frozenset(b)
    if len(b) < 2:
        raise ValueError("b must have at least two vertices")
    if not b <= set(link.vertices):
        raise ValueError("b must lie in the link's vertex set")
    bit = {v: 1 << i for i, v in enumerate(link.vertices)}
    return _admissible(facet_masks(link), link.dim(), sum(map(bit.get, b)))


def _admissible(link, dim, b):
    """`admissible_b` on the link's facet masks, its dimension and the mask b.
    Past the filter a facet is H | (b - v), with outer part H, or R | b, with
    inner part R.  The sides agree exactly when the outer parts, each with
    all |b| vertices v, pass the sphere or ball test and the inner parts are
    their rim; the outer parts are then the facets of L', which hold the rim."""
    outer, inner, joined = set(), set(), 0
    for f in link:
        r = b & ~f
        if r & (r - 1):
            return False
        if r:
            outer.add(f & ~b)
            joined += 1
        else:
            inner.add(f ^ b)
    if joined != len(outer) * b.bit_count():
        return False
    d = dim + 1 - b.bit_count()
    rim = ball_rim(outer, d) if inner else [] if _is_sphere(outer, d) else None
    return rim is not None and inner == set(rim)


def _candidates(link):
    """The masks b of two or more link vertices with at most one vertex
    outside the link's first facet, as the facet filter demands."""
    outside = [0, *bits(_union(link) & ~link[0])]
    for s in submasks(link[0]):
        yield from (s | x for x in outside if (s | x) & (s | x) - 1)


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
def _face_links(k):
    """(face, its link's facet masks, the link's dimension) for each face of
    k that is neither empty nor a facet, by size and then by the sorted
    face; a facet's link is void and admits no b."""
    faces = sorted((f.bit_count(), tuple(labels_of(k, f)), f)
                   for f in face_set(k) - {0, *facet_masks(k)})
    links = [(face, [g ^ f for g in facet_masks(k) if g & f == f]) for _n, face, f in faces]
    return [(face, link, max(map(int.bit_count, link)) - 1) for face, link in links]


@once_per_complex
def admissible_pairs(k):
    """All (face a, subset b) with an admissible join decomposition.

    Enumerated once per complex and kept with it, as an immutable tuple.  A
    complex that fails `is_combinatorial_3sphere_candidate` raises
    ValueError; on one that passes, every face link that `_face_links`
    gives is a sphere of dimension 0, 1 or 2: a triangle lies in two
    facets, a vertex link is a 2-sphere, and an edge's link is a vertex
    link in one of those, so a cycle.
    """
    report = is_combinatorial_3sphere_candidate(k)
    if not report.ok:
        raise ValueError("complex fails 3-sphere checks: %s" % "; ".join(report.failures))
    pairs = []
    for face, link, dim in _face_links(k):
        found = [labels_of(k, b) for b in _candidates(link) if _admissible(link, dim, b)]
        pairs += [(face, frozenset(b)) for b in sorted(found, key=lambda b: (len(b), b))]
    return tuple(pairs)


@once_per_complex
def t1_degree_zero_basis(k):
    """Canonically ordered basis of the degree-zero first-order deformations."""
    basis = [T1BasisElement(support, avec, b) for support, b in admissible_pairs(k)
             for avec in _compositions(len(b), len(support))]
    return tuple(sorted(basis, key=T1BasisElement.sort_key))


class CrosscheckRow(namedtuple("CrosscheckRow", "face link_type expected enumerated")):
    __slots__ = ()

    @property
    def ok(self):
        return self.expected == self.enumerated


def t1_link_table_crosscheck(k):
    """Compare enumerated admissible-b counts against the standard table.

    One row per face of the 3-sphere k that is not a facet, on the sphere
    certificate of `admissible_pairs`, which raises for any other complex;
    the counts here are before degree-zero multiplicity.
    """
    enumerated = Counter(a for a, _b in admissible_pairs(k))
    rows = []
    for face, link, dim in _face_links(k):
        tag = _link_type(link, dim)
        rows.append(CrosscheckRow(face, tag, LINK_CONTRIBUTIONS[tag.tag](tag.n), enumerated[face]))
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
