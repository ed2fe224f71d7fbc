"""Simplicial complexes on small labeled vertex sets.

A complex is stored by its facets (inclusion-maximal faces); each object
derived from it is computed once by `once_per_complex`, kept with the
complex and shared by its callers, so it is immutable; `link` keeps each
face's link there too, and each reference sphere is built once per process.
Vertices keep their external integer labels throughout, so facet lists
round-trip byte-for-byte through the triangulation file format.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from itertools import combinations
from types import MappingProxyType


def once_per_complex(fn):
    """Memoize fn(k) in k._derived, which lives and dies with the complex."""

    @functools.wraps(fn)
    def memo(k):
        if fn not in k._derived:
            k._derived[fn] = fn(k)
        return k._derived[fn]

    return memo


def _maximal(faces):
    """The inclusion-maximal members of a set of frozensets."""
    return [f for f in faces if not any(f < g for g in faces)]


class SimplicialComplex:

    def __init__(self, facets):
        fs = {frozenset(f) for f in facets}
        maximal = _maximal(fs)
        if len(maximal) != len(fs):
            raise ValueError("facet list contains a face of another facet")
        self._set_facets(maximal)

    @classmethod
    def from_faces(cls, faces):
        """Build from an arbitrary face collection (reduces to maximal)."""
        return cls.__new__(cls)._set_facets(_maximal({frozenset(f) for f in faces}))

    def _set_facets(self, maximal):
        self.facets = frozenset(maximal or [frozenset()])
        self.vertices = tuple(sorted(set().union(*self.facets)))
        self._derived = {}
        return self

    # -- face structure ----------------------------------------------------

    @once_per_complex
    def faces(self):
        out = set()
        for f in self.facets:
            f = tuple(sorted(f))
            for k in range(len(f) + 1):
                out.update(map(frozenset, combinations(f, k)))
        return frozenset(out)

    def has_face(self, f):
        f = frozenset(f)
        return any(f <= g for g in self.facets)

    def dim(self):
        return max(len(f) for f in self.facets) - 1

    def is_pure(self):
        d = self.dim()
        return all(len(f) == d + 1 for f in self.facets)

    def faces_of_dim(self, d):
        return [f for f in self.faces() if len(f) == d + 1]

    def f_vector(self):
        """Face counts (f_-1, f_0, ..., f_d); f_-1 = 1 counts the empty face."""
        counts = {}
        for f in self.faces():
            counts[len(f)] = counts.get(len(f), 0) + 1
        return tuple(counts.get(k, 0) for k in range(self.dim() + 2))

    def euler_characteristic(self):
        return sum((-1) ** i * c for i, c in enumerate(self.f_vector()[1:]))

    @once_per_complex
    def vertex_degrees(self):
        """Number of edges at each vertex, as a read-only mapping."""
        counts = Counter(v for e in self.faces_of_dim(1) for v in e)
        return MappingProxyType({v: counts[v] for v in self.vertices})

    def is_connected(self):
        if not self.vertices:
            return True
        adjacent = {v: [] for v in self.vertices}
        for a, b in self.faces_of_dim(1):
            adjacent[a].append(b)
            adjacent[b].append(a)
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            for w in adjacent[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)

    # -- constructions -------------------------------------------------------

    def link(self, f):
        """The link of the face f, kept in the memo from the first call; a non-face raises."""
        f = frozenset(f)
        if f not in self._derived:
            facets = [g - f for g in self.facets if f <= g]
            if not facets:
                raise ValueError("%s is not a face of the complex" % sorted(f))
            # no reduction: for distinct facets g, h holding f, g - f and h - f are never nested
            self._derived[f] = SimplicialComplex.__new__(SimplicialComplex)._set_facets(facets)
        return self._derived[f]

    def full_subcomplex(self, vertices):
        vs = frozenset(vertices)
        return SimplicialComplex.from_faces(f & vs for f in self.facets)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        face_strs = sorted("".join(map(str, sorted(f))) for f in self.facets)
        return "SimplicialComplex{%s}" % ", ".join(face_strs)

    # -- isomorphism ---------------------------------------------------------

    def isomorphisms(self, other):
        """Yield every vertex bijection (a dict) carrying facets to facets.

        Backtracking over degree-compatible maps in the order `mine`.  Each
        nonempty face of self is filed under its last vertex in that order,
        and mapping v to w keeps a partial map only if every face filed
        under v goes to a face of other.  So each face is checked once, in
        one direction, and every map that reaches the leaf is an
        isomorphism.  The proof rests on the facet-size exit: let f be an
        injective vertex map sending every face of K to a face of L, where
        K and L have the same facet-size multiset.  Go through the facet
        sizes from largest to smallest.  A K-facet F of size s goes to a
        face of L of size s.  That face lies in no larger L-facet G: by
        induction G is the image of a larger K-facet H, and injectivity
        would put F inside H.  So f(F) is an L-facet, and as the counts are
        equal, f carries the facets of K onto the facets of L.
        """
        deg_s, deg_o = self.vertex_degrees(), other.vertex_degrees()
        if (len(self.vertices) != len(other.vertices)
                or sorted(map(len, self.facets)) != sorted(map(len, other.facets))
                or sorted(deg_s.values()) != sorted(deg_o.values())):
            return
        mine = sorted(self.vertices, key=lambda v: (deg_s[v], v))
        # faces as bit masks: bit i is mine[i] on this side, other.vertices[j]
        # on the other; a face is filed with the mask of itself minus its
        # last vertex, whose image is already known when the face is checked
        rank = {v: i for i, v in enumerate(mine)}
        filed = [[] for _ in mine]
        for f in self.faces():
            if f:
                mask = sum(1 << rank[v] for v in f)
                top = mask.bit_length() - 1
                filed[top].append((mask, mask ^ (1 << top)))
        bit = {w: 1 << j for j, w in enumerate(other.vertices)}
        faces_o = {sum(map(bit.get, f)) for f in other.faces()}
        targets = [[(w, bit[w]) for w in other.vertices if deg_o[w] == deg_s[v]]
                   for v in mine]
        image, mapping = {0: 0}, {}

        def extend(i, used):
            if i == len(mine):
                yield dict(mapping)
                return
            for w, b in targets[i]:
                if used & b:
                    continue
                for mask, rest in filed[i]:
                    m = image[rest] | b
                    if m not in faces_o:
                        break
                    image[mask] = m
                else:
                    mapping[mine[i]] = w
                    yield from extend(i + 1, used | b)
                    del mapping[mine[i]]

        yield from extend(0, 0)

    def is_isomorphic(self, other):
        return next(self.isomorphisms(other), None) is not None


# -- basic constructions -----------------------------------------------------


def boundary(face):
    face = tuple(sorted(frozenset(face)))
    if not face:
        raise ValueError("the empty face has no boundary complex")
    return SimplicialComplex(map(frozenset, combinations(face, len(face) - 1)))


def join(*complexes):
    out = None
    for comp in complexes:
        if not isinstance(comp, SimplicialComplex):
            comp = SimplicialComplex(comp)
        if out is None:
            out = comp
            continue
        if set(out.vertices) & set(comp.vertices):
            raise ValueError("join requires disjoint vertex sets")
        out = SimplicialComplex({f | g for f in out.facets for g in comp.facets})
    return out


# -- reference complexes and link classification ------------------------------


def ngon(n, labels=None):
    if n < 3:
        raise ValueError("an n-gon needs n >= 3")
    labels = labels or list(range(n))
    return SimplicialComplex(
        [frozenset({labels[i], labels[(i + 1) % n]}) for i in range(n)]
    )


@functools.cache
def suspension_of_ngon(n):
    """Double pyramid over an n-gon; n = 4 is the octahedron."""
    poles = [n, n + 1]
    cyc = ngon(n)
    return join(SimplicialComplex([{poles[0]}, {poles[1]}]), cyc)


@functools.cache
def boundary_simplex(k):
    return boundary(frozenset(range(k + 1)))


@functools.cache
def cyclic_polytope_boundary(n):
    """Boundary of the cyclic polytope C(n, 3): a stacked 2-sphere.

    Built as (chain of n-3 edges) * {two apexes} together with the two
    triangles closing up the ends through the apex edge.
    """
    if n < 5:
        raise ValueError("cyclic polytope boundary needs n >= 5")
    chain = [frozenset({i, i + 1}) for i in range(n - 3)]
    apexes = [n - 2, n - 1]
    facets = [e | {a} for e in chain for a in apexes]
    facets.append(frozenset({0, n - 2, n - 1}))
    facets.append(frozenset({n - 3, n - 2, n - 1}))
    return SimplicialComplex(facets)


class LinkType(namedtuple("LinkType", "tag n", defaults=(None,))):
    __slots__ = ()

    def __str__(self):
        return self.tag if self.n is None else "%s(%d)" % (self.tag, self.n)


TWO_POINTS = LinkType("two_points")
BOUNDARY_TETRAHEDRON = LinkType("boundary_tetrahedron")
SUSP_TRIANGLE = LinkType("susp_triangle")
SUSP_QUADRANGLE = LinkType("susp_quadrangle")
OTHER = LinkType("other")


def classify_link(link):
    """Classify a complex of dimension <= 2 against the small standard types.

    Each candidate with matching vertex count is checked by the exact
    isomorphism search, so the answer is relabeling-invariant by construction.
    """
    d = link.dim()
    nv = len(link.vertices)
    if d == 0:
        if nv == 2:
            return TWO_POINTS
        return OTHER
    if d == 1:
        return LinkType("ngon", nv) if is_sphere(link, 1) else OTHER
    if d == 2:
        if nv == 4 and link.is_isomorphic(boundary_simplex(3)):
            return BOUNDARY_TETRAHEDRON
        if nv == 5 and link.is_isomorphic(suspension_of_ngon(3)):
            return SUSP_TRIANGLE
        if nv == 6 and link.is_isomorphic(suspension_of_ngon(4)):
            return SUSP_QUADRANGLE
        if nv >= 7 and link.is_isomorphic(suspension_of_ngon(nv - 2)):
            return LinkType("susp_ngon", nv - 2)
        if nv >= 6 and link.is_isomorphic(cyclic_polytope_boundary(nv)):
            return LinkType("cyclic_polytope", nv)
        return OTHER
    return OTHER


# -- sphere sanity report ------------------------------------------------------


SphereReport = namedtuple("SphereReport", "ok failures")


@once_per_complex
def is_combinatorial_3sphere_candidate(k):
    """Check the cheap necessary conditions for |K| to be a 3-sphere.

    Pure of dimension 3, every triangle in exactly two facets, Euler
    characteristic 0, and every vertex link a triangulated 2-sphere.
    """
    failures = []
    if k.dim() != 3 or not k.is_pure():
        return SphereReport(False, ("complex is not pure of dimension 3",))
    for t, count in ridge_counts(k).items():
        if count != 2:
            failures.append("triangle %s lies in %d facets" % (sorted(t), count))
    if k.euler_characteristic() != 0:
        failures.append("Euler characteristic %d != 0" % k.euler_characteristic())
    for v in k.vertices:
        if not is_sphere(k.link({v}), 2):
            failures.append("link of vertex %s is not a 2-sphere" % v)
    return SphereReport(not failures, tuple(failures))


def ridge_counts(c):
    """How many facets hold each ridge (facet minus one vertex), in one pass."""
    return Counter(f - {v} for f in c.facets for v in f)


def is_sphere(c, d):
    """Whether c triangulates the d-sphere, for d <= 2.

    The void complex is the (-1)-sphere; otherwise c must be pure of
    dimension d: two points for d = 0, and for d = 1, 2 a connected
    complex whose ridges each lie in two facets, with Euler
    characteristic 2 when d = 2.
    """
    if d == -1:
        return c.facets == frozenset({frozenset()})
    if c.dim() != d or not c.is_pure():
        return False
    if d == 0:
        return len(c.vertices) == 2
    if d > 2:
        raise ValueError("sphere test implemented for dimension <= 2 only")
    return (
        set(ridge_counts(c).values()) == {2}
        and c.is_connected()
        and (d == 1 or c.euler_characteristic() == 2)
    )
