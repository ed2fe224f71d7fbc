"""Simplicial complexes on small labeled vertex sets.

A complex is stored by its facets (inclusion-maximal faces); each object
derived from it is computed once by `once_per_complex`, kept with the
complex and shared by its callers, so it is immutable.  Vertices keep
their external integer labels, so facet lists round-trip byte-for-byte
through the triangulation file format; the kernels work on vertex masks,
bit i standing for vertices[i].
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from itertools import combinations
from operator import or_
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
        return frozenset(frozenset(labels_of(self, m)) for m in face_set(self))

    def dim(self):
        return max(len(f) for f in self.facets) - 1

    def is_pure(self):
        d = self.dim()
        return all(len(f) == d + 1 for f in self.facets)

    def faces_of_dim(self, d):
        return [f for f in self.faces() if len(f) == d + 1]

    def f_vector(self):
        """Face counts (f_-1, f_0, ..., f_d); f_-1 = 1 counts the empty face."""
        counts = Counter(m.bit_count() for m in face_set(self))
        return tuple(counts[k] for k in range(self.dim() + 2))

    @once_per_complex
    def vertex_degrees(self):
        """Number of edges at each vertex, as a read-only mapping."""
        masks = facet_masks(self)
        return MappingProxyType({v: _union(m for m in masks if m >> i & 1).bit_count() - 1
                                 for i, v in enumerate(self.vertices)})

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

        Backtracking over degree-compatible maps in the order `mine`: a
        partial map is kept only if each face filed under its last vertex
        goes to a face of other (`search_tables`).  Each map reaching the leaf
        is an isomorphism, by the facet-size exit: let f be injective and send
        every face of K to a face of L, with the same facet-size multiset.
        From the largest size down, a K-facet F goes to a face f(F) of L of
        its size, in no larger L-facet G: by induction G = f(H) for a larger
        K-facet H, and injectivity would put F inside H.  So f(F) is an
        L-facet, and as the counts are equal, f maps facets onto facets.
        """
        tables = search_tables(self, other)
        if tables is not None:
            mine, filed, faces_o, targets = tables
            chosen = list(mine)
            for _ in extensions(filed, faces_o, targets, 0, 0, {0: 0}, chosen):
                yield dict(zip(mine, chosen))


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


# -- sphere sanity report ------------------------------------------------------


SphereReport = namedtuple("SphereReport", "ok failures")


@once_per_complex
def is_combinatorial_3sphere_candidate(k):
    """Check the cheap necessary conditions for |K| to be a 3-sphere: pure of
    dimension 3, every triangle in exactly two facets, Euler characteristic
    0, and every vertex link, the masks g ^ v of the facets g holding v, a
    2-sphere.  The edges are half the links' vertex counts summed."""
    masks = facet_masks(k)
    if {m.bit_count() for m in masks} != {4}:
        return SphereReport(False, ("complex is not pure of dimension 3",))
    counts = _ridge_masks(masks)
    failures = ["triangle %s lies in %d facets" % (labels_of(k, t), n)
                for t, n in counts.items() if n != 2]
    links = [[m ^ v for m in masks if m & v] for v in bits((1 << len(k.vertices)) - 1)]
    edges = sum(_union(link).bit_count() for link in links) // 2
    chi = len(k.vertices) - edges + len(counts) - len(masks)
    if chi != 0:
        failures.append("Euler characteristic %d != 0" % chi)
    failures += ["link of vertex %s is not a 2-sphere" % v
                 for v, link in zip(k.vertices, links) if not _is_sphere(link, 2)]
    return SphereReport(not failures, tuple(failures))


# -- vertex-bitmask kernels ----------------------------------------------------


@once_per_complex
def facet_masks(k):
    bit = {v: 1 << i for i, v in enumerate(k.vertices)}
    return tuple(sum(map(bit.get, f)) for f in k.facets)


@once_per_complex
def face_set(k):
    """Every face of k as a mask, the empty face 0 included."""
    return frozenset(s for m in facet_masks(k) for s in submasks(m))


def submasks(mask):
    """Every submask of the mask, from the mask itself down to 0."""
    s = mask
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & mask


def labels_of(k, mask):
    """The sorted vertices of k in the mask."""
    return [v for i, v in enumerate(k.vertices) if mask >> i & 1]


def bits(mask):
    """The one-bit masks of the mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _union(masks):
    return functools.reduce(or_, masks, 0)


def _ridge_masks(masks):
    """How many facets hold each ridge (facet minus one vertex), in one pass."""
    return Counter(m ^ v for m in masks for v in bits(m))


def _connected(masks):
    """Whether the facets hang together through shared vertices."""
    reached, grown = 0, next(iter(masks))
    while grown != reached:
        reached, grown = grown, _union(m for m in masks if m & grown)
    return reached == _union(masks)


def _surface(masks, d):
    """(rim, Euler characteristic) of a connected complex, pure of dimension
    d = 1 or 2, whose ridges lie in at most two facets and, for d = 2, whose
    vertex links are connected; the rim lists the ridges in one facet.  None
    for any other complex.  The edges of a pure 2-complex are its ridges, and
    the vertices of a pure 1-complex are.  The link test makes it a surface:
    without it, two spheres glued at two points would pass as one sphere."""
    if {m.bit_count() for m in masks} != {d + 1}:
        return None
    if d > 2:
        raise ValueError("sphere and ball tests implemented for dimension <= 2 only")
    counts = _ridge_masks(masks)
    if max(counts.values()) > 2 or not _connected(masks):
        return None
    if d == 2 and not all(_connected([m ^ v for m in masks if m & v]) for v in bits(_union(masks))):
        return None
    chi = len(masks) - len(counts)
    chi = chi + _union(masks).bit_count() if d == 2 else -chi
    return [r for r, n in counts.items() if n == 1], chi


def _is_sphere(masks, d):
    """Whether the facet masks triangulate the d-sphere, for d <= 2: the void
    complex for d = -1, two points for d = 0, and for d = 1, 2 a `_surface`
    whose ridges each lie in two facets, with Euler characteristic 2 when
    d = 2."""
    if d < 1:
        return set(masks) == {0} if d == -1 else sorted(map(int.bit_count, masks)) == [1, 1]
    return _surface(masks, d) == ([], 1 + (-1) ** d)


def ball_rim(masks, d):
    """The rim's ridge masks when the facet masks triangulate the d-ball, d <= 2,
    else None: one point, with the void rim, for d = 0, and for d = 1, 2 a
    `_surface` with Euler characteristic 1 and a (d-1)-sphere as its rim."""
    if d == 0:
        return [0] if len(masks) == 1 == _union(masks).bit_count() else None
    found = _surface(masks, d)
    return found[0] if found and found[1] == 1 and _is_sphere(found[0], d - 1) else None


# -- the isomorphism search ----------------------------------------------------


def search_tables(k, other):
    """(mine, filed, faces_o, targets) for the search from k to other, or None
    when the vertex, facet-size or degree counts differ.  `mine` orders k's
    vertices by degree; a face of k, a mask with bit i for mine[i], is filed
    at its top bit i as (face, face less mine[i]).  `faces_o` is other's
    `face_set`; targets[i] holds other's (vertex, bit) of mine[i]'s degree."""
    deg_s, deg_o = k.vertex_degrees(), other.vertex_degrees()
    if (len(k.vertices) != len(other.vertices)
            or sorted(map(len, k.facets)) != sorted(map(len, other.facets))
            or sorted(deg_s.values()) != sorted(deg_o.values())):
        return None
    mine = sorted(k.vertices, key=lambda v: (deg_s[v], v))
    rank = [1 << mine.index(v) for v in k.vertices]
    filed = [[] for _ in mine]
    for face in face_set(k) - {0}:
        mask = sum(r for i, r in enumerate(rank) if face >> i & 1)
        filed[mask.bit_length() - 1].append((mask, mask & ~(1 << (mask.bit_length() - 1))))
    targets = [[(w, 1 << j) for j, w in enumerate(other.vertices) if deg_o[w] == deg_s[v]]
               for v in mine]
    return mine, filed, face_set(other), targets


def extensions(filed, faces_o, targets, i, used, image, chosen):
    """Extend a map of mine[:i] level by level, yielding once per isomorphism:
    `used` holds the images' bits, `image` the image of each face filed below
    level i, and chosen[j] gets mine[j]'s image.  Mapping mine[i] to w keeps
    the map only if each face filed at level i goes to a face."""
    if i == len(targets):
        yield chosen
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
            chosen[i] = w
            yield from extensions(filed, faces_o, targets, i + 1, used | b, image, chosen)
