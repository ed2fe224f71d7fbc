"""Stanley-Reisner ideal data: minimal non-faces, degree, Hilbert numerator."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .polynomial import Poly, PolyRing
from .simplicial import once_per_complex


# Square-free generators (vertex subsets) of a Stanley-Reisner ideal:
# `generators` is a sorted tuple of sorted vertex tuples.
MonomialIdealPresentation = namedtuple("MonomialIdealPresentation", "generators vertices")


@once_per_complex
def minimal_nonfaces(k):
    """Inclusion-minimal subsets of the vertex set that are not faces.

    Searches subsets by increasing size, pruning supersets of non-faces
    already found, so minimality holds by construction.
    """
    found = []
    verts = k.vertices
    for size in range(1, len(verts) + 1):
        for sub in combinations(verts, size):
            s = frozenset(sub)
            if any(g <= s for g in found):
                continue
            if not k.has_face(s):
                found.append(s)
    gens = tuple(sorted(tuple(sorted(g)) for g in found))
    return MonomialIdealPresentation(gens, verts)


def degree(k):
    """Facet count; for these ideals this is the degree of Proj."""
    if not k.is_pure():
        raise ValueError("degree is defined for pure complexes only")
    return len(k.facets)


def hilbert_numerator(k):
    """Numerator of the Hilbert series over the (1-t)^d denominator.

    sum_{i=-1}^{d-1} (1-t)^(d-i-1) f_i t^(i+1), where d = dim K + 1, in
    one `Poly.dot`.  Evaluating at t = 1 recovers the facet count.
    """
    ring = PolyRing(["t"])
    one_minus_t = ring.one() - ring.var("t")
    fv = k.f_vector()
    d = k.dim() + 1
    return Poly.dot(ring, [(one_minus_t ** (d - i - 1), ring.monomial((i + 1,), fv[i + 1]))
                           for i in range(-1, d)])


def sr_report(k):
    pres = minimal_nonfaces(k)
    num = hilbert_numerator(k)
    coeffs = [0] * (num.total_degree() + 1)
    for e, c in num.items():
        coeffs[e[0]] = int(c)
    return {
        "generators": [[str(v) for v in g] for g in pres.generators],
        "degree": degree(k),
        "hilbert_numerator": coeffs,
    }
