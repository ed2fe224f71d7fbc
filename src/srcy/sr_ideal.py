"""Stanley-Reisner ideal data: minimal non-faces, degree, Hilbert numerator."""

from __future__ import annotations

from collections import namedtuple

from .polynomial import Poly, PolyRing
from .simplicial import bits, face_set, labels_of, once_per_complex


# Square-free generators (vertex subsets) of a Stanley-Reisner ideal:
# `generators` is a sorted tuple of sorted vertex tuples.
MonomialIdealPresentation = namedtuple("MonomialIdealPresentation", "generators vertices")


@once_per_complex
def minimal_nonfaces(k):
    """Inclusion-minimal subsets of the vertex set that are not faces: each
    subset, as a vertex mask, that is not a face while dropping any one of
    its vertices gives a face, as faces are closed under taking subsets."""
    faces = face_set(k)
    found = [s for s in range(1, 1 << len(k.vertices))
             if s not in faces and all(s ^ v in faces for v in bits(s))]
    gens = tuple(sorted(tuple(labels_of(k, g)) for g in found))
    return MonomialIdealPresentation(gens, k.vertices)


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
