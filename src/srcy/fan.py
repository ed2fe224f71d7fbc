"""The toric pipeline's input types: a fan in a working basis, and a surface tag.

`Fan` is the subdivision that `toric` verifies and computes on, and
`SurfaceType` names a smooth complete toric surface (P2, F_n or a blow-up
of either), as a component table records it.  Both only check their own
data, so the file readers in `fileio` build them without loading `toric`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from . import intlinalg as la


class Fan:
    """Maximal cones of a fan, in a working basis of the lattice N.

    `lattice` is the square `Fraction` matrix L whose columns are the
    working-basis vectors in ambient coordinates.  Rays stay in the working
    basis: a monomial m pairs with a ray r as <m, L r> = <L^T m, r>, so
    `pull_back` turns m into L^T m once and every pairing is then taken
    with the integer rays.  `inverses` maps each simplicial,
    full-dimensional, unimodular cone to the integer inverse of its ray
    matrix, whose rows are the cone's facet functionals; the other cones
    are left for `verify_smooth_subdivision` to report.  `index` is
    |det sigma|, the index in N of the lattice that sigma's rays span.
    """

    def __init__(self, lattice, rays, cones, sigma):
        self.lattice = [[Fraction(x) for x in row] for row in lattice]
        if la.det(self.lattice) == 0:
            raise ValueError("lattice basis matrix is singular")
        self.rays = [tuple(int(x) for x in r) for r in rays]
        for r in self.rays:
            if la.primitive(r) != r:
                raise ValueError("fan ray %s is not primitive" % (r,))
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("repeated ray")
        self.cones = [tuple(c) for c in cones]
        self.sigma = tuple(sigma)  # ray indices spanning the subdivided cone
        self._ray_pos = {r: i for i, r in enumerate(self.rays)}
        # sigma's facet functionals: the rows of |det sigma| sigma^-1, integers
        # scaled by a positive factor, which keeps every sign and zero
        sig = _ray_matrix_columns([self.rays[i] for i in self.sigma])
        self.index = abs(int(la.det(sig)))
        self._sigma_functionals = [[int(x * self.index) for x in row] for row in la.inverse(sig)]
        self.inverses = {}
        for c in range(len(self.cones)):
            cols = _ray_matrix_columns(self.cone_rays(c))
            try:
                self.inverses[c] = la.unimodular_inverse(cols)
            except ValueError:
                pass  # not square, or not unimodular

    def ray_index(self, ray):
        return self._ray_pos[tuple(ray)]

    def cone_rays(self, cone_id):
        return [self.rays[i] for i in self.cones[cone_id]]

    def cones_containing(self, *ray_ids):
        want = set(ray_ids)
        return [c for c in range(len(self.cones)) if want <= set(self.cones[c])]

    def interior_ray_ids(self):
        return [i for i in range(len(self.rays)) if i not in self.sigma]

    def in_sigma(self, vec):
        coords = la.mat_vec_int(self._sigma_functionals, list(vec))
        return all(c >= 0 for c in coords)

    def pull_back(self, monomial):
        """L^T m, with integral entries as ints: an invariant monomial pairs as ints."""
        w = la.mat_vec_int(list(zip(*self.lattice)), list(monomial))
        return [int(x) if x.denominator == 1 else x for x in w]


def _ray_matrix_columns(rays):
    n = len(rays[0])
    return [[rays[j][i] for j in range(len(rays))] for i in range(n)]


# P2, F<n> or Bl<k>P2, Bl<k>F<n>, in ASCII digits without leading zeros
_SURFACE_TAG = re.compile(r"(?:Bl(?P<k>[1-9][0-9]*))?(?:P2|F(?P<n>0|[1-9][0-9]*))")


class SurfaceType(namedtuple("SurfaceType", "base n blowups", defaults=(0, 0))):
    """`base` is 'P2' or 'F' (F_n), blown up `blowups` times."""

    __slots__ = ()

    def __str__(self):
        return ("Bl%d" % self.blowups if self.blowups else "") + (
            "P2" if self.base == "P2" else "F%d" % self.n)

    @classmethod
    def parse(cls, text):
        """Read a canonical tag, one that `str` gives back unchanged (k >= 1)."""
        m = _SURFACE_TAG.fullmatch(text)
        if m is None:
            raise ValueError("unrecognized surface tag %r" % text)
        return cls("P2" if m["n"] is None else "F", n=int(m["n"] or 0), blowups=int(m["k"] or 0))

    def chi(self):
        return (3 if self.base == "P2" else 4) + self.blowups
