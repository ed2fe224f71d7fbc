"""Toric verification for a crepant resolution of a hyperquotient point.

The fan data lives in a working basis of the ambient lattice N (an integer
refinement of Z^4), and so does every pairing: a monomial is pulled back to
that basis once and paired with the integer rays.  Chart polynomials of the
strict transform, Reid's crepancy criterion, exceptional-component fans and
the intersection complex are all computed with exact integer/rational
arithmetic.  Every 2d fan, whether the closure of a component (methods 1
and 3) or the base of a P1-bundle (method 2), is a `SurfaceFan`: its rays
in counterclockwise order and whether they form a smooth complete fan.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key
from itertools import combinations
from math import gcd

from . import intlinalg as la
from .fan import Fan, SurfaceType, _ray_matrix_columns  # Fan: still srcy.toric.Fan
from .polynomial import Poly, PolyRing
from .simplicial import SimplicialComplex

CHART_RING = PolyRing(["y1", "y2", "y3", "y4"])


# -- fan verification ----------------------------------------------------------


FanReport = namedtuple("FanReport", "ok n_rays n_cones problems")


def verify_smooth_subdivision(fan):
    """Check that the fan's cones form a smooth triangulation of sigma.

    Every ray must lie in sigma and every cone must be simplicial, full
    dimensional and unimodular.  Such cones triangulate sigma exactly
    when three local conditions hold (De Loera, Rambau & Santos,
    *Triangulations*, Springer 2010, ch. 4): every facet lies in two
    cones, or in one cone if it is on the boundary of sigma; the two cones
    at an interior facet lie on opposite sides of it; and an interior
    point is covered exactly once.

    One point decides the last.  Given the facet pairing, crossing an
    interior facet trades one cone for another, so the number of cones
    covering a point is the same everywhere off the walls.  The point is
    the sum of the rays of the lowest-numbered unimodular cone.  In no
    other closed cone, it is off every wall and the count is one; in
    another, that cone overlaps the first one's interior.
    """
    problems = []
    for r in fan.rays:
        if not fan.in_sigma(r):
            problems.append("ray %s lies outside sigma" % (r,))

    problems.extend(cone_problems(fan))
    problems.extend(_facet_pairing_problems(fan))
    problems.extend(_coverage_problems(fan))
    return FanReport(not problems, len(fan.rays), len(fan.cones), problems)


def cone_problems(fan):
    """Why each cone missing from `fan.inverses` is not smooth, in cone order."""
    problems = []
    for c, cone in enumerate(fan.cones):
        if c in fan.inverses:
            continue
        if len(cone) != len(fan.lattice):
            problems.append("cone %d is not simplicial of full dimension" % (c + 1))
        else:
            d = la.det(_ray_matrix_columns(fan.cone_rays(c)))
            problems.append("cone %d has determinant %s, not unimodular" % (c + 1, d))
    return problems


def _facet_pairing_problems(fan):
    problems = []
    cones_at = {}
    for c, cone in enumerate(fan.cones):
        for facet in combinations(sorted(cone), 3):
            cones_at.setdefault(facet, []).append(c)
    for facet, cones in sorted(cones_at.items()):
        count = len(cones)
        rays = [fan.rays[i] for i in facet]
        on_boundary = any(not any(la.mat_vec_int(rays, w)) for w in fan._sigma_functionals)
        if on_boundary and count != 1:
            problems.append("boundary facet %s shared by %d cones" % (facet, count))
        if not on_boundary and count != 2:
            problems.append("interior facet %s shared by %d cones" % (facet, count))
        elif not on_boundary and all(c in fan.inverses for c in cones):
            # the row of a's inverse dual to a's apex is positive on a's side
            a, b = cones
            apex_pos = next(k for k, i in enumerate(fan.cones[a]) if i not in facet)
            row = fan.inverses[a][apex_pos]
            (apex,) = set(fan.cones[b]) - set(facet)
            if sum(x * y for x, y in zip(row, fan.rays[apex])) >= 0:
                problems.append(
                    "cones %d and %d lie on one side of facet %s" % (a + 1, b + 1, facet)
                )
    return problems


def _coverage_problems(fan):
    if not fan.inverses:
        return []
    c = min(fan.inverses)
    point = [sum(xs) for xs in zip(*fan.cone_rays(c))]
    hits = sum(all(x >= 0 for x in la.mat_vec_int(inv, point)) for inv in fan.inverses.values())
    return [] if hits == 1 else ["interior point of cone %d lies in %d cones" % (c + 1, hits)]


# -- charts of the strict transform --------------------------------------------


def all_charts(fan, invariant_monomials):
    """Chart polynomial of the strict transform in every cone, as {cone id: Poly}.

    Each invariant monomial is pulled back once; its pairings with a
    cone's rays are the exponents of its chart monomial, and the monomial
    gcd of their sum is divided out.  Non-integral or negative exponents
    indicate bad input and raise.
    """
    pulled = [(m, fan.pull_back(m)) for m in invariant_monomials]
    one = CHART_RING.one()
    charts = {}
    for c in range(len(fan.cones)):
        rays = fan.cone_rays(c)
        terms = []
        for m, w in pulled:
            exps = la.mat_vec_int(rays, w)
            bad = next((e for e in exps if e.denominator != 1 or e < 0), None)
            if bad is not None:
                raise ValueError("monomial %s has non-integral chart exponent %s in cone %d"
                                 % (m, bad, c + 1))
            terms.append((CHART_RING.monomial(exps), one))
        charts[c] = Poly.dot(CHART_RING, terms).strip_monomial_content()
    return charts


def chart_restriction(fan, charts, cone_id, ray_ids):
    """Chart polynomial with the coordinates of the given rays set to zero."""
    names = [CHART_RING.names[fan.cones[cone_id].index(rid)] for rid in ray_ids]
    return charts[cone_id].truncate_above(names, 1)


def _ray_restrictions(fan, charts, ray_id):
    """[(cone, chart restricted to y_rho = 0)] over the cones holding the ray, in cone order."""
    return [(c, chart_restriction(fan, charts, c, [ray_id])) for c in fan.cones_containing(ray_id)]


def divisor_meets_hypersurface(fan, charts, ray_id):
    """True iff the ray's divisor meets the strict transform: some restriction is non-constant."""
    return any(not fbar.is_constant() for _c, fbar in _ray_restrictions(fan, charts, ray_id))


# -- crepancy -------------------------------------------------------------------


def crepancy_check(fan, f_monomials):
    """Reid's discrepancy criterion per interior ray.

    A ray a is crepant iff a(1,...,1) = min over the defining monomials
    of a(m), plus one.  These monomials are not invariant, so their
    pull-backs may pair to fractions.
    """
    pulled = [fan.pull_back(m) for m in [[1] * len(fan.lattice)] + list(f_monomials)]
    results = {}
    for rid in fan.interior_ray_ids():
        alpha_one, *alpha_f = la.mat_vec_int(pulled, list(fan.rays[rid]))
        results[rid] = alpha_one == min(alpha_f) + 1
    return results


# -- quotient fans: Star and orbit closures -------------------------------------


# Star(tau) projected to the quotient lattice N / span tau: `rays` maps each
# adjacent ray id to its image there, and `cones` holds, per maximal cone
# containing tau, its other ray ids.
StarFan = namedtuple("StarFan", "rays cones")


def star(fan, *ray_ids):
    """Star of the cone tau spanned by `ray_ids`: the maximal cones holding it, in N / span tau."""
    proj = la.quotient_projection([list(fan.rays[r]) for r in ray_ids])
    cones = [
        tuple(i for i in fan.cones[c] if i not in ray_ids)
        for c in fan.cones_containing(*ray_ids)
    ]
    rays = {i: tuple(la.mat_vec_int(proj, list(fan.rays[i]))) for cone in cones for i in cone}
    return StarFan(rays, cones)


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _half_plane(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _counterclockwise(a, b):
    ha, hb = _half_plane(a), _half_plane(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cr = _det2(a, b)
    return 0 if cr == 0 else (-1 if cr > 0 else 1)


class SurfaceFan(namedtuple("SurfaceFan", "rays complete factor_count")):
    """A 2d fan given by its rays, counterclockwise from the positive x-axis.

    `complete` holds when there are at least three rays and every two
    neighbours, the last and the first included, have determinant 1: the
    rays then span a smooth complete fan, whose toric surface has Euler
    number `chi`, the ray count.  `factor_count` is the number of
    conjugate components sharing the fan (method 1).  Build it with
    `from_rays`, which neither deduplicates nor takes primitives.
    """

    __slots__ = ()

    @classmethod
    def from_rays(cls, rays, factor_count=1):
        rays = sorted(rays, key=cmp_to_key(_counterclockwise))
        n = len(rays)
        complete = n >= 3 and all(_det2(rays[i - 1], rays[i]) == 1 for i in range(n))
        return cls(rays, complete, factor_count)

    @property
    def chi(self):
        return len(self.rays)


def method1_component(fan, ray_id, chart, exps):
    """Closure fan of the torus part of the divisor intersection.

    `chart` is a cone holding rho whose restriction, with monomial content
    removed, is a constant plus the single monomial y^exps.  The kernel of
    that monomial's exponent functional embeds a rank-2 lattice into the
    star lattice N/Z rho; the component's fan is the preimage of Star(rho).
    The star cones' dual bases come from the fan's cone inverses: in a cone
    holding rho, the inverse rows of the other rays vanish on rho, so
    through any lift of N/Z rho into N they are the star cone's facet
    functionals.  If the exponent functional is imprimitive with content c,
    the torus part has c conjugate components sharing this fan.
    """
    cones = fan.cones_containing(ray_id)
    for c in cones:
        if c not in fan.inverses:
            raise ValueError("cone %d is not unimodular" % (c + 1))
    # mu = exps^T B^{-1}: row vector with mu . ray_j = exps_j
    mu = [sum(e * row[j] for e, row in zip(exps, fan.inverses[chart])) for j in range(4)]
    uinv = la.unimodular_inverse(la.complete_to_basis(list(fan.rays[ray_id])))
    pushed = [sum(m * row[j] for m, row in zip(mu, uinv)) for j in range(4)]
    if pushed[0] != 0:
        raise RuntimeError("functional does not vanish on the collapsed ray")
    phi = _kernel_columns(pushed[1:])
    # lift = uinv [0; phi] carries the rank-2 lattice into N, 4 x 2
    lift = [[sum(row[k + 1] * phi[k][j] for k in range(3)) for j in range(2)] for row in uinv]
    rays = set()
    for c in cones:
        g = [
            [sum(x * col[j] for x, col in zip(row, lift)) for j in range(2)]
            for i, row in zip(fan.cones[c], fan.inverses[c])
            if i != ray_id
        ]
        rays.update(_preimage_cone_rays(g))
    surface = SurfaceFan.from_rays(rays, gcd(*exps))
    if not surface.complete:
        raise ValueError("rays %s do not form a smooth complete fan" % (surface.rays,))
    return surface


def _torus_binomial(torus):
    """Exponent e when the content-free restriction `torus` is a + b y^e, else None."""
    terms = [e for e, _co in torus.items()]
    nonconst = [e for e in terms if any(e)]
    return nonconst[0] if len(terms) == 2 and len(nonconst) == 1 else None


def _kernel_columns(functional):
    basis = la.kernel_basis_of_functional(functional)
    return [[basis[j][i] for j in range(2)] for i in range(3)]  # 3 x 2


def _preimage_cone_rays(g):
    """Extreme rays of the plane cone {x : g x >= 0}, for g of rank 2.

    The cone is pointed, so each boundary line it meets away from the
    origin carries one of its extreme rays.
    """
    rays = set()
    for a, b in g:
        if (a, b) == (0, 0):
            continue
        for d in ((-b, a), (b, -a)):
            if all(p * d[0] + q * d[1] >= 0 for p, q in g):
                rays.add(la.primitive(d))
    return rays


def orbit_closure_component(fan, ray_id1, ray_id2):
    """Fan of the orbit closure of a 2-cone: the primitive rays of its `star`.

    For a 2-cone on the subdivided cone's boundary the projected fan only
    covers the quotient image of that cone; the result is then flagged as
    incomplete and its ray count is not an Euler characteristic.
    """
    if not fan.cones_containing(ray_id1, ray_id2):
        raise ValueError("rays %d, %d do not span a cone of the fan" % (ray_id1, ray_id2))
    rays = set(star(fan, ray_id1, ray_id2).rays.values())
    return SurfaceFan.from_rays([la.primitive(r) for r in rays])


# -- smooth complete toric surfaces ---------------------------------------------


def classify_toric_surface(rays):
    """Tag a smooth complete 2d fan as P2, F_n or an iterated blow-up.

    Searches every blow-down order; if the projective plane is reachable
    the tag is Bl_k P2, otherwise Bl_k F_n with the smallest reachable n.
    On a smooth complete fan v_(i-1) + v_(i+1) = a_i v_i (Fulton,
    *Introduction to Toric Varieties*, 1993, 2.5), so with neighbours of
    determinant 1, a_i = det(v_(i-1), v_(i+1)).  Dropping a ray with
    a_i = 1 leaves a smooth complete fan, so every state reached stays one.
    """
    surface = SurfaceFan.from_rays(rays)
    if not surface.complete:
        raise ValueError("rays %s do not form a smooth complete fan" % (surface.rays,))
    terminals = set()
    seen = set()

    def explore(state):
        if state in seen:
            return
        seen.add(state)
        n = len(state)
        coeffs = [_det2(state[i - 1], state[(i + 1) % n]) for i in range(n)]
        if n == 3:
            if coeffs != [-1, -1, -1]:
                raise ValueError("three-ray fan with unexpected intersections %s" % coeffs)
            terminals.add(("P2", 0))
            return
        if n == 4 and 1 not in coeffs:
            top = max(coeffs)
            if sorted(coeffs) != sorted([0, top, 0, -top]):
                raise ValueError("four-ray fan with unexpected intersections %s" % coeffs)
            terminals.add(("F", top))
            return
        blew = False
        for i, a in enumerate(coeffs):
            if a == 1:
                blew = True
                explore(tuple(state[:i] + state[i + 1:]))
        if not blew:
            raise ValueError("no exceptional ray on a fan with %d rays" % n)

    explore(tuple(surface.rays))
    k = surface.chi
    if ("P2", 0) in terminals:
        return SurfaceType("P2", blowups=k - 3)
    return SurfaceType("F", n=min(t[1] for t in terminals), blowups=k - 4)


# -- P1-bundle recognition (method 2) -------------------------------------------


def pbundle_structure(fan, ray_id):
    """Base fan of a locally trivial P1-bundle structure on Star(rho), or None.

    Looks for a direction e with both e and -e among the star's rays such
    that every maximal cone contains exactly one of them and projects to a
    maximal cone of a smooth complete 2d base fan.  Classification of the
    divisor intersection itself is left to the caller.
    """
    st = star(fan, ray_id)
    values = set(st.rays.values())
    for e in sorted(values):
        if tuple(-x for x in e) in values:
            base = _bundle_base(st, e)
            if base is not None:
                return base
    return None


def _bundle_base(st, e):
    """The star projected along e, if each cone splits into a fiber ray and a base cone."""
    proj = la.quotient_projection([list(e)])
    pair = {e, tuple(-x for x in e)}
    cones = []
    for cone in st.cones:
        vals = [st.rays[i] for i in cone]
        basev = [la.primitive(la.mat_vec_int(proj, list(v))) for v in vals if v not in pair]
        if len(vals) != 3 or len(basev) != 2:
            return None
        cones.append(frozenset(basev))
    base = SurfaceFan.from_rays(set().union(*cones))
    n = base.chi
    expected = {frozenset((base.rays[i - 1], base.rays[i])) for i in range(n)}
    if base.complete and set(cones) == expected and len(cones) == 2 * n:
        return base
    return None


# -- polytopes and normal fans (method 4) ----------------------------------------


def hull_facets(points):
    """Facets of a full-dimensional 3d lattice polytope.

    Returns (outer normal, offset, incident point indices) triples with
    primitive integer normals; brute force over point triples.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    facets = {}
    for i, j, k in combinations(range(len(pts)), 3):
        a = tuple(pts[j][t] - pts[i][t] for t in range(3))
        b = tuple(pts[k][t] - pts[i][t] for t in range(3))
        n = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        if n == (0, 0, 0):
            continue
        n = la.primitive(n)
        off = sum(n[t] * pts[i][t] for t in range(3))
        sides = [sum(n[t] * p[t] for t in range(3)) - off for p in pts]
        if all(s <= 0 for s in sides):
            key = (n, off)
        elif all(s >= 0 for s in sides):
            n = tuple(-x for x in n)
            off = -off
            sides = [-s for s in sides]
            key = (n, off)
        else:
            continue
        facets[key] = frozenset(t for t, s in enumerate(sides) if s == 0)
    if len(facets) < 4:  # a flat set has at most its two sides
        raise ValueError("points do not span 3-space")
    return [(n, off, inc) for (n, off), inc in sorted(facets.items())]


def normal_fan(points):
    """Outer normal fan of a 3d polytope, as (rays, maximal cones)."""
    facets = hull_facets(points)
    normals = [f[0] for f in facets]
    cones = []
    for v in range(len(points)):
        incident = [i for i, f in enumerate(facets) if v in f[2]]
        if len(incident) >= 3:
            cones.append(tuple(sorted(incident)))
    return normals, cones


def lattice_points_in_polytope(points):
    facets = hull_facets(points)
    lo = [min(p[i] for p in points) for i in range(3)]
    hi = [max(p[i] for p in points) for i in range(3)]
    count = []
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            for z in range(lo[2], hi[2] + 1):
                if all(
                    n[0] * x + n[1] * y + n[2] * z <= off for n, off, _ in facets
                ):
                    count.append((x, y, z))
    return count


def fans_isomorphic_3d(rays_a, cones_a, rays_b, cones_b):
    """GL_3(Z)-equivalence of two complete simplicial 3d fans.

    Every isomorphism of the cone complexes fixes the linear map that
    sends the rays of the first fan's first cone to their images; the fans
    are equivalent when one such map is integral, has determinant +-1 and
    carries every ray exactly to its image.
    """
    if len(rays_a) != len(rays_b) or len(cones_a) != len(cones_b):
        return False
    base = tuple(cones_a[0])
    if len(base) != 3:
        return False
    inv_a = la.inverse(_ray_matrix_columns([rays_a[i] for i in base]))
    for m in SimplicialComplex(cones_a).isomorphisms(SimplicialComplex(cones_b)):
        u = la.mat_int_mul(_ray_matrix_columns([rays_b[m[i]] for i in base]), inv_a)
        if any(x.denominator != 1 for row in u for x in row):
            continue
        u = [[int(x) for x in row] for row in u]
        if abs(la.det(u)) == 1 and all(
            i in m and tuple(la.mat_vec_int(u, list(r))) == tuple(rays_b[m[i]])
            for i, r in enumerate(rays_a)
        ):
            return True
    return False


def method4_normal_fan_check(fan, ray_id, polytope_points):
    """Verify Star(rho) is the outer normal fan of the given polytope."""
    st = star(fan, ray_id)
    st_rays = sorted(set(st.rays.values()))
    ray_pos = {r: i for i, r in enumerate(st_rays)}
    st_cones = [tuple(sorted(ray_pos[st.rays[i]] for i in cone)) for cone in st.cones]
    nf_rays, nf_cones = normal_fan(polytope_points)
    return fans_isomorphic_3d(nf_rays, nf_cones, st_rays, st_cones)


# -- exceptional components and the intersection complex -------------------------


class Component(namedtuple("Component", "label kind ray_ids factor_index closure chi",
                           defaults=(0, None, None))):
    """An exceptional component, as derived from the chart data.

    `kind` is 'divisor', 'orbit_pair' or 'torus_factor'; `closure` is the
    torus (method 1) or orbit (method 3) closure SurfaceFan, or None where
    none was derived.  A derived component has an empty `label` and no
    `chi`; `match_component_table` returns copies with both set from the
    table row.
    """

    __slots__ = ()

    @property
    def chi_provenance(self):
        return "derived" if self.closure is not None else "ingested"


ComponentStructure = namedtuple(
    "ComponentStructure", "components meeting_rays factor_disjointness_certified")


def derive_component_structure(fan, charts):
    """Split the exceptional locus into components from the chart data.

    One pass over the interior rays, each with its restrictions formed
    once.  For a ray meeting the strict transform, monomial factors of the
    restrictions identify orbit-closure components on 2-cones, and the
    content-free parts show the torus-dominant part.  The charts where that
    part is a binomial a + b y^e, in cone order, decide the rest: when every
    torus chart is binomial, the common content of e is the number of
    conjugate factors (certified disjoint), and the first binomial chart
    is method 1's input.  Each closure fan is computed once: method 1 on a
    ray with a binomial chart (shared by conjugate factors; None where
    method 1 fails or no chart is binomial), method 3 on an orbit pair.
    """
    components = []
    meeting = []
    seen_pairs = set()
    certified = True
    for rid in fan.interior_ray_ids():
        restrictions = _ray_restrictions(fan, charts, rid)
        if all(fbar.is_constant() for _c, fbar in restrictions):
            continue
        meeting.append(rid)
        partners = set()
        torus = []  # (cone, binomial exponent or None) where the torus part shows
        for c, fbar in restrictions:
            cone = fan.cones[c]
            partners.update(cone[i] for i, e in enumerate(fbar.content_exponents()) if e > 0)
            h = fbar.strip_monomial_content()
            if not h.is_constant():
                torus.append((c, _torus_binomial(h)))
        binomials = [(c, exps) for c, exps in torus if exps is not None]
        if len({gcd(*exps) for _c, exps in binomials}) > 1:
            raise ValueError("inconsistent factor content across charts")
        if torus:
            factor_count = gcd(*binomials[0][1]) if binomials else 1
            count = factor_count if len(binomials) == len(torus) else 1
            if count != factor_count:
                certified = False
            closure = None
            if binomials:
                try:
                    closure = method1_component(fan, rid, *binomials[0])
                except ValueError:
                    pass
            kind = "torus_factor" if count > 1 else "divisor"
            components += [Component("", kind, (rid,), k, closure) for k in range(count)]
        for p in sorted(partners):
            pair = tuple(sorted((rid, p)))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                closure = orbit_closure_component(fan, *pair)
                components.append(Component("", "orbit_pair", pair, closure=closure))
    return ComponentStructure(components, meeting, certified)


def match_component_table(fan, structure, rows):
    """Align ingested table rows with the derived component structure.

    Rows are (label, ray, type tag, chi).  Divisor and torus-factor rows
    match their ray; an orbit-pair row matches the pair containing its ray
    (pairs of two interior rays before mixed pairs, which is enough to
    separate the fixtures' rows sharing a ray).  A candidate with a closure
    fan matches only a row whose chi is that fan's ray count, and one with
    an incomplete orbit closure raises.  Returns the matched components in
    row order, each a copy labelled with its row's label and chi;
    `structure` is left as it is.
    """
    interior = set(fan.interior_ray_ids())
    components = structure.components
    taken = set()
    out = []
    for label, ray, _tag, chi in rows:
        if tuple(ray) not in fan.rays:
            raise ValueError("row %s: %s is not a ray of the fan" % (label, ",".join(map(str, ray))))
        ray_id = fan.ray_index(ray)
        candidates = [i for i, comp in enumerate(components)
                      if i not in taken and ray_id in comp.ray_ids]
        # prefer single-ray components, then pairs of interior rays
        def pref(i):
            comp = components[i]
            both_interior = all(r in interior for r in comp.ray_ids)
            return (len(comp.ray_ids), 0 if both_interior else 1, comp.factor_index)

        candidates.sort(key=pref)
        for i in candidates:
            comp = components[i]
            if comp.closure is not None:
                if not comp.closure.complete:
                    raise ValueError("orbit closure of %s is not complete" % (comp.ray_ids,))
                if comp.closure.chi != chi:
                    continue
            break
        else:
            raise ValueError("no derived component matches table row %s" % label)
        taken.add(i)
        out.append(comp._replace(label=label, chi=chi))
    if len(taken) != len(components):
        raise ValueError("component table does not cover the derived structure")
    return out


def components_intersect(fan, charts, comps):
    """Whether the given exceptional components have a common point.

    Works chart by chart: a restriction that is identically zero or
    non-constant witnesses a common point; a nonzero constant rules the
    chart out.  Conjugate torus factors on one ray are handled through
    the content-free polynomial, which covers both factors at once, and
    two distinct factors on the same ray are disjoint.
    """
    factors = [c for c in comps if c.kind == "torus_factor"]
    if len({(c.ray_ids, c.factor_index) for c in comps}) != len(comps):
        raise ValueError("repeated component")
    if len(factors) >= 2:
        rays = {c.ray_ids[0] for c in factors}
        if len(rays) == 1:
            return False  # distinct conjugate factors never meet
        raise NotImplementedError("torus factors on distinct rays")
    needed = sorted({rid for c in comps for rid in c.ray_ids})
    rho = factors[0].ray_ids[0] if factors else None
    for c in fan.cones_containing(*needed):
        p = charts[c]
        if factors:
            p = chart_restriction(fan, charts, c, [rho]).strip_monomial_content()
        cone = fan.cones[c]
        p = p.truncate_above([CHART_RING.names[cone.index(rid)] for rid in needed if rid != rho], 1)
        if p.is_zero() or not p.is_constant():
            return True
    return False


def intersection_complex(fan, charts, components):
    """Nerve of the exceptional components, up to triple intersections.

    Components are numbered from 1 in list order.  A pair or triple is a
    face when all of its smaller subsets are faces and its components meet.
    """
    faces = {frozenset([i]) for i in range(1, len(components) + 1)}
    for size in (2, 3):
        for ids in combinations(range(1, len(components) + 1), size):
            if all(frozenset(sub) in faces for sub in combinations(ids, size - 1)) and \
                    components_intersect(fan, charts, [components[i - 1] for i in ids]):
                faces.add(frozenset(ids))
    return SimplicialComplex.from_faces(faces)


def euler_exceptional(chis, complex_):
    """Inclusion-exclusion: triple points count once, double curves are P1s."""
    if any(c is None for c in chis):
        raise ValueError("missing component Euler characteristic")
    n_edges = len(complex_.faces_of_dim(1))
    n_triangles = len(complex_.faces_of_dim(2))
    return sum(chis) - 2 * n_edges + n_triangles


def mirror_euler(
    chi_smooth,
    n_sing,
    milnor,
    group_order,
    n_fixed,
    chi_exceptional,
    n_exceptional_points,
    mckay,
    n_mckay_points,
):
    """Euler characteristic of the resolved quotient.

    The singular fiber's chi is the smooth fiber's plus one Milnor number
    per singular point; the free part divides by the group order, and each
    resolved fixed point contributes its exceptional fiber.
    """
    numerator = chi_smooth + n_sing * milnor - n_fixed
    if numerator % group_order != 0:
        raise ValueError(
            "chi(U) is not integral: (%d)/%d" % (numerator, group_order)
        )
    chi_u = numerator // group_order
    return chi_u + n_exceptional_points * chi_exceptional + n_mckay_points * mckay
