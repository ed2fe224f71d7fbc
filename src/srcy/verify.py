"""End-to-end verification of every recomputable number in the pipeline.

The expected values are the recorded constants of the underlying
construction: facet counts and degrees, deformation dimensions, group
orders, orbit data, generator polynomials, torus characters, the fan and
component bookkeeping, the cohomology chase, and the final Euler number
120.  Each check carries a provenance note distinguishing recomputed
facts from ingested ones.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import fixtures
from .cohomology import h_twist, hodge_pipeline_ci
from .deformation import (
    first_order_family,
    generator_monomial,
    t1_degree_zero_basis,
    t1_link_table_crosscheck,
)
from .families import check_first_order_lift
from .fileio import InputError, geometry_and_params
from .intlinalg import det
from .pfaffian import (
    SkewPolyMatrix,
    SyzygySignError,
    check_quasihomogeneous,
    first_order_pfaffians,
    milnor_quasihomogeneous,
    pfaffian,
    principal_pfaffians,
    quasi_weights,
)
from .polynomial import PolyRing
from .report import VerificationReport
from .simplicial import is_combinatorial_3sphere_candidate
from .sr_ideal import degree, hilbert_numerator, minimal_nonfaces
from .symmetry import automorphism_group, invariant_specialize, orbit_index_of, orbits_on_t1
from .torusgroup import FiniteAbelianGroup, diagonal_stabilizer, verify_character
from .toric import (
    all_charts,
    classify_toric_surface,
    crepancy_check,
    derive_component_structure,
    euler_exceptional,
    intersection_complex,
    lattice_points_in_polytope,
    match_component_table,
    method4_normal_fan_check,
    mirror_euler,
    pbundle_structure,
    verify_smooth_subdivision,
)

DEGREES = {"delta4": 5, "p7_1": 11, "p7_2": 12, "p7_3": 12, "p7_4": 13, "p7_5": 14}
T1_DIMS = {"delta4": 105, "p7_1": 92, "p7_2": 79, "p7_3": 79, "p7_4": 67, "p7_5": 56}
AUT_ORDERS = {"delta4": 120, "p7_2": 8, "p7_3": 48, "p7_4": 8, "p7_5": 14}
ORBIT_COUNTS = {"delta4": 5, "p7_2": 22, "p7_3": 10, "p7_4": 20, "p7_5": 5}
SECTIONS = ("sr", "t1", "aut", "orbits", "pfaffian", "torus", "toric", "cohom", "milnor")

# Non-meeting interior rays of the subdivision (working-basis coordinates).
NON_MEETING_RAYS = [(3, 0, 0, -1), (5, -1, 0, -2), (8, -3, -1, -3), (11, -4, -2, -4)]

EXPECTED_FACETS_12 = [
    (1, 2, 7), (2, 7, 8), (3, 8, 11), (4, 10, 11), (4, 10, 12), (5, 7, 9),
    (5, 7, 10), (5, 10, 12), (6, 7, 9), (6, 7, 10), (6, 10, 12), (7, 8, 9),
    (7, 8, 10), (8, 10, 11),
]

# weights of the quasi-homogeneous germ w^2 + x^3 + y^5 + y*z^2, whose
# Milnor number each singular point of the degree-13 fiber adds to chi
MILNOR_WEIGHTS = quasi_weights(
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 5)], ["w", "x", "y", "z"])

# chi of the smooth degree-13 fiber, from its recorded Hodge numbers
# h11 = 1, h12 = 61 (a constant of the construction, not re-derived here).
CHI_SMOOTH_DEGREE13 = -120


def run_all(base=None, only=None):
    """The report of the chosen sections; a bad fixture raises InputError."""
    report = VerificationReport()
    sections = set(only) if only else set(SECTIONS)
    unknown = sections - set(SECTIONS)
    if unknown:
        raise ValueError("unknown sections: %s" % sorted(unknown))
    fx = fixtures.FixtureSet(base)
    for name in fixtures.TRIANGULATIONS:  # a bad triangulation exits 2 whatever runs
        fx("triangulation", name)
    runners = (
        ("sr", _check_sr),
        ("t1", _check_t1),
        ("aut", lambda report, fx: _check_symmetry(report, fx, sections)),
        ("pfaffian", _check_pfaffians),
        ("torus", _check_torus),
        ("toric", _check_toric),
        ("cohom", _check_cohomology),
        ("milnor", _check_milnor),
    )
    for section, runner in runners:
        wanted = {section, "orbits"} if section == "aut" else {section}
        if wanted & sections:
            runner(report, fx)
    return report


def _check_sr(report, fx):
    for name in fixtures.TRIANGULATIONS:
        k = fx("triangulation", name)
        report.add("sr.sphere_checks.%s" % name, True,
                   is_combinatorial_3sphere_candidate(k).ok, "link and facet enumeration")
        report.add("sr.degree.%s" % name, DEGREES[name],
                   fx.blame("triangulation", name, degree, k), "facet table")
        num = hilbert_numerator(k)
        report.add("sr.hilbert_at_1.%s" % name, DEGREES[name],
                   int(num.evaluate({"t": 1})), "derived from the f-vector")
    report.add("sr.nonfaces.delta4", [(0, 1, 2, 3, 4)],
               list(minimal_nonfaces(fx("triangulation", "delta4")).generators), "monomial ideal")
    report.add("sr.nonfaces.p7_1",
               [(1, 2, 3, 5), (1, 2, 3, 6), (4, 6), (4, 7), (5, 7)],
               list(minimal_nonfaces(fx("triangulation", "p7_1")).generators), "monomial ideal")
    report.add("sr.nonfaces.p7_3", [(1, 2, 3), (4, 5), (6, 7)],
               list(minimal_nonfaces(fx("triangulation", "p7_3")).generators), "monomial ideal")


def _check_t1(report, fx):
    for name in fixtures.TRIANGULATIONS:
        k = fx("triangulation", name)
        basis = fx.blame("triangulation", name, t1_degree_zero_basis, k)
        report.add("t1.dimension.%s" % name, T1_DIMS[name], len(basis), "deformation count")
        rows = t1_link_table_crosscheck(k)
        report.add("t1.link_table.%s" % name, True, all(r.ok for r in rows),
                   "per-link contribution table")
        triangles = {tuple(sorted(f)) for f in k.faces_of_dim(2)}
        report.add("t1.no_2face_contributions.%s" % name, True,
                   all(elem.support not in triangles for elem in basis),
                   "degree-zero multiplicity")


def _check_symmetry(report, fx, sections):
    for name in fixtures.TRIANGULATIONS:
        k = fx("triangulation", name)
        group = automorphism_group(k)
        if "aut" in sections:
            if name in AUT_ORDERS:
                report.add("aut.order.%s" % name, AUT_ORDERS[name], group.order,
                           "recorded group order")
            else:
                report.add("aut.order.%s" % name, 12, group.order,
                           "enumeration (no recorded value)")
            closed = all(
                {frozenset(g[v] for v in f) for f in k.facets} == k.facets
                for g in group.elements
            )
            report.add("aut.facets_preserved.%s" % name, True, closed, "definition")
        if "orbits" in sections:
            basis = fx.blame("triangulation", name, t1_degree_zero_basis, k)
            part = orbits_on_t1(group, basis)
            if name in ORBIT_COUNTS:
                report.add("orbits.count.%s" % name, ORBIT_COUNTS[name], part.count,
                           "recorded orbit count")
            report.add("orbits.sizes_sum.%s" % name, T1_DIMS[name], sum(part.sizes()),
                       "partition of the basis")
            if name == "delta4":
                report.add("orbits.sizes.delta4", [5, 20, 20, 30, 30], part.sizes(),
                           "recorded orbit sizes")
            if name == "p7_5":
                report.add("orbits.sizes.p7_5", [7, 7, 14, 14, 14], part.sizes(),
                           "recorded orbit sizes")


def _check_pfaffians(report, fx):
    rng = random.Random(1406)
    ring = PolyRing(["x"])
    ok_sq = True
    for dim in (2, 4, 6, 8):
        for _ in range(5):
            m = _random_skew(ring, dim, rng)
            pf = pfaffian(m).constant_value()
            rows = [[m.entry(i, j).constant_value() for j in range(1, dim + 1)]
                    for i in range(1, dim + 1)]
            ok_sq = ok_sq and pf * pf == det(rows)
    report.add("pfaffian.square_is_det", True, ok_sq, "exact elimination determinant oracle")

    lifts = {}
    for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5"):
        matrix, ring = fx("family_matrix", name)
        _geo, params = geometry_and_params(ring.names)
        k = fx("triangulation", name)
        missing = ["x%d" % v for v in k.vertices if "x%d" % v not in ring.index]
        if missing:
            raise InputError("no variable %s for a vertex of triangulation %s" % (missing[0], name),
                             fx.path("family_matrix", name))
        gens = minimal_nonfaces(k).generators
        try:
            f1 = fx.blame("family_matrix", name, first_order_pfaffians, matrix, params)
        except SyzygySignError:
            # M.f = 0 fails mod t^2: both syzygy entries fail, and there are
            # no Pfaffians to compare with the generators or the basis
            f0, lift_ok, syzygy = None, None, False
        else:
            # M.f = 0 mod t^2 holds, and its parameter-free part is M0.f0 = 0
            f0 = sorted(str(p.truncate_above(params, 1)) for p in f1)  # the Pfaffians at t = 0
            lift = fx.blame("triangulation", name, check_first_order_lift, k, f1, params)
            lifts[name] = (lift, f1, params)
            lift_ok, syzygy = lift.ok, True
        report.add("pfaffian.base_generators.%s" % name,
                   sorted(str(generator_monomial(ring, p)) for p in gens), f0,
                   "syzygy matrix at parameter zero")
        report.add("pfaffian.base_syzygy.%s" % name, True, syzygy, "symbolic identity")
        report.add("pfaffian.lift_matches_basis.%s" % name, True, lift_ok,
                   "first-order lift vs deformation basis")
        report.add("pfaffian.first_order_syzygy.%s" % name, True, syzygy, "truncated product")

    _check_specializations(report, fx, lifts)


def _check_specializations(report, fx, lifts):
    for name, sign, tri, blocks in (
        ("degree13", 1, "p7_4", [((5,), (3, 4, 6)), ((6,), (5, 7)), ((1, 2), (3, 4, 7))]),
        ("degree14", -1, "p7_5", [((1, 3), (4, 7))]),
    ):
        matrix, _ring = fx("family_matrix", "%s_oneparam" % name)
        expect, _ring2 = fx("generator_vector", "%s_expected" % name)
        k = fx("triangulation", tri)
        fam = fx.blame("triangulation", tri, first_order_family, k)
        part = orbits_on_t1(automorphism_group(k), fam.basis)
        try:
            assignment = {orbit_index_of(part, fam.basis, a, b): "s" for a, b in blocks}
        except KeyError:  # a block is not a basis pair of this (relabelled) triangulation
            assignment = None
        try:
            f = fx.blame("family_matrix", "%s_oneparam" % name, principal_pfaffians, matrix)
        except SyzygySignError:
            f = None  # M.f = 0 fails in this family: there are no Pfaffians to compare
        if assignment is None:
            reference = None
        elif name == "degree13":
            reference = None if f is None else [p.truncate_above(["s"], 2) for p in f]
        elif tri in lifts:
            # the appendix lift with the orbit's matched parameters set to s and
            # the others to 0: a ring map, so it commutes with the Pfaffians and
            # takes (t)^2 into (s)^2
            lift, f1, params = lifts[tri]
            orbit_elems = {i for block in assignment for i in part.blocks[block]}
            keep = {t: "s" for t, idx in lift.matched.items() if idx in orbit_elems}
            dropped = [t for t in params if t not in keep]
            reference = [lift.sign * p.truncate_above(dropped, 1).rename(matrix.ring, keep)
                         for p in f1]
        else:
            reference = None  # the family's own M.f = 0 failed, so it has no lift
        match = None if f is None else [(sign * e).rename(matrix.ring) for e in expect] == f
        spec = None if reference is None else invariant_specialize(fam, part, assignment)
        ours = None if spec is None else sorted(str(p.rename(matrix.ring)) for p in spec.generators)
        orbit = None if ours is None else ours == sorted(map(str, reference))
        report.add("pfaffian.specialized_generators.%s" % name, True, match,
                   "printed generator list, global sign %+d" % sign)
        report.add("pfaffian.orbit_family.%s" % name, True, orbit,
                   "orbit specialization vs matrix family" if name == "degree13"
                   else "orbit specialization vs appendix lift")


def _random_skew(ring, dim, rng):
    upper = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            upper[(i, j)] = ring.const(rng.randint(-9, 9))
    return SkewPolyMatrix(ring, dim, upper)


def _stabilizer(fx, name):
    """Generators, geometry variables and finite stabilizer (None if infinite) of a fixture."""
    gens, ring = fx("generator_vector", name)
    geo, _ = geometry_and_params(ring.names)
    h = fx.blame("generator_vector", name, diagonal_stabilizer, gens, geo)
    return gens, geo, h if isinstance(h, FiniteAbelianGroup) else None


def _check_torus(report, fx):
    # `h and h.order` is None for an infinite stabilizer, so its entries fail
    _gens, _geo, h = _stabilizer(fx, "quintic")
    report.add("torus.quintic_order", 125, h and h.order, "diagonal symmetries of the family")
    report.add("torus.quintic_factors", [5, 5, 5], h and h.invariant_factors,
               "Smith normal form")

    gens14, geo14, h14 = _stabilizer(fx, "degree14_expected")
    report.add("torus.degree14_factors", [7], h14 and h14.invariant_factors, "Smith normal form")
    report.add("torus.degree14_character", True,
               verify_character(gens14, (0, 1, 2, 3, 4, 5, 6), 7, geo14),
               "recorded weight vector")

    gens13, geo13, h13 = _stabilizer(fx, "degree13_expected")
    report.add("torus.degree13_factors", [13], h13 and h13.invariant_factors, "Smith normal form")
    report.add("torus.degree13_character", True,
               verify_character(gens13, (3, 3, 11, 11, 1, 7, 0), 13, geo13),
               "recorded weight vector")
    members_ok = h13 and h14 and (
        all(verify_character(gens13, w, 13, geo13) for w in h13.generators)
        and all(verify_character(gens14, w, 7, geo14) for w in h14.generators))
    report.add("torus.generators_are_characters", True, members_ok, "re-verification")


def _check_toric(report, fx):
    fan = fx("subdivision_fan")
    fmono, invmono = fx("hypersurface_monomials")
    fan_report = verify_smooth_subdivision(fan)
    report.add("toric.fan_shape", (18, 53), (fan_report.n_rays, fan_report.n_cones),
               "cone table")
    report.add("toric.fan_valid", True, fan_report.ok, "unimodularity, faces, coverage")

    charts = fx.blame("hypersurface_monomials", None, all_charts, fan, invmono)
    report.add("toric.chart_tau1", "y1^2*y4 + y2^5*y3^3*y4^4 + y2*y3*y4^2 + 1",
               str(charts[0]), "printed chart polynomial")
    report.add("toric.chart_tau29", "y1^2*y4 + y2^2*y3 + y3 + 1",
               str(charts[28]), "pairing computation (printed source has y2*y3^2)")
    report.add("toric.chart_tau48", "y1^3*y2^2*y4^2 + y1 + y2*y3^2 + 1",
               str(charts[47]), "printed chart polynomial")
    nonconstant = all(not p.is_constant() for p in charts.values())
    report.add("toric.charts_nonconstant", True, nonconstant, "strict transform")

    crep = crepancy_check(fan, fmono)
    structure = fx.blame("subdivision_fan", None, derive_component_structure, fan, charts)
    # a table row whose ray the fan lacks exits 2 here, before a closure looks the ray up
    comps = fx.blame("component_table", None, match_component_table, fan, structure,
                     fx("component_table"))
    meets = set(structure.meeting_rays)
    report.add("toric.meeting_rays", 10, len(meets), "chart restrictions")
    non_meeting = sorted(fan.rays[r] for r in fan.interior_ray_ids() if r not in meets)
    report.add("toric.non_meeting_rays", sorted(NON_MEETING_RAYS), non_meeting,
               "chart restrictions")
    report.add("toric.crepant_equals_meeting", True,
               {r for r, v in crep.items() if v} == meets, "discrepancy pairing per ray")

    rid = fan.ray_index
    closures = {c.ray_ids: c.closure for c in structure.components}

    def closure(*rays):  # None where no component has these rays
        return closures.get(tuple(sorted(rid(r) for r in rays)))

    for label, ray, chi, tag in (
        ("E1", (6, -2, -1, -2), 3, "P2"),
        ("E2", (3, -1, 0, -1), 5, "Bl1F2"),
        ("E3", (11, -4, -2, -5), 4, "F5"),
        ("E4", (7, -2, -1, -3), 4, "F2"),
    ):
        sf = closure(ray)
        report.add("toric.method1.%s" % label, (chi, tag),
                   (sf.chi, str(classify_toric_surface(sf.rays))) if sf else None,
                   "torus closure fan")
    sf56 = closure((9, -3, -2, -4))
    report.add("toric.factor_pair_chi", (6, 2), (sf56.chi, sf56.factor_count) if sf56 else None,
               "imprimitive binomial torus")
    sf10 = closure((1, 0, 0, 0), (9, -3, -2, -4))
    sf11 = closure((0, 0, 1, 0), (9, -3, -2, -4))
    report.add("toric.method3.E10", 6, sf10.chi if sf10 else None, "orbit closure fan")
    report.add("toric.method3.E11", 5, sf11.chi if sf11 else None, "orbit closure fan")
    pb7 = fx.blame("subdivision_fan", None, pbundle_structure, fan, rid((15, -5, -3, -6)))
    pb8 = fx.blame("subdivision_fan", None, pbundle_structure, fan, rid((12, -4, -2, -5)))
    report.add("toric.bundle_base.E7", (5, "Bl1F2"),
               (pb7.chi, str(classify_toric_surface(pb7.rays))) if pb7 else None,
               "star fibration")
    report.add("toric.bundle_base.E8", 6, pb8.chi if pb8 else None, "star fibration")

    points = fx("scroll_polytope")
    report.add("toric.polytope_lattice_points", 10,
               len(fx.blame("scroll_polytope", None, lattice_points_in_polytope, points)),
               "recorded count")
    report.add("toric.polytope_normal_fan", True,
               method4_normal_fan_check(fan, rid((5, -1, -1, -2)), points),
               "normal fan comparison")

    report.add("toric.component_count", 12, len(structure.components),
               "chart factorization")
    report.add("toric.factor_disjointness", True,
               structure.factor_disjointness_certified, "binomial smoothness")
    for comp in comps:
        if comp.closure is None:
            report.add("toric.chi.%s" % comp.label, comp.chi, comp.chi, "component table",
                       ingested=True)
        else:
            report.add("toric.chi.%s" % comp.label, comp.chi, comp.closure.chi, "fan ray count")
    report.add("toric.chi_sum", 61, sum(c.chi for c in comps), "component table")

    complex_ = intersection_complex(fan, charts, comps)
    shape = (len(complex_.faces_of_dim(0)), len(complex_.faces_of_dim(1)),
             len(complex_.faces_of_dim(2)))
    report.add("toric.intersection_shape", (12, 25, 14), shape, "chart restrictions")
    facets = sorted(tuple(sorted(f)) for f in complex_.faces_of_dim(2))
    report.add("toric.intersection_facets", sorted(EXPECTED_FACETS_12), facets,
               "recorded facet list")
    chi_e = euler_exceptional([c.chi for c in comps], complex_)
    report.add("toric.chi_exceptional", 25, chi_e, "inclusion-exclusion")
    # the quotient group is N/Z^4, the diagonal Z/13 of torus.degree13_factors;
    # its order is prime, so it is the isotropy group of every fixed point
    # and has as many conjugacy classes as elements
    report.add("toric.mckay", 13, fan.index, "conjugacy class count")
    try:
        mu = milnor_quasihomogeneous(MILNOR_WEIGHTS)
        chi_mirror = mirror_euler(CHI_SMOOTH_DEGREE13, 4, mu, fan.index, 6, chi_e, 4,
                                  fan.index, 2)
    except ValueError:
        chi_mirror = None
    report.add("toric.mirror_euler", 120, chi_mirror,
               "quotient count with recorded chi = -120")


def _check_cohomology(report, fx):
    n, res = fx("ci_complexes")
    report.add("cohom.h6_twists", [1, 7, 28, 84],
               [h_twist(6, d, 6) for d in (-7, -8, -9, -10)], "duality with sections")
    out = fx.blame("ci_complexes", None, hodge_pipeline_ci,
                   n, res["structure_sheaf"], res["ideal_square"])
    report.add("cohom.hodge_numbers", (1, 73), (out.h11, out.h12), "exact-sequence chase")
    inter = out.intermediates
    report.add("cohom.intermediates", (7, 48, 122, 121),
               (inter["h3_ox_minus1"], inter["h3_omega_restr"], inter["h4_j2"],
                inter["h3_conormal"]), "exact-sequence chase")


def _check_milnor(report, _fx):
    report.add("milnor.number", 12, milnor_quasihomogeneous(MILNOR_WEIGHTS), "weight product")
    ring = PolyRing(MILNOR_WEIGHTS.names)
    f = ring.parse("w^2 + x^3 + y^5 + y*z^2")
    report.add("milnor.quasihomogeneous", True, check_quasihomogeneous(f, MILNOR_WEIGHTS),
               "weighted degrees")
