import pytest

from srcy import fixtures
from srcy.fileio import geometry_and_params
from srcy.toric import (
    CHART_RING,
    Component,
    ComponentStructure,
    Fan,
    SurfaceFan,
    SurfaceType,
    _ray_restrictions,
    _torus_binomial,
    all_charts,
    chart_restriction,
    classify_toric_surface,
    components_intersect,
    crepancy_check,
    derive_component_structure,
    divisor_meets_hypersurface,
    euler_exceptional,
    fans_isomorphic_3d,
    intersection_complex,
    lattice_points_in_polytope,
    match_component_table,
    method4_normal_fan_check,
    mirror_euler,
    normal_fan,
    orbit_closure_component,
    pbundle_structure,
    verify_smooth_subdivision,
)
from srcy.torusgroup import diagonal_stabilizer

EXPECTED_FACETS = {
    frozenset(f)
    for f in [
        (1, 2, 7), (2, 7, 8), (3, 8, 11), (4, 10, 11), (4, 10, 12), (5, 7, 9),
        (5, 7, 10), (5, 10, 12), (6, 7, 9), (6, 7, 10), (6, 10, 12), (7, 8, 9),
        (7, 8, 10), (8, 10, 11),
    ]
}


def test_fan_shape_and_validity(fan_data):
    fan, _f, _inv, _charts = fan_data
    report = verify_smooth_subdivision(fan)
    assert (report.n_rays, report.n_cones) == (18, 53)
    assert report.ok, report.problems


def test_fan_rays_must_be_primitive(fan_data):
    fan, _f, _inv, _charts = fan_data
    rays = [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    with pytest.raises(ValueError, match="not primitive"):
        Fan(fan.lattice, rays, [(0, 1, 2, 3)], (0, 1, 2, 3))


def test_unit_cone_is_unimodular(fan_data):
    fan, _f, _inv, _charts = fan_data
    unit = Fan(fan.lattice, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
               [(0, 1, 2, 3)], (0, 1, 2, 3))
    assert verify_smooth_subdivision(unit).ok


def test_non_unimodular_cone_is_reported(fan_data):
    fan, _f, _inv, _charts = fan_data
    # cone 1 is {16, 2, 5, 11}; twice ray 16 plus ray 2 spans an index-2 cone
    apex, second = fan.cone_rays(0)[:2]
    rays = list(fan.rays) + [tuple(2 * a + b for a, b in zip(apex, second))]
    cones = list(fan.cones)
    cones[0] = (len(rays) - 1,) + cones[0][1:]
    broken = Fan(fan.lattice, rays, cones, fan.sigma)
    report = verify_smooth_subdivision(broken)
    assert not report.ok
    assert "cone 1 has determinant -2, not unimodular" in report.problems


def test_cone_with_three_rays_is_reported(fan_data):
    fan, _f, _inv, _charts = fan_data
    cones = list(fan.cones)
    cones[0] = cones[0][:3]
    report = verify_smooth_subdivision(_mutated(fan, cones=cones))
    assert not report.ok
    assert "cone 1 is not simplicial of full dimension" in report.problems


def _recording(calls, fn):
    def recorded(rows):
        calls.append(rows)
        return fn(rows)

    return recorded


def test_cone_matrices_are_inverted_once_per_fan(monkeypatch):
    import srcy.intlinalg as la

    inverted, unimodular = [], []
    monkeypatch.setattr(la, "inverse", _recording(inverted, la.inverse))
    monkeypatch.setattr(la, "unimodular_inverse", _recording(unimodular, la.unimodular_inverse))
    fan = fixtures.subdivision_fan()
    fmono, invmono = fixtures.hypersurface_monomials()
    assert verify_smooth_subdivision(fan).ok
    charts = all_charts(fan, invmono)
    crepancy_check(fan, fmono)
    assert all(_method1_closures(fan, charts)[ray] for ray in METHOD1_FANS)

    def columns(rays):
        return [[r[i] for r in rays] for i in range(4)]

    assert inverted == [columns([fan.rays[i] for i in fan.sigma])]
    cone_matrices = [columns(fan.cone_rays(c)) for c in range(len(fan.cones))]
    assert sum(rows in cone_matrices for rows in unimodular) == 53
    # method 1 reads the star cones' duals from the fan: no 3 x 3 inversions
    assert all(len(rows) == 4 and all(len(r) == 4 for r in rows) for rows in unimodular)


def _mutated(fan, rays=None, cones=None):
    return Fan(fan.lattice, fan.rays if rays is None else rays,
               fan.cones if cones is None else cones, fan.sigma)


def test_fan_with_a_gap_is_rejected(fan_data):
    fan, _f, _inv, _charts = fan_data
    assert not verify_smooth_subdivision(_mutated(fan, cones=fan.cones[:-1])).ok


def test_fan_with_an_overlap_is_rejected(fan_data):
    fan, _f, _inv, _charts = fan_data
    cones = list(fan.cones) + [fan.cones[0]]
    assert not verify_smooth_subdivision(_mutated(fan, cones=cones)).ok


def test_fan_with_a_ray_outside_sigma_is_rejected(fan_data):
    fan, _f, _inv, _charts = fan_data
    rays = list(fan.rays)
    assert rays[3] == (1, 0, 0, 0)
    rays[3] = (-1, 0, 0, 0)
    assert not verify_smooth_subdivision(_mutated(fan, rays=rays)).ok


def test_fan_with_a_same_side_facet_is_rejected(fan_data):
    fan, _f, _inv, _charts = fan_data
    # cone 38 is {1, 2, 4, 5}; swapping its apex for ray 13 puts it on the
    # same side of facet {1, 2, 5} as cone 26, whose apex is ray 11
    assert fan.cones[37] == (0, 1, 3, 4) and fan.cones[25] == (0, 1, 4, 10)
    cones = list(fan.cones)
    cones[37] = (0, 1, 4, fan.ray_index((11, -4, -2, -5)))
    report = verify_smooth_subdivision(_mutated(fan, cones=cones))
    assert not report.ok
    assert "cones 26 and 38 lie on one side of facet (0, 1, 4)" in report.problems


IDENTITY = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
ORTHANT_RAYS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, 1, 0, 0), (0, 0, 1, 1)]
ORTHANT = [(0, 1, 2, 3)]
# stellar subdivision of the orthant at e1 + e2 (ray 4), then at e3 + e4 (ray 5)
ORTHANT_STELLAR = [(4, 1, 5, 3), (4, 1, 2, 5), (0, 4, 5, 3), (0, 4, 2, 5)]


@pytest.mark.parametrize("cones", [ORTHANT, ORTHANT_STELLAR])
def test_orthant_subdivisions_are_smooth(cones):
    assert verify_smooth_subdivision(Fan(IDENTITY, ORTHANT_RAYS, cones, (0, 1, 2, 3))).ok


def test_two_subdivisions_united_fail_only_coverage():
    # the stellar cones split every boundary facet of the orthant, so each
    # boundary facet still lies in one cone and every interior facet in two
    # cones on opposite sides: only the coverage count sees the overlap
    united = Fan(IDENTITY, ORTHANT_RAYS, ORTHANT + ORTHANT_STELLAR, (0, 1, 2, 3))
    report = verify_smooth_subdivision(united)
    assert not report.ok
    # (1, 1, 1, 1) is inside the orthant and on the face spanned by rays 4
    # and 5, which all four stellar cones share
    assert report.problems == ["interior point of cone 1 lies in 5 cones"]


def _reference_chart_exponents(fan, cone_id, monomial):
    """Pairing of a monomial with each ray of the cone taken to ambient coordinates."""
    from fractions import Fraction

    ambient = [[sum(Fraction(a) * x for a, x in zip(row, fan.rays[i])) for row in fan.lattice]
               for i in fan.cones[cone_id]]
    return [sum(m * a for m, a in zip(monomial, r)) for r in ambient]


def test_pulled_back_pairings_match_the_ambient_ones(fan_data):
    import random

    from srcy.intlinalg import mat_vec_int

    fan, fmono, invmono, _charts = fan_data
    rng = random.Random(21)
    others = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(8)]
    monomials = [tuple(m) for m in invmono] + [tuple(m) for m in fmono] + others
    for m in monomials:
        w = fan.pull_back(m)
        for c in range(len(fan.cones)):
            assert mat_vec_int(fan.cone_rays(c), w) == _reference_chart_exponents(fan, c, m), (c, m)


def test_chart_polynomials(fan_data):
    fan, _f, inv, charts = fan_data
    assert str(charts[0]) == "y1^2*y4 + y2^5*y3^3*y4^4 + y2*y3*y4^2 + 1"
    assert str(charts[28]) == "y1^2*y4 + y2^2*y3 + y3 + 1"
    assert str(charts[47]) == "y1^3*y2^2*y4^2 + y1 + y2*y3^2 + 1"
    for p in charts.values():
        assert not p.is_constant()
        assert not any(p.content_exponents())


@pytest.mark.xfail(
    strict=True,
    reason="the printed polynomial for cone 29 has y2*y3^2 where the integer "
    "pairings force y2^2*y3 (difference of the third and fourth invariant "
    "monomials pairs to 2 against the ray (0,0,0,1)); see ledger",
)
def test_chart_tau29_as_printed(fan_data):
    _fan, _f, _inv, charts = fan_data
    assert str(charts[28]) == "y1^2*y4 + y2*y3^2 + y3 + 1"


def test_strict_transform_rejects_bad_monomial(fan_data):
    fan, _f, _inv, _charts = fan_data
    with pytest.raises(ValueError, match="exponent 3/13 in cone 1$"):
        all_charts(fan, [(1, 0, 0, 0)])
    # an integral but negative pairing is refused with the same message
    with pytest.raises(ValueError, match=r"^monomial \(-2, 0, -8, 0\) .* exponent -2 in cone 1$"):
        all_charts(fan, [(-2, 0, -8, 0)])


def test_crepancy(fan_data):
    fan, fmono, _inv, charts = fan_data
    crep = crepancy_check(fan, fmono)
    meets = {r: divisor_meets_hypersurface(fan, charts, r)
             for r in fan.interior_ray_ids()}
    assert sum(meets.values()) == 10
    assert {r for r, v in crep.items() if v} == {r for r, v in meets.items() if v}
    non_meeting = sorted(fan.rays[r] for r, v in meets.items() if not v)
    assert non_meeting == [(3, 0, 0, -1), (5, -1, 0, -2), (8, -3, -1, -3), (11, -4, -2, -4)]
    # the coordinate rays of sigma pair integrally with the unit vector
    perturbed = crepancy_check(fan, [tuple(m) for m in fmono] + [(0, 0, 0, 0)])
    assert not any(perturbed.values())


@pytest.mark.xfail(
    strict=True,
    reason="the stated criterion extends the discrepancy identity to all 14 "
    "interior rays; the source asserts it only for divisors meeting the "
    "strict transform, and the four non-meeting rays fail it; see ledger",
)
def test_crepancy_all_interior_as_stated(fan_data):
    fan, fmono, _inv, _charts = fan_data
    assert sum(crepancy_check(fan, fmono).values()) == 14


def test_restriction_example(fan_data):
    fan, _f, _inv, charts = fan_data
    rho = fan.ray_index((3, -1, 0, -1))
    assert str(chart_restriction(fan, charts, 0, [rho])) == "y1^2*y4 + 1"


def _method1_closures(fan, charts):
    """Closure fan of each single-ray component of the derived structure, by its ray."""
    return {fan.rays[c.ray_ids[0]]: c.closure
            for c in derive_component_structure(fan, charts).components if len(c.ray_ids) == 1}


def test_method1_components(fan_data):
    fan, _f, _inv, charts = fan_data
    expected = {
        (6, -2, -1, -2): (3, "P2", 1),
        (3, -1, 0, -1): (5, "Bl1F2", 1),
        (11, -4, -2, -5): (4, "F5", 1),
        (7, -2, -1, -3): (4, "F2", 1),
        (9, -3, -2, -4): (6, "Bl3P2", 2),
    }
    closures = _method1_closures(fan, charts)
    for ray, (chi, tag, factors) in expected.items():
        sf = closures[ray]
        assert sf.chi == chi
        assert str(classify_toric_surface(sf.rays)) == tag
        assert sf.factor_count == factors


METHOD1_FANS = {
    (3, -1, 0, -1): ([(1, 0), (0, 1), (-1, 0), (-3, -1), (-2, -1)], 1),
    (6, -2, -1, -2): ([(1, 0), (0, 1), (-1, -1)], 1),
    (7, -2, -1, -3): ([(1, 0), (-1, 1), (1, -2), (1, -1)], 1),
    (9, -3, -2, -4): ([(1, 0), (1, 1), (1, 2), (0, 1), (-1, 0), (-2, -1)], 2),
    (11, -4, -2, -5): ([(1, 3), (-5, -14), (-1, -3), (0, -1)], 1),
}


def _gl2z_invariant(rays):
    """The cyclic sequence det(v[i-1], v[i+1]) of rays in circular order,
    least over rotations and reversal.  Two smooth complete fans have the
    same sequence exactly when a GL2(Z) map carries one onto the other: it
    is their self-intersection numbers negated, which fix the fan."""
    n = len(rays)
    seq = [rays[i - 1][0] * rays[(i + 1) % n][1] - rays[i - 1][1] * rays[(i + 1) % n][0]
           for i in range(n)]
    return min(tuple(s[i:] + s[:i]) for s in (seq, seq[::-1]) for i in range(n))


def test_method1_rays_are_pinned(fan_data):
    """Each method-1 fan is the recorded one up to a change of lattice basis."""
    fan, _f, _inv, charts = fan_data
    closures = _method1_closures(fan, charts)
    for ray, (rays, factors) in METHOD1_FANS.items():
        sf = closures[ray]
        assert sf.complete, ray
        assert (_gl2z_invariant(sf.rays), sf.factor_count) == (
            _gl2z_invariant(rays), factors), ray


def test_method1_fans_complete_and_smooth(fan_data):
    fan, _f, _inv, charts = fan_data
    closures = _method1_closures(fan, charts)
    for ray in [(6, -2, -1, -2), (3, -1, 0, -1), (11, -4, -2, -5), (7, -2, -1, -3)]:
        sf = closures[ray]
        n = len(sf.rays)
        for i in range(n):
            a, b = sf.rays[i], sf.rays[(i + 1) % n]
            assert a[0] * b[1] - a[1] * b[0] == 1
        assert sf.chi == n


def test_method1_requires_binomial(fan_data):
    """E7's ray has no binomial restriction, so its component gets no closure fan."""
    fan, _f, _inv, charts = fan_data
    rid = fan.ray_index((15, -5, -3, -6))
    restrictions = _ray_restrictions(fan, charts, rid)
    assert len(restrictions) == 10
    assert all(_torus_binomial(fbar.strip_monomial_content()) is None
               for _c, fbar in restrictions)
    structure = derive_component_structure(fan, charts)
    assert [c.closure for c in structure.components if c.ray_ids == (rid,)] == [None]


def test_orbit_closures(fan_data):
    fan, _f, _inv, charts = fan_data
    e10 = orbit_closure_component(fan, fan.ray_index((1, 0, 0, 0)),
                                  fan.ray_index((9, -3, -2, -4)))
    assert (e10.chi, str(classify_toric_surface(e10.rays))) == (6, "Bl3P2")
    assert e10.complete
    e11 = orbit_closure_component(fan, fan.ray_index((0, 0, 1, 0)),
                                  fan.ray_index((9, -3, -2, -4)))
    assert e11.chi == 5
    with pytest.raises(ValueError, match="do not span a cone of the fan"):
        orbit_closure_component(fan, fan.ray_index((3, 0, 0, -1)),
                                fan.ray_index((13, -5, -3, -6)))


def test_orbit_closure_on_boundary_pair_is_incomplete(fan_data):
    fan, _f, _inv, _charts = fan_data
    b_ids = fan.ray_index((0, 1, 0, 0)), fan.ray_index((0, 0, 1, 0))
    b = orbit_closure_component(fan, *b_ids)
    assert not b.complete
    assert (1, 0) in b.rays and (0, 1) in b.rays
    # a table row reaching such a pair is refused: its ray count is no chi
    pair = Component("", "orbit_pair", tuple(sorted(b_ids)), closure=b)
    with pytest.raises(ValueError, match="orbit closure of .* is not complete"):
        match_component_table(fan, ComponentStructure([pair], [], True),
                              [("B", (0, 1, 0, 0), "P2", 3)])


def test_classify_standard_surfaces():
    assert str(classify_toric_surface([(1, 0), (0, 1), (-1, -1)])) == "P2"
    assert str(classify_toric_surface([(1, 0), (0, 1), (-1, 5), (0, -1)])) == "F5"
    assert str(classify_toric_surface([(-5, -1), (-1, 0), (0, 1), (1, 0)])) == "F5"
    assert str(classify_toric_surface([(1, 0), (0, 1), (-1, 0), (0, -1)])) == "F0"
    # the printed 5-ray fan: blow-up of F2 and of F3 in one point agree
    rays = [(-1, -1), (0, 1), (1, 1), (1, 2), (2, 1)]
    assert str(classify_toric_surface(rays)) == "Bl1F2"


@pytest.mark.parametrize("tag, chi", [
    ("P2", 3), ("F0", 4), ("F1", 4), ("F5", 4),
    ("Bl1P2", 4), ("Bl6P2", 9), ("Bl1F0", 5), ("Bl3F2", 7),
])
def test_surface_tag_round_trip(tag, chi):
    surface = SurfaceType.parse(tag)
    assert str(surface) == tag
    assert surface.chi() == chi


@pytest.mark.parametrize("tag", ["Bl0P2", "F01"])
def test_surface_tag_rejects_noncanonical(tag):
    with pytest.raises(ValueError, match="unrecognized surface tag"):
        SurfaceType.parse(tag)


def test_classify_rejects_nonsmooth():
    with pytest.raises(ValueError):
        classify_toric_surface([(1, 0), (0, 1), (-1, -2)])


@pytest.mark.parametrize("rays", [
    [(1, 0), (1, 0), (0, 1), (-1, -1)],  # P2 with a repeated ray
    [(2, 0), (0, 1), (-1, -1)],  # P2 with an imprimitive ray
])
def test_classify_rejects_repeated_and_imprimitive_rays(rays):
    with pytest.raises(ValueError):
        classify_toric_surface(rays)


def test_pbundle_structures(fan_data):
    fan, _f, _inv, _charts = fan_data
    pb7 = pbundle_structure(fan, fan.ray_index((15, -5, -3, -6)))
    assert pb7 and pb7.chi == 5
    assert str(classify_toric_surface(pb7.rays)) == "Bl1F2"
    pb8 = pbundle_structure(fan, fan.ray_index((12, -4, -2, -5)))
    assert pb8 and pb8.chi == 6
    pb1 = pbundle_structure(fan, fan.ray_index((6, -2, -1, -2)))
    assert pb1 is None


def test_method4_polytope(fan_data):
    fan, _f, _inv, _charts = fan_data
    points = fixtures.scroll_polytope()
    assert len(lattice_points_in_polytope(points)) == 10
    assert method4_normal_fan_check(fan, fan.ray_index((5, -1, -1, -2)), points)
    rays, cones = normal_fan(points)
    assert len(rays) == 5 and len(cones) == 6
    # a genuinely different fan does not match
    shifted = [(p[0] + p[2], p[1], p[2]) for p in points]
    assert method4_normal_fan_check(fan, fan.ray_index((5, -1, -1, -2)), shifted)
    cube = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
            (0, 1, 1), (1, 1, 1)]
    assert not method4_normal_fan_check(fan, fan.ray_index((5, -1, -1, -2)), cube)


def test_fan_isomorphism_is_lattice_invariant():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    u = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    from srcy.intlinalg import mat_vec_int, primitive

    rays2 = [primitive(mat_vec_int(u, list(r))) for r in rays]
    assert fans_isomorphic_3d(rays, cones, rays2, cones)
    assert not fans_isomorphic_3d(rays, cones, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2)])


OCTAHEDRAL_RAYS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
OCTAHEDRAL_CONES = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]


@pytest.mark.parametrize("e3_image, isomorphic", [
    ((1, 1, 1), True),  # e3 -> (1, 1, 1) fixing e1, e2 has det 1
    ((1, 1, 2), False),  # every linear map of the cones onto these has det +-2
])
def test_fan_isomorphism_needs_a_unimodular_map(e3_image, isomorphic):
    neg = tuple(-x for x in e3_image)
    rays_b = OCTAHEDRAL_RAYS[:4] + [e3_image, neg]
    assert fans_isomorphic_3d(OCTAHEDRAL_RAYS, OCTAHEDRAL_CONES, rays_b, OCTAHEDRAL_CONES) \
        is isomorphic


def test_component_structure(fan_data):
    fan, _f, _inv, charts = fan_data
    structure = derive_component_structure(fan, charts)
    assert len(structure.components) == 12
    assert structure.factor_disjointness_certified
    kinds = sorted(c.kind for c in structure.components)
    assert kinds.count("divisor") == 8
    assert kinds.count("torus_factor") == 2
    assert kinds.count("orbit_pair") == 2


def test_derived_components_are_hashable(fan_data):
    """A closure fan keeps its rays as a tuple, so every component hashes."""
    fan, _f, _inv, charts = fan_data
    components = derive_component_structure(fan, charts).components
    assert any(isinstance(c.closure, SurfaceFan) for c in components)
    assert len(set(components)) == len(components) == 12


def test_a_non_binomial_chart_of_the_imprimitive_ray_is_not_certified(fan_data):
    """Conjugate factors are disjoint only where every chart of their ray is binomial."""
    fan, _f, _inv, charts = fan_data
    rid = fan.ray_index((9, -3, -2, -4))
    c = next(iter(fan.cones_containing(rid)))
    y = CHART_RING.names[(fan.cones[c].index(rid) + 1) % len(CHART_RING.names)]
    structure = derive_component_structure(fan, {**charts, c: charts[c] + CHART_RING.parse(y)})
    assert structure.factor_disjointness_certified is False
    # the ray then gives one divisor, its closure from a binomial chart, and no factors
    mine = [comp for comp in structure.components if comp.ray_ids == (rid,)]
    assert [comp.kind for comp in mine] == ["divisor"] and mine[0].closure is not None
    assert not any(comp.kind == "torus_factor" for comp in structure.components)


def test_each_ray_restriction_is_formed_once(fan_data, monkeypatch):
    import srcy.toric as toric

    fan, _f, _inv, charts = fan_data
    rays, restricted = [], []
    monkeypatch.setattr(toric, "_ray_restrictions", _recording_args(rays, toric._ray_restrictions))
    monkeypatch.setattr(toric, "chart_restriction",
                        _recording_args(restricted, toric.chart_restriction))
    derive_component_structure(fan, charts)
    assert [args[2] for args in rays] == fan.interior_ray_ids()
    assert len(rays) == 14
    formed = [(c, tuple(ids)) for _fan, _charts, c, ids in restricted]
    assert len(formed) == len(set(formed)) == sum(
        len(fan.cones_containing(r)) for r in fan.interior_ray_ids())


def test_component_table_matching(fan_data):
    fan, _f, _inv, charts = fan_data
    structure = derive_component_structure(fan, charts)
    rows = fixtures.component_table()
    comps = match_component_table(fan, structure, rows)
    assert [c.label for c in comps] == ["E%d" % i for i in range(1, 13)]
    assert sum(c.chi for c in comps) == 61
    derived = [c.label for c in comps if c.chi_provenance == "derived"]
    assert derived == ["E1", "E2", "E3", "E4", "E5", "E6", "E10", "E11"]
    bad_rows = [(l, r, t, c + (1 if l == "E3" else 0)) for l, r, t, c in rows]
    with pytest.raises(ValueError):
        match_component_table(fan, derive_component_structure(fan, charts), bad_rows)
    # a tag whose nominal chi is the row's, but not the closure fan's ray count
    bad_rows = [(l, r, "Bl1F5", 5) if l == "E3" else (l, r, t, c) for l, r, t, c in rows]
    with pytest.raises(ValueError, match="no derived component matches table row E3"):
        match_component_table(fan, derive_component_structure(fan, charts), bad_rows)


COMPONENT_RECORDS = [
    ("E1", "divisor", ((6, -2, -1, -2),), 0, 3),
    ("E2", "divisor", ((3, -1, 0, -1),), 0, 5),
    ("E3", "divisor", ((11, -4, -2, -5),), 0, 4),
    ("E4", "divisor", ((7, -2, -1, -3),), 0, 4),
    ("E5", "torus_factor", ((9, -3, -2, -4),), 0, 6),
    ("E6", "torus_factor", ((9, -3, -2, -4),), 1, 6),
    ("E7", "divisor", ((15, -5, -3, -6),), 0, 7),
    ("E8", "divisor", ((12, -4, -2, -5),), 0, 7),
    ("E9", "divisor", ((14, -5, -3, -6),), 0, 4),
    ("E10", "orbit_pair", ((1, 0, 0, 0), (9, -3, -2, -4)), 0, 6),
    ("E11", "orbit_pair", ((0, 0, 1, 0), (9, -3, -2, -4)), 0, 5),
    ("E12", "divisor", ((5, -1, -1, -2),), 0, 4),
]


def test_matching_returns_labelled_copies(fan_data):
    fan, _f, _inv, charts = fan_data
    structure = derive_component_structure(fan, charts)
    comps = match_component_table(fan, structure, fixtures.component_table())
    assert all(c.label == "" and c.chi is None for c in structure.components)
    assert [(c.label, c.kind, tuple(fan.rays[r] for r in c.ray_ids), c.factor_index, c.chi)
            for c in comps] == COMPONENT_RECORDS


def test_components_intersect_edge_cases(fan_data):
    fan, _f, _inv, charts = fan_data
    structure = derive_component_structure(fan, charts)
    comps = {c.label: c for c in match_component_table(fan, structure, fixtures.component_table())}
    assert components_intersect(fan, charts, [comps["E5"], comps["E6"]]) is False
    with pytest.raises(ValueError, match="repeated component"):
        components_intersect(fan, charts, [comps["E1"], comps["E1"]])
    with pytest.raises(NotImplementedError, match="torus factors on distinct rays"):
        components_intersect(fan, charts, [comps["E5"], comps["E1"]._replace(kind="torus_factor")])


def test_closure_fans_are_derived_once_per_run(monkeypatch):
    import srcy.toric as toric
    import srcy.verify as verify
    from srcy.verify import run_all

    calls = {"method1_component": [], "orbit_closure_component": []}
    for name, seen in calls.items():
        for module in (toric, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _recording_args(seen, getattr(module, name)))
    assert run_all(only=["toric"]).ok
    assert len(calls["method1_component"]) == 5  # the five binomial rays
    assert len(calls["orbit_closure_component"]) == 2  # E10 and E11


def _recording_args(calls, fn):
    def recorded(*args):
        calls.append(args)
        return fn(*args)

    return recorded


def test_failed_method1_leaves_the_component_ingested(fan_data, monkeypatch):
    import srcy.toric as toric

    fan, _f, _inv, charts = fan_data
    e1 = fan.ray_index((6, -2, -1, -2))
    original = toric.method1_component

    def failing(fan, ray_id, chart, exps):
        if ray_id == e1:
            raise ValueError("no closure fan")
        return original(fan, ray_id, chart, exps)

    monkeypatch.setattr(toric, "method1_component", failing)
    structure = derive_component_structure(fan, charts)
    comps = match_component_table(fan, structure, fixtures.component_table())
    provenance = {c.label: c.chi_provenance for c in comps}
    assert provenance["E1"] == "ingested"
    derived = [label for label, p in provenance.items() if p == "derived"]
    assert derived == ["E2", "E3", "E4", "E5", "E6", "E10", "E11"]


def test_intersection_complex_and_euler(fan_data):
    fan, _f, _inv, charts = fan_data
    structure = derive_component_structure(fan, charts)
    comps = match_component_table(fan, structure, fixtures.component_table())
    cx = intersection_complex(fan, charts, comps)
    assert len(cx.faces_of_dim(0)) == 12
    assert len(cx.faces_of_dim(1)) == 25
    assert len(cx.faces_of_dim(2)) == 14
    assert {frozenset(f) for f in cx.faces_of_dim(2)} == EXPECTED_FACETS
    assert euler_exceptional([c.chi for c in comps], cx) == 25
    # conjugate factors never meet
    assert frozenset({5, 6}) not in cx.faces()


def test_fan_index_is_the_order_of_the_degree13_group(fan_data):
    """|det sigma| is the order of N/Z^4, the diagonal group of the degree-13 generators."""
    gens, ring = fixtures.generator_vector("degree13_expected")
    geo, _params = geometry_and_params(ring.names)
    assert fan_data[0].index == diagonal_stabilizer(gens, geo).order == 13


def test_euler_exceptional_trivial_cases():
    from srcy.simplicial import SimplicialComplex

    lone = SimplicialComplex([{1}])
    assert euler_exceptional([7], lone) == 7
    disjoint = SimplicialComplex([{1}, {2}])
    assert euler_exceptional([3, 4], disjoint) == 7
    with pytest.raises(ValueError, match="missing component Euler characteristic"):
        euler_exceptional([3, None], disjoint)


def test_mirror_euler():
    assert mirror_euler(-120, 4, 12, 13, 6, 25, 4, 13, 2) == 120
    assert mirror_euler(-120, 0, 0, 1, 0, 0, 0, 0, 0) == -120
    assert mirror_euler(27, 0, 0, 13, 1, 0, 0, 0, 0) == 2
    with pytest.raises(ValueError):
        mirror_euler(-121, 4, 12, 13, 6, 25, 4, 13, 2)


def test_a_non_integral_quotient_is_recorded_as_none(monkeypatch):
    """chi = -119 makes the numerator -119 + 4 * 12 - 6 = -77, which 13 does
    not divide: the report records no mirror Euler characteristic, and fails."""
    import srcy.verify as verify
    from srcy.report import FAIL

    monkeypatch.setattr(verify, "CHI_SMOOTH_DEGREE13", -119)
    checks = [c for c in verify.run_all(only=["toric"]).checks if c.id == "toric.mirror_euler"]
    assert [(c.status, c.expected, c.computed) for c in checks] == [(FAIL, 120, None)]
