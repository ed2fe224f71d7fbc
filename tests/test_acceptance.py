"""Acceptance gate: every recomputable number, pinned exactly.

Each criterion prints one PASS/FAIL line.  Three criteria assert values
from the printed source that direct computation contradicts; they are
kept verbatim as strict expected failures, with the computed counterpart
asserted in the matching positive test.  All tolerances are exact
integer/polynomial equality.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from srcy import fixtures
from srcy.cohomology import h_twist, hodge_pipeline_ci
from srcy.deformation import t1_degree_zero_basis, t1_link_table_crosscheck
from srcy.families import check_first_order_lift
from srcy.fileio import geometry_and_params
from srcy.intlinalg import det
from srcy.pfaffian import (
    SkewPolyMatrix,
    check_quasihomogeneous,
    first_order_pfaffians,
    milnor_quasihomogeneous,
    pfaffian,
    principal_pfaffians,
    quasi_weights,
    verify_first_order,
)
from srcy.polynomial import PolyRing
from srcy.report import emit
from srcy.sr_ideal import degree, hilbert_numerator, minimal_nonfaces
from srcy.symmetry import automorphism_group, orbits_on_t1
from srcy.torusgroup import diagonal_stabilizer, verify_character
from srcy.toric import (
    classify_toric_surface,
    crepancy_check,
    derive_component_structure,
    divisor_meets_hypersurface,
    euler_exceptional,
    intersection_complex,
    match_component_table,
    mckay_count,
    method1_component,
    mirror_euler,
    orbit_closure_component,
    verify_smooth_subdivision,
)
from srcy.verify import run_all

# The exact stdout of `srcy run-all --format json` for the bundled fixtures.
GOLDEN_REPORT = Path(__file__).parent / "data" / "run_all.json"


def check(name, expected, computed):
    status = "PASS" if expected == computed else "FAIL"
    print("%s acceptance: %s (expected %s, computed %s)" % (status, name, expected, computed))
    assert expected == computed, name


def test_t1_dimensions(complexes):
    expected = {"delta4": 105, "p7_1": 92, "p7_2": 79, "p7_3": 79, "p7_4": 67, "p7_5": 56}
    for name, dim in expected.items():
        check("T1 dimension %s" % name, dim, len(t1_degree_zero_basis(complexes[name])))


def test_degrees_and_hilbert(complexes):
    expected = {"delta4": 5, "p7_1": 11, "p7_2": 12, "p7_3": 12, "p7_4": 13, "p7_5": 14}
    for name, d in expected.items():
        check("degree %s" % name, d, degree(complexes[name]))
        check("hilbert numerator at 1 %s" % name, d,
              int(hilbert_numerator(complexes[name]).evaluate({"t": 1})))


def test_automorphism_orders_and_orbits(complexes):
    orders = {"delta4": 120, "p7_2": 8, "p7_3": 48, "p7_4": 8, "p7_5": 14}
    for name, order in orders.items():
        check("automorphism order %s" % name, order, automorphism_group(complexes[name]).order)
    counts = {"delta4": 5, "p7_2": 22, "p7_3": 10, "p7_4": 20, "p7_5": 5}
    partitions = {}
    for name, count in counts.items():
        group = automorphism_group(complexes[name])
        basis = t1_degree_zero_basis(complexes[name])
        partitions[name] = orbits_on_t1(group, basis)
        check("orbit count %s" % name, count, partitions[name].count)
    check("orbit sizes delta4", [5, 20, 20, 30, 30], partitions["delta4"].sizes())
    check("orbit sizes p7_5", [7, 7, 14, 14, 14], partitions["p7_5"].sizes())
    check("orbit sizes sum p7_4", 67, sum(partitions["p7_4"].sizes()))


@pytest.mark.xfail(
    strict=True,
    reason="stated order 8 contradicts brute-force enumeration: the facet "
    "set of the 11-facet sphere is preserved by S3 x Z2 (order 12); "
    "see the decisions ledger",
)
def test_automorphism_order_p7_1_as_stated(complexes):
    check("automorphism order p7_1 (stated)", 8, automorphism_group(complexes["p7_1"]).order)


def test_pfaffian_square_is_determinant():
    ring = PolyRing(["x"])
    rng = random.Random(99)

    count = 0
    for dim in (2, 4, 6, 8):
        for _ in range(26):
            upper = {
                (i, j): ring.const(rng.randint(-9, 9))
                for i in range(1, dim + 1)
                for j in range(i + 1, dim + 1)
            }
            m = SkewPolyMatrix(ring, dim, upper)
            rows = [[m.entry(i, j).constant_value() for j in range(1, dim + 1)]
                    for i in range(1, dim + 1)]
            assert pfaffian(m).constant_value() ** 2 == det(rows)
            count += 1
    check("pfaffian squared equals determinant (matrices checked)", 104, count)


def test_base_and_first_order_syzygies(complexes):
    for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5"):
        matrix, ring = fixtures.family_matrix(name)
        _geo, params = geometry_and_params(ring.names)
        base = SkewPolyMatrix(ring, matrix.dim, {
            k: p.truncate_above(params, 1) for k, p in matrix.upper.items()
        })
        f = principal_pfaffians(base)
        check("base syzygy M.f = 0 %s" % name, True,
              all(r.is_zero() for r in base.mul_vector(f)))
        gens = minimal_nonfaces(complexes[name]).generators
        mono = set()
        for g in gens:
            exps = [0] * ring.nvars
            for v in g:
                exps[ring.index["x%d" % v]] = 1
            mono.add(str(ring.monomial(exps)))
        check("base pfaffians are the ideal generators %s" % name, mono,
              {str(p) for p in f})
        f1 = first_order_pfaffians(matrix, params)
        check("first-order syzygy mod t^2 %s" % name, True,
              verify_first_order(matrix, f1, params))
        check("lift matches the deformation basis %s" % name, True,
              check_first_order_lift(complexes[name], f1, params).ok)


def test_specialized_pfaffian_generators():
    for name, sign in (("degree13", 1), ("degree14", -1)):
        matrix, _ring = fixtures.family_matrix("%s_oneparam" % name)
        expected, _ring2 = fixtures.generator_vector("%s_expected" % name)
        f = principal_pfaffians(matrix)
        check("principal pfaffians match printed generators %s (sign %+d)" % (name, sign),
              True, [sign * e.rename(matrix.ring) for e in expected] == f)


def test_torus_subgroups():
    quintic, ring_q = fixtures.generator_vector("quintic")
    geo_q, _ = geometry_and_params(ring_q.names)
    check("quintic torus subgroup order", 125, diagonal_stabilizer(quintic, geo_q).order)
    gens14, ring14 = fixtures.generator_vector("degree14_expected")
    geo14, _ = geometry_and_params(ring14.names)
    h14 = diagonal_stabilizer(gens14, geo14)
    check("degree-14 torus subgroup", [7], h14.invariant_factors)
    check("degree-14 contains weight vector (0,1,2,3,4,5,6)", True,
          verify_character(gens14, (0, 1, 2, 3, 4, 5, 6), 7, geo14))
    gens13, ring13 = fixtures.generator_vector("degree13_expected")
    geo13, _ = geometry_and_params(ring13.names)
    h13 = diagonal_stabilizer(gens13, geo13)
    check("degree-13 torus subgroup", [13], h13.invariant_factors)
    check("degree-13 contains weight vector (3,3,11,11,1,7,0)", True,
          verify_character(gens13, (3, 3, 11, 11, 1, 7, 0), 13, geo13))


def test_fan_verification(fan_data):
    fan, _f, _inv, _charts = fan_data
    report = verify_smooth_subdivision(fan)
    check("fan has 18 rays and 53 cones", (18, 53), (report.n_rays, report.n_cones))
    check("fan passes smoothness, face and coverage checks", True, report.ok)


def test_crepancy_and_meeting_rays(fan_data):
    fan, fmono, _inv, charts = fan_data
    crep = crepancy_check(fan, fmono)
    meets = {r: divisor_meets_hypersurface(fan, charts, r)
             for r in fan.interior_ray_ids()}
    check("exactly 10 rays meet the strict transform", 10, sum(meets.values()))
    check("excluded rays", [(3, 0, 0, -1), (5, -1, 0, -2), (8, -3, -1, -3), (11, -4, -2, -4)],
          sorted(fan.rays[r] for r, v in meets.items() if not v))
    check("crepancy holds exactly on the meeting rays", True,
          {r for r, v in crep.items() if v} == {r for r, v in meets.items() if v})


@pytest.mark.xfail(
    strict=True,
    reason="the stated criterion extends the discrepancy identity to all 14 "
    "interior rays; the source asserts it only for divisors meeting the "
    "strict transform, and the four non-meeting rays fail it; see ledger",
)
def test_crepancy_all_interior_as_stated(fan_data):
    fan, fmono, _inv, _charts = fan_data
    crep = crepancy_check(fan, fmono)
    check("crepancy on all 14 interior rays (stated)", 14, sum(crep.values()))


def test_chart_polynomials(fan_data):
    _fan, _f, _inv, charts = fan_data
    check("chart polynomial of the first cone",
          "y1^2*y4 + y2^5*y3^3*y4^4 + y2*y3*y4^2 + 1", str(charts[0]))
    check("chart polynomial of cone 29 (pairing-forced exponents)",
          "y1^2*y4 + y2^2*y3 + y3 + 1", str(charts[28]))
    check("chart polynomial of cone 48",
          "y1^3*y2^2*y4^2 + y1 + y2*y3^2 + 1", str(charts[47]))


@pytest.mark.xfail(
    strict=True,
    reason="the printed polynomial for cone 29 has y2*y3^2 where the integer "
    "pairings force y2^2*y3 (difference of the third and fourth invariant "
    "monomials pairs to 2 against the ray (0,0,0,1)); see ledger",
)
def test_chart_tau29_as_printed(fan_data):
    _fan, _f, _inv, charts = fan_data
    check("chart polynomial of cone 29 (printed)",
          "y1^2*y4 + y2*y3^2 + y3 + 1", str(charts[28]))


def test_exceptional_components(fan_data):
    fan, _f, _inv, charts = fan_data
    expected = {
        "E1": ((6, -2, -1, -2), 3, "P2"),
        "E2": ((3, -1, 0, -1), 5, "Bl1F2"),
        "E3": ((11, -4, -2, -5), 4, "F5"),
        "E4": ((7, -2, -1, -3), 4, "F2"),
    }
    for label, (ray, chi, tag) in expected.items():
        sf = method1_component(fan, charts, fan.ray_index(ray))
        check("method-1 component %s" % label, (chi, tag),
              (sf.chi, str(classify_toric_surface(sf.rays))))
    e10 = orbit_closure_component(fan, fan.ray_index((1, 0, 0, 0)),
                                  fan.ray_index((9, -3, -2, -4)))
    e11 = orbit_closure_component(fan, fan.ray_index((0, 0, 1, 0)),
                                  fan.ray_index((9, -3, -2, -4)))
    check("method-3 component E10 chi", 6, e10.chi)
    check("method-3 component E11 chi", 5, e11.chi)


def test_intersection_complex_and_euler(fan_data):
    fan, _f, _inv, charts = fan_data
    structure = derive_component_structure(fan, charts)
    comps = match_component_table(fan, structure, fixtures.component_table())
    cx = intersection_complex(fan, charts, comps)
    check("intersection complex shape (vertices, edges, triangles)", (12, 25, 14),
          (len(cx.faces_of_dim(0)), len(cx.faces_of_dim(1)), len(cx.faces_of_dim(2))))
    expected_facets = sorted([
        (1, 2, 7), (2, 7, 8), (3, 8, 11), (4, 10, 11), (4, 10, 12), (5, 7, 9),
        (5, 7, 10), (5, 10, 12), (6, 7, 9), (6, 7, 10), (6, 10, 12), (7, 8, 9),
        (7, 8, 10), (8, 10, 11),
    ])
    check("intersection complex facet list", expected_facets,
          sorted(tuple(sorted(f)) for f in cx.faces_of_dim(2)))
    check("sum of component Euler characteristics", 61, sum(c.chi for c in comps))
    check("Euler characteristic of the exceptional locus", 25,
          euler_exceptional([c.chi for c in comps], cx))
    check("resolved quotient Euler characteristic", 120,
          mirror_euler(-120, 4, 12, 13, 6, 25, 4, mckay_count(13), 2))


def test_cohomology_ledger():
    check("h^6 of twists -7..-10", [1, 7, 28, 84],
          [h_twist(6, d, 6) for d in (-7, -8, -9, -10)])
    res = fixtures.ci_complexes()
    out = hodge_pipeline_ci(res["structure_sheaf"], res["ideal_square"])
    check("Hodge numbers of the ci fiber", (1, 73), (out.h11, out.h12))
    inter = out.intermediates
    check("chase intermediates (7, 48, 122, 121)", (7, 48, 122, 121),
          (inter["h3_ox_minus1"], inter["h3_omega_restr"], inter["h4_j2"],
           inter["h3_conormal"]))


def test_milnor_and_quasihomogeneity():
    w = quasi_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 5)],
                      ["w", "x", "y", "z"])
    check("Milnor number of weights (2/5, 1/3, 1/5, 1/2)", 12, milnor_quasihomogeneous(w))
    ring = PolyRing(["w", "x", "y", "z"])
    check("w^2 + x^3 + y^5 + y*z^2 is quasi-homogeneous", True,
          check_quasihomogeneous(ring.parse("w^2 + x^3 + y^5 + y*z^2"), w))


def test_property_criteria(complexes):
    # admissible-b counts per link type occurring in the fixtures, with the
    # pentagon contributing nothing
    rows = []
    for k in complexes.values():
        rows.extend(t1_link_table_crosscheck(k))
    tags = {(r.link_type.tag, r.link_type.n) for r in rows}
    check("link table covers the fixture link types", True,
          ("ngon", 5) in tags or ("ngon", 6) in tags)
    check("admissible counts match the link table", True, all(r.ok for r in rows))
    pentagon = [r for r in rows if r.link_type.tag == "ngon" and r.link_type.n == 5]
    check("pentagon links contribute zero", True,
          all(r.enumerated == 0 for r in pentagon))
    # deterministic reports
    a = emit(run_all(only=["milnor", "cohom"]), "json")
    b = emit(run_all(only=["milnor", "cohom"]), "json")
    check("verification reports are byte-identical", True, a == b)


def test_full_report_passes():
    report = run_all()
    failures = [c.id for c in report.failures()]
    check("full verification report has no failures", [], failures)
    check("ingested component rows are marked", 4,
          sum(1 for c in report.checks if c.status == "ingested"))
    assert emit(report, "json") + b"\n" == GOLDEN_REPORT.read_bytes()
