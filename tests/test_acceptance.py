"""Acceptance gate: the verification report, criterion by criterion.

`run_all` computes every recomputable number of the source and records
each as one report entry with its expected value; the golden file pins
the whole report byte for byte.  Each test below names one group of
entries (by id prefix) and asserts that all of them pass, so a failing
claim shows up under its criterion and a golden file rewritten with a
FAIL in it is still caught.  No value is repeated here.
"""

from pathlib import Path

import pytest

from srcy.report import FAIL, INGESTED, PASS, emit
from srcy.verify import run_all

# The exact stdout of `srcy run-all --format json` for the bundled fixtures.
GOLDEN_REPORT = Path(__file__).parent / "data" / "run_all.json"

# Criterion -> the report id prefixes it covers; together they cover every entry once.
CRITERIA = {
    "t1_dimensions": ("t1.dimension.",),
    "degrees_and_hilbert": ("sr.",),
    "automorphism_orders_and_orbits": ("aut.", "orbits."),
    "pfaffian_square_is_determinant": ("pfaffian.square_is_det",),
    "base_and_first_order_syzygies": ("pfaffian.base_", "pfaffian.first_order_syzygy.",
                                      "pfaffian.lift_matches_basis."),
    "specialized_pfaffian_generators": ("pfaffian.specialized_generators.",
                                        "pfaffian.orbit_family."),
    "torus_subgroups": ("torus.",),
    "fan_verification": ("toric.fan_",),
    "crepancy_and_meeting_rays": ("toric.meeting_rays", "toric.non_meeting_rays",
                                  "toric.crepant_equals_meeting"),
    "chart_polynomials": ("toric.chart",),
    "exceptional_components": ("toric.method", "toric.factor_pair_chi", "toric.bundle_base."),
    "intersection_complex_and_euler": ("toric.polytope_", "toric.component_count",
                                       "toric.factor_disjointness", "toric.chi",
                                       "toric.intersection_", "toric.mckay",
                                       "toric.mirror_euler"),
    "cohomology_ledger": ("cohom.",),
    "milnor_and_quasihomogeneity": ("milnor.",),
    "property_criteria": ("t1.link_table.", "t1.no_2face_contributions."),
}


@pytest.fixture(scope="module")
def report():
    return run_all()


def check(report, criterion):
    entries = [c for c in report.checks if c.id.startswith(CRITERIA[criterion])]
    assert entries, criterion
    for c in entries:
        print("%s acceptance: %s (expected %s, computed %s)"
              % (c.status.upper(), c.id, c.expected, c.computed))
    assert [c.id for c in entries if c.status == FAIL] == [], criterion


def test_t1_dimensions(report):
    check(report, "t1_dimensions")


def test_degrees_and_hilbert(report):
    check(report, "degrees_and_hilbert")


def test_automorphism_orders_and_orbits(report):
    check(report, "automorphism_orders_and_orbits")


def test_pfaffian_square_is_determinant(report):
    check(report, "pfaffian_square_is_determinant")


def test_base_and_first_order_syzygies(report):
    check(report, "base_and_first_order_syzygies")


def test_specialized_pfaffian_generators(report):
    check(report, "specialized_pfaffian_generators")


def test_torus_subgroups(report):
    check(report, "torus_subgroups")


def test_fan_verification(report):
    check(report, "fan_verification")


def test_crepancy_and_meeting_rays(report):
    check(report, "crepancy_and_meeting_rays")


def test_chart_polynomials(report):
    check(report, "chart_polynomials")


def test_exceptional_components(report):
    check(report, "exceptional_components")


def test_intersection_complex_and_euler(report):
    check(report, "intersection_complex_and_euler")


def test_cohomology_ledger(report):
    check(report, "cohomology_ledger")


def test_milnor_and_quasihomogeneity(report):
    check(report, "milnor_and_quasihomogeneity")


def test_property_criteria(report):
    check(report, "property_criteria")


def test_full_report_passes(report):
    # every entry belongs to exactly one criterion, so a new entry must be placed
    owners = {c.id: [k for k, p in CRITERIA.items() if c.id.startswith(p)]
              for c in report.checks}
    assert {i: o for i, o in owners.items() if len(o) != 1} == {}
    assert {c.status for c in report.checks} <= {PASS, INGESTED}
    assert emit(report, "json") + b"\n" == GOLDEN_REPORT.read_bytes()
