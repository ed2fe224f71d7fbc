import pytest

from srcy import fixtures
from srcy.deformation import first_order_family
from srcy.families import check_first_order_lift
from srcy.fileio import geometry_and_params, parse_matrix_file
from srcy.pfaffian import SkewPolyMatrix, first_order_pfaffians, principal_pfaffians
from srcy.polynomial import PolyRing
from srcy.symmetry import automorphism_group, invariant_specialize, orbit_index_of, orbits_on_t1


def test_all_lifts_match_their_bases(complexes):
    for name in ("p7_1", "p7_2", "p7_3", "p7_4", "p7_5"):
        matrix, ring = fixtures.family_matrix(name)
        _geo, params = geometry_and_params(ring.names)
        result = check_first_order_lift(
            complexes[name], first_order_pfaffians(matrix, params), params)
        assert result.ok, result.problems
        assert result.sign == 1
        assert len(result.matched) == len(params)


def test_negated_lift_matches_with_sign_minus_one(complexes):
    matrix, ring = fixtures.family_matrix("p7_2")
    _geo, params = geometry_and_params(ring.names)
    f1 = first_order_pfaffians(matrix, params)
    plus = check_first_order_lift(complexes["p7_2"], f1, params)
    minus = check_first_order_lift(complexes["p7_2"], [-p for p in f1], params)
    assert minus.ok, minus.problems
    assert minus.sign == -1
    assert minus.matched == plus.matched and len(minus.matched) == len(params)


def test_lift_check_rejects_corruption(complexes):
    matrix, ring = fixtures.family_matrix("p7_4")
    _geo, params = geometry_and_params(ring.names)
    upper = dict(matrix.upper)
    upper[(2, 3)] = upper[(2, 3)] + ring.parse("t18*x5")
    bad = SkewPolyMatrix(ring, matrix.dim, upper)
    result = check_first_order_lift(complexes["p7_4"], first_order_pfaffians(bad, params), params)
    assert not result.ok


def test_a_term_with_two_parameters_is_read_for_each_of_them(complexes):
    """t1*t2*x3 in one Pfaffian is part of t1's coefficient and of t2's, as
    `coefficient_of(t, 1)` reads it, so neither matches a perturbation."""
    matrix, ring = fixtures.family_matrix("p7_2")
    _geo, params = geometry_and_params(ring.names)
    f1 = first_order_pfaffians(matrix, params)
    f1[2] = f1[2] + ring.parse("t1*t2*x3")
    result = check_first_order_lift(complexes["p7_2"], f1, params)
    assert not result.ok
    assert result.problems[:2] == ["parameter t1 is not a basis perturbation",
                                   "parameter t2 is not a basis perturbation"]
    assert "t1" not in result.matched and "t2" not in result.matched
    assert len(result.matched) == len(params) - 2


def test_a_doubled_coefficient_is_rejected(complexes):
    matrix, ring = fixtures.family_matrix("p7_2")
    _geo, params = geometry_and_params(ring.names)
    f1 = first_order_pfaffians(matrix, params)
    t = params[0]
    i = next(i for i, p in enumerate(f1) if p.coefficient_of(t, 1))
    f1[i] = f1[i] + ring.var(t) * f1[i].coefficient_of(t, 1)
    result = check_first_order_lift(complexes["p7_2"], f1, params)
    assert not result.ok
    assert result.problems[0] == "parameter %s is not a basis perturbation" % t
    assert t not in result.matched and len(result.matched) == len(params) - 1


def _give_t2_the_coefficients_of_t1(f1, ring):
    t2 = ring.var("t2")
    return [p - t2 * p.coefficient_of("t2", 1) + t2 * p.coefficient_of("t1", 1) for p in f1]


@pytest.mark.parametrize("mutate, first_problem", [
    (lambda f1, ring: f1[:-1], "generator count mismatch"),
    (lambda f1, ring: [*f1[:2], f1[2] + ring.parse("x1*x2"), *f1[3:]],
     "pfaffian 3 does not reduce to a generator at t=0"),
    (lambda f1, ring: [f1[0], -f1[1], *f1[2:]], "inconsistent signs among the base generators"),
    (lambda f1, ring: [f1[0], f1[0], *f1[2:]],
     "base generators are not a permutation of the ideal generators"),
    (lambda f1, ring: [p - ring.var("t1") * p.coefficient_of("t1", 1) for p in f1],
     "parameter t1 acts trivially on the generators"),
    (_give_t2_the_coefficients_of_t1, "parameter t2 repeats basis element 21"),
], ids=["count", "no_reduction", "signs", "not_a_permutation", "trivial", "repeated"])
def test_each_failure_branch_of_the_lift_check(complexes, mutate, first_problem):
    """One mutation of p7_2's lift per branch; t1 matches basis element 21."""
    matrix, ring = fixtures.family_matrix("p7_2")
    _geo, params = geometry_and_params(ring.names)
    result = check_first_order_lift(
        complexes["p7_2"], mutate(first_order_pfaffians(matrix, params), ring), params)
    assert result.ok is False
    assert result.problems[0] == first_problem


def test_degree13_orbit_specialization_matches_matrix(complexes):
    k = complexes["p7_4"]
    fam = first_order_family(k)
    part = orbits_on_t1(automorphism_group(k), fam.basis)
    assignment = {
        orbit_index_of(part, fam.basis, (5,), {3, 4, 6}): "s",
        orbit_index_of(part, fam.basis, (6,), {5, 7}): "s",
        orbit_index_of(part, fam.basis, (1, 2), {3, 4, 7}): "s",
    }
    spec = invariant_specialize(fam, part, assignment)
    matrix, _ring = fixtures.family_matrix("degree13_oneparam")
    truncated = [p.truncate_above(["s"], 2) for p in principal_pfaffians(matrix)]
    ours = sorted(str(p.rename(matrix.ring)) for p in spec.generators)
    assert ours == sorted(map(str, truncated))


def test_degree14_orbit_specialization_via_appendix(complexes):
    k = complexes["p7_5"]
    fam = first_order_family(k)
    part = orbits_on_t1(automorphism_group(k), fam.basis)
    block = orbit_index_of(part, fam.basis, (1, 3), {4, 7})
    assert len(part.blocks[block]) == 7
    spec = invariant_specialize(fam, part, {block: "s"})

    full, ring = fixtures.family_matrix("p7_5")
    _geo, params = geometry_and_params(ring.names)
    lift = check_first_order_lift(k, first_order_pfaffians(full, params), params)
    keep = {t for t, idx in lift.matched.items() if idx in set(part.blocks[block])}
    sring = PolyRing([n for n in ring.names if n.startswith("x")] + ["s"])
    entries = {
        key: poly.truncate_above([t for t in params if t not in keep], 1).rename(
            sring, {t: "s" for t in keep})
        for key, poly in full.upper.items()
    }
    spec_matrix = SkewPolyMatrix(sring, full.dim, entries)
    f1 = first_order_pfaffians(spec_matrix, ["s"])
    assert sorted(str(p.rename(sring)) for p in spec.generators) == sorted(
        str(lift.sign * p) for p in f1
    )


@pytest.mark.parametrize("old, new", [(None, None), ("+ t24*x2", "+ 2*t24*x2")])
def test_specialized_lift_pfaffians_are_the_specialized_matrix_pfaffians(complexes, old, new):
    """Setting the orbit's parameters to s and the rest to 0 commutes with
    the first-order Pfaffians: the lift's Pfaffians, specialized, are the
    Pfaffians mod s^2 of the specialized matrix.  With t24 doubled the
    lift matches no basis, and the identity still holds."""
    text = fixtures.FixtureSet().path("family_matrix", "p7_5").read_text()
    if old is not None:
        assert text.count(old) == 1
        text = text.replace(old, new)
    full, ring = parse_matrix_file(text)
    geo, params = geometry_and_params(ring.names)
    k = complexes["p7_5"]
    fam = first_order_family(k)
    part = orbits_on_t1(automorphism_group(k), fam.basis)
    block = set(part.blocks[orbit_index_of(part, fam.basis, (1, 3), {4, 7})])
    f1 = first_order_pfaffians(full, params)
    lift = check_first_order_lift(k, f1, params)
    assert lift.ok is (old is None)
    keep = {t: "s" for t, idx in lift.matched.items() if idx in block}
    assert keep
    dropped = [t for t in params if t not in keep]
    sring = PolyRing(geo + ["s"])
    entries = {key: poly.truncate_above(dropped, 1).rename(sring, keep)
               for key, poly in full.upper.items()}
    reference = first_order_pfaffians(SkewPolyMatrix(sring, full.dim, entries), ["s"])
    assert [p.truncate_above(dropped, 1).rename(sring, keep) for p in f1] == reference


def test_printed_degree14_matrix_drops_one_lift_entry(complexes):
    """The printed one-parameter matrix misses the (1,2) = s*x2 entry.

    Restoring it reproduces the orbit specialization; as printed, exactly
    one generator lacks its linear term.
    """
    k = complexes["p7_5"]
    fam = first_order_family(k)
    part = orbits_on_t1(automorphism_group(k), fam.basis)
    block = orbit_index_of(part, fam.basis, (1, 3), {4, 7})
    spec = invariant_specialize(fam, part, {block: "s"})

    printed, ring = fixtures.family_matrix("degree14_oneparam")
    f_printed = [
        p.truncate_above(["s"], 2) for p in principal_pfaffians(printed)
    ]
    ours = sorted(str(p.rename(ring)) for p in spec.generators)
    assert sorted(map(str, f_printed)) != ours
    assert sum(str(p) in ours for p in f_printed) == 6

    upper = dict(printed.upper)
    upper[(1, 2)] = ring.parse("s*x2")
    restored = SkewPolyMatrix(ring, printed.dim, upper)
    f_restored = [
        p.truncate_above(["s"], 2) for p in principal_pfaffians(restored)
    ]
    assert sorted(map(str, f_restored)) == ours
