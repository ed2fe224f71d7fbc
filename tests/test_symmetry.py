from itertools import combinations, permutations
from math import factorial

from srcy.deformation import first_order_family, t1_degree_zero_basis
from srcy.simplicial import SimplicialComplex, join, ngon
from srcy.symmetry import (
    act_on_element,
    automorphism_group,
    invariant_specialize,
    orbit_index_of,
    orbits_on_t1,
)

# orders recorded for the five families with a published symmetry analysis;
# the 11-facet sphere's group comes out of the enumeration itself
AUT_ORDERS = {"delta4": 120, "p7_1": 12, "p7_2": 8, "p7_3": 48, "p7_4": 8, "p7_5": 14}
ORBIT_COUNTS = {"delta4": 5, "p7_2": 22, "p7_3": 10, "p7_4": 20, "p7_5": 5}


def test_automorphism_orders(complexes):
    for name, k in complexes.items():
        group = automorphism_group(k)
        assert group.order == AUT_ORDERS[name]
        assert factorial(len(k.vertices)) % group.order == 0


def _brute_force_automorphisms(k):
    """Reference: the facet-preserving members of S_n, in lexicographic order."""
    verts = k.vertices
    out = []
    for image in permutations(verts):
        perm = dict(zip(verts, image))
        if {frozenset(perm[v] for v in f) for f in k.facets} == k.facets:
            out.append(perm)
    return out


def _cyclic_polytope_4_boundary(n):
    """Boundary of the cyclic 4-polytope C(n, 4), by Gale's evenness condition."""
    facets = []
    for s in combinations(range(n), 4):
        gaps = [v for v in range(n) if v not in s]
        if all(sum(1 for v in s if i < v < j) % 2 == 0 for i, j in combinations(gaps, 2)):
            facets.append(s)
    return SimplicialComplex(facets)


def test_automorphisms_match_brute_force(complexes):
    """The search returns exactly the S_n filter's elements, in its order.

    The boundary of C(8, 4) is neighborly: all 8! bijections preserve its
    edge graph and only 16 preserve its facets.  The 4-gon * 4-gon join is
    the boundary of the cross-polytope, with 384 automorphisms.
    """
    cases = dict(complexes)
    cases["cyclic_8_4"] = _cyclic_polytope_4_boundary(8)
    cases["join_4_4"] = join(ngon(4), ngon(4, labels=[4, 5, 6, 7]))
    assert len(cases["cyclic_8_4"].faces_of_dim(1)) == 28
    orders = {}
    for name, k in cases.items():
        reference = _brute_force_automorphisms(k)
        assert automorphism_group(k).elements == reference, name
        orders[name] = len(reference)
    assert orders["cyclic_8_4"] == 16 and orders["join_4_4"] == 384


def test_p7_1_group_structure(complexes):
    """The 11-facet sphere admits all of S3 x Z2 and nothing more.

    Vertices split by facet degree into {1,2,3}, {5,6}, {4,7}; the three
    transpositions of the first class and the flip (4 7)(5 6) preserve
    the facet list, while swapping 4,7 alone does not.
    """
    k = complexes["p7_1"]
    group = automorphism_group(k)
    elements = {tuple(g[v] for v in k.vertices) for g in group.elements}
    assert (2, 1, 3, 4, 5, 6, 7) in elements
    assert (1, 2, 3, 7, 6, 5, 4) in elements
    assert (1, 2, 3, 7, 5, 6, 4) not in elements
    assert group.order == 12


def test_generators_generate(complexes):
    from srcy.symmetry import _closure

    for k in complexes.values():
        group = automorphism_group(k)
        assert len(_closure(k.vertices, group.generators)) == group.order


def test_elements_preserve_facets(complexes):
    for k in complexes.values():
        group = automorphism_group(k)
        for g in group.elements:
            assert {frozenset(g[v] for v in f) for f in k.facets} == k.facets


def test_orbit_counts_and_sizes(complexes):
    for name, k in complexes.items():
        group = automorphism_group(k)
        basis = t1_degree_zero_basis(k)
        part = orbits_on_t1(group, basis)
        if name in ORBIT_COUNTS:
            assert part.count == ORBIT_COUNTS[name]
        assert sum(part.sizes()) == len(basis)
        for size in part.sizes():
            assert group.order % size == 0
    part5 = orbits_on_t1(
        automorphism_group(complexes["p7_5"]), t1_degree_zero_basis(complexes["p7_5"])
    )
    assert part5.sizes() == [7, 7, 14, 14, 14]
    partq = orbits_on_t1(
        automorphism_group(complexes["delta4"]), t1_degree_zero_basis(complexes["delta4"])
    )
    assert partq.sizes() == [5, 20, 20, 30, 30]


def test_action_is_well_defined(complexes):
    k = complexes["p7_4"]
    group = automorphism_group(k)
    basis = set(t1_degree_zero_basis(k))
    for g in group.elements:
        for elem in list(basis)[:10]:
            assert act_on_element(g, elem) in basis


def test_quintic_invariant_specialization(complexes):
    k = complexes["delta4"]
    fam = first_order_family(k)
    group = automorphism_group(k)
    part = orbits_on_t1(group, fam.basis)
    block = orbit_index_of(part, fam.basis, (0,), {1, 2, 3, 4})
    spec = invariant_specialize(fam, part, {block: "t"})
    assert len(spec.generators) == 1
    expected = spec.ring.parse(
        "x0*x1*x2*x3*x4 + t*(x0^5 + x1^5 + x2^5 + x3^5 + x4^5)"
    )
    assert spec.generators[0] == expected


def test_all_zero_assignment_recovers_base(complexes):
    k = complexes["p7_3"]
    fam = first_order_family(k)
    group = automorphism_group(k)
    part = orbits_on_t1(group, fam.basis)
    spec = invariant_specialize(fam, part, {})
    base = [g.substitute({t: 0 for t in fam.params}) for g in fam.generators]
    assert [str(p) for p in spec.generators] == [str(p) for p in base]


def test_specialized_family_is_invariant(complexes):
    k = complexes["p7_5"]
    fam = first_order_family(k)
    group = automorphism_group(k)
    part = orbits_on_t1(group, fam.basis)
    block = orbit_index_of(part, fam.basis, (1, 3), {4, 7})
    spec = invariant_specialize(fam, part, {block: "s"})
    gens = {str(p) for p in spec.generators}
    for g in group.generators:
        mapping = {"x%d" % v: "x%d" % g[v] for v in k.vertices}
        moved = {str(p.rename(spec.ring, mapping)) for p in spec.generators}
        assert moved == gens
