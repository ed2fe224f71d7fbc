import random
from itertools import combinations, permutations
from math import factorial

import pytest

from srcy.deformation import T1BasisElement, first_order_family, t1_degree_zero_basis
from srcy.simplicial import SimplicialComplex, join
from srcy.symmetry import automorphism_group, invariant_specialize, orbit_index_of, orbits_on_t1
from test_simplicial import _relabel, ngon

# orders recorded for the five families with a published symmetry analysis;
# the 11-facet sphere's group comes out of the enumeration itself
AUT_ORDERS = {"delta4": 120, "p7_1": 12, "p7_2": 8, "p7_3": 48, "p7_4": 8, "p7_5": 14}
ORBIT_COUNTS = {"delta4": 5, "p7_2": 22, "p7_3": 10, "p7_4": 20, "p7_5": 5}


def test_automorphism_orders(complexes):
    for name, k in complexes.items():
        group = automorphism_group(k)
        assert group.order == AUT_ORDERS[name]
        assert factorial(len(k.vertices)) % group.order == 0


@pytest.mark.xfail(
    strict=True,
    reason="stated order 8 contradicts brute-force enumeration: the facet "
    "set of the 11-facet sphere is preserved by S3 x Z2 (order 12); "
    "see the decisions ledger",
)
def test_automorphism_order_p7_1_as_stated(complexes):
    assert automorphism_group(complexes["p7_1"]).order == 8


def _brute_force_automorphisms(k):
    """Reference: the facet-preserving members of S_n, in lexicographic order.

    A bijection of the vertices that sends every facet to a facet permutes
    the facets, so the first facet whose image is not a facet rejects it.
    """
    verts, facets = k.vertices, k.facets
    out = []
    for image in permutations(verts):
        perm = dict(zip(verts, image))
        if all(frozenset(perm[v] for v in f) in facets for f in facets):
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
        assert list(automorphism_group(k).elements) == reference, name
        orders[name] = len(reference)
    assert orders["cyclic_8_4"] == 16 and orders["join_4_4"] == 384


def _reference_isomorphisms(k, other):
    """Reference: the search with a two-way subset test and a leaf comparison.

    Mapping v to w keeps a partial map only if each set of mapped vertices
    that holds v and is no larger than a facet is a face exactly when its
    image is a face; a full map is kept only if it carries the facets of k
    onto the facets of other.
    """
    deg_s, deg_o = k.vertex_degrees(), other.vertex_degrees()
    if (len(k.vertices) != len(other.vertices)
            or sorted(map(len, k.facets)) != sorted(map(len, other.facets))
            or sorted(deg_s.values()) != sorted(deg_o.values())):
        return
    mine = sorted(k.vertices, key=lambda v: (deg_s[v], v))
    width = max(map(len, k.facets))
    faces_s, faces_o, mapping = k.faces(), other.faces(), {}

    def extend(i):
        if i == len(mine):
            if {frozenset(map(mapping.get, f)) for f in k.facets} == other.facets:
                yield dict(mapping)
            return
        v = mine[i]
        for w in other.vertices:
            if w in mapping.values() or deg_o[w] != deg_s[v]:
                continue
            mapping[v] = w
            if all((frozenset((v, *c)) in faces_s)
                   == (frozenset(map(mapping.get, (v, *c))) in faces_o)
                   for j in range(1, min(i, width - 1) + 1)
                   for c in combinations(mine[:i], j)):
                yield from extend(i + 1)
            del mapping[v]

    yield from extend(0)


def _reference_closure(verts, gens):
    identity = {v: v for v in verts}
    seen = {tuple(verts): identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = {v: g[cur[v]] for v in cur}
            key = tuple(nxt[v] for v in verts)
            if key not in seen:
                seen[key] = nxt
                frontier.append(nxt)
    return list(seen.values())


def _reference_greedy_generators(verts, elements):
    """Reference: each element is tried with a fresh closure of the chosen ones."""
    chosen = []
    generated = 1
    for g in sorted(elements, key=lambda p: tuple(p[v] for v in verts)):
        if tuple(g[v] for v in verts) == tuple(verts):
            continue
        if generated == len(elements):
            break
        trial = _reference_closure(verts, chosen + [g])
        if len(trial) > generated:
            chosen.append(g)
            generated = len(trial)
    pruned = list(chosen)
    for g in list(pruned):
        rest = [h for h in pruned if h is not g]
        if rest and len(_reference_closure(verts, rest)) == len(elements):
            pruned = rest
    return pruned


def _one_line(k, perm):
    return tuple(perm[v] for v in k.vertices)


def _guard_cases(complexes):
    """The fixtures, two cyclic 4-polytopes and four n-gon joins, each with
    two seeded relabelings onto scattered labels, as (name, complex,
    relabelings) triples."""
    bases = dict(complexes)
    bases["cyclic_7_4"] = _cyclic_polytope_4_boundary(7)
    bases["cyclic_8_4"] = _cyclic_polytope_4_boundary(8)
    for m, n in ((3, 3), (3, 4), (3, 5), (4, 4)):
        bases["join_%d_%d" % (m, n)] = join(ngon(m), ngon(n, labels=list(range(m, m + n))))
    out = []
    for name, k in bases.items():
        relabelings = []
        for seed in (1, 2):
            labels = random.Random(seed).sample(range(3 * len(k.vertices)), len(k.vertices))
            relabelings.append(dict(zip(k.vertices, labels)))
        out.append((name, k, relabelings))
    return out


def test_automorphism_group_matches_the_reference_search(complexes):
    """Same elements in the same order, and the same generators.

    A relabeling s turns each automorphism g of k into s g s^-1, so the
    relabeled complexes are checked against the conjugated reference.
    """
    for name, k, relabelings in _guard_cases(complexes):
        reference = list(_reference_isomorphisms(k, k))
        for s in [{v: v for v in k.vertices}] + relabelings:
            ks = _relabel(k, s)
            expected = sorted(({s[v]: s[g[v]] for v in k.vertices} for g in reference),
                              key=lambda p: _one_line(ks, p))
            group = automorphism_group(ks)
            assert list(group.elements) == expected, name
            assert list(group.generators) == _reference_greedy_generators(ks.vertices, expected), name


def _from_words(words):
    return SimplicialComplex([int(c) for c in w] for w in words.split())


def test_isomorphisms_match_the_reference_search(complexes):
    """The same maps in the same order, on isomorphic and non-isomorphic pairs.

    Each guard case goes to its second relabeling from its first, and to
    every other guard case with as many vertices.  The non-isomorphic pairs
    that pass the early exits are two 2-spheres with f-vector (1, 8, 18, 12)
    and equal degrees, and a hexagon against two triangles.
    """
    pairs = []
    cases = []
    for name, k, (s1, s2) in _guard_cases(complexes):
        pairs.append((_relabel(k, s1), _relabel(k, s2)))
        cases.append(_relabel(k, s1))
    pairs += [(a, b) for a in cases for b in cases
              if a is not b and len(a.vertices) == len(b.vertices)]
    twins = (_from_words("035 036 057 067 124 127 136 137 146 246 267 357"),
             _from_words("012 016 027 056 057 126 234 236 247 346 456 457"))
    cycles = (ngon(6), SimplicialComplex([{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}]))
    pairs += [twins, twins[::-1], cycles, cycles[::-1]]
    found = {True: 0, False: 0}
    for k, other in pairs:
        maps = list(k.isomorphisms(other))
        assert maps == list(_reference_isomorphisms(k, other))
        found[bool(maps)] += 1
    assert found[True] >= 14 and found[False] >= 4


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
    for k in complexes.values():
        group = automorphism_group(k)
        assert len(_reference_closure(k.vertices, group.generators)) == group.order


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


def _image_key(perm, elem):
    """The (support, a_vector, b) fields of the image of `elem` under `perm`."""
    pairs = sorted((perm[v], e) for v, e in zip(elem.support, elem.a_vector))
    return (tuple(v for v, _ in pairs), tuple(e for _, e in pairs),
            frozenset(perm[v] for v in elem.b))


def test_action_is_well_defined(complexes):
    k = complexes["p7_4"]
    group = automorphism_group(k)
    basis = set(t1_degree_zero_basis(k))
    for g in group.elements:
        for elem in list(basis)[:10]:
            assert T1BasisElement(*_image_key(g, elem)) in basis


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
    base = [g.truncate_above(fam.params, 1) for g in fam.generators]
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
