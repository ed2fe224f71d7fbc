import gc
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcy.deformation import (
    LINK_CONTRIBUTIONS,
    OTHER,
    LinkType,
    T1BasisElement,
    admissible_b,
    admissible_pairs,
    classify_link,
    first_order_family,
    perturbation,
    t1_degree_zero_basis,
    t1_link_table_crosscheck,
    variable_ring,
)
from srcy.polynomial import Poly
from srcy.simplicial import (
    SimplicialComplex,
    boundary,
    is_combinatorial_3sphere_candidate,
    join,
)
from srcy.sr_ideal import minimal_nonfaces
from srcy.symmetry import automorphism_group
from test_simplicial import (
    _boundary_simplex,
    _cyclic_polytope_boundary,
    _euler,
    _link,
    _pinched_spheres,
    _relabel,
    _suspension_of_ngon,
    ngon,
)
from test_symmetry import _cyclic_polytope_4_boundary, _reference_isomorphisms

T1_DIMS = {"delta4": 105, "p7_1": 92, "p7_2": 79, "p7_3": 79, "p7_4": 67, "p7_5": 56}


def test_admissible_b_on_cycles():
    e4 = ngon(4, [1, 2, 3, 4])
    assert admissible_b(e4, {1, 3})
    assert admissible_b(e4, {2, 4})
    assert not admissible_b(e4, {1, 2})
    e3 = ngon(3, [1, 2, 3])
    assert sum(admissible_b(e3, set(b)) for b in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]) == 4
    e5 = ngon(5, [1, 2, 3, 4, 5])
    from itertools import combinations

    assert not any(admissible_b(e5, set(b)) for r in (2, 3, 4, 5)
                   for b in combinations([1, 2, 3, 4, 5], r))


def test_admissible_b_counts_on_two_spheres():
    from itertools import combinations

    def count(link):
        return sum(
            admissible_b(link, set(b))
            for r in range(2, len(link.vertices) + 1)
            for b in combinations(link.vertices, r)
        )

    assert count(_boundary_simplex(3)) == 11
    assert count(_suspension_of_ngon(3)) == 5
    assert count(_suspension_of_ngon(4)) == 3
    assert count(_suspension_of_ngon(5)) == 1
    assert count(_suspension_of_ngon(6)) == 1


@pytest.mark.parametrize("facets, b", [
    # the cone over a 4-cycle from 5, and from 6 all but one triangle: b is not a face
    ([(5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1), (6, 1, 2), (6, 2, 3), (6, 3, 4)], {5, 6}),
    # a tetrahedron boundary without the triangle 234: b is a face
    ([(1, 3, 4), (1, 2, 3), (1, 2, 4)], {1, 2}),
])
def test_facets_meeting_b_in_all_but_one_vertex_are_not_enough(facets, b):
    link = SimplicialComplex([frozenset(f) for f in facets])
    assert all(len(f & b) >= len(b) - 1 for f in link.facets)
    assert not admissible_b(link, b)


def test_admissible_b_validates_input():
    e4 = ngon(4, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        admissible_b(e4, {1})
    with pytest.raises(ValueError):
        admissible_b(e4, {1, 9})


def test_a_basis_element_checks_its_fields():
    assert T1BasisElement((1, 2), (1, 1), frozenset({3, 4})).a_vector == (1, 1)
    with pytest.raises(ValueError, match="disjoint"):
        T1BasisElement((1, 2), (1, 1), frozenset({2, 3}))
    with pytest.raises(ValueError, match="degree-zero"):
        T1BasisElement((1, 2), (1, 1), frozenset({3}))
    with pytest.raises(ValueError, match="positive"):
        T1BasisElement((1, 2), (2, 0), frozenset({3, 4}))


def test_admissible_b_relabeling_invariant():
    rng = random.Random(3)
    links = [_boundary_simplex(3), _suspension_of_ngon(4), ngon(5, [1, 2, 3, 4, 5])]
    from itertools import combinations

    for link in links:
        for b in combinations(link.vertices, 2):
            value = admissible_b(link, set(b))
            perm = list(link.vertices)
            rng.shuffle(perm)
            mapping = dict(zip(link.vertices, perm))
            relabeled = _relabel(link, mapping)
            assert admissible_b(relabeled, {mapping[v] for v in b}) == value


def test_t1_dimensions(complexes):
    for name, k in complexes.items():
        assert len(t1_degree_zero_basis(k)) == T1_DIMS[name]


def test_t1_weighted_sum_identity(complexes):
    from math import comb

    for name, k in complexes.items():
        from srcy.deformation import admissible_pairs

        total = sum(comb(len(b) - 1, len(a) - 1) for a, b in admissible_pairs(k))
        assert total == T1_DIMS[name]


def test_no_contribution_from_two_faces(complexes):
    for k in complexes.values():
        two_faces = {tuple(sorted(f)) for f in k.faces_of_dim(2)}
        for elem in t1_degree_zero_basis(k):
            assert elem.support not in two_faces


def test_link_table_crosscheck(complexes):
    for k in complexes.values():
        rows = t1_link_table_crosscheck(k)
        assert rows and all(r.ok for r in rows)


def test_crosscheck_includes_triangle_count_four(complexes):
    rows = t1_link_table_crosscheck(complexes["delta4"])
    triangle_rows = [r for r in rows if r.link_type.tag == "ngon" and r.link_type.n == 3]
    assert triangle_rows and all(r.expected == 4 for r in triangle_rows)
    # pentagon links occur in the fixtures and admit no b
    pentagon_rows = [r for k in complexes.values() for r in t1_link_table_crosscheck(k)
                     if r.link_type.tag == "ngon" and r.link_type.n == 5]
    assert pentagon_rows and all((r.expected, r.enumerated) == (0, 0) for r in pentagon_rows)


def test_perturbation_examples(complexes):
    k = complexes["p7_1"]
    ring = variable_ring(k)
    gens = minimal_nonfaces(k).generators
    basis = t1_degree_zero_basis(k)
    elem = next(e for e in basis if e.support == (1,) and e.b == frozenset({2, 3}))
    images = perturbation(elem, gens, ring)
    assert str(images[(1, 2, 3, 6)]) == "x1^3*x6"
    assert str(images[(1, 2, 3, 5)]) == "x1^3*x5"
    assert images[(4, 6)] is None

    quintic = complexes["delta4"]
    qring = variable_ring(quintic)
    qgens = minimal_nonfaces(quintic).generators
    qelem = next(
        e for e in t1_degree_zero_basis(quintic)
        if e.support == (0,) and e.b == frozenset({1, 2, 3, 4})
    )
    qimages = perturbation(qelem, qgens, qring)
    assert str(qimages[(0, 1, 2, 3, 4)]) == "x0^5"


def test_first_order_family_structure(complexes):
    k = complexes["p7_5"]
    fam = first_order_family(k)
    assert len(fam.params) == 56
    base = [g.truncate_above(fam.params, 1) for g in fam.generators]
    gens = minimal_nonfaces(k).generators
    assert len(base) == len(gens)
    for poly, g in zip(base, gens):
        assert len(list(poly.items())) == 1
    # every parameter appears linearly and preserves x-degree
    for poly, g in zip(fam.generators, gens):
        for t in fam.params:
            coeff = poly.coefficient_of(t, 1)
            if not coeff.is_zero():
                assert coeff.total_degree() == len(g)
        assert poly.truncate_above(fam.params, 2) == poly


def _reference_image(ring, elem, p):
    """x_p * x^a / x_b through `power_product` when b <= p, else None."""
    if not elem.b <= set(p):
        return None
    powers = dict.fromkeys(("x%d" % v for v in set(p) - elem.b), 1)
    for v, e in zip(elem.support, elem.a_vector):
        powers["x%d" % v] = powers.get("x%d" % v, 0) + e
    return ring.power_product(powers)


def _reference_family_generators(k, ring, params):
    """x_p + sum_i t_i phi_i(x_p) as one `Poly.dot` of one-term pairs per generator."""
    basis = t1_degree_zero_basis(k)
    out = []
    for p in minimal_nonfaces(k).generators:
        pairs = [(ring.one(), ring.power_product(dict.fromkeys(("x%d" % v for v in p), 1)))]
        for t, elem in zip(params, basis):
            image = _reference_image(ring, elem, p)
            if image is not None:
                pairs.append((ring.var(t), image))
        out.append(Poly.dot(ring, pairs))
    return out


def test_family_and_perturbations_match_the_one_term_products(complexes):
    joined = join(ngon(4), ngon(4, [4, 5, 6, 7]))
    for k in [*complexes.values(), joined]:
        fam = first_order_family(k)
        assert fam.ring == variable_ring(k, extra=fam.params)
        assert fam.generators == _reference_family_generators(k, fam.ring, fam.params)
        gens = minimal_nonfaces(k).generators
        for elem in fam.basis:
            assert perturbation(elem, gens, fam.ring) == {
                p: _reference_image(fam.ring, elem, p) for p in gens}


def _reference_crosscheck(k):
    """(face, tag, expected, enumerated) by the direct subset loop per face link."""
    rows = []
    for f in sorted(k.faces(), key=lambda f: (len(f), tuple(sorted(f)))):
        link = _link(k, f)
        if not f or link.dim() > 2 or link.facets == frozenset({frozenset()}):
            continue
        tag = _reference_link_type(link)
        enumerated = sum(
            admissible_b(link, set(b))
            for r in range(2, len(link.vertices) + 1)
            for b in combinations(link.vertices, r)
        )
        rows.append((tuple(sorted(f)), tag, LINK_CONTRIBUTIONS[tag.tag](tag.n), enumerated))
    return rows


def _reference_spheres(nv):
    """(tag, n, reference complex) for each link type on nv vertices."""
    if nv == 2:
        yield "two_points", None, SimplicialComplex([{0}, {1}])
    if nv >= 3:
        yield "ngon", nv, ngon(nv)
    if nv == 4:
        yield "boundary_tetrahedron", None, _boundary_simplex(3)
    if nv == 5:
        yield "susp_triangle", None, _suspension_of_ngon(3)
    if nv == 6:
        yield "susp_quadrangle", None, _suspension_of_ngon(4)
    if nv >= 7:
        yield "susp_ngon", nv - 2, _suspension_of_ngon(nv - 2)
    if nv >= 6:
        yield "cyclic_polytope", nv, _cyclic_polytope_boundary(nv)


def _reference_link_type(link):
    """The type of the reference on the link's vertex count that the test
    search maps the link onto; else other_sphere for a 2-sphere, by the
    frozenset test `_reference_is_sphere`, and OTHER for anything else."""
    nv = len(link.vertices)
    for tag, n, reference in _reference_spheres(nv):
        if next(_reference_isomorphisms(link, reference), None) is not None:
            return LinkType(tag, n)
    return LinkType("other_sphere", nv) if _reference_is_sphere(link, 2) else OTHER


def _non_spheres():
    """Complexes of dimension <= 2 that are no link type, though their vertex
    counts, degrees or ridge counts are those of one."""
    return [
        # five vertices, with the edge 12 in three triangles
        SimplicialComplex([*_boundary_simplex(3).facets, {1, 2, 5}]),
        _link(_torus_suspension(), {7}),  # seven vertices, each of degree 6
        _pinched_spheres(),  # both apexes of degree 6, not adjacent
        # two tetrahedron boundaries at a vertex: Euler characteristic 3
        SimplicialComplex([*_boundary_simplex(3).facets, *boundary({0, 4, 5, 6}).facets]),
        SimplicialComplex([{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}]),
        SimplicialComplex([{1, 2}, {2, 3}]),
        SimplicialComplex([{0}, {1}, {2}]),
        SimplicialComplex([{0, 1, 2}, {2, 3}]),
        SimplicialComplex([{0, 1, 2}]),
        SimplicialComplex([]),
    ]


# sphere 31 of `bistellar.py --seed 1`: the links of 0 and 6 are 2-spheres
# on 7 vertices with neither apex pattern, each with two adjacent vertices
# of degree 5
SPHERE_WITH_UNTYPED_LINKS = SimplicialComplex(map(frozenset, [
    (0, 1, 2, 5), (0, 1, 2, 7), (0, 1, 4, 6), (0, 1, 4, 7), (0, 1, 5, 6), (0, 2, 3, 5),
    (0, 2, 3, 6), (0, 2, 6, 7), (0, 3, 5, 6), (0, 4, 6, 7), (1, 2, 5, 6), (1, 2, 6, 7),
    (1, 4, 6, 7), (2, 3, 5, 6)]))


def test_classify_link_matches_the_isomorphism_reference(complexes):
    """Every face link the crosscheck classifies, the reference spheres
    themselves, the vertex links of a sphere two of which match no reference,
    and complexes that are no sphere; the Tier-1 bistellar spheres go
    through the same reference in `bistellar.problems`."""
    links = [_link(k, f) for k in complexes.values() for f in k.faces() if 0 < len(f) < 4]
    links += [ref for nv in range(2, 12) for _tag, _n, ref in _reference_spheres(nv)]
    links += [_link(SPHERE_WITH_UNTYPED_LINKS, {v}) for v in SPHERE_WITH_UNTYPED_LINKS.vertices]
    for link in links:
        assert classify_link(link) == _reference_link_type(link) != OTHER, link
    for link in _non_spheres():
        assert classify_link(link) == _reference_link_type(link) == OTHER, link


def test_a_sphere_link_outside_the_typed_table_admits_no_b():
    """By the join theorem (see `_link_type`) such a link contributes 0; the
    crosscheck gives it a row, and every row is ok."""
    rows = t1_link_table_crosscheck(SPHERE_WITH_UNTYPED_LINKS)
    assert all(r.ok for r in rows)
    assert [(r.face, str(r.link_type), r.expected, r.enumerated)
            for r in rows if r.link_type.tag == "other_sphere"] == [
        ((0,), "other_sphere(7)", 0, 0), ((6,), "other_sphere(7)", 0, 0)]


def test_crosscheck_matches_direct_subset_loop(complexes):
    joined = join(ngon(3), ngon(4, [3, 4, 5, 6]))
    for k in [*complexes.values(), joined, SPHERE_WITH_UNTYPED_LINKS]:
        rows = [(r.face, r.link_type, r.expected, r.enumerated)
                for r in t1_link_table_crosscheck(k)]
        assert rows == _reference_crosscheck(k)


def test_admissible_pairs_follow_a_relabeling(complexes):
    k = complexes["p7_3"]
    perm = list(k.vertices)
    random.Random(11).shuffle(perm)
    mapping = dict(zip(k.vertices, perm))
    relabeled = _relabel(k, mapping)
    moved = {(tuple(sorted(mapping[v] for v in a)), frozenset(mapping[v] for v in b))
             for a, b in admissible_pairs(k)}
    assert set(admissible_pairs(relabeled)) == moved
    assert len(admissible_pairs(relabeled)) == len(moved)


def test_one_enumeration_per_complex(complexes, monkeypatch):
    """Each face's link is enumerated once, across every caller; the empty
    face and the facets, whose links are void, not at all."""
    import srcy.deformation as deformation

    # a new complex, so no earlier test has filled its memo
    k = _relabel(complexes["p7_4"], {v: v + 100 for v in complexes["p7_4"].vertices})
    candidates, links = deformation._candidates, []

    def counted(link):
        links.append(sorted(link))
        return candidates(link)

    monkeypatch.setattr(deformation, "_candidates", counted)
    t1_degree_zero_basis(k)
    t1_link_table_crosscheck(k)
    first_order_family(k)
    bit = {v: 1 << i for i, v in enumerate(k.vertices)}
    masks = [sum(map(bit.get, g)) for g in k.facets]
    faces = [sum(map(bit.get, f)) for f in k.faces() if f and f not in k.facets]
    assert sorted(links) == sorted(sorted(g ^ f for g in masks if g & f == f) for f in faces)


def test_admissible_pairs_do_not_keep_the_complex_alive(complexes):
    k = _relabel(complexes["p7_5"], {v: v + 100 for v in complexes["p7_5"].vertices})
    ref = weakref.ref(k)
    derived = [fn(k) for fn in (admissible_pairs, is_combinatorial_3sphere_candidate,
                                minimal_nonfaces, t1_degree_zero_basis, automorphism_group)]
    assert all(derived)
    del k
    gc.collect()
    assert ref() is None


def test_derived_objects_are_computed_once_per_complex(monkeypatch):
    """Every call on one complex returns the same object, across a whole run."""
    import srcy.deformation as deformation
    import srcy.families as families
    import srcy.simplicial as simplicial
    import srcy.sr_ideal as sr_ideal
    import srcy.symmetry as symmetry
    import srcy.verify as verify

    calls = {name: [] for name in ("is_combinatorial_3sphere_candidate", "minimal_nonfaces",
                                   "t1_degree_zero_basis", "automorphism_group")}
    for name, seen in calls.items():
        for module in (simplicial, sr_ideal, deformation, families, symmetry, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _recording(seen, getattr(module, name)))
    assert verify.run_all(only=["sr", "t1", "aut", "orbits", "pfaffian"]).ok
    for name, seen in calls.items():
        # the complexes and values stay referenced by `seen`, so their ids stay unique
        values = {}
        for k, value in seen:
            values.setdefault(id(k), []).append(value)
        assert len(seen) > len(values) == 6, name
        for same in values.values():
            assert all(v is same[0] for v in same), name
        assert len({id(same[0]) for same in values.values()}) == 6, name


def _recording(calls, fn):
    def recorded(k):
        value = fn(k)
        calls.append((k, value))
        return value

    return recorded


def test_shared_derived_objects_are_immutable(complexes):
    k = SimplicialComplex(complexes["p7_5"].facets)
    basis = t1_degree_zero_basis(k)
    with pytest.raises(AttributeError):
        basis.append(basis[0])
    group = automorphism_group(k)
    with pytest.raises(TypeError):
        group.elements[1][1] = 1
    with pytest.raises(AttributeError):
        group.generators = group.elements
    report = is_combinatorial_3sphere_candidate(k)
    with pytest.raises(AttributeError):
        report.failures = ["a failure"]
    fresh = SimplicialComplex(complexes["p7_5"].facets)
    assert t1_degree_zero_basis(k) == t1_degree_zero_basis(fresh) and len(basis) == 56
    assert automorphism_group(k) == automorphism_group(fresh) and group.order == 14
    assert is_combinatorial_3sphere_candidate(k) == is_combinatorial_3sphere_candidate(fresh)


def _torus_suspension():
    """Suspension of the 7-vertex torus, apexes 7 and 8: not a 3-sphere."""
    torus = [frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    torus += [frozenset({i, (i + 2) % 7, (i + 3) % 7}) for i in range(7)]
    return join(SimplicialComplex([{7}, {8}]), SimplicialComplex(torus))


def test_torus_suspension_is_rejected():
    k = _torus_suspension()
    failures = is_combinatorial_3sphere_candidate(k).failures
    assert "link of vertex 7 is not a 2-sphere" in failures
    assert "link of vertex 8 is not a 2-sphere" in failures
    with pytest.raises(ValueError, match="complex fails 3-sphere checks"):
        t1_link_table_crosscheck(k)


# -- the face-set criterion, kept as the reference for admissible_b -------------


def _reference_admissible_b(link, b):
    """admissible_b by comparing every face of L' * boundary(b) (and the ball part)."""
    b = frozenset(b)
    if any(len(f & b) < len(b) - 1 for f in link.facets):
        return False
    rest = [v for v in link.vertices if v not in b]
    lprime = _full_subcomplex(link, rest) if rest else SimplicialComplex([])
    target_dim = link.dim() - len(b) + 1
    bsubsets_proper = _proper_subsets(b)
    if b not in link.faces():
        if not _reference_is_sphere(lprime, target_dim):
            return False
        joined = {f | g for f in lprime.faces() for g in bsubsets_proper}
        return joined == set(link.faces())
    if not _is_ball(lprime, target_dim):
        return False
    joined = {f | g for f in lprime.faces() for g in bsubsets_proper}
    bsubsets = bsubsets_proper | {b}
    ball_part = {f | g for f in _ball_boundary(lprime, target_dim) for g in bsubsets}
    return joined | ball_part == set(link.faces())


def _full_subcomplex(c, vertices):
    return SimplicialComplex.from_faces(f & frozenset(vertices) for f in c.facets)


def _proper_subsets(b):
    b = tuple(sorted(b))
    return {frozenset(c) for k in range(len(b)) for c in combinations(b, k)}


def _connected(c):
    """Connectivity of the edge graph, by a search over the frozenset edges."""
    if not c.vertices:
        return True
    seen, frontier = {c.vertices[0]}, [c.vertices[0]]
    while frontier:
        v = frontier.pop()
        for e in c.faces_of_dim(1):
            if v in e and not e <= seen:
                seen |= e
                frontier.extend(e - {v})
    return len(seen) == len(c.vertices)


def _degrees(c):
    return sorted(c.vertex_degrees().values())


def _reference_is_sphere(c, d):
    if d == -1:
        return c.facets == frozenset({frozenset()})
    if c.dim() != d or not c.is_pure():
        return False
    if d == 0:
        return len(c.vertices) == 2
    if d == 1:
        return _connected(c) and set(_degrees(c)) == {2}
    if d == 2:
        return (
            _connected(c)
            and _euler(c) == 2
            and all(sum(1 for t in c.facets if e <= t) == 2 for e in c.faces_of_dim(1))
            and all(_reference_is_sphere(_link(c, {v}), 1) for v in c.vertices)
        )
    raise ValueError("sphere test implemented for dimension <= 2 only")


def _is_ball(c, d):
    if c.facets == frozenset({frozenset()}):
        return False
    if c.dim() != d or not c.is_pure():
        return False
    if d == 0:
        return len(c.vertices) == 1
    if d == 1:
        degs = _degrees(c)
        return (
            _connected(c)
            and _euler(c) == 1
            and max(degs) <= 2
            and degs.count(1) == 2
        )
    if d == 2:
        if not _connected(c) or _euler(c) != 1:
            return False
        boundary_edges = []
        for e in c.faces_of_dim(1):
            count = sum(1 for t in c.facets if e <= t)
            if count > 2 or count == 0:
                return False
            if count == 1:
                boundary_edges.append(e)
        if not boundary_edges:
            return False
        return _reference_is_sphere(SimplicialComplex(boundary_edges), 1)
    raise ValueError("ball test implemented for dimension <= 2 only")


def _ball_boundary(c, d):
    """Faces of the boundary subcomplex of a d-ball (d <= 2)."""
    if d == 0:
        return {frozenset()}
    ridges = [r for r in c.faces_of_dim(d - 1) if sum(1 for f in c.facets if r <= f) == 1]
    if not ridges:
        return {frozenset()}
    return set(SimplicialComplex(ridges).faces())


def _candidates(link):
    for size in range(2, len(link.vertices) + 1):
        for b in combinations(link.vertices, size):
            yield frozenset(b)


def test_admissible_b_matches_face_set_reference(complexes):
    """admissible_b on every subset b of every link, and admissible_pairs in
    its order: by face, by size of b and then by the sorted b."""
    extra = [_cyclic_polytope_4_boundary(8), join(ngon(3), ngon(4, [3, 4, 5, 6])),
             join(ngon(4), ngon(4, [4, 5, 6, 7]))]
    for k in [*complexes.values(), *extra]:
        pairs = []
        for f in sorted(k.faces(), key=lambda f: (len(f), sorted(f))):
            if not f:
                continue
            link = _link(k, f)
            for b in _candidates(link):
                expected = _reference_admissible_b(link, b)
                assert admissible_b(link, b) == expected, (f, b)
                if expected:
                    pairs.append((tuple(sorted(f)), b))
        assert admissible_pairs(k) == tuple(pairs)


@st.composite
def small_complexes(draw):
    """Complexes of dimension <= 2 on at most six vertices, pure or not.

    Besides arbitrary ones, draws L' * boundary(b) and the ball variant
    for a random L' on four vertices and b = {4, 5}, so that admissible
    candidates on both branches occur.
    """
    def faces(top, size):
        return draw(st.lists(st.frozensets(st.integers(0, top), min_size=1, max_size=size),
                             min_size=1, max_size=10))

    kind = draw(st.sampled_from(["any", "join", "ball"]))
    if kind == "any":
        return SimplicialComplex.from_faces(faces(5, 3))
    lprime = SimplicialComplex.from_faces(faces(3, 2)).facets
    b = frozenset({4, 5})
    if kind == "join":
        return SimplicialComplex([h | {v} for h in lprime for v in b])
    return _ball_variant(lprime, b)


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_admissible_b_matches_face_set_reference_on_random_complexes(link):
    for b in _candidates(link):
        assert admissible_b(link, b) == _reference_admissible_b(link, b), b


def _ball_variant(lprime_facets, b):
    """(L' * boundary(b)) with every ridge of L' in exactly one facet joined to b."""
    lprime = SimplicialComplex(lprime_facets)
    ridges = Counter(f - {v} for f in lprime.facets for v in f)
    facets = [h | (b - {v}) for h in lprime.facets for v in b]
    facets += [r | b for r, n in ridges.items() if n == 1]
    return SimplicialComplex.from_faces(facets)


@pytest.mark.parametrize("lprime, ball", [
    ([(0, 1), (1, 2)], True),  # a path
    ([(0, 1, 2)], True),  # a triangle
    ([(0, 1), (0, 2), (0, 3)], False),  # a Y-shaped tree: vertex 0 in three edges
    ([(0, 1, 2), (0, 3, 4)], False),  # two triangles at a vertex: the rim is a figure eight
    ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], False),  # three triangles on one edge
    ([(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)], False),  # a path beside a triangle: chi = 1
    # the 7-vertex torus less a triangle: the rim is a circle, but chi = -1
    (sorted(_link(_torus_suspension(), {7}).facets, key=sorted)[1:], False),
])
def test_face_branch_needs_a_ball(lprime, ball):
    b = frozenset({8, 9})
    link = _ball_variant([frozenset(f) for f in lprime], b)
    assert b in link.faces()
    assert all(len(f & b) >= len(b) - 1 for f in link.facets)
    assert _full_subcomplex(link, set(link.vertices) - b).facets == {
        frozenset(f) for f in lprime}
    assert admissible_b(link, b) == _reference_admissible_b(link, b) == ball


def test_face_branch_needs_one_point_when_b_is_a_facet():
    b = frozenset({8, 9})
    two_points = SimplicialComplex([{0, 8}, {0, 9}, {1, 8}, {1, 9}, b])  # L' a 0-sphere
    assert not admissible_b(two_points, b) and not _reference_admissible_b(two_points, b)
    assert admissible_b(ngon(3, [0, 8, 9]), b)


def test_admissible_b_raises_beyond_dimension_two():
    with pytest.raises(ValueError):
        admissible_b(_boundary_simplex(5), {0, 1})  # b a face, L' a 3-simplex
    with pytest.raises(ValueError):
        admissible_b(join(SimplicialComplex([{8}, {9}]), _boundary_simplex(4)), {8, 9})
