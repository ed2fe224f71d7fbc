import random
from itertools import combinations

import pytest

from srcy.deformation import OTHER, _face_links, classify_link
from srcy.simplicial import (
    SimplicialComplex,
    _is_sphere,
    _ridge_masks,
    ball_rim,
    boundary,
    facet_masks,
    is_combinatorial_3sphere_candidate,
    join,
    labels_of,
    ngon,
)
from srcy.fileio import load_triangulation


def _euler(c):
    return sum((-1) ** i * n for i, n in enumerate(c.f_vector()[1:]))


def _relabel(k, mapping):
    """The complex `k` with each vertex v renamed to mapping[v]."""
    return SimplicialComplex({frozenset(mapping[v] for v in f) for f in k.facets})


def _link(k, f):
    """The link of the face f of k: the complex on {g - f : f <= g}."""
    return SimplicialComplex({g - f for g in k.facets if f <= g})


# -- the reference spheres of the link table ------------------------------------


def _suspension_of_ngon(n):
    """Double pyramid over an n-gon; n = 4 is the octahedron."""
    return join(SimplicialComplex([{n}, {n + 1}]), ngon(n))


def _boundary_simplex(k):
    return boundary(frozenset(range(k + 1)))


def _cyclic_polytope_boundary(n):
    """Boundary of the cyclic polytope C(n, 3), a stacked 2-sphere: a chain of
    n-3 edges joined to two apexes, closed at each end by a triangle on them."""
    facets = [{i, i + 1, a} for i in range(n - 3) for a in (n - 2, n - 1)]
    return SimplicialComplex(facets + [{0, n - 2, n - 1}, {n - 3, n - 2, n - 1}])


def test_load_rejects_bad_input():
    with pytest.raises(ValueError):
        load_triangulation("")
    with pytest.raises(ValueError):
        load_triangulation("1 2 3\n1 2 3\n")
    with pytest.raises(ValueError):
        load_triangulation("1 2 3\n1 2\n")
    with pytest.raises(ValueError):
        load_triangulation("1 1 2\n")


def test_facets_must_be_maximal_but_faces_are_reduced():
    with pytest.raises(ValueError, match="face of another facet"):
        SimplicialComplex([(0, 1), (0, 1, 2)])
    k = SimplicialComplex.from_faces([(0, 1), (0, 1, 2), (2, 1, 0), (3,), ()])
    assert k.facets == {frozenset({0, 1, 2}), frozenset({3})}
    assert k.vertices == (0, 1, 2, 3)
    assert SimplicialComplex.from_faces([]) == SimplicialComplex([])


def test_single_facet_is_full_simplex():
    k = load_triangulation("0 1 2 3 4\n")
    assert len(k.facets) == 1
    assert k.dim() == 4


def test_faces_and_degrees_are_kept_with_the_complex(complexes):
    k = complexes["p7_4"]
    twin = SimplicialComplex(k.facets)
    assert k.faces() is k.faces() and twin.faces() == k.faces() and twin.faces() is not k.faces()
    assert k.vertex_degrees() is k.vertex_degrees()
    with pytest.raises(TypeError):
        k.vertex_degrees()[k.vertices[0]] = 0


def test_face_links_match_the_reduced_facet_construction(complexes):
    """Each nonempty face's link masks, as the chain takes them, name the
    facets of the complex on {g - f : f <= g}."""
    checked = 0
    for k in complexes.values():
        for face, link, dim in _face_links(k):
            expected = _link(k, frozenset(face))
            assert {frozenset(labels_of(k, m)) for m in link} == expected.facets, face
            assert dim == expected.dim()
            checked += 1
    assert checked == 348


def test_join_boundary_closure():
    susp = join(SimplicialComplex([{10}, {11}]), ngon(3, [1, 2, 3]))
    assert len(susp.facets) == 6
    tetra = boundary(frozenset({0, 1, 2, 3}))
    assert len(tetra.facets) == 4
    assert SimplicialComplex([frozenset({1, 2})]).faces() == frozenset(
        {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}
    )
    octa = join(SimplicialComplex([{8}, {9}]), SimplicialComplex([{1}, {3}]),
                SimplicialComplex([{2}, {4}]))
    assert len(octa.facets) == 8
    assert classify_link(octa).tag == "susp_quadrangle"


def test_join_requires_disjoint_vertices():
    with pytest.raises(ValueError):
        join(SimplicialComplex([{1}]), SimplicialComplex([{1}, {2}]))


def test_join_associates_up_to_iso():
    a = SimplicialComplex([{1}, {2}])
    b = SimplicialComplex([{3}, {4}])
    c = SimplicialComplex([{5}, {6}])
    assert join(join(a, b), c) == join(a, join(b, c))


def test_f_vectors(complexes):
    assert complexes["p7_5"].f_vector() == (1, 7, 21, 28, 14)
    assert complexes["delta4"].f_vector() == (1, 5, 10, 10, 5)
    for k in complexes.values():
        assert _euler(k) == 0
        for v in k.vertices:
            assert _euler(_link(k, {v})) == 2


def test_classify_links_of_fixtures(complexes):
    k1 = complexes["p7_1"]
    assert classify_link(_link(k1, {1})).tag == "cyclic_polytope"
    assert classify_link(_link(k1, {1})).n == 6
    assert classify_link(_link(k1, {4})).tag == "boundary_tetrahedron"
    assert classify_link(_link(k1, {5})).tag == "susp_triangle"
    assert classify_link(_link(complexes["p7_3"], {1})).tag == "susp_quadrangle"
    assert classify_link(ngon(4, [1, 2, 3, 4])) .tag == "ngon"


def test_classify_edge_links_are_ngons(complexes):
    for k in complexes.values():
        for e in k.faces_of_dim(1):
            assert classify_link(_link(k, e)).tag == "ngon"


def test_classification_distinguishes_six_vertex_spheres():
    assert classify_link(_suspension_of_ngon(4)).tag == "susp_quadrangle"
    assert classify_link(_cyclic_polytope_boundary(6)).tag == "cyclic_polytope"
    assert classify_link(_boundary_simplex(3)).tag == "boundary_tetrahedron"
    assert classify_link(SimplicialComplex([{1, 2}, {2, 3}])) == OTHER
    assert classify_link(_suspension_of_ngon(3)).tag == "susp_triangle"
    assert str(classify_link(_suspension_of_ngon(5))) == "susp_ngon(5)"
    assert str(classify_link(_cyclic_polytope_boundary(7))) == "cyclic_polytope(7)"
    assert classify_link(_boundary_simplex(2)).tag == "ngon"


def _ridge_counts(c):
    """`_ridge_masks` on c's facet masks, each ridge as a frozenset of labels."""
    return {frozenset(labels_of(c, r)): n for r, n in _ridge_masks(facet_masks(c)).items()}


def test_ridge_counts():
    y_tree = SimplicialComplex([{0, 1}, {0, 2}, {0, 3}])
    assert _ridge_counts(y_tree) == {frozenset({0}): 3, frozenset({1}): 1,
                                     frozenset({2}): 1, frozenset({3}): 1}
    assert _ridge_counts(_boundary_simplex(3)) == {
        frozenset(e): 2 for e in combinations(range(4), 2)}
    # not pure: the edge 23 contributes its two vertices as ridges
    assert _ridge_counts(SimplicialComplex([{0, 1, 2}, {2, 3}])) == {
        frozenset({0, 1}): 1, frozenset({0, 2}): 1, frozenset({1, 2}): 1,
        frozenset({2}): 1, frozenset({3}): 1}


def test_disconnected_cycles_are_not_an_ngon():
    two_triangles = SimplicialComplex([{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}])
    assert set(two_triangles.vertex_degrees().values()) == {2}
    assert classify_link(two_triangles) == OTHER


def test_classify_link_relabeling_invariant(complexes):
    rng = random.Random(7)
    samples = []
    for k in complexes.values():
        for v in list(k.vertices)[:3]:
            samples.append(_link(k, {v}))
        samples.append(_link(k, next(iter(k.faces_of_dim(1)))))
    for link in samples:
        tag = classify_link(link)
        for _ in range(4):
            perm = list(link.vertices)
            rng.shuffle(perm)
            relabeled = _relabel(link, dict(zip(link.vertices, perm)))
            assert classify_link(relabeled) == tag


def test_links_are_valid_complexes(complexes):
    k = complexes["p7_2"]
    for f in k.faces():
        lk = _link(k, f)
        for face in lk.faces():
            assert any(face <= g for g in lk.facets)


def test_sphere_candidate_checks(complexes):
    for k in complexes.values():
        assert is_combinatorial_3sphere_candidate(k).ok
    solid = load_triangulation("0 1 2 3 4\n")
    report = is_combinatorial_3sphere_candidate(solid)
    assert not report.ok
    assert report.failures


def _pinched_spheres():
    """Two triangles suspended from 8 and 9: two triangular bipyramids glued
    at their apexes, whose links are two circles each."""
    two_triangles = [{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}]
    return join(SimplicialComplex([{8}, {9}]), SimplicialComplex(two_triangles))


def test_spheres_glued_at_two_points_are_not_a_sphere():
    """Connected, every edge in two triangles, Euler characteristic 2: only
    the apexes' links tell it from a sphere, and from the suspended hexagon."""
    pinched = _pinched_spheres()
    assert _euler(pinched) == 2 and _euler(_suspension_of_ngon(6)) == 2
    assert not _is_sphere(facet_masks(pinched), 2)
    assert _is_sphere(facet_masks(_suspension_of_ngon(6)), 2)
    # suspended again: the sphere check sees the pinch in four vertex links
    report = is_combinatorial_3sphere_candidate(join(SimplicialComplex([{10}, {11}]), pinched))
    assert report.failures == tuple("link of vertex %d is not a 2-sphere" % v
                                    for v in (8, 9, 10, 11))


def test_a_disk_and_a_sphere_glued_at_two_points_are_not_a_ball():
    """A square and an octahedron on its opposite corners 0 and 2: the rim
    is the square's, and the Euler characteristic 1 + 2 - 2 = 1."""
    square = [{0, 1, 3}, {1, 2, 3}]
    octahedron = [{a, v, 4 + (i + 1) % 4} for a in (0, 2) for i, v in enumerate(range(4, 8))]
    masks = facet_masks(SimplicialComplex(square + octahedron))
    assert ball_rim(masks, 2) is None
    assert ball_rim(facet_masks(SimplicialComplex(square)), 2) is not None


def test_isomorphism_finds_maps():
    a = _cyclic_polytope_boundary(7)
    relabel = {v: 10 + v for v in a.vertices}
    assert a.is_isomorphic(_relabel(a, relabel))
    assert not a.is_isomorphic(_suspension_of_ngon(5))
    # same f-vector (1, 8, 18, 12) and degrees (3,3,4,4,5,5,6,6), not isomorphic
    a = SimplicialComplex(map(_digits, "035 036 057 067 124 127 136 137 146 246 267 357".split()))
    b = SimplicialComplex(map(_digits, "012 016 027 056 057 126 234 236 247 346 456 457".split()))
    assert tuple(a.f_vector()) == tuple(b.f_vector()) == (1, 8, 18, 12)
    assert sorted(a.vertex_degrees().values()) == sorted(b.vertex_degrees().values())
    assert not a.is_isomorphic(b) and not b.is_isomorphic(a)
    shift = {v: (3 * v + 1) % 8 for v in range(8)}
    for k in (a, b):
        assert k.is_isomorphic(_relabel(k, shift))
        assert _relabel(k, shift).is_isomorphic(k)


def _digits(word):
    return [int(c) for c in word]


def test_boundary_and_solid_tetrahedron_are_not_isomorphic():
    """Same four vertices, every degree 3, and each face of the boundary is a
    face of the solid simplex; only the facet sizes tell them apart."""
    hollow, solid = _boundary_simplex(3), SimplicialComplex([frozenset(range(4))])
    assert hollow.vertices == solid.vertices
    assert hollow.vertex_degrees() == solid.vertex_degrees()
    assert hollow.faces() < solid.faces()
    assert not hollow.is_isomorphic(solid) and not solid.is_isomorphic(hollow)
