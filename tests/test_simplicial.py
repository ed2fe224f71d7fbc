import random
from itertools import combinations

import pytest

from srcy.deformation import (
    OTHER,
    boundary_simplex,
    classify_link,
    cyclic_polytope_boundary,
    suspension_of_ngon,
)
from srcy.simplicial import (
    SimplicialComplex,
    boundary,
    is_combinatorial_3sphere_candidate,
    join,
    ngon,
    ridge_counts,
)
from srcy.fileio import load_triangulation


def _euler(c):
    return sum((-1) ** i * n for i, n in enumerate(c.f_vector()[1:]))


def _relabel(k, mapping):
    """The complex `k` with each vertex v renamed to mapping[v]."""
    return SimplicialComplex({frozenset(mapping[v] for v in f) for f in k.facets})


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


def test_link_at_empty_face(complexes):
    k = complexes["p7_1"]
    assert k.link(frozenset()) == k


def test_link_errors_on_nonface(complexes):
    with pytest.raises(ValueError):
        complexes["p7_3"].link({6, 7})


def test_a_nonface_raises_again_on_a_second_call():
    k = SimplicialComplex([(1, 2, 3), (3, 4)])
    for _ in range(2):
        with pytest.raises(ValueError, match="not a face"):
            k.link({1, 4})
    assert k.link({3}).facets == {frozenset({1, 2}), frozenset({4})}


def test_each_face_has_one_link_per_complex(complexes):
    k = complexes["p7_4"]
    twin = SimplicialComplex(k.facets)
    for f in k.faces():
        assert k.link(f) is k.link(set(f))
        assert twin.link(f) == k.link(f) and twin.link(f) is not k.link(f)
    lk = k.link({1})
    assert lk.faces() is k.link({1}).faces()
    assert lk.vertex_degrees() is k.link({1}).vertex_degrees()
    with pytest.raises(TypeError):
        lk.vertex_degrees()[lk.vertices[0]] = 0


def test_link_matches_the_reduced_facet_construction(complexes):
    """Reference: the link as the complex on {g - f : f <= g}, through `__init__`."""
    checked = 0
    for k in complexes.values():
        for f in k.faces():
            expected = SimplicialComplex({g - f for g in k.facets if f <= g})
            lk = k.link(f)
            assert lk == expected and lk.vertices == expected.vertices, sorted(f)
            checked += 1
    assert checked == 354


def test_link_vertex_set_is_restricted():
    k = load_triangulation("1 2\n2 3\n")
    lk = k.link({2})
    assert set(lk.vertices) == {1, 3}


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
            assert _euler(k.link({v})) == 2


def test_classify_links_of_fixtures(complexes):
    k1 = complexes["p7_1"]
    assert classify_link(k1.link({1})).tag == "cyclic_polytope"
    assert classify_link(k1.link({1})).n == 6
    assert classify_link(k1.link({4})).tag == "boundary_tetrahedron"
    assert classify_link(k1.link({5})).tag == "susp_triangle"
    assert classify_link(complexes["p7_3"].link({1})).tag == "susp_quadrangle"
    assert classify_link(ngon(4, [1, 2, 3, 4])) .tag == "ngon"


def test_classify_edge_links_are_ngons(complexes):
    for k in complexes.values():
        for e in k.faces_of_dim(1):
            assert classify_link(k.link(e)).tag == "ngon"


def test_classification_distinguishes_six_vertex_spheres():
    assert classify_link(suspension_of_ngon(4)).tag == "susp_quadrangle"
    assert classify_link(cyclic_polytope_boundary(6)).tag == "cyclic_polytope"
    assert classify_link(boundary_simplex(3)).tag == "boundary_tetrahedron"
    assert classify_link(SimplicialComplex([{1, 2}, {2, 3}])) == OTHER
    # the reference spheres are built once per argument, so other sizes stay apart
    assert classify_link(suspension_of_ngon(3)).tag == "susp_triangle"
    assert str(classify_link(suspension_of_ngon(5))) == "susp_ngon(5)"
    assert str(classify_link(cyclic_polytope_boundary(7))) == "cyclic_polytope(7)"
    assert classify_link(boundary_simplex(2)).tag == "ngon"


def test_ridge_counts():
    y_tree = SimplicialComplex([{0, 1}, {0, 2}, {0, 3}])
    assert ridge_counts(y_tree) == {frozenset({0}): 3, frozenset({1}): 1,
                                    frozenset({2}): 1, frozenset({3}): 1}
    assert ridge_counts(boundary_simplex(3)) == {
        frozenset(e): 2 for e in combinations(range(4), 2)}
    # not pure: the edge 23 contributes its two vertices as ridges
    assert ridge_counts(SimplicialComplex([{0, 1, 2}, {2, 3}])) == {
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
            samples.append(k.link({v}))
        samples.append(k.link(next(iter(k.faces_of_dim(1)))))
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
        lk = k.link(f)
        for face in lk.faces():
            assert any(face <= g for g in lk.facets)


def test_sphere_candidate_checks(complexes):
    for k in complexes.values():
        assert is_combinatorial_3sphere_candidate(k).ok
    solid = load_triangulation("0 1 2 3 4\n")
    report = is_combinatorial_3sphere_candidate(solid)
    assert not report.ok
    assert report.failures


def test_isomorphism_finds_maps():
    a = cyclic_polytope_boundary(7)
    relabel = {v: 10 + v for v in a.vertices}
    assert a.is_isomorphic(_relabel(a, relabel))
    assert not a.is_isomorphic(suspension_of_ngon(5))
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
    hollow, solid = boundary_simplex(3), SimplicialComplex([frozenset(range(4))])
    assert hollow.vertices == solid.vertices
    assert hollow.vertex_degrees() == solid.vertex_degrees()
    assert hollow.faces() < solid.faces()
    assert not hollow.is_isomorphic(solid) and not solid.is_isomorphic(hollow)
