import random

from bistellar import BOUNDARY_4_SIMPLEX, flip, moves, problems, sample


def test_random_bistellar_spheres_match_the_references():
    """Seeded spheres on 6 to MAX_VERTICES vertices; the CI step runs a larger sample."""
    rng = random.Random(5)
    sizes = []
    for _ in range(8):
        facets = sample(rng)
        sizes.append(len(set().union(*facets)))
        assert problems(facets, rng) == [], sorted(map(sorted, facets))
    assert min(sizes) <= 7 and max(sizes) >= 9, sizes


def test_a_move_and_its_inverse_cancel():
    """A facet split by a new vertex (1-4) is undone by the vertex's 4-1 move."""
    facet = min(BOUNDARY_4_SIMPLEX, key=sorted)
    split = flip(BOUNDARY_4_SIMPLEX, facet, frozenset({5}))
    assert len(split) == 8
    assert (frozenset({5}), facet) in moves(split)
    assert flip(split, frozenset({5}), facet) == BOUNDARY_4_SIMPLEX
