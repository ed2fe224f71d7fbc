"""Seeded random 3-spheres by bistellar moves, checked against srcy.

    PYTHONPATH=src python tests/bistellar.py --seed 1 --spheres 200

Each sphere starts from the boundary of the 4-simplex and takes random
bistellar moves (Pachner, Europ. J. Combin. 12, 1991): a face a whose link
is the boundary of a vertex set B that is not a face has its star, a * dB,
replaced by da * B; when a is a facet, B is one new vertex.  Every move
keeps a combinatorial 3-sphere, so the spheres come with their own oracle
rather than srcy's sphere test.  The generator uses the standard library
only.  `problems` checks one sphere: the sphere check, Dehn-Sommerville,
the enumeration, the automorphism group and each vertex link's type in
the link table against the test references, and the T^1 dimension, group
order and orbit count after a relabeling.  A vertex link has at most
MAX_VERTICES - 1 vertices, and its type is checked against the isomorphism
search on the matching reference sphere; the crosscheck itself stays out,
as it raises on the vertex links that no type in the table describes.
This is not a pytest module: Tier-1 runs a few spheres through `problems`,
and CI runs this script as its own step, with its seed and count fixed
there.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import combinations

from srcy.deformation import admissible_pairs, classify_link, t1_degree_zero_basis
from srcy.simplicial import SimplicialComplex, is_combinatorial_3sphere_candidate
from srcy.symmetry import automorphism_group, orbits_on_t1
from test_deformation import _candidates, _reference_admissible_b, _reference_link_type
from test_simplicial import _link
from test_symmetry import _reference_isomorphisms

BOUNDARY_4_SIMPLEX = frozenset(frozenset(f) for f in combinations(range(5), 4))
MAX_VERTICES = 10


def moves(facets):
    """Every bistellar move of the facet set, as (a, B) pairs of frozensets."""
    faces = {frozenset(c) for f in facets for k in range(1, 5) for c in combinations(f, k)}
    out = []
    for a in sorted(faces, key=sorted):
        star = [f - a for f in facets if a <= f]
        b = frozenset().union(*star)
        if len(a) == 4:
            out.append((a, None))  # a facet: the void link bounds one new vertex
        elif (len(a) + len(b) == 5 and len(star) == len(b)
              and all(len(s) == len(b) - 1 for s in star)
              and not any(b <= f for f in facets)):
            out.append((a, b))
    return out


def flip(facets, a, b):
    """The facet set with a's star a * dB replaced by da * B."""
    kept = {f for f in facets if not a <= f}
    return frozenset(kept | {(a - {y}) | b for y in a})


def random_sphere(rng, max_vertices, steps):
    """A 3-sphere on at most max_vertices vertices after `steps` random moves."""
    facets = BOUNDARY_4_SIMPLEX
    for _ in range(steps):
        vertices = set().union(*facets)
        options = [(a, b) for a, b in moves(facets)
                   if b is not None or len(vertices) < max_vertices]
        a, b = rng.choice(options)
        facets = flip(facets, a, b if b is not None else frozenset({max(vertices) + 1}))
    return facets


def sample(rng):
    """One sphere, with a vertex cap from 6 to MAX_VERTICES and 1 to 29 moves."""
    return random_sphere(rng, rng.randrange(6, MAX_VERTICES + 1), rng.randrange(1, 30))


def dehn_sommerville(facets):
    """f_2 = 2 f_3 and f_0 - f_1 + f_2 - f_3 = 0, counted from the facets."""
    f = [len({c for g in facets for c in combinations(sorted(g), k)}) for k in (1, 2, 3)]
    f.append(len(facets))
    return f[2] == 2 * f[3] and f[0] - f[1] + f[2] - f[3] == 0


def _reference_pairs(k):
    pairs = []
    for f in sorted(k.faces(), key=lambda f: (len(f), sorted(f))):
        if f:
            link = _link(k, f)
            pairs += [(tuple(sorted(f)), b) for b in _candidates(link)
                      if _reference_admissible_b(link, b)]
    return tuple(pairs)


def _invariants(k):
    group = automorphism_group(k)
    basis = t1_degree_zero_basis(k)
    return len(basis), group.order, orbits_on_t1(group, basis).count


def problems(facets, rng):
    """What is wrong with srcy's view of one sphere; empty when nothing is."""
    k = SimplicialComplex(facets)
    out = []
    if not is_combinatorial_3sphere_candidate(k).ok:
        out.append("sphere check fails")
    if not dehn_sommerville(facets):
        out.append("Dehn-Sommerville fails")
    if out:
        return out
    if admissible_pairs(k) != _reference_pairs(k):
        out.append("admissible pairs differ from the reference")
    one_line = lambda p: tuple(p[v] for v in k.vertices)  # noqa: E731
    if list(automorphism_group(k).elements) != sorted(_reference_isomorphisms(k, k), key=one_line):
        out.append("automorphisms differ from the reference search")
    links = [_link(k, {v}) for v in k.vertices]
    if [classify_link(link) for link in links] != list(map(_reference_link_type, links)):
        out.append("vertex-link types differ from the isomorphism reference")
    labels = dict(zip(k.vertices, rng.sample(range(4 * len(k.vertices)), len(k.vertices))))
    relabeled = SimplicialComplex({frozenset(map(labels.get, f)) for f in facets})
    if _invariants(k) != _invariants(relabeled):
        out.append("T^1 dimension, group order or orbit count moves under a relabeling")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spheres", type=int, required=True)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    faults = 0
    sizes = {}
    for i in range(args.spheres):
        facets = sample(rng)
        n = len(set().union(*facets))
        sizes[n] = sizes.get(n, 0) + 1
        for problem in problems(facets, rng):
            faults += 1
            print("sphere %d (%d vertices, %s): %s" % (i, n, sorted(map(sorted, facets)), problem))
    print("spheres by vertex count: %s; faults: %d" % (dict(sorted(sizes.items())), faults))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
