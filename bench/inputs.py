"""Seeded inputs for the `complexes` and `pfaffians` workloads.

Inputs are plain data (facet lists, term lists); the library sees them only
after `build_*` turns them into its own objects, outside the timed region.
Every round has the same make-up, so the work per round depends on the
seed only through labels and coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from oracles import AUT_ORDERS, T1_DIMS

FIXTURES = ("delta4", "p7_1", "p7_2", "p7_3", "p7_4", "p7_5")
# n-gon * m-gon joins and boundaries of cyclic 4-polytopes with <= 8 vertices;
# the automorphism search is brute force over S_n, so 9 vertices costs ~10 s.
JOINS = ((3, 3), (3, 4), (3, 5), (4, 4))
CYCLIC = (7, 8)
RELABELINGS = 2  # copies of each sphere per round, compared with each other

PFAFFIAN_SIZES = (6, 7, 8, 9, 10)  # n x n matrix in n - 2 variables
TERMS_PER_ENTRY = 2
MAX_TERM_DEGREE = 2
DENOMINATORS = (2, 3, 5, 7)
POINTS_PER_MATRIX = 2


@dataclass(frozen=True)
class Sphere:
    name: str  # class of the sphere, shared by its relabeled copies
    facets: tuple  # tuple of sorted vertex tuples, vertices 0..n-1
    aut_order: int | None  # closed-form or recorded order, None if unknown
    t1_dim: int | None  # recorded dimension, None if unknown


@dataclass(frozen=True)
class ComplexInput:
    sphere: Sphere
    copy: int
    facets: tuple  # relabeled facets


@dataclass(frozen=True)
class MatrixInput:
    index: int
    dim: int
    names: tuple
    entries: dict  # (i, j), 1 <= i < j <= dim -> tuple of (exponents, Fraction)
    points: tuple  # tuple of dicts name -> Fraction


def ngon(labels):
    n = len(labels)
    return [(labels[i], labels[(i + 1) % n]) for i in range(n)]


def join_facets(n, m):
    left = ngon(list(range(n)))
    right = ngon(list(range(n, n + m)))
    return [a + b for a in left for b in right]


def join_order(n, m):
    """|Aut| of the n-gon * m-gon join (dihedral factors, swapped when n = m)."""
    if n == m == 4:
        return 384  # boundary of the 4-dimensional cross-polytope
    if n == m:
        return 8 * n * n
    return 4 * n * m


def cyclic_facets(n, d=4):
    """Facets of the boundary of C(n, d), by Gale's evenness condition."""
    facets = []
    for s in combinations(range(n), d):
        members = set(s)
        gaps = [v for v in range(n) if v not in members]
        if all(
            sum(1 for v in s if i < v < j) % 2 == 0
            for i, j in combinations(gaps, 2)
        ):
            facets.append(s)
    return facets


def cyclic_order(n):
    """|Aut| of the boundary of C(n, 4): dihedral of order 2n for n >= 7."""
    if n < 7:
        raise ValueError("closed form holds for n >= 7")
    return 2 * n


def read_fixture_facets(root, name):
    text = (Path(root) / "src" / "srcy" / "data" / "triangulations" / (name + ".tri")).read_text()
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            facets.append(tuple(int(t) for t in line.split()))
    labels = sorted({v for f in facets for v in f})
    index = {v: i for i, v in enumerate(labels)}
    return [tuple(index[v] for v in f) for f in facets]


def sphere_classes(root):
    spheres = [
        Sphere(name, _canon(read_fixture_facets(root, name)), AUT_ORDERS.get(name), T1_DIMS[name])
        for name in FIXTURES
    ]
    for n, m in JOINS:
        spheres.append(Sphere("join%d_%d" % (n, m), _canon(join_facets(n, m)), join_order(n, m), None))
    for n in CYCLIC:
        spheres.append(Sphere("cyclic%d" % n, _canon(cyclic_facets(n)), cyclic_order(n), None))
    return spheres


def _canon(facets):
    return tuple(sorted(tuple(sorted(f)) for f in facets))


def complexes_round(spheres, seed, round_index):
    """Each sphere in RELABELINGS copies, under seeded labels from 0..4n-1."""
    rng = random.Random("complexes:%d:%d" % (seed, round_index))
    out = []
    for sphere in spheres:
        n = 1 + max(v for f in sphere.facets for v in f)
        for copy in range(RELABELINGS):
            labels = rng.sample(range(4 * n), n)
            facets = tuple(tuple(labels[v] for v in f) for f in sphere.facets)
            out.append(ComplexInput(sphere, copy, facets))
    return out


def pfaffians_round(seed, round_index):
    """One matrix per size.  The supports are fixed per size, so every round
    does the same polynomial work; the seed permutes the variables and draws
    the coefficients and the evaluation points."""
    rng = random.Random("pfaffians:%d:%d" % (seed, round_index))
    out = []
    for index, dim in enumerate(PFAFFIAN_SIZES):
        names = tuple("x%d" % (i + 1) for i in range(dim - 2))
        order = rng.sample(range(len(names)), len(names))
        entries = {
            key: tuple(sorted(
                (tuple(exps[order[v]] for v in range(len(names))), _coefficient(rng))
                for exps in support
            ))
            for key, support in pfaffian_support(dim).items()
        }
        points = tuple(
            {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in names}
            for _ in range(POINTS_PER_MATRIX)
        )
        out.append(MatrixInput(index, dim, names, entries, points))
    return out


def pfaffian_support(dim):
    """(i, j) -> TERMS_PER_ENTRY distinct exponent vectors of degree 1..MAX_TERM_DEGREE."""
    rng = random.Random("pfaffian-support:%d" % dim)
    nvars = dim - 2
    support = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            monomials = set()
            while len(monomials) < TERMS_PER_ENTRY:
                exps = [0] * nvars
                for _ in range(rng.randint(1, MAX_TERM_DEGREE)):
                    exps[rng.randrange(nvars)] += 1
                monomials.add(tuple(exps))
            support[(i, j)] = sorted(monomials)
    return support


def _coefficient(rng):
    """A nonzero rational that is not an integer."""
    q = rng.choice(DENOMINATORS)
    p = rng.choice([k for k in range(1, 10) if k % q])
    return Fraction(rng.choice((-1, 1)) * p, q)


def build_complex(srcy, item):
    return srcy.SimplicialComplex([frozenset(f) for f in item.facets])


def build_matrix(srcy, item):
    ring = srcy.PolyRing(item.names)
    upper = {}
    for key, terms in item.entries.items():
        poly = ring.zero()
        for exps, coeff in terms:
            poly = poly + ring.monomial(exps, coeff)
        upper[key] = poly
    return srcy.SkewPolyMatrix(ring, item.dim, upper)
