"""Automorphisms of a complex and their action on deformation parameters."""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from .deformation import FirstOrderFamily
from .polynomial import PolyRing
from .simplicial import once_per_complex


class PermutationGroup(namedtuple("PermutationGroup", "vertices elements generators")):
    """Explicit tuple of group elements (read-only maps label -> label)."""

    __slots__ = ()

    @property
    def order(self):
        return len(self.elements)

    def one_line(self, perm):
        return [perm[v] for v in self.vertices]


@once_per_complex
def automorphism_group(k):
    """All vertex bijections preserving the facet set.

    The isomorphisms from k to itself, in lexicographic order of their
    one-line images.  Generators are a greedily chosen minimal subset.
    """
    verts = k.vertices
    elements = sorted(k.isomorphisms(k), key=lambda p: tuple(p[v] for v in verts))
    elements = tuple(map(MappingProxyType, elements))
    return PermutationGroup(verts, elements, tuple(_greedy_generators(verts, elements)))


def _closure(verts, gens):
    """The one-line images of the group the generators generate."""
    identity = tuple(verts)
    seen = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(map(g.__getitem__, cur))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _greedy_generators(verts, elements):
    # take each element, in the one-line order `automorphism_group` gives, that
    # lies outside the group the chosen ones generate; `reached` is that group,
    # rebuilt only on a take
    chosen = []
    reached = _closure(verts, chosen)
    for g in elements:
        if len(reached) == len(elements):
            break
        if tuple(g[v] for v in verts) not in reached:
            chosen.append(g)
            reached = _closure(verts, chosen)
    # drop members that became redundant once later ones were added
    pruned = list(chosen)
    for g in list(pruned):
        rest = [h for h in pruned if h is not g]
        if rest and len(_closure(verts, rest)) == len(elements):
            pruned = rest
    return pruned


# -- action on the T^1 basis -----------------------------------------------------


def _image_key(perm, elem):
    """The (support, a_vector, b) fields of the image of `elem` under `perm`."""
    pairs = sorted((perm[v], e) for v, e in zip(elem.support, elem.a_vector))
    return (tuple(v for v, _ in pairs), tuple(e for _, e in pairs),
            frozenset(perm[v] for v in elem.b))


class OrbitPartition(namedtuple("OrbitPartition", "blocks")):
    """`blocks`: lists of basis indices, each sorted; the blocks sorted by their minima."""

    __slots__ = ()

    @property
    def count(self):
        return len(self.blocks)

    def sizes(self):
        return sorted(len(b) for b in self.blocks)

    def block_of(self, index):
        for i, b in enumerate(self.blocks):
            if index in b:
                return i
        raise KeyError(index)


def orbits_on_t1(group, basis):
    """Orbits of the group action on (a-vector, b) basis elements."""
    # images are looked up by their fields: a permutation keeps an element valid
    index = {(e.support, e.a_vector, e.b): i for i, e in enumerate(basis)}
    parent = list(range(len(basis)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i, elem in enumerate(basis):
        for g in group.generators:
            moved = _image_key(g, elem)
            if moved not in index:
                raise RuntimeError("group does not preserve the T^1 basis")
            union(i, index[moved])
    blocks = {}
    for i in range(len(basis)):
        blocks.setdefault(find(i), []).append(i)
    return OrbitPartition(sorted(blocks.values(), key=lambda b: b[0]))


def orbit_index_of(partition, basis, support, b):
    """Block index of the orbit containing the first basis element of the (a, b) pair."""
    support = tuple(sorted(support))
    b = frozenset(b)
    for i, elem in enumerate(basis):
        if elem.support == support and elem.b == b:
            return partition.block_of(i)
    raise KeyError("no basis element with a=%s, b=%s" % (support, sorted(b)))


def invariant_specialize(family, partition, assignment):
    """Equate parameters along orbits.

    `assignment` maps block index -> new parameter name; unlisted blocks
    are set to zero.  Block indices refer to `partition.blocks`.
    """
    new_params = []
    for block_id in sorted(assignment):
        name = assignment[block_id]
        if name and name not in new_params:
            new_params.append(name)
    xnames = [n for n in family.ring.names if n not in family.params]
    ring = PolyRing(xnames + new_params)
    dropped, kept = [], {}
    for block_id, block in enumerate(partition.blocks):
        name = assignment.get(block_id)
        for i in block:
            if name is None:
                dropped.append(family.params[i])
            else:
                kept[family.params[i]] = name
    gens = [p.truncate_above(dropped, 1).rename(ring, kept) for p in family.generators]
    return FirstOrderFamily(ring, gens, family.basis, new_params)

