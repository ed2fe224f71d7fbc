"""Automorphisms of a complex and their action on deformation parameters."""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from .deformation import FirstOrderFamily
from .polynomial import PolyRing
from .simplicial import extensions, once_per_complex, search_tables


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
    """All vertex bijections preserving the facet set, in lexicographic
    order of their one-line images, with a greedily chosen minimal subset
    as generators.  They come from a stabilizer chain along the search order
    `mine` (Sims, 1970): with mine[:i] fixed, one search per candidate w for
    mine[i] keeps the first automorphism sending mine[i] to w, if any, and
    each element is one product u_0 u_1 ... of a kept map (or 1) per level.
    """
    verts = k.vertices
    mine, filed, faces_o, targets = search_tables(k, k)
    pos = {v: i for i, v in enumerate(verts)}
    identity = tuple(range(len(verts)))
    perms, chosen, image, used = [identity], list(mine), {0: 0}, 0
    for i, v in enumerate(mine):
        kept = [identity]
        for w, b in targets[i]:
            if used & b or w == v:
                continue
            forced = targets[:i] + [[(w, b)]] + targets[i + 1:]
            if next(extensions(filed, faces_o, forced, i, used, dict(image), chosen), None):
                kept.append(tuple(map(pos.get, map(dict(zip(mine, chosen)).get, verts))))
        perms = [tuple(map(e.__getitem__, u)) for e in perms for u in kept]
        chosen[i], b = v, 1 << pos[v]
        image.update((mask, image[rest] | b) for mask, rest in filed[i])
        used |= b
    perms.sort()
    elements = tuple(MappingProxyType(dict(zip(verts, map(verts.__getitem__, p)))) for p in perms)
    generators = tuple(map(dict(zip(perms, elements)).get, _greedy_generators(perms)))
    return PermutationGroup(verts, elements, generators)


def _closure(gens, seen, frontier):
    """`seen` and every product g p, g in gens, reached from the set
    `frontier`: the group the gens generate when `seen` holds all other
    products.  Permutations are tuples of vertex positions here."""
    seen, frontier = seen | frontier, list(frontier)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(map(g.__getitem__, cur))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _greedy_generators(perms):
    # take each element, in the one-line order `automorphism_group` sorts
    # `perms` in, that lies outside the group the chosen ones generate;
    # `reached` is that group, grown on a take by the products through it
    chosen, reached = [], {perms[0]}  # the identity comes first
    for p in perms:
        if len(reached) == len(perms):
            break
        if p not in reached:
            chosen.append(p)
            new = {tuple(map(p.__getitem__, h)) for h in reached} - reached
            reached = _closure(chosen, reached, new)
    # drop members that became redundant once later ones were added; the
    # last one never is, since the others generate a subgroup of the group
    # that lacked it when it was taken
    pruned = list(chosen)
    for p in chosen[:-1]:
        rest = [q for q in pruned if q != p]
        if rest and len(_closure(rest, {perms[0]}, {perms[0]})) == len(perms):
            pruned = rest
    return pruned


# -- action on the T^1 basis -----------------------------------------------------


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
    # an element is looked up by its (vertex, exponent) pairs and its b,
    # which a permutation moves without a sort
    index = {(frozenset(zip(e.support, e.a_vector)), e.b): i for i, e in enumerate(basis)}
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

    for g in group.generators:
        at = g.__getitem__
        for i, e in enumerate(basis):
            j = index.get((frozenset(zip(map(at, e.support), e.a_vector)), frozenset(map(at, e.b))))
            if j is None:
                raise RuntimeError("group does not preserve the T^1 basis")
            union(i, j)
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

