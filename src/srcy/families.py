"""Consistency checks between deformation bases and syzygy-matrix lifts.

A first-order lift of the syzygy matrix determines perturbed generators
through its principal Pfaffians.  Truncated past linear order in the
parameters, those must recover the monomial generators at zero and, per
parameter, exactly one basis element's perturbation; the parameter
numbering of a lift is matched to the canonical basis by that data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deformation import generator_monomial, perturbation, t1_degree_zero_basis
from .sr_ideal import minimal_nonfaces


@dataclass
class LiftCheck:
    ok: bool
    sign: int = 0
    matched: dict = field(default_factory=dict)  # parameter name -> basis index
    problems: list = field(default_factory=list)


def check_first_order_lift(k, f1, params):
    """Match a lift's truncated principal Pfaffians against the deformation basis.

    `f1` is `first_order_pfaffians(matrix, params)`.  Verifies that it is
    (up to one global sign) the Stanley-Reisner generators plus, for each
    parameter, the perturbation of exactly one degree-zero basis element,
    bijectively.
    """
    problems = []
    gens = minimal_nonfaces(k).generators
    if len(f1) != len(gens):
        return LiftCheck(False, problems=["generator count mismatch"])
    ring = f1[0].ring

    base = [p.truncate_above(params, 1) for p in f1]
    monomials = [generator_monomial(ring, p) for p in gens]

    sign = None
    order = []  # position in `gens` for each pfaffian slot
    for i, b in enumerate(base):
        hit = None
        for j, m in enumerate(gens):
            if b == monomials[j]:
                hit, s = j, 1
            elif b == -monomials[j]:
                hit, s = j, -1
        if hit is None:
            problems.append("pfaffian %d does not reduce to a generator at t=0" % (i + 1))
            return LiftCheck(False, problems=problems)
        if sign is None:
            sign = s
        elif sign != s:
            problems.append("inconsistent signs among the base generators")
            return LiftCheck(False, problems=problems)
        order.append(hit)
    if sorted(order) != list(range(len(gens))):
        problems.append("base generators are not a permutation of the ideal generators")
        return LiftCheck(False, problems=problems)

    basis = t1_degree_zero_basis(k)
    expected = {}
    for idx, elem in enumerate(basis):
        images = perturbation(elem, gens, ring)
        vec = tuple(
            _canon(images[gens[order[i]]]) for i in range(len(gens))
        )
        expected[vec] = idx

    matched = {}
    used = set()
    for t in params:
        coeffs = (p.coefficient_of(t, 1) for p in f1)
        vec = tuple(_canon(q if sign == 1 else -q) for q in coeffs)
        if all(v is None for v in vec):
            problems.append("parameter %s acts trivially on the generators" % t)
            continue
        idx = expected.get(vec)
        if idx is None:
            problems.append("parameter %s is not a basis perturbation" % t)
        elif idx in used:
            problems.append("parameter %s repeats basis element %d" % (t, idx))
        else:
            used.add(idx)
            matched[t] = idx
    if len(matched) != len(basis):
        problems.append(
            "lift covers %d of %d basis elements" % (len(matched), len(basis))
        )
    return LiftCheck(not problems, sign, matched, problems)


def _canon(poly):
    return None if poly is None or poly.is_zero() else frozenset(poly.items())
