"""Consistency checks between deformation bases and syzygy-matrix lifts.

A first-order lift of the syzygy matrix determines perturbed generators
through its principal Pfaffians.  Truncated past linear order in the
parameters, those must recover the monomial generators at zero and, per
parameter, exactly one basis element's perturbation; the parameter
numbering of a lift is matched to the canonical basis by that data.
`Poly.linear_coefficients` reads every parameter's coefficient in one
pass over each Pfaffian's terms; they are compared in packed form.
"""

from __future__ import annotations

from collections import namedtuple

from .deformation import generator_monomial, perturbation, t1_degree_zero_basis
from .sr_ideal import minimal_nonfaces


# `sign` is the lift's global sign (0 when it is not found), and `matched`
# maps each parameter name to its basis index.
LiftCheck = namedtuple("LiftCheck", "ok sign matched problems")


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
        return LiftCheck(False, 0, {}, ["generator count mismatch"])
    ring = f1[0].ring

    slots = {}  # packed form of +-x_p -> (position of p in `gens`, sign)
    for j, p in enumerate(gens):
        m = generator_monomial(ring, p)
        slots[_canon(m)], slots[_canon(-m)] = (j, 1), (j, -1)

    sign = None
    order = []  # position in `gens` for each pfaffian slot
    for i, p in enumerate(f1):
        hit, s = slots.get(_canon(p.truncate_above(params, 1)), (None, None))
        if hit is None:
            problems.append("pfaffian %d does not reduce to a generator at t=0" % (i + 1))
            return LiftCheck(False, 0, {}, problems)
        if sign not in (None, s):
            problems.append("inconsistent signs among the base generators")
            return LiftCheck(False, 0, {}, problems)
        sign = s
        order.append(hit)
    if sorted(order) != list(range(len(gens))):
        problems.append("base generators are not a permutation of the ideal generators")
        return LiftCheck(False, 0, {}, problems)

    basis = t1_degree_zero_basis(k)
    expected = {}
    for idx, elem in enumerate(basis):
        images = perturbation(elem, gens, ring)
        expected[tuple(_canon(images[gens[j]]) for j in order)] = idx

    coeffs = [(p if sign == 1 else -p).linear_coefficients(params) for p in f1]
    matched = {}
    used = set()
    for t in params:
        vec = tuple(_canon(c.get(t)) for c in coeffs)
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
        problems.append("lift covers %d of %d basis elements" % (len(matched), len(basis)))
    return LiftCheck(not problems, sign, matched, problems)


def _canon(poly):
    return None if poly is None or poly.is_zero() else (poly.den, frozenset(poly.nums.items()))
