"""Reference values and checks that do not call into `srcy`.

The constants are the source paper's; the numeric Pfaffian and determinant
are computed here by elimination over `Fraction`, and the minimal non-faces
by brute force over all vertex subsets.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

# Degree-zero T^1 dimensions and automorphism group orders of the bundled
# spheres; p7_1 has no recorded order.
T1_DIMS = {"delta4": 105, "p7_1": 92, "p7_2": 79, "p7_3": 79, "p7_4": 67, "p7_5": 56}
AUT_ORDERS = {"delta4": 120, "p7_2": 8, "p7_3": 48, "p7_4": 8, "p7_5": 14}

RUN_ALL_CHECKS = 141
RUN_ALL_INGESTED = 4
RUN_ALL_COMPUTED = {
    "toric.mirror_euler": 120,
    "cohom.hodge_numbers": [1, 73],
    "toric.chi_exceptional": 25,
    "toric.fan_shape": [18, 53],
}
RUN_ALL_COMPUTED.update({"t1.dimension.%s" % k: v for k, v in T1_DIMS.items()})
RUN_ALL_COMPUTED.update({"aut.order.%s" % k: v for k, v in AUT_ORDERS.items()})


# -- run-all ---------------------------------------------------------------------


def run_all_problems(payload):
    """Problems with one `srcy run-all --format json` payload (bytes)."""
    try:
        checks = json.loads(payload)["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["payload is not a run-all report: %s" % exc]
    problems = []
    if len(checks) != RUN_ALL_CHECKS:
        problems.append("%d checks, expected %d" % (len(checks), RUN_ALL_CHECKS))
    statuses = [c.get("status") for c in checks]
    if statuses.count("fail"):
        problems.append("%d checks fail" % statuses.count("fail"))
    if statuses.count("ingested") != RUN_ALL_INGESTED:
        problems.append("%d ingested, expected %d" % (statuses.count("ingested"), RUN_ALL_INGESTED))
    computed = {c.get("id"): c.get("computed") for c in checks}
    for check_id, value in RUN_ALL_COMPUTED.items():
        if computed.get(check_id) != value:
            problems.append("%s computed %r, paper has %r" % (check_id, computed.get(check_id), value))
    return problems


# -- complexes -------------------------------------------------------------------


def minimal_nonfaces_brute(facets):
    """Sorted vertex tuples of every minimal subset contained in no facet."""
    facet_sets = [frozenset(f) for f in facets]
    vertices = sorted({v for f in facets for v in f})

    def is_face(s):
        return any(s <= f for f in facet_sets)

    found = []
    for size in range(1, len(vertices) + 1):
        for sub in combinations(vertices, size):
            s = frozenset(sub)
            if not is_face(s) and all(is_face(s - {v}) for v in s):
                found.append(sub)
    return sorted(found)


def complex_problems(item, result):
    """Problems with one triangulation's results; `result` holds plain values."""
    sphere = item.sphere
    problems = []
    if not result["sphere_ok"]:
        problems.append("not recognised as a 3-sphere")
    if result["nonfaces"] != minimal_nonfaces_brute(item.facets):
        problems.append("minimal non-faces differ from brute force")
    h = result["h_vector"]
    if h != h[::-1]:
        problems.append("h-vector %s is not palindromic" % h)
    if sum(h) != len(item.facets):
        problems.append("h-vector sums to %d, not the facet count %d" % (sum(h), len(item.facets)))
    dim = result["t1_dim"]
    if sphere.t1_dim is not None and dim != sphere.t1_dim:
        problems.append("T^1 dimension %d, expected %d" % (dim, sphere.t1_dim))
    if not result["link_table_ok"]:
        problems.append("link table cross-check fails")
    nverts = len({v for f in item.facets for v in f})
    if result["family_shape"] != (dim, len(result["nonfaces"]), nverts + dim):
        problems.append("first-order family shape %s" % (result["family_shape"],))
    order = result["aut_order"]
    if sphere.aut_order is not None and order != sphere.aut_order:
        problems.append("automorphism group order %d, expected %d" % (order, sphere.aut_order))
    sizes = result["orbit_sizes"]
    if sum(sizes) != dim:
        problems.append("orbit sizes sum to %d, not %d" % (sum(sizes), dim))
    if any(order % s for s in sizes):
        problems.append("an orbit size does not divide the group order %d" % order)
    return problems


def relabeling_problems(results):
    """Copies of one sphere must agree on T^1 dimension, order and orbit sizes."""
    by_sphere = {}
    for item, result in results:
        key = (result["t1_dim"], result["aut_order"], tuple(result["orbit_sizes"]))
        by_sphere.setdefault(item.sphere.name, set()).add(key)
    return ["relabeled copies of %s disagree: %s" % (name, sorted(keys))
            for name, keys in by_sphere.items() if len(keys) > 1]


# -- pfaffians -------------------------------------------------------------------


def numeric_matrix(item, point):
    """The skew matrix of `item` evaluated at `point`, as Fraction rows."""
    n = item.dim
    a = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), terms in item.entries.items():
        value = Fraction(0)
        for exps, coeff in terms:
            for name, e in zip(item.names, exps):
                if e:
                    coeff *= point[name] ** e
            value += coeff
        a[i - 1][j - 1] = value
        a[j - 1][i - 1] = -value
    return a


def pfaffian_numeric(a):
    """Pfaffian by skew-symmetric elimination: Pf(B A B^T) = det(B) Pf(A)."""
    a = [row[:] for row in a]
    n = len(a)
    if n % 2:
        return Fraction(0)
    result = Fraction(1)
    for k in range(0, n, 2):
        pivot = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k + 1:
            _swap(a, k + 1, pivot)
            result = -result
        p = a[k][k + 1]
        result *= p
        for i in range(k + 2, n):
            _add_multiple(a, i, k + 1, -a[k][i] / p)
            _add_multiple(a, i, k, a[k + 1][i] / p)
    return result


def _swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_multiple(a, i, j, c):
    """Row i += c * row j and column i += c * column j (a congruence)."""
    if not c:
        return
    ri, rj = a[i], a[j]
    for col in range(len(a)):
        ri[col] += c * rj[col]
    for row in a:
        row[i] += c * row[j]


def det_numeric(a):
    a = [row[:] for row in a]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        p = a[k][k]
        result *= p
        for i in range(k + 1, n):
            c = a[i][k] / p
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    return result


def delete_index(a, i):
    return [[x for c, x in enumerate(row) if c != i] for r, row in enumerate(a) if r != i]


def pfaffian_problems(item, values):
    """`values[p]` holds the library's output polynomials evaluated at point p."""
    problems = []
    for p, point in enumerate(item.points):
        a = numeric_matrix(item, point)
        got = values[p]
        if item.dim % 2 == 0:
            pf = pfaffian_numeric(a)
            if got[0] != pf:
                problems.append("Pf at point %d is %s, oracle %s" % (p, got[0], pf))
            if got[0] * got[0] != det_numeric(a):
                problems.append("Pf^2 != det at point %d" % p)
            continue
        if any(sum(x * y for x, y in zip(row, got)) for row in a):
            problems.append("M(p) f(p) != 0 at point %d" % p)
        for i in range(item.dim):
            minor = delete_index(a, i)
            pf = pfaffian_numeric(minor)
            expected = pf if (i + 1) % 2 == 0 else -pf
            if got[i] != expected:
                problems.append("f_%d at point %d is %s, oracle %s" % (i + 1, p, got[i], expected))
            if pf * pf != det_numeric(minor):
                problems.append("Pf^2 != det for minor %d at point %d" % (i + 1, p))
    return problems
