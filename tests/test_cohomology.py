import random
from math import comb

import pytest

from srcy import fixtures
from srcy.cohomology import (
    CohTable,
    Contradiction,
    ShortExact,
    h_twist,
    hodge_pipeline_ci,
    les_solve,
    sheaf_from_resolution,
)


def test_h_twist_values():
    assert [h_twist(6, d, 6) for d in (-7, -8, -9, -10)] == [1, 7, 28, 84]
    assert h_twist(6, 0, 0) == 1
    assert h_twist(6, 2, 0) == comb(8, 6)
    assert all(h_twist(6, -r, p) == 0 for r in range(1, 7) for p in range(7))


def test_serre_duality():
    for n in (2, 3, 6):
        for d in range(-2 * n - 4, n + 3):
            for p in range(n + 1):
                assert h_twist(n, d, p) == h_twist(n, -d - n - 1, n - p)


def _chi(entries):
    return sum((-1) ** p * h for p, h in enumerate(entries))


def test_chi_polynomial_identity():
    for n in (3, 6):
        for d in range(-10, 10):
            binom = 1
            for i in range(1, n + 1):
                binom = binom * (d + i)
            for i in range(1, n + 1):
                binom //= i
            assert _chi([h_twist(n, d, p) for p in range(n + 1)]) == binom


def test_resolve_shift():
    # inner terms without cohomology: h^p is h^(p+k) of the last term
    n, res = fixtures.ci_complexes()
    res = res["structure_sheaf"]
    twisted = [tuple((d - 1, m) for d, m in t) for t in res]
    assert sheaf_from_resolution(n, twisted, "O_X(-1)").entries == [0, 0, 0, 7, 0, 0, 0]
    assert sheaf_from_resolution(n, res[1:], "J_X").entries == [0, 0, 0, 0, 1, 0, 0]


def test_resolution_with_inner_cohomology_is_forced():
    # 0 -> O(-7) -> O -> F -> 0 on P^6: h^0(O) = 1 and h^6(O(-7)) = 1
    res = [((0, 1),), ((-7, 1),)]
    assert sheaf_from_resolution(6, res, "F").entries == [1, 0, 0, 0, 0, 1, 0]


def test_one_term_resolution_is_its_bott_sum():
    # O(-7)^2 + O(1) on P^6: h^0 = 7 from O(1), h^6 = 2 from O(-7)^2
    assert sheaf_from_resolution(6, [((-7, 2), (1, 1))], "A").entries == [7, 0, 0, 0, 0, 0, 2]


def test_sheaf_from_resolution_structure_sheaf():
    n, res = fixtures.ci_complexes()
    table = sheaf_from_resolution(n, res["structure_sheaf"], "O_X")
    assert table.entries == [1, 0, 0, 1, 0, 0, 0]


def test_les_window_solving():
    # 0 -> A -> B -> C -> 0 with B cohomology-free: H^p(C) = H^(p+1)(A)
    a = CohTable("A", 2, [0, 0, 5])
    b = CohTable("B", 2, [0, 0, 0])
    c = CohTable("C", 2)
    unknown = les_solve([ShortExact(a, b, c)])
    assert c.entries == [0, 5, 0]
    assert unknown == []

    # a window with several knowns and one unknown closes by alternation
    a2 = CohTable("A2", 2, [0, 0, 5])
    b2 = CohTable("B2", 2, [0, 0, 8])
    c2 = CohTable("C2", 2, [0, 0, None])
    c2.entries[1] = 0
    unknown = les_solve([ShortExact(a2, b2, c2)])
    assert c2.entries == [0, 0, 3]
    assert unknown == []


def test_les_reports_underdetermined():
    a = CohTable("A", 1)
    b = CohTable("B", 1, [1, 1])
    c = CohTable("C", 1)
    unknown = les_solve([ShortExact(a, b, c)])
    assert set(u[0] for u in unknown) == {"A", "C"}


def test_les_contradiction():
    a = CohTable("A", 1, [5, 0])
    b = CohTable("B", 1, [1, 0])
    c = CohTable("C", 1, [0, 0])
    with pytest.raises(Contradiction):
        les_solve([ShortExact(a, b, c)])


def test_hodge_pipeline():
    n, res = fixtures.ci_complexes()
    out = hodge_pipeline_ci(n, res["structure_sheaf"], res["ideal_square"])
    assert (out.h11, out.h12) == (1, 73)
    inter = out.intermediates
    assert inter["h3_ox_minus1"] == 7
    assert inter["h3_omega_restr"] == 48
    assert inter["h4_j2"] == 122
    assert inter["h3_conormal"] == 121
    assert inter["h1_omega_restr"] == 1


def test_pipeline_deterministic_under_sequence_shuffle():
    # independent runs build their own tables; the solver's fixpoint does
    # not depend on discovery order
    results = set()
    for _ in range(5):
        n, res = fixtures.ci_complexes()
        out = hodge_pipeline_ci(n, res["structure_sheaf"], res["ideal_square"])
        results.add((out.h11, out.h12))
    assert results == {(1, 73)}


def _term_chi(n, term):
    return sum(m * _chi([h_twist(n, d, p) for p in range(n + 1)]) for d, m in term)


def test_resolution_euler_characteristic_consistency():
    n, res = fixtures.ci_complexes()
    ox = sheaf_from_resolution(n, res["structure_sheaf"], "O_X")
    alt = sum((-1) ** i * _term_chi(n, t) for i, t in enumerate(res["structure_sheaf"]))
    assert alt == _chi(ox.entries) == 0

    out = hodge_pipeline_ci(n, res["structure_sheaf"], res["ideal_square"])
    j2_chi = sum((-1) ** i * _term_chi(n, t) for i, t in enumerate(res["ideal_square"]))
    # h^4(J^2) = 122 is the only nonzero entry of the squared ideal sheaf
    assert j2_chi == out.intermediates["h4_j2"]


def test_les_never_negative_randomized():
    rng = random.Random(4)
    for _ in range(40):
        known = [rng.randint(0, 9) for _ in range(3)]
        a = CohTable("A", 2, [known[0], None, known[1]])
        b = CohTable("B", 2, [known[0], 5, known[1] + known[2]])
        c = CohTable("C", 2, [0, None, known[2]])
        try:
            les_solve([ShortExact(a, b, c)])
        except Contradiction:
            continue
        for t in (a, b, c):
            assert all(e is None or e >= 0 for e in t.entries)
