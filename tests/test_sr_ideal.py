import pytest

from srcy.fileio import load_triangulation
from srcy.simplicial import SimplicialComplex
from srcy.sr_ideal import degree, hilbert_numerator, minimal_nonfaces, sr_report

EXPECTED_NONFACES = {
    "delta4": {(0, 1, 2, 3, 4)},
    "p7_1": {(5, 7), (4, 7), (4, 6), (1, 2, 3, 6), (1, 2, 3, 5)},
    "p7_2": {(5, 7), (1, 7), (4, 5, 6), (1, 2, 3), (2, 3, 4, 6)},
    "p7_3": {(6, 7), (4, 5), (1, 2, 3)},
    "p7_4": {(5, 7), (1, 2, 5), (1, 2, 6), (3, 4, 6), (3, 4, 7)},
    "p7_5": {(1, 3, 5), (1, 3, 6), (1, 4, 6), (2, 4, 6), (2, 4, 7), (2, 5, 7), (3, 5, 7)},
}

DEGREES = {"delta4": 5, "p7_1": 11, "p7_2": 12, "p7_3": 12, "p7_4": 13, "p7_5": 14}


def test_minimal_nonfaces(complexes):
    for name, k in complexes.items():
        assert set(minimal_nonfaces(k).generators) == EXPECTED_NONFACES[name]


def test_generators_form_an_antichain(complexes):
    for k in complexes.values():
        gens = [frozenset(g) for g in minimal_nonfaces(k).generators]
        for a in gens:
            assert frozenset(a) not in k.faces()
            for b in gens:
                assert a == b or not a < b
        # every set containing no generator is a face
        from itertools import combinations

        for size in range(1, len(k.vertices) + 1):
            for sub in combinations(k.vertices, size):
                s = frozenset(sub)
                contains_gen = any(g <= s for g in gens)
                assert contains_gen != (frozenset(s) in k.faces())


def test_degrees(complexes):
    for name, k in complexes.items():
        assert degree(k) == DEGREES[name]


def test_degree_requires_pure():
    k = SimplicialComplex([{1, 2}, {3}])
    with pytest.raises(ValueError):
        degree(k)


def test_hilbert_numerator_at_one(complexes):
    for name, k in complexes.items():
        assert hilbert_numerator(k).evaluate({"t": 1}) == DEGREES[name]


def test_hilbert_numerator_point():
    point = load_triangulation("5\n")
    num = hilbert_numerator(point)
    assert num.evaluate({"t": 1}) == 1
    assert str(num) == "1"


def test_sr_report_shape(complexes):
    rep = sr_report(complexes["p7_3"])
    assert rep["degree"] == 12
    assert ["1", "2", "3"] in rep["generators"]
    assert sum(rep["hilbert_numerator"]) == 12
