from fractions import Fraction

import pytest

from srcy.polynomial import PolyRing


@pytest.fixture
def ring():
    return PolyRing(["x", "y", "t"])


def test_parse_and_str_round_trip(ring):
    p = ring.parse("3*x^2*y - 1/2*t + (x - y)^2")
    assert ring.parse(str(p)) == p


def test_parse_rejects_implicit_multiplication(ring):
    with pytest.raises(ValueError):
        ring.parse("2 x")


def test_arithmetic(ring):
    x, y = ring.var("x"), ring.var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert (x - x).is_zero()


def test_no_zero_terms_stored(ring):
    x = ring.var("x")
    p = x + (-1) * x
    assert p.terms == {}


def test_substitute_and_evaluate(ring):
    p = ring.parse("x^2*t + y")
    q = p.substitute({"t": 0})
    assert q == ring.var("y")
    r = ring.parse("x^2*t + 3*x^2 - y*t^2 + y")
    assert r.substitute({"t": Fraction(-1, 2), "z": 5}) == ring.parse("5/2*x^2 + 3/4*y")
    assert r.substitute({"t": -3}) == ring.parse("-8*y")
    assert r.substitute({"x": 0, "t": 1}).is_zero()
    with pytest.raises(TypeError):
        p.substitute({"t": ring.var("x")})
    assert p.evaluate({"x": 2, "y": 3, "t": Fraction(1, 2)}) == Fraction(5)


def test_truncate_above(ring):
    p = ring.parse("x + t*x + t^2*x + t^3")
    assert p.truncate_above(["t"], 2) == ring.parse("x + t*x")


def test_derivative(ring):
    p = ring.parse("x^3*y + 2*x")
    assert p.derivative("x") == ring.parse("3*x^2*y + 2")


def test_monomial_content(ring):
    p = ring.parse("x^2*y + x*y^2")
    assert p.content_exponents() == (1, 1, 0)
    assert p.strip_monomial_content() == ring.parse("x + y")


def test_coefficient_of(ring):
    p = ring.parse("t*x^2 + t*y + t^2*x + 5")
    assert p.coefficient_of("t", 1) == ring.parse("x^2 + y")


def test_rename_between_rings(ring):
    other = PolyRing(["x", "y", "s"])
    p = ring.parse("x*t + y")
    assert p.rename(other, {"t": "s"}) == other.parse("x*s + y")


def test_weighted_checks():
    ring = PolyRing(["u", "v"])
    p = ring.parse("u^2 + v^3")
    from srcy.pfaffian import check_quasihomogeneous, quasi_weights

    w = quasi_weights([Fraction(1, 2), Fraction(1, 3)], ["u", "v"])
    assert check_quasihomogeneous(p, w)
    assert check_quasihomogeneous(ring.zero(), w)
    assert not check_quasihomogeneous(p + ring.var("u"), w)
