from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srcy.polynomial import Poly, PolyRing


@pytest.fixture
def ring():
    return PolyRing(["x", "y", "t"])


def test_parse_and_str_round_trip(ring):
    p = ring.parse("3*x^2*y - 1/2*t + (x - y)^2")
    assert ring.parse(str(p)) == p


def test_parse_rejects_implicit_multiplication(ring):
    with pytest.raises(ValueError):
        ring.parse("2 x")


@pytest.mark.parametrize("text", ["x +", "", "2*", "(x - y) *", "-"])
def test_parse_names_the_end_of_input(ring, text):
    with pytest.raises(ValueError, match="^unexpected end of polynomial$"):
        ring.parse(text)


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


# -- products ------------------------------------------------------------------


def _reference_product(a, b):
    """The exponent-tuple loop `Poly.__mul__` ran before the packed kernel."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return Poly(a.ring, terms)


PRODUCT_RINGS = (PolyRing([]), PolyRing(["x"]), PolyRing(["x", "y", "t"]),
                 PolyRing(["x1", "x2", "t1", "t2", "t3"]))
EXPONENTS = st.one_of(st.integers(0, 2), st.sampled_from([255, 256, 65535, 2 ** 32 - 1]))
COEFFICIENTS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))


def _polys(ring):
    terms = st.lists(st.tuples(st.tuples(*[EXPONENTS] * ring.nvars), COEFFICIENTS), max_size=5)
    return terms.map(lambda ts: sum((ring.monomial(e, c) for e, c in ts), ring.zero()))


@st.composite
def product_cases(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    names = draw(st.lists(st.sampled_from(ring.names), unique=True) if ring.names else st.just([]))
    return draw(_polys(ring)), draw(_polys(ring)), names, draw(st.sampled_from([0, 1, 2]))


def _check_product(a, b, names, bound):
    ref = _reference_product(a, b)
    product = a * b
    assert product == ref
    assert list(product.terms) == list(ref.terms)
    assert all(type(c) is Fraction for c in product.terms.values())
    assert a.mul(b, (names, bound)) == ref.truncate_above(names, bound)


_XYT = PRODUCT_RINGS[2]


@settings(max_examples=200, deadline=None)
@given(product_cases())
@example((_XYT.parse("x + t"), _XYT.parse("x - t"), ["t"], 2))  # cross terms cancel
@example((_XYT.parse("x + 1/2*y"), _XYT.parse("2*x - y"), [], 1))  # mixed coefficients, no parameter
@example((_XYT.zero(), _XYT.parse("t"), ["t"], 2))
@example((_XYT.parse("t*x + y"), _XYT.parse("t^2 + t + 3"), ["t"], 0))
@example((PRODUCT_RINGS[0].const(Fraction(2, 3)), PRODUCT_RINGS[0].const(3), [], 1))
def test_product_matches_the_tuple_loop(case):
    _check_product(*case)


@pytest.mark.parametrize("top", [255, 65535, 2 ** 32 - 1])
def test_product_exponent_does_not_carry_into_the_next_variable(top):
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    high = ring.monomial((top, 0))
    assert (high * x).terms == {(top + 1, 0): Fraction(1)}
    assert (x * high).terms == {(top + 1, 0): Fraction(1)}
    assert high.mul(x + y, (["y"], 1)).terms == {(top + 1, 0): Fraction(1)}


def test_product_exponent_past_64_bits_is_an_error():
    ring = PolyRing(["x", "y"])
    half = ring.monomial((2 ** 63, 0))
    with pytest.raises(ValueError, match="64-bit"):
        half * half
    with pytest.raises(ValueError, match="64-bit"):
        ring.parse("x^18446744073709551616")


@pytest.mark.parametrize("k", range(6))
def test_power_matches_repeated_multiplication(ring, k, monkeypatch):
    base = ring.parse("x + y + 1/2")
    expected = ring.one()
    for _ in range(k):
        expected = expected * base
    products = []
    original = Poly.mul
    monkeypatch.setattr(Poly, "mul", lambda a, b, trunc=None: products.append(1) or original(a, b, trunc))
    assert base ** k == expected
    # one squaring per bit after the lowest, one product per set bit after the first
    assert len(products) == max(k.bit_length() + bin(k).count("1") - 2, 0)
