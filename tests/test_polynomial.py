import ast
import operator
import re
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


def test_parse_rejects_a_zero_denominator(ring):
    with pytest.raises(ValueError, match="^zero denominator in '3/00'$"):
        ring.parse("x + 3/00")


def test_parse_caps_exponents_that_grow_the_result(ring):
    for text in ("7^1001", "(x + 1)^1001", "(2*x)^1001", "(1/2*x)^1001", "(x*y + y)^1001"):
        with pytest.raises(ValueError, match="^exponent 1001 is above the limit 1000$"):
            ring.parse(text)
    assert ring.parse("7^1000") == ring.const(7 ** 1000)
    # a unit monomial's power is capped like any other
    for text, e in (("(-x*y)^70001", 70001), ("x^4294967295", 4294967295)):
        with pytest.raises(ValueError, match="^exponent %d is above the limit 1000$" % e):
            ring.parse(text)


def test_parse_caps_the_terms_of_a_power(ring):
    # a t-term base to the power e has up to C(e + t - 1, t - 1) terms, checked before expanding
    with pytest.raises(ValueError, match="^power 38 of a polynomial with 4 terms may have 10660 "
                                         "terms, above the limit 10000$"):
        ring.parse("x*y + (x + y + t + 1)^38")
    assert ring.parse("(x + y + t)^2") == ring.parse("x^2 + y^2 + t^2 + 2*x*y + 2*x*t + 2*y*t")
    assert len(ring.parse("(x - y)^1000").nums) == 1001


@pytest.mark.parametrize("text, message", [
    ("x + 3/ 4", "malformed rational near '3/'"),
    ("x . y", "unexpected character '.' in polynomial"),
])
def test_parse_names_the_bad_token(ring, text, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        ring.parse(text)


@pytest.mark.parametrize("text", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"])
def test_parse_rejects_deep_nesting(ring, text):
    with pytest.raises(ValueError, match="^polynomial is nested too deeply$"):
        ring.parse(text)


@pytest.mark.parametrize("text, same", [
    ("x*-y^2", "-x*y^2"),
    ("2*-3^2", "-18"),
    ("x - -y^2", "x + y^2"),
    ("x+-y^2", "x - y^2"),
    ("-x^2", "-(x^2)"),
    ("(-x)^2", "x^2"),
])
def test_a_minus_binds_below_the_power(ring, text, same):
    assert ring.parse(text) == ring.parse(same)


_POINT_VALUES = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(-3)]


_LEAVES = ["0", "1", "2", "3", "7", "12", "0/3", "1/2", "5/3", "12/7"] + ["x", "y", "t"] * 3


def _grammar_text(data, depth=2):
    """Text of the documented polynomial grammar over x, y, t.

    Each choice takes the next byte of `data` (0 once it runs out), and the
    first option of every choice is the simplest, so shrinking the bytes
    shrinks the expression.
    """
    choices = iter(data)

    def pick(options):
        return options[next(choices, 0) % len(options)]

    def expr(d):
        text = pick(["", "+"]) + term(d)
        for _ in range(pick([0, 1, 2])):
            text += pick(["+", "-", " + ", " - "]) + term(d)
        return text

    def term(d):
        return "*".join(factor(d) for _ in range(pick([1, 2])))

    def factor(d):
        text = pick(["", "-", "--"])  # a unary minus may start any factor
        leaf = pick(_LEAVES + ["("] * 4 if d else _LEAVES)
        text += "(" + expr(d - 1) + ")" if leaf == "(" else leaf
        return text + pick(["", "^0", "^1", "^2"] + ([] if leaf == "(" else ["^3"]))

    return expr(depth)


_AST_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.Div: operator.truediv, ast.Pow: operator.pow,
            ast.USub: operator.neg, ast.UAdd: operator.pos}


def _reference_value(text, point):
    """Python's reading of the text, with '^' as '**' and each p/q in parentheses."""
    def value(node):
        if isinstance(node, ast.BinOp):
            return _AST_OPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp):
            return _AST_OPS[type(node.op)](value(node.operand))
        if isinstance(node, ast.Name):
            return point[node.id]
        return Fraction(node.value)

    source = re.sub(r"(\d+/\d+)", r"(\1)", text).replace("^", "**")
    return value(ast.parse(source, mode="eval").body)


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=8, max_size=64).map(_grammar_text),
       st.fixed_dictionaries({n: st.sampled_from(_POINT_VALUES) for n in "xyt"}))
@example("x*-y^2", {"x": Fraction(1), "y": Fraction(2), "t": Fraction(0)})
@example("5/3^2", {"x": Fraction(0), "y": Fraction(0), "t": Fraction(0)})
def test_parse_agrees_with_python_precedence(text, point):
    assert PolyRing(["x", "y", "t"]).parse(text).evaluate(point) == _reference_value(text, point)


def test_arithmetic(ring):
    x, y = ring.var("x"), ring.var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert (x - x).is_zero()


def test_no_zero_terms_stored(ring):
    x = ring.var("x")
    p = x + (-1) * x
    assert list(p.items()) == []


def test_substitute_and_evaluate(ring):
    p = ring.parse("x^2*t + y")
    q = p.truncate_above(["t"], 1)
    assert q == ring.var("y")
    assert p.evaluate({"x": 2, "y": 3, "t": Fraction(1, 2)}) == Fraction(5)


def test_truncate_above(ring):
    p = ring.parse("x + t*x + t^2*x + t^3")
    assert p.truncate_above(["t"], 2) == ring.parse("x + t*x")


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
    """The exponent-tuple loop `Poly.__mul__` ran before the packed kernel, as a tuple dict."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return terms


def _reference_sum(a, b, sign=1):
    """The tuple loop of `Poly.__add__` (sign 1) or `__sub__` (sign -1), as a tuple dict."""
    terms = dict(a.items())
    for e, c in b.items():
        s = terms.get(e, Fraction(0)) + sign * c
        if s:
            terms[e] = s
        else:
            del terms[e]
    return terms


def _from_terms(ring, terms):
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


PRODUCT_RINGS = (PolyRing([]), PolyRing(["x"]), PolyRing(["x", "y", "t"]),
                 PolyRing(["x1", "x2", "t1", "t2", "t3"]))


def _fractions(bound, max_denominator):
    """Every Fraction in [-bound, bound] with denominator at most max_denominator."""
    return tuple(sorted({Fraction(p, q) for q in range(1, max_denominator + 1)
                         for p in range(-bound * q, bound * q + 1)}))


# flat `sampled_from` value sets: drawing from them costs far less than
# nested `one_of`s of `integers` and `fractions` over the same values
# (the sum of two exponents never passes the limit 32767)
EXPONENTS = st.sampled_from((0, 1, 2, 255, 256, 16383))
COEFFICIENTS = st.sampled_from(tuple(range(-3, 4)) + _fractions(2, 4))


def _polys(ring):
    terms = st.lists(st.tuples(st.tuples(*[EXPONENTS] * ring.nvars), COEFFICIENTS), max_size=5)
    return terms.map(lambda ts: sum((ring.monomial(e, c) for e, c in ts), ring.zero()))


@st.composite
def product_cases(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    names = draw(st.lists(st.sampled_from(ring.names), unique=True) if ring.names else st.just([]))
    return draw(_polys(ring)), draw(_polys(ring)), names, draw(st.sampled_from([0, 1, 2]))


def _check_same_terms(poly, terms):
    """Same terms in the same order, every coefficient a Fraction, and equal to a rebuilt copy."""
    assert list(poly.items()) == list(terms.items())
    assert all(type(c) is Fraction for _e, c in poly.items())
    assert poly == _from_terms(poly.ring, terms)


def _check_product(a, b, names, bound):
    ref = _reference_product(a, b)
    _check_same_terms(a * b, ref)
    idx = [a.ring.index[n] for n in names]
    kept = {e: c for e, c in ref.items() if sum(e[i] for i in idx) < bound}
    _check_same_terms(Poly.dot(a.ring, [(a, b)], (names, bound)), kept)


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


@pytest.mark.parametrize("top", [255, 32766])
def test_product_exponent_does_not_carry_into_the_next_variable(top):
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    high = ring.monomial((top, 0))
    assert list((high * x).items()) == [((top + 1, 0), Fraction(1))]
    assert list((x * high).items()) == [((top + 1, 0), Fraction(1))]
    assert list(Poly.dot(ring, [(high, x + y)], (["y"], 1)).items()) == [((top + 1, 0), Fraction(1))]


def _reference_dot(pairs, names, bound):
    """The sum of `_reference_product` over the pairs without terms of degree >= bound in names."""
    terms = {}
    for a, b in pairs:
        idx = [a.ring.index[n] for n in names]
        for e, c in _reference_product(a, b).items():
            if sum(e[i] for i in idx) >= bound:
                continue
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
    return terms


@st.composite
def dot_cases(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    names = draw(st.lists(st.sampled_from(ring.names), unique=True) if ring.names else st.just([]))
    pairs = draw(st.lists(st.tuples(_polys(ring), _polys(ring)), max_size=4))
    if pairs and draw(st.booleans()):  # a pair that cancels an earlier one
        a, b = draw(st.sampled_from(pairs))
        pairs.append((b, -a))
    return ring, pairs, names, draw(st.sampled_from([0, 1, 2]))


def _check_same_sum(poly, terms):
    """The same terms as `terms`, in any order, every coefficient a Fraction."""
    assert dict(poly.items()) == terms
    assert all(type(c) is Fraction for _e, c in poly.items())
    assert poly == _from_terms(poly.ring, terms)


_HIGH = _XYT.monomial((32766, 0, 0))


@settings(max_examples=100, deadline=None)
@given(dot_cases())
@example((_XYT, [], ["t"], 2))  # no pairs
@example((_XYT, [(_XYT.zero(), _XYT.parse("x")), (_XYT.parse("y"), _XYT.zero())], [], 1))
@example((_XYT, [(_XYT.parse("x + 1/2"), _XYT.parse("t")), (_XYT.parse("-t"), _XYT.parse("x + 1/2"))],
          ["t"], 2))  # the sum cancels to zero
@example((_XYT, [(_XYT.parse("x"), _XYT.parse("y")), (_HIGH, _XYT.parse("1/3*t")),
                 (_XYT.parse("1/2*y"), _XYT.parse("x"))], ["t"], 1))  # a pair near the limit
@example((_XYT, [(_XYT.parse("1/2*x"), _XYT.parse("1/3*y")), (_XYT.parse("1/4*x*t"), _XYT.parse("y")),
                 (_XYT.parse("2/3*x"), _XYT.parse("-y"))], ["t"], 2))  # mixed denominators
@example((_XYT, [(_XYT.parse("t*x + 1/5"), _XYT.parse("t^2 + t + 3"))], ["t"], 0))
def test_dot_matches_the_sum_of_tuple_products(case):
    ring, pairs, names, bound = case
    _check_same_sum(Poly.dot(ring, pairs), _reference_dot(pairs, [], 1))
    _check_same_sum(Poly.dot(ring, pairs, (names, bound)), _reference_dot(pairs, names, bound))


# -- setting variables to zero and renaming ----------------------------------------


def _reference_substitute(poly, values):
    """The tuple loop `Poly.substitute` ran: rational constants for variables, one pass."""
    subs = [(i, Fraction(values[n])) for i, n in enumerate(poly.ring.names) if n in values]
    terms = {}
    for e, c in poly.items():
        ee = list(e)
        for i, v in subs:
            if ee[i]:
                c *= v ** ee[i]
                ee[i] = 0
        key = tuple(ee)
        terms[key] = terms.get(key, Fraction(0)) + c
    return _from_terms(poly.ring, {e: c for e, c in terms.items() if c})


def _reference_rename(poly, ring, mapping=None):
    """The tuple loop `Poly.rename` ran: exponents added under the target ring's names."""
    terms = {}
    for e, c in poly.items():
        ee = [0] * ring.nvars
        for i, p in enumerate(e):
            if p == 0:
                continue
            name = poly.ring.names[i]
            if mapping:
                name = mapping.get(name, name)
            ee[ring.index[name]] += p
        key = tuple(ee)
        terms[key] = terms.get(key, Fraction(0)) + c
    return _from_terms(ring, {e: c for e, c in terms.items() if c})


def _merged_ring(ring):
    """A target for `ring` with t1 and t2 merged into s, a new variable z, and the rest reversed."""
    return PolyRing(["s", "z"] + [n for n in reversed(ring.names) if n not in ("t1", "t2")])


_T = PRODUCT_RINGS[3]


@settings(max_examples=50, deadline=None)
@given(product_cases())
@example((_T.parse("1/2*t1 + 1/2*t2"), _T.parse("t1 - t2 + x1"), ["t1"], 0))  # merges cancel, reduce
@example((_T.power_product({"t1": 16383, "t2": 16384}), _T.parse("2/3*x2 + t3"), ["x2", "t3"], 0))
@example((_T.zero(), _T.parse("x1*t2 - 1/4"), ["x1", "x2", "t1", "t2", "t3"], 0))
def test_zeroing_and_renaming_match_the_tuple_loops(case):
    *polys, names, _bound = case
    mapping = {"t1": "s", "t2": "s"}
    for p in polys:
        assert p.truncate_above(names, 1) == _reference_substitute(p, dict.fromkeys(names, 0))
        target = _merged_ring(p.ring)
        assert p.rename(target, mapping) == _reference_rename(p, target, mapping)


@settings(max_examples=50, deadline=None)
@given(product_cases())
@example((_T.parse("t1*t2*x1 + 2*t1^2*t3 - t3*x2 + 1/3*t1"), _T.one(), ["t1", "t2", "t3"], 0))
def test_linear_coefficients_match_coefficient_of(case):
    p, _q, names, _bound = case
    assert p.linear_coefficients(names) == {n: c for n in names if (c := p.coefficient_of(n, 1))}


# -- sums ------------------------------------------------------------------------


@st.composite
def sum_cases(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    return draw(_polys(ring)), draw(_polys(ring))


@settings(max_examples=200, deadline=None)
@given(sum_cases())
@example((_XYT.parse("x + 1/3"), _XYT.parse("x + 1/3")))  # everything cancels in a - b
@example((_XYT.parse("1/2*x - y"), _XYT.parse("1/2*x + y^300")))  # mixed widths, one cancellation
@example((_XYT.zero(), _XYT.parse("-2/3*t")))
def test_sums_match_the_tuple_loop(case):
    a, b = case
    _check_same_terms(a + b, _reference_sum(a, b))
    _check_same_terms(a - b, _reference_sum(a, b, -1))
    _check_same_terms(-a, {e: -c for e, c in a.items()})


def _reference_evaluate(poly, point):
    """The loop `Poly.evaluate` ran before the common denominator: one Fraction power per factor."""
    total = Fraction(0)
    for e, c in poly.items():
        val = c
        for i, p in enumerate(e):
            if p:
                val *= Fraction(point[poly.ring.names[i]]) ** p
        total += val
    return total


VALUES = st.sampled_from(tuple(range(-3, 4)) + _fractions(3, 5))


@st.composite
def evaluate_cases(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    exponents = st.sampled_from((0, 1, 2, 3, 300))
    terms = st.lists(st.tuples(st.tuples(*[exponents] * ring.nvars), COEFFICIENTS), max_size=5)
    poly = sum((ring.monomial(e, c) for e, c in draw(terms)), ring.zero())
    return poly, {n: draw(VALUES) for n in ring.names}


@settings(max_examples=100, deadline=None)
@given(evaluate_cases())
@example((_XYT.parse("x^2*t + 3/2*y - 1/3"), {"x": Fraction(-1, 2), "y": 0, "t": Fraction(2, 3)}))
@example((_XYT.monomial((32767, 1, 0)) - _XYT.parse("1/7*x^3"),
          {"x": Fraction(-3, 2), "y": Fraction(1, 3), "t": 5}))
@example((_XYT.zero(), {"x": 1, "y": 2, "t": 3}))
def test_evaluate_matches_the_fraction_loop(case):
    poly, point = case
    value = poly.evaluate(point)
    assert type(value) is Fraction and value == _reference_evaluate(poly, point)


def test_coefficients_are_kept_in_lowest_terms(ring):
    x, y = ring.var("x"), ring.var("y")
    assert (ring.parse("1/2*x + 1/3*y") * 6) == 3 * x + 2 * y
    assert str(ring.parse("1/2*x + 1/3*y") * 6) == "3*x + 2*y"
    half = ring.parse("1/2*x")
    assert half + half == x
    assert list((half + half).items()) == [((1, 0, 0), Fraction(1))]
    third = x + Fraction(1, 3)
    assert third - third == ring.zero()
    assert (third - third).is_zero()
    assert ring.parse("2/4*x") == ring.parse("1/2*x")


@pytest.mark.parametrize("top", [300, 32766])
def test_polynomials_of_different_exponent_sizes_mix(top):
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    high = ring.monomial((top, 0))
    assert (high + y) - high == y
    assert list(((high + y) - high).items()) == [((0, 1), Fraction(1))]
    assert y == (high + y) - high
    assert (high + y) - y == high
    expected = [((top + 1, 0), Fraction(1, 2)), ((top, 1), Fraction(1, 2))]
    assert list((high * ring.parse("1/2*x + 1/2*y")).items()) == expected
    assert list((ring.parse("1/2*x + 1/2*y") * high).items()) == expected
    assert high * (x + y) - high * x == high * y
    assert str((high + x) * (x - y)) == "x^%d - x^%d*y + x^2 - x*y" % (top + 1, top)
    assert (high * y + y).coefficient_of("y", 1) == high + 1
    assert (high * y).total_degree() == top + 1
    assert (high * y + x * high).strip_monomial_content() == x + y
    assert (high * y).truncate_above(["y"], 1).is_zero()


def test_power_product_matches_monomial(ring):
    assert list(ring.power_product({"x": 2, "t": 1}).items()) == [((2, 0, 1), Fraction(1))]
    assert ring.power_product({"t": 1, "x": 2}) == ring.monomial((2, 0, 1))
    assert list(ring.power_product({"y": 30000, "x": 0}).items()) == [((0, 30000, 0), Fraction(1))]
    assert ring.power_product({"y": 30000}) * ring.var("x") == ring.monomial((1, 30000, 0))
    assert ring.power_product({}) == ring.one()
    with pytest.raises(ValueError, match="^negative exponent$"):
        ring.power_product({"x": 1, "y": -1})
    with pytest.raises(ValueError, match="^exponent 18446744073709551616 is above the limit 32767$"):
        ring.power_product({"x": 2 ** 64})


TOP = 32767  # the largest exponent a packed key stores


def test_the_largest_exponent_is_stored_and_read_back():
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    high = ring.monomial((TOP, 0), Fraction(2, 3))
    assert list(high.items()) == [((TOP, 0), Fraction(2, 3))]
    assert list(ring.power_product({"y": TOP, "x": 1}).items()) == [((1, TOP), Fraction(1))]
    assert ring.power_product({"x": TOP}) * Fraction(2, 3) == high
    assert list((high * y).items()) == [((TOP, 1), Fraction(2, 3))]
    assert list((y * high).items()) == [((TOP, 1), Fraction(2, 3))]
    assert dict(Poly.dot(ring, [(high, y), (x, y), (y, high)]).items()) == {
        (TOP, 1): Fraction(4, 3), (1, 1): Fraction(1)}
    merged = PolyRing(["t1", "t2", "x"]).power_product({"t1": 16383, "t2": 16384})
    assert list(merged.rename(ring, {"t1": "x", "t2": "x"}).items()) == [((TOP, 0), Fraction(1))]
    assert (high * y + x).coefficient_of("x", TOP) == Fraction(2, 3) * y
    assert str(high * y - x) == "2/3*x^32767*y - x"


def test_two_halves_of_the_limit_add_up_exactly():
    ring = PolyRing(["x", "y"])
    low, high = ring.monomial((16383, 0)), ring.monomial((16384, 0))
    assert list((high * low).items()) == [((TOP, 0), Fraction(1))]
    assert dict(Poly.dot(ring, [(high, low), (high, ring.var("y"))]).items()) == {
        (TOP, 0): Fraction(1), (16384, 1): Fraction(1)}


def test_one_past_the_limit_is_an_error():
    ring = PolyRing(["x", "y"])
    high, y = ring.monomial((16384, 0)), ring.var("y")
    past = "^exponent 32768 is above the limit 32767$"
    product = "^a product exponent is above the limit 32767$"
    with pytest.raises(ValueError, match=past):
        ring.monomial((TOP + 1, 0))
    with pytest.raises(ValueError, match=past):
        ring.power_product({"y": TOP + 1, "x": 1})
    merged = PolyRing(["t1", "t2", "x"]).power_product({"t1": 16384, "t2": 16384})
    with pytest.raises(ValueError, match=past):
        merged.rename(ring, {"t1": "x", "t2": "x"})
    with pytest.raises(ValueError, match=product):
        high * high
    with pytest.raises(ValueError, match=product):
        Poly.dot(ring, [(high, high + y)], (["y"], 1))
    with pytest.raises(ValueError, match=product):
        Poly.dot(ring, [(y, y), (high, high)])


def test_product_exponent_past_64_bits_is_an_error():
    ring = PolyRing(["x", "y"])
    with pytest.raises(ValueError, match="^exponent 9223372036854775808 is above the limit 32767$"):
        ring.monomial((2 ** 63, 0))
    with pytest.raises(ValueError, match="^exponent 18446744073709551616 is above the limit 1000$"):
        ring.parse("x^18446744073709551616")


@pytest.mark.parametrize("k", range(6))
def test_power_matches_repeated_multiplication(ring, k, monkeypatch):
    base = ring.parse("x + y + 1/2")
    expected = ring.one()
    for _ in range(k):
        expected = expected * base
    products = []
    original = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or original(a, b))
    assert base ** k == expected
    # one squaring per bit after the lowest, one product per set bit after the first
    assert len(products) == max(k.bit_length() + bin(k).count("1") - 2, 0)
