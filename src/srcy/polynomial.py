"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored packed: each term's exponent tuple is one int key,
with a little-endian field of `BITS` bits per variable, and each coefficient
is an int numerator over one positive denominator shared by the whole
polynomial.  All arithmetic is exact; there is no floating point anywhere in
this package.

Each ring has one key layout, which depends only on its number of
variables, so keys compare across equal rings.  A stored exponent is below
`LIMIT`, half a field, so adding two keys multiplies the monomials without a
carry into the next field, and a product exponent that reaches `LIMIT`
shows in one mask test.  An exponent at or above the limit is a ValueError,
never a wrong key.

Every Poly is built on packed keys: constructors, arithmetic and the
structural helpers write keys and int numerators directly, and none
collects Fraction coefficients first.  Fractions are built only where a
caller reads the terms (`Poly.items`, `constant_value` and printing;
`Poly.evaluate` builds one, over a common denominator).  Setting variables
to zero is `truncate_above(names, 1)`, a filter on the keys.
`_add_product` is the one term-pair loop, run only by `Poly.dot`, the sum
of products behind the Pfaffian expansion and the M.f = 0 residual.
`Poly.__mul__` is its one-pair case, and a sum is `dot` with the factor 1
on each side (-1 for a subtracted term of a parsed expression).  `dot`
runs the loop once per pair into one dict of numerators that is checked
and reduced once.  Given a truncation (names, bound) it never forms a term
pair whose degree in `names` reaches the bound.  The Pfaffians of first-order families use
that truncation to drop the terms quadratic in the deformation parameters
before they are built.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import or_


# bits of one exponent field in a packed key, and the bound on a stored
# exponent: half the field, so the sum of two stored exponents still fits it
BITS = 16
LIMIT = 1 << 15

# largest exponent the parser multiplies out; the bundled data uses up to 8
MAX_EXPONENT = 1000

# most terms a parsed power may have, bounded before it is multiplied out; the
# bundled data raises only single variables to powers
MAX_POWER_TERMS = 10000

# a variable name as the parser reads it: a letter or '_', then word
# characters; the pattern's first class also takes a numeral such as '½',
# which `_opens_name` refuses
_NAME = re.compile(r"[^\W\d]\w*")


def _opens_name(name):
    return name[0].isalpha() or name[0] == "_"


class PolyRing:
    """A polynomial ring over Q with a fixed tuple of distinct variables,
    each named as the parser reads a name.

    The ring owns the key layout: `pack` and `unpack` convert between
    exponent tuples and keys, and a sum of two keys with an exponent that
    reached `LIMIT` in some field shows in `key & over`.
    """

    __slots__ = ("names", "index", "layout", "over")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names: %r" % (self.names,))
        for name in self.names:
            if not (_NAME.fullmatch(name) and _opens_name(name)):
                raise ValueError("variable name %r is not a letter or '_' followed by "
                                 "letters, digits or '_'" % name)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.layout = struct.Struct("<%dH" % len(self.names))
        self.over = sum(LIMIT << (i * BITS) for i in range(len(self.names)))

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)

    def pack(self, exps):
        return int.from_bytes(self.layout.pack(*exps), "little")

    def unpack(self, key):
        return self.layout.unpack(key.to_bytes(self.layout.size, "little"))

    def mask(self, names):
        """The key with every bit a stored exponent can use set in the fields of `names`."""
        return sum((LIMIT - 1) << (self.index[n] * BITS) for n in names)

    def zero(self):
        return Poly(self, {}, 1)

    def one(self):
        return Poly(self, {0: 1}, 1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {0: c.numerator}, c.denominator)

    def var(self, name):
        if name not in self.index:
            raise KeyError("unknown variable %r" % name)
        return Poly(self, {1 << (self.index[name] * BITS): 1}, 1)

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong arity")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        _check_limit(max(exps, default=0))
        return Poly(self, {self.pack(exps): coeff.numerator}, coeff.denominator)

    def power_product(self, powers):
        """The monomial prod name^e over the name -> exponent mapping `powers`, coefficient 1.

        The key is the sum of each exponent shifted to its variable's field,
        as in `var`; no exponent vector is built.
        """
        if any(e < 0 for e in powers.values()):
            raise ValueError("negative exponent")
        _check_limit(max(powers.values(), default=0))
        index = self.index
        return Poly(self, {sum(e << (index[n] * BITS) for n, e in powers.items()): 1}, 1)

    def parse(self, text):
        return _parse(self, text)


def _check_limit(top):
    """Refuse `top`, the largest exponent of a key about to be packed, unless a field stores it."""
    if top >= LIMIT:
        raise ValueError("exponent %d is above the limit %d" % (top, LIMIT - 1))


def _reduced(ring, nums, den):
    """The Poly nums/den, with den divided out of the numerators as far as it goes."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: c // g for k, c in nums.items()}
    return Poly(ring, nums, den)


def _add_product(acc, a, b, scale, unpack, mask, bound):
    """Add scale * a * b into acc; a, b and acc are numerator dicts over one ring's keys.

    This is the one term-pair loop.  With a nonzero `mask`, a pair whose
    degrees under the mask sum to `bound` or more is never formed; with no
    mask, every pair is formed when bound > 0 and none otherwise.
    """
    room = {}  # bound - degree of a left term -> the right terms of lower degree
    if mask:
        left = [(d, k, c * scale) for k, c in a.items() if (d := sum(unpack(k & mask))) < bound]
        right = [(d, k, c) for k, c in b.items() if (d := sum(unpack(k & mask))) < bound]
    elif bound > 0:
        left = [(0, k, c * scale) for k, c in a.items()]
        room[bound] = b.items()
    else:
        return
    get = acc.get
    for d1, k1, c1 in left:
        r = bound - d1
        if r not in room:
            room[r] = [(k, c) for d, k, c in right if d < r]
        for k2, c2 in room[r]:
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                acc[k] = s
            else:
                del acc[k]


def _settled(ring, acc, den):
    """The Poly acc/den; a key whose exponent reached the limit in some field is a ValueError."""
    if reduce(or_, acc, 0) & ring.over:
        raise ValueError("a product exponent is above the limit %d" % (LIMIT - 1))
    return _reduced(ring, acc, den)


class Poly:
    """An element of a PolyRing; immutable by convention.

    `nums` maps packed exponent keys, in the layout of `ring`, to nonzero
    int numerators, and the coefficient of a term is its numerator over the
    positive int `den`.  The form is canonical: gcd(den, *numerators) == 1,
    and the zero polynomial has den 1, so two polynomials are equal exactly
    when their `den` and `nums` are.  Every exponent is below `LIMIT`.
    """

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, nums, den):
        self.ring = ring
        self.nums = nums
        self.den = den

    def items(self):
        """Yield the terms as (exponent tuple, Fraction) pairs in storage order."""
        unpack, den = self.ring.unpack, self.den
        for k, c in self.nums.items():
            yield unpack(k), Fraction(c, den)

    # -- basic queries ---------------------------------------------------

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return not any(self.nums)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.nums.get(0, 0), self.den)

    def total_degree(self):
        unpack = self.ring.unpack
        return max((sum(unpack(k)) for k in self.nums), default=-1)

    def monomials(self):
        """Terms as (exponent tuple, coefficient) pairs in sorted order."""
        return sorted(self.items(), reverse=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.den == other.den and self.nums == other.nums)

    def __bool__(self):
        return bool(self.nums)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        one = self.ring.one()
        return Poly.dot(self.ring, [(self, one), (self._coerce(other), one)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """The one-pair case of `dot`; a product exponent above the limit is a ValueError."""
        return Poly.dot(self.ring, [(self, self._coerce(other))])

    __rmul__ = __mul__

    @staticmethod
    def dot(ring, pairs, trunc=None):
        """The sum of the products a * b over the (a, b) pairs, all Polys of `ring`.

        With trunc=(names, bound), only the terms of degree < bound in names.
        Every product adds into one dict of numerators over the lcm of the
        pairs' denominator products; no Poly is built per pair, and the
        result is checked against the limit and reduced once at the end.
        """
        pairs = [(a, b) for a, b in pairs if a.nums and b.nums]
        den = lcm(*[a.den * b.den for a, b in pairs])
        names, bound = trunc or ((), 1)
        mask = ring.mask(names)
        acc = {}
        for a, b in pairs:
            _add_product(acc, a.nums, b.nums, den // (a.den * b.den), ring.unpack, mask, bound)
        return _settled(ring, acc, den)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return self.ring.one() if result is None else result

    # -- structure -------------------------------------------------------

    def truncate_above(self, names, bound):
        """Drop every term whose combined degree in `names` is >= bound.

        With bound 1 this sets the variables `names` to zero.
        """
        mask, unpack = self.ring.mask(names), self.ring.unpack
        nums = {k: c for k, c in self.nums.items() if sum(unpack(k & mask)) < bound}
        return _reduced(self.ring, nums, self.den)

    def coefficient_of(self, name, power):
        """Coefficient polynomial of name**power (the variable removed)."""
        shift = self.ring.index[name] * BITS
        drop = power << shift
        nums = {k - drop: c for k, c in self.nums.items() if (k >> shift) & (LIMIT - 1) == power}
        return _reduced(self.ring, nums, self.den)

    def linear_coefficients(self, names):
        """{name: coefficient_of(name, 1)} over `names`, zeros left out, in one pass over the terms.

        A term goes to each name of exponent 1 in it, less that field, so a
        term holding two of the names goes to both.
        """
        fields, mask, out = {self.ring.index[n] * BITS: n for n in names}, self.ring.mask(names), {}
        for k, c in self.nums.items():
            rest = k & mask
            while rest:
                shift = ((rest & -rest).bit_length() - 1) // BITS * BITS
                e = (rest >> shift) & (LIMIT - 1)
                if e == 1:
                    out.setdefault(fields[shift], {})[k - (1 << shift)] = c
                rest -= e << shift
        return {n: _reduced(self.ring, nums, self.den) for n, nums in out.items()}

    def evaluate(self, point):
        """Evaluate at an assignment name -> rational that covers every variable present.

        With v = n/d and top the highest power of v in any term, a term's
        factor v^p is n^p * d^(top - p) over the common d^top; each variable
        gets a table of those ints, and one Fraction is built at the end.
        """
        exps = [self.ring.unpack(k) for k in self.nums]
        den, tables = self.den, []
        for i, column in enumerate(zip(*exps)):
            powers = set(column)
            if any(powers):
                v, top = Fraction(point[self.ring.names[i]]), max(powers)
                n, d = v.numerator, v.denominator
                tables.append((i, {p: n ** p * d ** (top - p) for p in powers}))
                den *= d ** top
        total = 0
        for e, c in zip(exps, self.nums.values()):
            for i, table in tables:
                c *= table[e[i]]
            total += c
        return Fraction(total, den)

    def content_exponents(self):
        """Componentwise minimum of all exponent vectors (the monomial gcd)."""
        if not self.nums:
            raise ValueError("zero polynomial has no content")
        return tuple(map(min, zip(*map(self.ring.unpack, self.nums))))

    def strip_monomial_content(self):
        """Divide out the monomial gcd of all terms."""
        m = self.content_exponents()
        if not any(m):
            return self
        drop = self.ring.pack(m)
        return Poly(self.ring, {k - drop: c for k, c in self.nums.items()}, self.den)

    def rename(self, ring, mapping=None):
        """Reinterpret in another ring; mapping gives old name -> new name.

        Names mapped to one target add their exponents (t1*t2 becomes s^2), so
        a sum above the limit is a ValueError, and merged terms may cancel.
        Only a name with a nonzero exponent must exist in `ring`.
        """
        names, mapping, nums = self.ring.names, mapping or {}, {}
        for e, c in zip(map(self.ring.unpack, self.nums), self.nums.values()):
            ee = [0] * ring.nvars
            for i, p in enumerate(e):
                if p:
                    ee[ring.index[mapping.get(names[i], names[i])]] += p
            key = tuple(ee)
            nums[key] = nums.get(key, 0) + c
        _check_limit(max((max(e, default=0) for e in nums), default=0))
        return _reduced(ring, {ring.pack(e): c for e, c in nums.items() if c}, self.den)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for e, c in self.monomials():
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(self.ring.names[i])
                elif p > 1:
                    factors.append("%s^%d" % (self.ring.names[i], p))
            body = "*".join(factors)
            if not body:
                piece = _fmt_coeff(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = "-" + body
            else:
                piece = _fmt_coeff(c) + "*" + body
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self):
        return "Poly(%s)" % self


def _fmt_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


# -- parsing ---------------------------------------------------------------
#
# Grammar (implicit multiplication is not accepted):
#   expr   := ['+'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := '-' factor | atom ('^' nat)?
#   atom   := rational | name | '(' expr ')'
# A minus binds below '^' wherever it stands (x*-y^2 is -x*y^2), and a
# rational p/q is one atom (5/3^2 is (5/3)^2).

# one token: an operator, a name, an int with an optional '/' and
# denominator, or any other character that is not a space, which is an error
_TOKEN = re.compile(r"([-+*^()])|(%s)|(\d+)(?:(/)(\d*))?|(\S)" % _NAME.pattern)


class _Tokens:
    def __init__(self, text):
        self.toks = []
        for op, name, num, slash, den, other in _TOKEN.findall(text):
            if op:
                self.toks.append(op)
            elif name and _opens_name(name):
                self.toks.append(("name", name))
            elif not num:  # any other character, or a numeral such as '½' opening a name
                raise ValueError("unexpected character %r in polynomial" % (other or name[0]))
            elif not slash:
                self.toks.append(Fraction(int(num)))
            elif not den:
                raise ValueError("malformed rational near %r" % (num + "/"))
            elif int(den) == 0:
                raise ValueError("zero denominator in %r" % (num + "/" + den))
            else:
                self.toks.append(Fraction(int(num), int(den)))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t


def _parse(ring, text):
    toks = _Tokens(text)
    try:
        poly = _parse_expr(ring, toks)
    except RecursionError:
        raise ValueError("polynomial is nested too deeply") from None
    if toks.peek() is not None:
        raise ValueError("trailing input in polynomial: %r" % (toks.peek(),))
    return poly


def _parse_expr(ring, toks):
    """The terms of one expression, added in one `Poly.dot`; a single term is returned as is."""
    if toks.peek() == "+":
        toks.take()
    first = _parse_term(ring, toks)
    if toks.peek() not in ("+", "-"):
        return first
    signs = {"+": ring.one(), "-": -ring.one()}
    terms = [(first, signs["+"])]
    while toks.peek() in ("+", "-"):
        sign = signs[toks.take()]
        terms.append((_parse_term(ring, toks), sign))
    return Poly.dot(ring, terms)


def _parse_term(ring, toks):
    result = _parse_factor(ring, toks)
    while toks.peek() == "*":
        toks.take()
        result = result * _parse_factor(ring, toks)
    return result


def _parse_factor(ring, toks):
    if toks.peek() == "-":
        toks.take()
        return -_parse_factor(ring, toks)
    atom = _parse_atom(ring, toks)
    if toks.peek() == "^":
        toks.take()
        p = toks.take()
        if not isinstance(p, Fraction) or p.denominator != 1 or p < 0:
            raise ValueError("exponent must be a nonnegative integer")
        e = int(p)
        if e > MAX_EXPONENT:
            raise ValueError("exponent %d is above the limit %d" % (e, MAX_EXPONENT))
        # a t-term base has at most C(e + t - 1, t - 1) monomials of degree e in its terms
        t = len(atom.nums)
        if t > 1 and (size := comb(e + t - 1, t - 1)) > MAX_POWER_TERMS:
            raise ValueError("power %d of a polynomial with %d terms may have %d terms, "
                             "above the limit %d" % (e, t, size, MAX_POWER_TERMS))
        return atom ** e
    return atom


def _parse_atom(ring, toks):
    t = toks.take()
    if t == "(":
        inner = _parse_expr(ring, toks)
        if toks.take() != ")":
            raise ValueError("missing closing parenthesis")
        return inner
    if isinstance(t, Fraction):
        return ring.const(t)
    if isinstance(t, tuple) and t[0] == "name":
        if t[1] not in ring.index:
            raise ValueError("unknown variable %r in polynomial" % t[1])
        return ring.var(t[1])
    if t is None:
        raise ValueError("unexpected end of polynomial")
    raise ValueError("unexpected token %r in polynomial" % (t,))
