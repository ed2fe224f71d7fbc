"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a dict mapping exponent tuples to nonzero Fractions.
All arithmetic is exact; there is no floating point anywhere in this
package.
"""

from __future__ import annotations

from fractions import Fraction


class PolyRing:
    """A polynomial ring over Q with a fixed tuple of named variables."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names: %r" % (self.names,))
        self.index = {n: i for i, n in enumerate(self.names)}

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.names)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name):
        if name not in self.index:
            raise KeyError("unknown variable %r" % name)
        exps = [0] * self.nvars
        exps[self.index[name]] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong arity")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Poly(self, {exps: coeff})

    def parse(self, text):
        return _parse(self, text)


class Poly:
    """An element of a PolyRing; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero Fraction

    # -- basic queries ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return sum(self.terms.values(), Fraction(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def monomials(self):
        """Terms as (exponent tuple, coefficient) pairs in sorted order."""
        return sorted(self.terms.items(), reverse=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -------------------------------------------------------

    def truncate_above(self, names, bound):
        """Drop every term whose combined degree in `names` is >= bound."""
        idx = [self.ring.index[n] for n in names]
        terms = {e: c for e, c in self.terms.items() if sum(e[i] for i in idx) < bound}
        return Poly(self.ring, terms)

    def coefficient_of(self, name, power):
        """Coefficient polynomial of name**power (the variable removed)."""
        i = self.ring.index[name]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                ee = list(e)
                ee[i] = 0
                terms[tuple(ee)] = c
        return Poly(self.ring, terms)

    def substitute(self, values):
        """Substitute rational constants for variables, in one pass over the terms.

        Variables absent from `values` are left untouched; names outside the
        ring are ignored.
        """
        subs = [(i, Fraction(values[n])) for i, n in enumerate(self.ring.names) if n in values]
        terms = {}
        for e, c in self.terms.items():
            ee = list(e)
            for i, v in subs:
                if ee[i]:
                    c *= v ** ee[i]
                    ee[i] = 0
            key = tuple(ee)
            terms[key] = terms.get(key, Fraction(0)) + c
        return Poly(self.ring, {e: c for e, c in terms.items() if c})

    def evaluate(self, point):
        """Evaluate at a full assignment name -> Fraction."""
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for i, p in enumerate(e):
                if p:
                    val *= Fraction(point[self.ring.names[i]]) ** p
            total += val
        return total

    def derivative(self, name):
        i = self.ring.index[name]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ee = list(e)
            ee[i] -= 1
            terms[tuple(ee)] = c * e[i]
        return Poly(self.ring, terms)

    def content_exponents(self):
        """Componentwise minimum of all exponent vectors (the monomial gcd)."""
        if not self.terms:
            raise ValueError("zero polynomial has no content")
        its = iter(self.terms)
        m = list(next(its))
        for e in its:
            m = [min(a, b) for a, b in zip(m, e)]
        return tuple(m)

    def strip_monomial_content(self):
        """Divide out the monomial gcd of all terms."""
        m = self.content_exponents()
        if not any(m):
            return self
        terms = {tuple(a - b for a, b in zip(e, m)): c for e, c in self.terms.items()}
        return Poly(self.ring, terms)

    def rename(self, ring, mapping=None):
        """Reinterpret in another ring; mapping gives old name -> new name."""
        terms = {}
        for e, c in self.terms.items():
            ee = [0] * ring.nvars
            for i, p in enumerate(e):
                if p == 0:
                    continue
                name = self.ring.names[i]
                if mapping:
                    name = mapping.get(name, name)
                ee[ring.index[name]] += p
            key = tuple(ee)
            terms[key] = terms.get(key, Fraction(0)) + c
        return Poly(ring, {e: c for e, c in terms.items() if c})

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
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
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' nat)?
#   atom   := rational | name | '(' expr ')'


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()":
                self.toks.append(ch)
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                num = text[i:j]
                if j < len(text) and text[j] == "/":
                    k = j + 1
                    while k < len(text) and text[k].isdigit():
                        k += 1
                    if k == j + 1:
                        raise ValueError("malformed rational near %r" % text[i:k])
                    self.toks.append(Fraction(int(num), int(text[j + 1:k])))
                    i = k
                else:
                    self.toks.append(Fraction(int(num)))
                    i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
                continue
            raise ValueError("unexpected character %r in polynomial" % ch)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t


def _parse(ring, text):
    toks = _Tokens(text)
    poly = _parse_expr(ring, toks)
    if toks.peek() is not None:
        raise ValueError("trailing input in polynomial: %r" % (toks.peek(),))
    return poly


def _parse_expr(ring, toks):
    sign = 1
    if toks.peek() in ("+", "-"):
        if toks.take() == "-":
            sign = -1
    result = _parse_term(ring, toks) * sign
    while toks.peek() in ("+", "-"):
        op = toks.take()
        term = _parse_term(ring, toks)
        result = result + term if op == "+" else result - term
    return result


def _parse_term(ring, toks):
    result = _parse_factor(ring, toks)
    while toks.peek() == "*":
        toks.take()
        result = result * _parse_factor(ring, toks)
    return result


def _parse_factor(ring, toks):
    atom = _parse_atom(ring, toks)
    if toks.peek() == "^":
        toks.take()
        p = toks.take()
        if not isinstance(p, Fraction) or p.denominator != 1 or p < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return atom ** int(p)
    return atom


def _parse_atom(ring, toks):
    t = toks.take()
    if t == "(":
        inner = _parse_expr(ring, toks)
        if toks.take() != ")":
            raise ValueError("missing closing parenthesis")
        return inner
    if t == "-":
        return -_parse_atom(ring, toks)
    if isinstance(t, Fraction):
        return ring.const(t)
    if isinstance(t, tuple) and t[0] == "name":
        if t[1] not in ring.index:
            raise ValueError("unknown variable %r in polynomial" % t[1])
        return ring.var(t[1])
    raise ValueError("unexpected token %r in polynomial" % (t,))
