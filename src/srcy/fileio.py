"""Reading srcy's input files: one error type, one loader, one line reader.

All files are UTF-8 text with '#' comments; variable headers accept range
shorthand like `x1..x7`.  Every parser reads through `_lines` and raises
`InputError`, with the line number for a bad line; `load` adds the path.
A fan file becomes a `fan.Fan`, and each component-table tag is checked
here, at its line; reading any file loads no solver layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import intlinalg as la
from .fan import Fan, SurfaceType
from .pfaffian import SkewPolyMatrix
from .polynomial import PolyRing
from .simplicial import SimplicialComplex

FAN_RANK = 4  # the toric pipeline works in a rank-4 lattice only
MAX_SIZE = 1000  # largest dim, len, ambient and x1..xN range; the bundled data stays below 100
MAX_MATRIX_DIM = 20  # largest matrix dim: a dense Pfaffian expands up to 2^dim sub-Pfaffians


class InputError(ValueError):
    """A file srcy cannot use: the reason, and the path and line if known."""

    def __init__(self, reason, path=None, line=None):
        super().__init__(reason)
        self.reason = reason
        self.path = path
        self.line = line

    def __str__(self):
        line = None if self.line is None else "line %d" % self.line
        return ": ".join(str(p) for p in (self.path, line, self.reason) if p is not None)


def load(path, parse):
    """`parse` applied to the text of `path`; a read or parse failure is an InputError."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise InputError(exc.strerror, path) from None
    except InputError as exc:
        exc.path = path
        raise
    except ValueError as exc:
        raise InputError(str(exc), path) from None


def from_file(path, fn, *args):
    """`fn(*args)` on data read from `path`; its ValueError is an InputError there."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise InputError(str(exc), path) from None


def _lines(text):
    """(number, text) of each line, '#' comments stripped and blank lines skipped."""
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


@contextmanager
def _at(line):
    """Report a ValueError raised in the block as an InputError at `line`."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc), line=line) from None


def _ints(line, what):
    try:
        return tuple(int(tok) for tok in line.split())
    except ValueError:
        raise ValueError("%s must be whitespace-separated integers" % what) from None


def _int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (what, tok)) from None


def _count(line, least=0):
    """The integer after a `dim`, `len` or `ambient` keyword, in `least`..MAX_SIZE."""
    word, value = line.split(None, 1)
    try:
        n = int(value)
    except ValueError:
        n = None
    if n is None or n < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (word, least, value))
    if n > MAX_SIZE:
        raise ValueError("%s %d is above the limit %d" % (word, n, MAX_SIZE))
    return n


def _fraction(tok):
    """An integer or a fraction p/q."""
    num, slash, den = tok.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError("%r is not an integer or a fraction p/q" % tok) from None
    if q == 0:
        raise ValueError("zero denominator in %r" % tok)
    return Fraction(p, q)


_DIGITS = "0123456789"


def expand_var_names(tokens):
    """Names with each range `x<lo>..x<hi>` (lo <= hi) spelled out."""
    names = []
    for tok in tokens:
        if ".." in tok:
            start, _, end = tok.partition("..")
            prefix = start.rstrip(_DIGITS)
            if start == prefix or end == end.rstrip(_DIGITS):
                raise ValueError("range %r needs a start and an end index" % tok)
            if end.rstrip(_DIGITS) != prefix:
                raise ValueError("range %r mixes prefixes" % tok)
            lo = int(start[len(prefix):])
            hi = int(end[len(prefix):])
            if hi < lo:
                raise ValueError("range %r ends below its start" % tok)
            if hi - lo >= MAX_SIZE:
                raise ValueError("range %r has more than %d names" % (tok, MAX_SIZE))
            names.extend("%s%d" % (prefix, i) for i in range(lo, hi + 1))
        else:
            names.append(tok)
    return names


def geometry_and_params(names):
    """Split a variable list on the x-prefix convention."""
    geometry = [n for n in names if n.startswith("x")]
    params = [n for n in names if not n.startswith("x")]
    return geometry, params


def _entry(line, ring, size, count):
    """The `count` indices and the polynomial of an `entry i [j] : poly` line."""
    if ring is None or size is None:
        raise ValueError("entry before the size and vars headers: %r" % line)
    head, colon, poly_text = line.partition(":")
    tokens = head.split()[1:]
    if not colon or len(tokens) != count:
        form = "entry %s : poly" % " ".join("ij"[:count])
        raise ValueError("expected %r, got %r" % (form, line))
    try:
        indices = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError("entry indices must be integers: %r" % line) from None
    if not all(1 <= i <= size for i in indices):
        raise ValueError("entry index out of range 1..%d: %r" % (size, line))
    if count == 2 and indices[0] >= indices[1]:
        raise ValueError("entry (%d,%d) must have 1 <= i < j <= dim" % indices)
    return indices, ring.parse(poly_text)


def _entry_file(text, kind, size_word, count, most=MAX_SIZE):
    """(size, ring, {indices: poly}) of a file of size, `vars` and `entry` lines."""
    size = ring = None
    entries = {}
    for n, line in _lines(text):
        with _at(n):
            if line.startswith(size_word + " "):
                if size is not None:
                    raise ValueError("second %s header" % size_word)
                size = _count(line)
                if size > most:
                    raise ValueError("%s %d is above %d, the largest a %s file may have"
                                     % (size_word, size, most, kind))
            elif line.startswith("vars "):
                if ring is not None:
                    raise ValueError("second vars header")
                ring = PolyRing(expand_var_names(line.split()[1:]))
            elif line.startswith("entry "):
                indices, poly = _entry(line, ring, size, count)
                if indices in entries:
                    raise ValueError("second entry %s" % " ".join(map(str, indices)))
                entries[indices] = poly
            else:
                raise ValueError("unrecognized %s-file line: %r" % (kind, line))
    if size is None or ring is None:
        raise InputError("%s file needs %s and vars headers" % (kind, size_word))
    return size, ring, entries


def parse_matrix_file(text):
    """Skew matrix file: `dim d` (at most MAX_MATRIX_DIM), `vars ...`, then
    `entry i j : poly` lines."""
    dim, ring, entries = _entry_file(text, "matrix", "dim", 2, MAX_MATRIX_DIM)
    return SkewPolyMatrix(ring, dim, entries), ring


def parse_vector_file(text):
    """Generator vector file: `len k`, `vars ...`, then `entry i : poly`."""
    length, ring, entries = _entry_file(text, "vector", "len", 1)
    return [entries.get((i,), ring.zero()) for i in range(1, length + 1)], ring


def parse_fan_file(text):
    """Fan file with `lattice`, `rays`, `sigma` and `cones` blocks.

    Lattice rows are the rows of the change-of-basis matrix, whose columns
    are the working-basis vectors in ambient coordinates; sigma and cone
    rows list 1-based ray indices.  The lattice has rank FAN_RANK.
    """
    section = None
    blocks = {"lattice": [], "rays": [], "sigma": [], "cones": []}  # (line, row) pairs
    for n, line in _lines(text):
        if line in blocks:
            section = line
            continue
        with _at(n):
            if section == "lattice":
                row = [_fraction(tok) for tok in line.split()]
            elif section == "rays":
                row = _ints(line, "rays")
            elif section in ("sigma", "cones"):
                row = tuple(i - 1 for i in _ints(line, "ray indices"))
            else:
                raise ValueError("data before any section header: %r" % line)
            blocks[section].append((n, row))
    for name, block in blocks.items():
        if not block:
            raise InputError("empty %s block" % name)
    for name, what in (("lattice", "lattice row"), ("rays", "ray"), ("cones", "cone")):
        for n, row in blocks[name]:
            if len(row) != FAN_RANK:
                raise InputError("%s has %d entries, not %d" % (what, len(row), FAN_RANK), line=n)
    lattice_rows, rays, cones = ([row for _n, row in blocks[name]]
                                 for name in ("lattice", "rays", "cones"))
    sigma = [i for _n, row in blocks["sigma"] for i in row]
    if len(lattice_rows) != FAN_RANK:
        raise InputError("lattice has %d rows, not %d" % (len(lattice_rows), FAN_RANK))
    if len(sigma) != FAN_RANK:
        raise InputError("sigma lists %d rays, not %d" % (len(sigma), FAN_RANK))
    for n, row in blocks["sigma"] + blocks["cones"]:
        if len(set(row)) != len(row):
            raise InputError("repeated ray index", line=n)
        for i in row:
            if not 0 <= i < len(rays):
                raise InputError("ray index %d out of range 1..%d" % (i + 1, len(rays)), line=n)
    with _at(None):
        fan = Fan(lattice_rows, rays, cones, sigma)
    for c, (n, _row) in enumerate(blocks["cones"]):  # a cone without an inverse may be flat
        if c not in fan.inverses and la.det(fan.cone_rays(c)) == 0:
            raise InputError("the rays of the cone are linearly dependent", line=n)
    return fan


def parse_monomial_file(text):
    """Non-empty `monomials` and `invariant_monomials` blocks of FAN_RANK
    exponents per row."""
    section = None
    out = {"monomials": [], "invariant_monomials": []}
    for n, line in _lines(text):
        if line in out:
            section = line
            continue
        with _at(n):
            if section is None:
                raise ValueError("data before any section header: %r" % line)
            row = _ints(line, "exponents")
            if len(row) != FAN_RANK:
                raise ValueError("monomial has %d entries, not %d" % (len(row), FAN_RANK))
            out[section].append(row)
    for name, block in out.items():
        if not block:
            raise InputError("empty %s block" % name)
    return out["monomials"], out["invariant_monomials"]


def parse_component_table(text):
    """Rows `label ray type chi`, ray comma-separated in the working basis and
    chi the type tag's Euler number.  Row k is labelled Ek."""
    rows = []
    for n, line in _lines(text):
        with _at(n):
            fields = line.split()
            if len(fields) != 4:
                raise ValueError("expected 'label ray type chi', got %r" % line)
            label, ray_text, type_tag, chi = fields
            if label != "E%d" % (len(rows) + 1):
                raise ValueError("label %s is not E%d" % (label, len(rows) + 1))
            nominal = SurfaceType.parse(type_tag).chi()
            ray = tuple(_int(tok, "ray entry") for tok in ray_text.split(","))
            chi = _int(chi, "chi")
            if nominal != chi:
                raise ValueError("row %s: tag %s has chi %d, recorded %d"
                                 % (label, type_tag, nominal, chi))
            rows.append((label, ray, type_tag, chi))
    return rows


def parse_complexes_file(text):
    """(n, {name: [term, ...]}) from `ambient n`, `resolution name`, `term i: ...`.

    A term line `(d)^m + (d)^m` becomes the tuple ((d, m), (d, m)); term 0
    is the end of the resolution nearest the resolved sheaf.  The ambient
    P^n has n >= 4, and both resolutions `hodge_pipeline_ci` chases are
    present with the lengths it needs: `structure_sheaf` at least 2 terms
    and `ideal_square` 3.
    """
    ambient = None
    resolutions = {}  # name -> (header line, {index: term})
    terms = None
    for n, line in _lines(text):
        with _at(n):
            if line.startswith("ambient "):
                if ambient is not None:
                    raise ValueError("second ambient header")
                ambient = _count(line, least=4)
            elif line.startswith("resolution "):
                tokens = line.split()
                if len(tokens) != 2:
                    raise ValueError("expected 'resolution name', got %r" % line)
                name = tokens[1]
                if name in resolutions:
                    raise ValueError("second resolution %s" % name)
                terms = {}
                resolutions[name] = (n, terms)
            elif line.startswith("term "):
                if ambient is None or terms is None:
                    raise ValueError("term before the ambient and resolution headers: %r" % line)
                head, colon, body = line.partition(":")
                tokens = head.split()
                if not colon or len(tokens) != 2:
                    raise ValueError("expected 'term i: twists', got %r" % line)
                index = _int(tokens[1], "term index")
                if index in terms:
                    raise ValueError("second term %d in resolution %s" % (index, name))
                twists = []
                for chunk in body.split("+"):
                    chunk = chunk.strip()
                    parts = chunk[1:].split(")^") if chunk.startswith("(") else ()
                    try:
                        d, m = map(int, parts)
                    except ValueError:
                        raise ValueError("malformed twist term %r" % chunk) from None
                    if m < 1:
                        raise ValueError("multiplicity must be >= 1 in twist term %r" % chunk)
                    twists.append((d, m))
                terms[index] = tuple(twists)
            else:
                raise ValueError("unrecognized complexes-file line: %r" % line)
    out = {}
    for name, (n, terms) in resolutions.items():
        if not terms or sorted(terms) != list(range(len(terms))):
            raise InputError("resolution %s needs terms 0..k, has %s" % (name, sorted(terms)),
                             line=n)
        if name == "structure_sheaf" and len(terms) < 2:
            raise InputError("resolution structure_sheaf has 1 term, needs at least 2", line=n)
        if name == "ideal_square" and len(terms) != 3:
            raise InputError("resolution ideal_square has %d terms, needs 3" % len(terms), line=n)
        out[name] = [terms[i] for i in sorted(terms)]
    for name in ("structure_sheaf", "ideal_square"):
        if name not in out:
            raise InputError("no %s resolution" % name)
    return ambient, out


def load_triangulation(text):
    """Facet-list file: one facet per line of distinct non-negative vertex labels."""
    facets = {}  # facet -> line
    for n, line in _lines(text):
        with _at(n):
            labels = _ints(line, "facets")
            if len(set(labels)) != len(labels):
                raise ValueError("repeated vertex in facet")
            if any(v < 0 for v in labels):
                raise ValueError("negative vertex label")
            f = frozenset(labels)
            if f in facets:
                raise ValueError("duplicate facet %s" % sorted(f))
            facets[f] = n
    if not facets:
        raise InputError("empty triangulation file")
    for f, n in facets.items():
        if any(f < g for g in facets):
            raise InputError("facet %s is contained in another facet" % sorted(f), line=n)
    return SimplicialComplex(facets)


def parse_point_file(text):
    """One lattice point of the 3-d scroll polytope per line (FAN_RANK - 1 integers)."""
    points = []
    for n, line in _lines(text):
        with _at(n):
            point = _ints(line, "points")
            if len(point) != FAN_RANK - 1:
                raise ValueError("point has %d entries, not %d" % (len(point), FAN_RANK - 1))
            points.append(point)
    if not points:
        raise InputError("empty point file")
    return points
