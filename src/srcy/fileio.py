"""Parsers for the on-disk fixture formats.

All files are UTF-8 text with '#' comments.  Variable headers accept
range shorthand like `x1..x7`.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import TwistSum
from .pfaffian import SkewPolyMatrix
from .polynomial import PolyRing
from .toric import Fan, SurfaceType


def _lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def expand_var_names(tokens):
    names = []
    for tok in tokens:
        if ".." in tok:
            start, end = tok.split("..")
            prefix = start.rstrip("0123456789")
            if not end.startswith(prefix):
                raise ValueError("range %r mixes prefixes" % tok)
            lo = int(start[len(prefix):])
            hi = int(end[len(prefix):])
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
        indices = [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError("entry indices must be integers: %r" % line) from None
    if not all(1 <= i <= size for i in indices):
        raise ValueError("entry index out of range 1..%d: %r" % (size, line))
    return indices, ring.parse(poly_text)


def parse_matrix_file(text):
    """Skew matrix file: `dim d`, `vars ...`, then `entry i j : poly` lines."""
    dim = None
    ring = None
    entries = {}
    for line in _lines(text):
        if line.startswith("dim "):
            dim = int(line.split()[1])
        elif line.startswith("vars "):
            ring = PolyRing(expand_var_names(line.split()[1:]))
        elif line.startswith("entry "):
            (i, j), poly = _entry(line, ring, dim, 2)
            if i >= j:
                raise ValueError("entry (%d,%d) must have 1 <= i < j <= dim" % (i, j))
            entries[(i, j)] = poly
        else:
            raise ValueError("unrecognized matrix-file line: %r" % line)
    if dim is None or ring is None:
        raise ValueError("matrix file needs dim and vars headers")
    return SkewPolyMatrix(ring, dim, entries), ring


def parse_vector_file(text):
    """Generator vector file: `len k`, `vars ...`, then `entry i : poly`."""
    length = None
    ring = None
    entries = {}
    for line in _lines(text):
        if line.startswith("len "):
            length = int(line.split()[1])
        elif line.startswith("vars "):
            ring = PolyRing(expand_var_names(line.split()[1:]))
        elif line.startswith("entry "):
            (i,), poly = _entry(line, ring, length, 1)
            entries[i] = poly
        else:
            raise ValueError("unrecognized vector-file line: %r" % line)
    if length is None or ring is None:
        raise ValueError("vector file needs len and vars headers")
    return [entries.get(i, ring.zero()) for i in range(1, length + 1)], ring


def parse_fan_file(text):
    """Fan file with `lattice`, `rays`, `sigma` and `cones` blocks.

    Lattice rows are the rows of the change-of-basis matrix, whose columns
    are the working-basis vectors in ambient coordinates; sigma and cone
    rows list 1-based ray indices.
    """
    section = None
    lattice_rows = []
    rays = []
    sigma = []
    cones = []
    for line in _lines(text):
        if line in ("lattice", "rays", "sigma", "cones"):
            section = line
            continue
        if section == "lattice":
            lattice_rows.append([Fraction(tok) for tok in line.split()])
        elif section == "rays":
            rays.append(tuple(int(tok) for tok in line.split()))
        elif section == "sigma":
            sigma.extend(int(tok) - 1 for tok in line.split())
        elif section == "cones":
            cones.append(tuple(int(tok) - 1 for tok in line.split()))
        else:
            raise ValueError("data before any section header: %r" % line)
    for name, block in (("lattice", lattice_rows), ("rays", rays), ("sigma", sigma),
                        ("cones", cones)):
        if not block:
            raise ValueError("empty %s block" % name)
    rank = len(lattice_rows)
    for name, rows in (("lattice row", lattice_rows), ("ray", rays)):
        for n, row in enumerate(rows, 1):
            if len(row) != rank:
                raise ValueError("%s %d has %d entries, not %d" % (name, n, len(row), rank))
    if len(sigma) != rank:
        raise ValueError("sigma lists %d rays, not %d" % (len(sigma), rank))
    for i in sigma + [i for cone in cones for i in cone]:
        if not 0 <= i < len(rays):
            raise ValueError("ray index %d out of range 1..%d" % (i + 1, len(rays)))
    return Fan(lattice_rows, rays, cones, sigma)


def parse_monomial_file(text):
    """`monomials` and `invariant_monomials` blocks of exponent rows."""
    section = None
    out = {"monomials": [], "invariant_monomials": []}
    for line in _lines(text):
        if line in out:
            section = line
            continue
        if section is None:
            raise ValueError("data before any section header: %r" % line)
        out[section].append(tuple(int(tok) for tok in line.split()))
    return out["monomials"], out["invariant_monomials"]


def parse_component_table(text):
    """Rows `label ray type chi`, ray comma-separated in the working basis."""
    rows = []
    for line in _lines(text):
        fields = line.split()
        if len(fields) != 4:
            raise ValueError("expected 'label ray type chi', got %r" % line)
        label, ray_text, type_tag, chi = fields
        SurfaceType.parse(type_tag)
        ray = tuple(int(tok) for tok in ray_text.split(","))
        rows.append((label, ray, type_tag, int(chi)))
    return rows


def parse_complexes_file(text):
    """Resolution descriptions: `ambient n`, `resolution name`, `term i: ...`.

    Term lines use `(d)^m + (d)^m` twist-sum notation; term 0 is the end
    of the resolution nearest the resolved sheaf.
    """
    ambient = None
    resolutions = {}
    current = None
    for line in _lines(text):
        if line.startswith("ambient "):
            ambient = int(line.split()[1])
        elif line.startswith("resolution "):
            current = line.split()[1]
            resolutions[current] = {}
        elif line.startswith("term "):
            if ambient is None or current is None:
                raise ValueError("term before the ambient and resolution headers: %r" % line)
            head, colon, body = line.partition(":")
            tokens = head.split()
            if not colon or len(tokens) != 2:
                raise ValueError("expected 'term i: twists', got %r" % line)
            index = int(tokens[1])
            terms = []
            for chunk in body.split("+"):
                chunk = chunk.strip()
                if not chunk.startswith("(") or ")^" not in chunk:
                    raise ValueError("malformed twist term %r" % chunk)
                d_text, m_text = chunk[1:].split(")^")
                terms.append((int(d_text), int(m_text)))
            resolutions[current][index] = TwistSum(tuple(terms), ambient)
        else:
            raise ValueError("unrecognized complexes-file line: %r" % line)
    out = {}
    for name, terms in resolutions.items():
        if not terms or sorted(terms) != list(range(len(terms))):
            raise ValueError("resolution %s needs terms 0..k, has %s" % (name, sorted(terms)))
        out[name] = [terms[i] for i in sorted(terms)]
    return out
