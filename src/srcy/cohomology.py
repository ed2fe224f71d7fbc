"""Line-bundle cohomology on projective space and exact-sequence chasing.

Dimensions of twisted structure sheaves follow Bott's formula on P^n; a
conservative solver propagates what exactness of long exact sequences
forces (and nothing more), matching a by-hand chase.  A resolution is a
list of terms on one P^n, each a tuple of (d, m) pairs meaning the sum
of O(d)^m; the ambient n is passed once, beside it.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb


def h_twist(n, d, p):
    """h^p of O(d) on P^n: nonzero only at p = 0 and p = n."""
    if p == 0 and d >= 0:
        return comb(d + n, n)
    if p == n and d <= -n - 1:
        return comb(-d - 1, n)
    return 0


# -- conservative long-exact-sequence solver --------------------------------------


class CohTable:
    """h^0..h^n of a named sheaf; None marks an unknown entry.

    With `dim_bound` set, h^p = 0 for p > dim_bound.
    """

    def __init__(self, name, n, entries=None, dim_bound=None):
        self.name = name
        self.n = n
        self.entries = [None] * (n + 1) if entries is None else entries
        if dim_bound is not None:
            for p in range(dim_bound + 1, n + 1):
                self._set(p, 0)

    def _set(self, p, value):
        if value < 0:
            raise Contradiction("%s: h^%d forced negative (%d)" % (self.name, p, value))
        if self.entries[p] is None:
            self.entries[p] = value
            return True
        if self.entries[p] != value:
            raise Contradiction(
                "%s: h^%d is both %d and %d" % (self.name, p, self.entries[p], value)
            )
        return False


class Contradiction(ValueError):
    """Exactness forces a negative or a second value: the twist data are inconsistent."""


class ShortExact(namedtuple("ShortExact", "a b c")):
    """0 -> a -> b -> c -> 0 of CohTables on the same P^n."""

    __slots__ = ()

    def les_terms(self):
        out = []
        for p in range(self.a.n + 1):
            out.append((self.a, p))
            out.append((self.b, p))
            out.append((self.c, p))
        return out


def les_solve(sequences):
    """Propagate dimensions forced by exactness across the sequences.

    A known zero splits a long exact sequence into independent windows;
    within a window the alternating sum vanishes, so a single unknown is
    forced.  Runs to a fixpoint; raises Contradiction on a negative or
    conflicting assignment.  Returns the remaining unknowns as
    (sheaf name, degree) pairs.
    """
    progress = True
    while progress:
        progress = False
        for seq in sequences:
            terms = seq.les_terms()
            window = []
            for table, p in terms + [(None, None)]:
                value = table.entries[p] if table is not None else 0
                if value == 0:
                    progress |= _close_window(window)
                    window = []
                else:
                    window.append((table, p))
    unknown = []
    seen = set()
    for seq in sequences:
        for table in (seq.a, seq.b, seq.c):
            for p, e in enumerate(table.entries):
                if e is None and (table.name, p) not in seen:
                    seen.add((table.name, p))
                    unknown.append((table.name, p))
    return unknown


def _close_window(window):
    unknown = [(t, p) for t, p in window if t.entries[p] is None]
    if len(unknown) > 1:
        return False
    total = 0
    sign = 1
    target_sign = None
    for t, p in window:
        if t.entries[p] is None:
            target_sign = sign
        else:
            total += sign * t.entries[p]
        sign = -sign
    if not unknown:
        if total != 0:
            raise Contradiction(
                "exact window %s has alternating sum %d"
                % ([(t.name, p) for t, p in window], total)
            )
        return False
    t, p = unknown[0]
    t._set(p, -total * target_sign)
    return True


# -- the complete-intersection Hodge chase -----------------------------------------


HodgeResult = namedtuple("HodgeResult", "h11 h12 intermediates")


def _table(n, twists, name):
    """The CohTable of the sum of O(d)^m over `twists` on P^n, by Bott's formula."""
    return CohTable(name, n, [sum(m * h_twist(n, d, p) for d, m in twists) for p in range(n + 1)])


def sheaf_from_resolution(n, resolution, name):
    """Cohomology table of the sheaf on P^n resolved by [A_0, ..., A_k].

    Splits the resolution into short exact sequences through its syzygy
    sheaves and lets the window solver fill in the table; a one-term
    resolution is its own term.
    """
    if len(resolution) == 1:
        return _table(n, resolution[0], name)
    target = CohTable(name, n)
    sequences = []
    current = target
    for i in range(len(resolution) - 1):
        mid = _table(n, resolution[i], "%s:A%d" % (name, i))
        if i == len(resolution) - 2:
            left = _table(n, resolution[i + 1], "%s:A%d" % (name, i + 1))
        else:
            left = CohTable("%s:S%d" % (name, i + 1), n)
        sequences.append(ShortExact(left, mid, current))
        current = left
    unknown = les_solve(sequences)
    bad = [u for u in unknown if u[0] == name]
    if bad:
        raise ValueError("resolution leaves %s undetermined at %s" % (name, bad))
    return target


def hodge_pipeline_ci(n, structure, ideal_square):
    """Hodge numbers (h11, h12) of a Calabi-Yau complete intersection 3-fold.

    Inputs are resolutions on P^n of the structure sheaf and of the square
    of the ideal sheaf, as twist data.  The chase mirrors a manual
    computation: the structure sheaf, its twist by -1 and the ideal sheaf,
    each from its resolution, then the ideal square through its resolution
    and the conormal and cotangent sequences.  Hodge symmetry supplies
    h^3(Omega_X) = h^2(O_X); everything else is forced by exactness.
    """
    ox = sheaf_from_resolution(n, structure, "O_X")
    minus1 = [tuple((d - 1, m) for d, m in t) for t in structure]
    ox_m1 = sheaf_from_resolution(n, minus1, "O_X(-1)")
    ideal = sheaf_from_resolution(n, structure[1:], "J_X")

    k_term, h_term, g_term = ideal_square
    image = CohTable("Im", n)
    j2 = CohTable("J2", n)
    conormal = CohTable("N_dual", n, dim_bound=3)
    euler_mid = CohTable(
        "O_X(-1)^%d" % (n + 1), n, [(n + 1) * e for e in ox_m1.entries]
    )
    omega_restr = CohTable("Omega|X", n, dim_bound=3)
    omega = CohTable("Omega_X", n, dim_bound=3)
    omega.entries[3] = ox.entries[2]  # Hodge symmetry h^{1,3} = h^{0,2}

    sequences = [
        ShortExact(_table(n, g_term, "G"), _table(n, h_term, "H"), image),
        ShortExact(image, _table(n, k_term, "K"), j2),
        ShortExact(j2, ideal, conormal),
        ShortExact(omega_restr, euler_mid, ox),
        ShortExact(conormal, omega_restr, omega),
    ]
    unknown = les_solve(sequences)
    needed = [("Omega_X", 1), ("Omega_X", 2)]
    missing = [u for u in unknown if u in needed]
    if missing:
        raise ValueError("chase underdetermined at %s" % missing)
    inter = {"h0_ox": ox.entries[0], "h3_ox": ox.entries[3], "h3_ox_minus1": ox_m1.entries[3],
             "h4_ideal": ideal.entries[4], "h4_j2": j2.entries[4],
             "h3_conormal": conormal.entries[3], "h3_omega_restr": omega_restr.entries[3],
             "h1_omega_restr": omega_restr.entries[1]}
    return HodgeResult(omega.entries[1], omega.entries[2], inter)
