"""Locating and loading the fixture data.

The default directory ships inside the package; `run-all --fixtures`
passes another with the same layout, which `KINDS` spells out.  Every
fixture is read through `fileio.load`, so a missing or malformed one
raises the same `InputError` as a file named on the command line.
`FixtureSet(base)` holds one run's fixtures, each read on first use, and
its `blame` reports a ValueError from a computation on a fixture as an
`InputError` on that file, as the subcommands report it.
`fixtures.<kind>(name)` reads one fixture from the bundled directory.
"""

from __future__ import annotations

from pathlib import Path

from . import fileio
from .fileio import from_file, load

TRIANGULATIONS = ["delta4", "p7_1", "p7_2", "p7_3", "p7_4", "p7_5"]

# kind -> (its path under the fixture directory, %s for the fixture's name,
# and the name of its `fileio` parser).  The parser is looked up by name on
# each read, so that a wrapper bound over it later is the one called.
KINDS = {
    "triangulation": ("triangulations/%s.tri", "load_triangulation"),
    "family_matrix": ("families/%s.mat", "parse_matrix_file"),
    "generator_vector": ("families/%s.gens", "parse_vector_file"),
    "subdivision_fan": ("toric/subdivision.fan", "parse_fan_file"),
    "hypersurface_monomials": ("toric/hypersurface.fpoly", "parse_monomial_file"),
    "component_table": ("toric/components.tbl", "parse_component_table"),
    "scroll_polytope": ("toric/scroll_polytope.txt", "parse_point_file"),
    "ci_complexes": ("cohomology/ci_degree12.complexes", "parse_complexes_file"),
}


def fixture_dir(override=None):
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


class FixtureSet:
    """The fixtures under one directory, each read once, on first use."""

    def __init__(self, base=None):
        self.base = fixture_dir(base)
        self._read = {}

    def path(self, kind, name=None):
        rel = KINDS[kind][0]
        return self.base / (rel if name is None else rel % name)

    def __call__(self, kind, name=None):
        key = (kind, name)
        if key not in self._read:  # a failed read raises and keeps nothing
            self._read[key] = load(self.path(kind, name), getattr(fileio, KINDS[kind][1]))
        return self._read[key]

    def blame(self, kind, name, fn, *args):
        """`fn(*args)`, its ValueError an InputError on that fixture's file."""
        return from_file(self.path(kind, name), fn, *args)


def __getattr__(kind):
    """`fixtures.<kind>(name=None)`: that fixture from the bundled directory."""
    if kind not in KINDS:
        raise AttributeError("module %r has no attribute %r" % (__name__, kind))
    return lambda name=None: FixtureSet()(kind, name)
