"""Locating and loading the bundled fixture data.

The default directory ships inside the package; SRCY_FIXTURES overrides
it (same layout: triangulations/, families/, toric/, cohomology/).
"""

from __future__ import annotations

import os
from pathlib import Path

from .fileio import (
    parse_complexes_file,
    parse_component_table,
    parse_fan_file,
    parse_matrix_file,
    parse_monomial_file,
    parse_vector_file,
)
from .simplicial import load_triangulation

TRIANGULATIONS = ["delta4", "p7_1", "p7_2", "p7_3", "p7_4", "p7_5"]


class FixtureError(RuntimeError):
    pass


def fixture_dir(override=None):
    if override:
        return Path(override)
    env = os.environ.get("SRCY_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _load(base, rel, parse):
    """`parse` applied to the fixture file `rel` under `base`.

    A missing file, or one the parser rejects with a ValueError, raises
    FixtureError naming the path.
    """
    path = Path(base) / rel
    if not path.exists():
        raise FixtureError("missing fixture file %s" % path)
    try:
        return parse(path.read_text())
    except ValueError as exc:
        raise FixtureError("%s: %s" % (path, exc)) from exc


def triangulation(name, base=None):
    return _load(fixture_dir(base), "triangulations/%s.tri" % name, load_triangulation)


def family_matrix(name, base=None):
    return _load(fixture_dir(base), "families/%s.mat" % name, parse_matrix_file)


def generator_vector(name, base=None):
    return _load(fixture_dir(base), "families/%s.gens" % name, parse_vector_file)


def subdivision_fan(base=None):
    return _load(fixture_dir(base), "toric/subdivision.fan", parse_fan_file)


def hypersurface_monomials(base=None):
    return _load(fixture_dir(base), "toric/hypersurface.fpoly", parse_monomial_file)


def component_table(base=None):
    return _load(fixture_dir(base), "toric/components.tbl", parse_component_table)


def scroll_polytope(base=None):
    return _load(fixture_dir(base), "toric/scroll_polytope.txt", _parse_points)


def _parse_points(text):
    points = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            points.append(tuple(int(t) for t in line.split()))
    return points


def ci_complexes(base=None):
    return _load(fixture_dir(base), "cohomology/ci_degree12.complexes", parse_complexes_file)
