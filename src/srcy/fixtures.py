"""Locating and loading the bundled fixture data.

The default directory ships inside the package; `run-all --fixtures`
passes another with the same layout (triangulations/, families/, toric/,
cohomology/).  Every fixture is read through `fileio.load`, so a missing
or malformed one raises the same `InputError` as a file named on the
command line.  The `*_path` functions name the files whose data `run_all`
computes on, so that a ValueError from that computation is reported as an
`InputError` on the file, as the subcommands report it.
"""

from __future__ import annotations

from pathlib import Path

from .fileio import (
    load,
    load_triangulation,
    parse_ci_complexes,
    parse_component_table,
    parse_fan_file,
    parse_matrix_file,
    parse_monomial_file,
    parse_point_file,
    parse_vector_file,
)

TRIANGULATIONS = ["delta4", "p7_1", "p7_2", "p7_3", "p7_4", "p7_5"]


def fixture_dir(override=None):
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def triangulation(name, base=None):
    return load(fixture_dir(base) / ("triangulations/%s.tri" % name), load_triangulation)


def family_matrix_path(name, base=None):
    return fixture_dir(base) / ("families/%s.mat" % name)


def family_matrix(name, base=None):
    return load(family_matrix_path(name, base), parse_matrix_file)


def generator_vector_path(name, base=None):
    return fixture_dir(base) / ("families/%s.gens" % name)


def generator_vector(name, base=None):
    return load(generator_vector_path(name, base), parse_vector_file)


def subdivision_fan(base=None):
    return load(fixture_dir(base) / "toric/subdivision.fan", parse_fan_file)


def hypersurface_monomials_path(base=None):
    return fixture_dir(base) / "toric/hypersurface.fpoly"


def hypersurface_monomials(base=None):
    return load(hypersurface_monomials_path(base), parse_monomial_file)


def component_table_path(base=None):
    return fixture_dir(base) / "toric/components.tbl"


def component_table(base=None):
    return load(component_table_path(base), parse_component_table)


def scroll_polytope(base=None):
    return load(fixture_dir(base) / "toric/scroll_polytope.txt", parse_point_file)


def ci_complexes_path(base=None):
    return fixture_dir(base) / "cohomology/ci_degree12.complexes"


def ci_complexes(base=None):
    return load(ci_complexes_path(base), parse_ci_complexes)
