"""Exact-arithmetic toolkit for Stanley-Reisner sphere triangulations,
their first-order deformations and Pfaffian families, diagonal torus
symmetries, line-bundle cohomology bookkeeping, and the toric resolution
pipeline of the associated quotient singularities.

`import srcy` loads only the polynomial and Pfaffian layers.  Any other
layer is imported when a layer in use needs it, or when one of its names
(`srcy.run_all`) or the module itself (`srcy.report.emit`,
`srcy.toric.Fan`) is first read from the package, which then binds it.
`srcy.pfaffian` is the function, not its module.
"""

import importlib

# The function shadows its own module, so it is bound now: once any layer
# imports `srcy.pfaffian`, the import system sets the package attribute to
# the module, and `__getattr__` below would never be asked for the name.
from .pfaffian import pfaffian

# each layer and the public names it defines, in `__all__` order; a layer
# with none is still reachable as `srcy.<module>`
_LAYERS = {
    "simplicial": ("SimplicialComplex", "boundary", "is_combinatorial_3sphere_candidate",
                   "join"),
    "fileio": ("load_triangulation",),
    "sr_ideal": ("degree", "hilbert_numerator", "minimal_nonfaces"),
    "deformation": ("admissible_b", "classify_link", "first_order_family",
                    "t1_degree_zero_basis", "t1_link_table_crosscheck"),
    "symmetry": ("automorphism_group", "invariant_specialize", "orbits_on_t1"),
    "polynomial": ("Poly", "PolyRing"),
    "pfaffian": ("SkewPolyMatrix", "check_quasihomogeneous",
                 "milnor_quasihomogeneous", "pfaffian", "principal_pfaffians",
                 "quasi_weights", "verify_first_order"),
    "torusgroup": ("diagonal_stabilizer", "verify_character"),
    "cohomology": ("h_twist", "hodge_pipeline_ci", "les_solve"),
    "verify": ("run_all",),
    "cli": (), "fan": (), "families": (), "fixtures": (), "intlinalg": (), "report": (),
    "toric": (),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name or a submodule, imported on first use and bound here."""
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _LAYERS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_LAYERS))
