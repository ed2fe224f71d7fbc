"""Exact-arithmetic toolkit for Stanley-Reisner sphere triangulations,
their first-order deformations and Pfaffian families, diagonal torus
symmetries, line-bundle cohomology bookkeeping, and the toric resolution
pipeline of the associated quotient singularities."""

from .simplicial import (
    SimplicialComplex,
    boundary,
    classify_link,
    is_combinatorial_3sphere_candidate,
    join,
)
from .fileio import load_triangulation
from .sr_ideal import degree, hilbert_numerator, minimal_nonfaces
from .deformation import (
    admissible_b,
    first_order_family,
    t1_degree_zero_basis,
    t1_link_table_crosscheck,
)
from .symmetry import automorphism_group, invariant_specialize, orbits_on_t1
from .polynomial import Poly, PolyRing
from .pfaffian import (
    SkewPolyMatrix,
    check_quasihomogeneous,
    milnor_quasihomogeneous,
    pfaffian,
    principal_pfaffians,
    quasi_weights,
    verify_first_order,
)
from .torusgroup import diagonal_stabilizer, verify_character
from .cohomology import TwistSum, h_twist, hodge_pipeline_ci, les_solve
from .verify import run_all

__all__ = [
    "SimplicialComplex", "boundary", "classify_link",
    "is_combinatorial_3sphere_candidate", "join", "load_triangulation",
    "degree", "hilbert_numerator", "minimal_nonfaces",
    "admissible_b", "first_order_family",
    "t1_degree_zero_basis", "t1_link_table_crosscheck",
    "automorphism_group", "invariant_specialize", "orbits_on_t1",
    "Poly", "PolyRing",
    "SkewPolyMatrix", "check_quasihomogeneous",
    "milnor_quasihomogeneous", "pfaffian", "principal_pfaffians",
    "quasi_weights", "verify_first_order",
    "diagonal_stabilizer", "verify_character",
    "TwistSum", "h_twist", "hodge_pipeline_ci", "les_solve",
    "run_all",
]
