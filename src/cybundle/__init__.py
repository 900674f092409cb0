"""Exact invariants, cone analysis and discriminant octics for Calabi-Yau
threefolds embedded in projectivized bundles over P^3 and P^1.

All arithmetic is exact rational; every closed-form invariant is
cross-checked against an independent Chow-ring oracle.
"""

from .chow import (
    BundleSpec,
    ChowClass,
    closed_form_intersections,
    integrate,
    intersection_numbers_by_reduction,
    reduce,
    tangent_total_chern,
)
from .cohomology import SplitBundle, cohomology, end_bundle, sym_power
from .discriminant import (
    Octic,
    QuadraticSection,
    build_discriminant,
    base_locus_expected,
    sample_section,
    scaling_law_check,
    singularity_witness,
)
from .invariants import (
    CyInvariants,
    OracleMismatchError,
    admissibility_p3,
    euler_characteristic_rank2_p3,
    fiber_count,
    h0_split,
    invariants_for,
    invariants_p1,
    invariants_p3,
    picard_number,
)
from .kahler import (
    ContractionKind,
    ContractionReport,
    CubicForm,
    KahlerReport,
    Rationality,
    RhoNotTwoError,
    boundary_rays,
    classify_contraction_p1,
    degeneracy_determinant,
    h4_basis_determinant,
    rationality_analysis,
    require_rho_two,
    verify_KY_squared,
    w_cubic,
)
from .ratpoly import MultiPoly, UniPoly, derivative, multipoly_gradient, poly_gcd

__version__ = "0.1.0"
