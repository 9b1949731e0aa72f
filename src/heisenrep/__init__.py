"""Exact canonical representations of finite Heisenberg groups.

Builds, for a finite abelian group of odd exponent with a nondegenerate
alternating pairing, the canonical irreducible representation of its
Heisenberg extension together with the symplectic group action, entirely in
exact cyclotomic arithmetic, and verifies the construction's axioms by
brute force.
"""

from .abgroup import (
    AbGroup,
    Subgroup,
    primary_component,
    quotient,
    rho_layer,
    subgroup_from_gens,
    torsion_and_scale,
)
from .canonrep import CanonicalRep, TensorRep, build_pi, uniqueness_probe, verify_svn
from .cyclo import (
    CycNum,
    cyclotomic_poly,
    gauss_sum_quadratic,
    in_subfield,
    legendre,
    root_of_unity,
    sqrt_prime,
)
from .heisenberg import HeisGrp, InducedModule, g_transport, induce
from .intertwine import (
    CanonicalSystem,
    hom_dim,
    solve_canonical_system,
    standard_T,
)
from .reduction import (
    ReductionData,
    canonical_isotropic,
    g_to_gc,
    lift_canonical_system,
)
from .symplectic import (
    EnhLag,
    Lagrangian,
    SympAut,
    SympMod,
    act_enhanced,
    enhanced_points,
    enumerate_lagrangians,
    gauss_sum,
    induced_form,
    orth_complement,
    standard_module,
)

__version__ = "0.1.0"
