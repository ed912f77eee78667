"""Quaternionic power series on the unit ball: slice algebra, Poisson
integrals, modulus-of-continuity norms, and property suites."""

from .quaternion import (
    E1,
    E2,
    E3,
    ImaginaryUnit,
    NonUnitRotor,
    ONE,
    Quaternion,
    UNIT_E1,
    UNIT_E2,
    UNIT_E3,
    hamilton_mul,
    norm,
    orthogonal_unit,
    rotate,
    slice_coordinate,
    slice_point,
)
from .series import (
    AsymmetryDetected,
    NotInvertibleAtOrigin,
    SliceSeries,
    ZeroBase,
    cullen_derivative,
    evaluate,
    evaluate_batch,
    is_intrinsic,
    regular_conjugate,
    representation_extend,
    split,
    star_inverse,
    star_inverse_derivative,
    star_pointwise,
    star_product,
    symmetrization,
)
from .majorant import (
    DomainError,
    Majorant,
    PowerMajorant,
    RegularityCertificate,
    ScaledMajorant,
    SumMajorant,
    TabulatedMajorant,
    check_regular,
    combine,
    power_regularity_constant,
    squared,
)
from .poisson import (
    BoundaryTooClose,
    defect_sup,
    harmonic_defect,
    poisson_integral,
    poisson_integral_slice,
    poisson_modulus_sq,
    rotation_equivariance_residual,
    sq_defect_sup,
    star_kernel_bound,
)
from .lipschitz import (
    DegeneratePlan,
    GrowthCheck,
    NormEstimate,
    SamplePlan,
    SchwarzPickReport,
    boundary_norm,
    bounded_growth_check,
    component_estimates,
    derivative_ratio,
    global_norm,
    schwarz_pick_criterion,
    seminorms_N,
    slice_norm,
)
from .verify import (
    ALL_SUITES,
    CorpusMember,
    FunctionRecord,
    VerificationReport,
    default_corpus,
    run_suite,
    verify_algebraic_closure,
    verify_cone_corollary,
    verify_derivative_characterizations,
    verify_inclusion_chain,
    verify_intrinsic_invariance,
    verify_modulus_membership,
    verify_norm_equivalences,
    verify_poisson_characterization,
    verify_slice_independence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
