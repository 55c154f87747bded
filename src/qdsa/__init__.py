"""Long-time asymptotics of finite-dimensional quantum dynamical semigroups.

The package decides sub-harmonicity of projections, exposes the lattice of
invariant faces, decomposes the recurrent block into minimal enclosures,
and certifies numerically that the recurrent projection is carried to the
identity while the transient corner spans the decay ideal.
"""

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    FamilyNotSubharmonic,
    InternalError,
    NegativeTime,
    NotFixedPoint,
    NotHermitian,
    NotPSD,
    NotUnital,
    OutOfUnitInterval,
    ParseError,
    QdsaError,
    TheoremViolation,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    ConditionCheck,
    OrderDiagnostic,
    Projection,
    ToleranceConfig,
    as_complex_matrix,
    is_psd,
    matrix_exp,
    opnorm,
    order_leq,
    proj_infimum,
    proj_supremum,
    projection_order_diagnostic,
    projections_equal,
    support_projection,
    trace_norm,
)
from .channels import (
    HEISENBERG,
    SCHRODINGER,
    DensityMatrix,
    LindbladGenerator,
    QuantumChannel,
    StinespringDilation,
    Superoperator,
    apply_heisenberg,
    generator_to_channel,
    lindblad_apply,
    propagator,
    stinespring_dilate,
    to_superoperator,
    unvec,
    vec,
)
from .harmonic import (
    ClosureResult,
    HarmonicityReport,
    fixed_point_support_check,
    is_subharmonic,
    is_subharmonic_generator,
    is_superharmonic,
    kraus_invariance_test,
    subharmonic_closure,
    subharmonic_report,
    subharmonic_residual,
)
from .asymptotics import (
    DEFAULT_DECAY_TOL,
    DEFAULT_HORIZON,
    DecayIdealResult,
    Dynamics,
    EnclosureDecomposition,
    MinimalityReport,
    RecurrentReport,
    StationarySpace,
    cesaro_limit,
    cesaro_mean,
    decay_ideal_test,
    minimal_enclosures,
    minimality_certificate,
    recurrent_projection,
    restricted_stationary_dim,
    stationary_space,
    stationary_support,
)
from .models import build_fixture, fixture_horizon, fixture_names
from .modelio import ModelSpec, parse_model
from .analyze import AnalysisOptions, AnalysisReport, run_analyze
from .verify import run_verify

__version__ = "0.1.0"
