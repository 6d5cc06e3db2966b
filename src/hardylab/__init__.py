"""Numerical laboratory for Hardy martingales on discretized torus products."""

from .ensembles import (
    EnsembleConfig,
    arith_sample_batch,
    ensemble_chunk,
    martingale_from_coefficients,
    phases_from_angles,
    random_adapted_phases,
    random_coefficient_arrays,
    random_hardy_function,
    random_hardy_martingale,
    random_phase_angle_arrays,
)
from .harness import (
    COMMANDS,
    HarnessConfig,
    RunReport,
    UsageError,
    cmd_constant_search,
    cmd_convergence,
    cmd_identities,
    cmd_lemmas,
    cmd_theorem,
    write_csv_report,
    write_json_report,
)
from .inequalities import (
    CHAIN_CONSTANT,
    CheckRecord,
    IdentityReport,
    PerturbationReport,
    StabilityReport,
    arith_envelope,
    decomposition_sides,
    envelope_excess_sides,
    envelope_gap_sides,
    perturbation_bounds,
    sincos_identity_sides,
    slack_verdict,
    stability_report,
    stability_report_from_coefficients,
    verify_chain,
)
from .martingale import (
    AdaptedPhases,
    MartingaleField,
    SquareFunctionProfile,
    check_transform_isometry,
    cond_square_profile,
    cosine_part,
    dyadic_project,
    field_from_differences,
    is_hardy_martingale,
    level,
    previsible_norm,
    project_dyadic_cells,
    sine_part,
    transform,
)
from .torus import (
    GridFunction,
    TorusGrid,
    inner_product,
    is_hardy,
    make_grid,
    sigma,
)

__version__ = "0.1.0"
