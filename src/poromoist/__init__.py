"""Verified simulator for coupled vapor and heat transport in a porous slab.

The package solves a degenerate parabolic system for vapor density and
temperature on the unit interval with Robin exchange boundaries, using a
regularized implicit finite-volume scheme with a per-step fixed-point
solve and a coupling-strength continuation fallback.  Alongside the
solver it ships the diagnostics that certify the discrete analogues of
the model's a priori estimates, plus verification harnesses
(manufactured solutions, regularization ladders, parameter sweeps).
"""

from .config import Setup, apply_override, build_setup, load_config, validate_config
from .diagnostics import (
    CertificationReport,
    DiagnosticsRecord,
    EntropyReport,
    EnvelopeReport,
    WeakResidualReport,
    certify_run,
    default_test_functions,
    energy_balance_residual,
    entropy_monitor,
    mass_balance_residual,
    mass_energy_envelope_check,
    weak_residual,
)
from .discretization import Field, Grid, cutoff, mollify
from .errors import (
    ConfigError,
    DimensionMismatch,
    DominanceViolation,
    EnvelopeViolation,
    ModelInvalid,
    NonPositiveRadius,
    NonfiniteIterate,
    ParseError,
    PicardDivergence,
    PoromoistError,
    SingularMatrix,
    ValidationError,
    ZeroPivot,
)
from .harness import (
    LadderReport,
    MMSCase,
    MMSReport,
    SweepReport,
    make_default_mms_case,
    mms_study,
    regularization_ladder,
    sweep,
)
from .linalg import TridiagonalSystem, dense_solve, solve_thomas
from .model import (
    ExponentialSaturation,
    InitialData,
    PhysicalParams,
    PowerLawSaturation,
    SaturationModel,
    SaturationReport,
    conductivity,
    darcy_velocity,
    phase_change_rate,
    saturation_pressure,
    validate_saturation_assumptions,
)
from .stepper import (
    Forcing,
    PicardReport,
    RegularizationParams,
    RunResult,
    State,
    StepConfig,
    StepRecord,
    homotopy_solve,
    mollified_initial_data,
    picard_step,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Setup", "apply_override", "build_setup", "load_config", "validate_config",
    "CertificationReport", "DiagnosticsRecord", "EntropyReport", "EnvelopeReport",
    "WeakResidualReport", "certify_run", "default_test_functions",
    "energy_balance_residual", "entropy_monitor", "mass_balance_residual",
    "mass_energy_envelope_check", "weak_residual",
    "Field", "Grid", "cutoff", "mollify",
    "ConfigError", "DimensionMismatch", "DominanceViolation", "EnvelopeViolation",
    "ModelInvalid", "NonPositiveRadius", "NonfiniteIterate", "ParseError",
    "PicardDivergence", "PoromoistError", "SingularMatrix", "ValidationError",
    "ZeroPivot",
    "LadderReport", "MMSCase", "MMSReport", "SweepReport", "make_default_mms_case",
    "mms_study", "regularization_ladder", "sweep",
    "TridiagonalSystem", "dense_solve", "solve_thomas",
    "ExponentialSaturation", "InitialData", "PhysicalParams", "PowerLawSaturation",
    "SaturationModel", "SaturationReport", "conductivity", "darcy_velocity",
    "phase_change_rate", "saturation_pressure", "validate_saturation_assumptions",
    "Forcing", "PicardReport", "RegularizationParams", "RunResult", "State",
    "StepConfig", "StepRecord", "homotopy_solve", "mollified_initial_data",
    "picard_step", "run",
    "__version__",
]
