"""Numerical toolkit for 1D first-order symmetric hyperbolic systems.

Checks the structural hypotheses of the weighted (Carleman-type) estimate
and the boundary observability inequality on user-supplied coefficient
fields, produces discrete solutions with recorded traces, evaluates every
term of the inequalities on grid samples, and estimates the asserted
constants empirically over seeded ensembles.
"""

from .catalog import CatalogEntry, build_scenario, catalog, scenario_status
from .config import InitialSpec, RunConfig, parse_config, resolve_scenario, serialize_config
from .errors import (
    AsymmetricFieldError,
    BetaSelectionError,
    CflViolationError,
    ConfigError,
    FieldEvaluationError,
    GridError,
    GridMismatchError,
    HypothesisRefusal,
    SingularCoefficientError,
    SymhypError,
)
from .estimates import (
    CarlemanScanReport,
    EnergyEstimateReport,
    ObservabilityReport,
    estimate_observability,
    scan_carleman,
    verify_energy_estimate,
)
from .fields import (
    GridFunction,
    MatrixField,
    Scenario,
    SeparableGridFunction,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    VectorField,
    bump_profile,
    central_derivative,
    eig_bounds,
    random_initial_profile,
    random_smooth_separable,
    sample_field,
    symmetry_defect,
)
from .functionals import (
    CarlemanTerms,
    EnergyLedger,
    carleman_ratio,
    carleman_terms,
    conjugation_defect,
    energy_ledger,
    ibp_identity_defect,
    observability_ratio,
)
from .hypotheses import (
    BetaSelection,
    BoundaryLabel,
    HypothesisReport,
    check_eta_coercivity,
    check_h0_bounds,
    check_hypotheses,
    check_weight_coercivity,
    classify_boundary,
    classify_boundary_series,
    minimal_time,
    select_beta,
)
from .solver import (
    SolveResult,
    admissible_time_nodes,
    exact_transport,
    max_char_speed,
    residual,
    solve,
)

__version__ = "0.1.0"
