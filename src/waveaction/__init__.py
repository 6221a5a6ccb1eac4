"""1-D quantum dynamics toolkit: Schrodinger and mean-field propagation,
variational ground states, and conservation-law diagnostics."""

__version__ = "0.1.0"

from .grids import (
    DIRICHLET,
    PERIODIC,
    Grid,
    Wavefunction,
    first_derivative,
    gaussian_wavepacket,
    inner_product,
    laplacian,
    make_grid,
    norm,
    normalize,
    plane_wave,
    quadrature,
)
from .hamiltonian import (
    HamiltonianConfig,
    PhysicalConstants,
    PotentialField,
    TwoBodyInteraction,
    apply_hamiltonian,
    apply_mechanical_momentum,
    chemical_potential,
    energy,
    mean_field_potential,
)
from .propagation import (
    GroundStateResult,
    ObserverError,
    PropagationPlan,
    Trajectory,
    ground_state_imaginary_time,
    propagate,
    step_crank_nicolson,
    step_gp,
    step_split_operator,
)
from .variational import (
    ActionIntegrals,
    ActionValue,
    LagrangianSample,
    RayleighRitzResult,
    StationarityResult,
    TrialFamily,
    action,
    action_integrals,
    box_sine_family,
    gaussian_family,
    gaussian_phase_family,
    lagrangian_densities,
    rayleigh_ritz_minimize,
)
from .diagnostics import (
    CanonicalFields,
    ContinuityReport,
    ProbabilityFields,
    canonical_fields,
    continuity_residual,
    gauge_transform,
    hamilton_equations_residual,
    probability_fields,
)
from .scenario import Scenario, ScenarioError, parse_scenario, parse_scenario_dict, serialize_scenario
from .runner import RunManifest, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
