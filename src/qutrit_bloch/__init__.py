"""SU(3) Bloch vectors of qutrit / three-level systems.

Geometry (angle parametrization, density matrices, Bloch maps), rotating-frame
dynamics of the Lambda, Vee, and Xi coupling topologies, and the invariant
structure of the Bloch space: the 4/3 norm of pure states, purity bounds, and
the resonant splitting into separately conserved four-sphere and two-sphere
sectors.
"""

from .config import ConfigError, RunConfig, parse_run_config, render_run_config
from .dynamics import (
    Configuration,
    SimParams,
    SplitReport,
    Trajectory,
    adjoint_generator,
    bloch_trajectory,
    integrate_bloch_ode,
    lambda_closed_form,
    propagate_exact,
    rabi_frequency,
    resonance_split_check,
    rk4_error_estimate,
    rotating_hamiltonian,
    sector_index_sets,
    sector_initial_norms,
)
from .figures import FIGURE_NAMES, load_figure, parameter_sets
from .states import (
    BLOCH_NORM_SQ,
    AngleParams,
    BlochRegionError,
    CARDINAL_LABELS,
    bloch_from_amplitudes,
    bloch_from_density,
    bloch_geometric,
    cardinal_state,
    density_from_bloch,
    density_from_state,
    purity,
    state_from_angles,
)
from .su3 import (
    ConsistencyError,
    StructureConstants,
    commutator,
    derive_structure_constants,
    gellmann,
    gellmann_basis,
    shift_operator,
    structure_constants,
)

__version__ = "0.1.0"

__all__ = [
    "AngleParams",
    "BLOCH_NORM_SQ",
    "BlochRegionError",
    "CARDINAL_LABELS",
    "ConfigError",
    "Configuration",
    "ConsistencyError",
    "FIGURE_NAMES",
    "RunConfig",
    "SimParams",
    "SplitReport",
    "StructureConstants",
    "Trajectory",
    "__version__",
    "adjoint_generator",
    "bloch_from_amplitudes",
    "bloch_from_density",
    "bloch_geometric",
    "bloch_trajectory",
    "cardinal_state",
    "commutator",
    "density_from_bloch",
    "density_from_state",
    "derive_structure_constants",
    "gellmann",
    "gellmann_basis",
    "integrate_bloch_ode",
    "lambda_closed_form",
    "load_figure",
    "parameter_sets",
    "parse_run_config",
    "propagate_exact",
    "purity",
    "rabi_frequency",
    "render_run_config",
    "resonance_split_check",
    "rk4_error_estimate",
    "rotating_hamiltonian",
    "sector_index_sets",
    "sector_initial_norms",
    "shift_operator",
    "state_from_angles",
    "structure_constants",
]
