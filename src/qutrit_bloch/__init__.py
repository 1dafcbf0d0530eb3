"""SU(3) Bloch vectors of qutrit / three-level systems.

Geometry (angle parametrization, density matrices, Bloch maps), rotating-frame
dynamics of the Lambda, Vee, and Xi coupling topologies, and the invariant
structure of the Bloch space: the 4/3 norm of pure states, purity bounds, and
the resonant splitting into separately conserved four-sphere and two-sphere
sectors.
"""

import importlib.util
import sys

from .config import ConfigError, RunConfig, parse_run_config, render_run_config
from .figures import FIGURE_NAMES, load_figure, parameter_sets
from .model import BLOCH_NORM_SQ, CARDINAL_LABELS, Configuration, SimParams, sector_index_sets


def _lazy(name: str):
    """Submodule ``name``, registered now and executed on its first attribute use.

    ``su3``, ``states`` and ``dynamics`` import numpy. Registered this way they
    are attributes of the package and entries of ``sys.modules`` from the
    start, as an eager import made them, while ``simulate`` never runs them.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


su3, states, dynamics = _lazy("su3"), _lazy("states"), _lazy("dynamics")


def __getattr__(name: str):
    # Only a public name runs the numpy modules; each lists its own in
    # __all__. Looked up in import order, a name runs its home module and
    # the ones that imports, no others.
    if name in __all__:
        for module in (su3, states, dynamics):
            if name in module.__all__:
                value = getattr(module, name)
                globals()[name] = value  # later reads skip this function
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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
