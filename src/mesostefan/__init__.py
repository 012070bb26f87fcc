"""Stationary profiles of the 1-D nonlocal mean-field equation with current.

Solvers for m = tanh(beta J^neum*m + beta h) coupled to the current law
h(x) = -eps j int 1/chi(m), their macroscopic free-boundary limits, the
standing interface profile, and the spectral analysis of the linearized map.
"""

from .config import RunConfig, load_config, parse_config
from .errors import (BranchRangeError, ConvergenceError, DomainError,
                     GridError, InfeasibleError, MesostefanError,
                     SaturationError)
from .grids import Grid, Kernel, build_grid, build_kernel
from .thermo import ThermoParams, make_params

__all__ = [
    "BranchRangeError", "ConvergenceError", "DomainError", "Grid",
    "GridError", "InfeasibleError", "Kernel", "MesostefanError", "RunConfig",
    "SaturationError", "ThermoParams", "build_grid", "build_kernel",
    "load_config", "make_params", "parse_config",
]

__version__ = "0.1.0"
