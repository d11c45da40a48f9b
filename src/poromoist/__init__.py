"""Verified simulator for coupled vapor and heat transport in a porous slab.

The package solves a degenerate parabolic system for vapor density and
temperature on the unit interval with Robin exchange boundaries, using a
regularized implicit finite-volume scheme with a per-step fixed-point
solve and a coupling-strength continuation fallback.  Alongside the
solver it ships the diagnostics that certify the discrete analogues of
the model's a priori estimates, plus verification harnesses
(manufactured solutions, regularization ladders, parameter sweeps).
"""

from .config import build_setup, load_config
from .diagnostics import certify_run
from .errors import ConfigError, PoromoistError
from .stepper import run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "load_config",
    "build_setup",
    "run",
    "certify_run",
    "PoromoistError",
    "ConfigError",
]
