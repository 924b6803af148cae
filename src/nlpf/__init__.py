"""Nonlocal two-field conduction: a positivity-preserving solver for a
quasilinear energy balance coupled to a constrained order-parameter flow
with long-range interaction, plus the verification suite for its discrete
structure (conservation, entropy monotonicity, two-sided temperature
envelopes, selection bounds, and stability protocols)."""

from importlib import import_module

from .errors import (ConfigError, ModelContractError, ModeError, NlpfError,
                     NumericalError)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData", "ConfigError", "Grid", "ModeError", "ModelContractError",
    "NlpfError", "NumericalError", "RunComponents", "SolverConfig", "State",
    "Trajectory", "build_grid", "run", "__version__",
]

# the solver's names load numpy and scipy: import them on first use
_LAZY = {**dict.fromkeys(("BoundaryData", "Grid", "build_grid"), "geometry"),
         **dict.fromkeys(("RunComponents", "SolverConfig", "State",
                          "Trajectory", "run"), "stepper")}


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
