"""Multi-run measurement protocols.

Each study drives several runs from one base configuration and reduces them
to a small table: a convergence order, a stability ratio, or an error
sequence.  The tables are the package's evidence that the discrete scheme
behaves like the estimates say it should, so the protocols are deliberately
rigid; knobs live in the ``study.*`` configuration keys.
"""

from __future__ import annotations

import math

import numpy as np

from .config import build_components
from .convex import IndicatorBox
from .diagnostics import continuous_dependence
from .errors import ConfigError, ModeError
from .longrange import local_limit_error
from .stepper import RunComponents, SolverConfig, run, step_chi

STUDY_KINDS = ("dt-refinement", "dependence", "local-limit",
               "inclusion-dependence")


def _positive_deltas(resolved):
    deltas = resolved["study.deltas"]
    if any(delta <= 0 for delta in deltas):
        raise ConfigError("study.deltas entries must be positive")
    return deltas


def _weighted_l2(grid, field):
    return math.sqrt(float(np.dot(grid.volumes, np.square(field))))


def dt_refinement(resolved):
    """Observed temporal order on a manufactured conduction fixture.

    A phase-decoupled model on a short 1D grid, driven through a Robin
    boundary whose exterior temperature ramps in time, gives a smooth
    solution with no free constants.  Errors are measured at the final time
    against a run with a much finer step; first-order stepping should land
    the observed order near one.
    """
    from .geometry import BoundaryData, build_grid
    from .longrange import ConstantKernel, QuadraticG, build_coupling
    from .thermo import build_model

    levels = resolved["study.dt_levels"]
    if levels < 2:
        raise ConfigError("study.dt_levels must be at least 2")
    grid = build_grid(1, [1.0], [8])
    model = build_model("decoupled_power", alpha=1)
    potential = IndicatorBox(np.zeros(1), np.ones(1))
    coupling = build_coupling(grid, ConstantKernel(0.0), QuadraticG(), 1.0)
    boundary = BoundaryData(grid, 1.0, lambda t: 1.0 + 0.5 * t)
    theta0 = np.ones(grid.n_cells)
    chi0 = np.full((grid.n_cells, 1), 0.5)
    horizon, dt0 = 0.5, 0.02

    def final_theta(dt):
        comp = RunComponents(grid, model, potential, coupling, boundary,
                             theta0, chi0,
                             SolverConfig(dt=dt, horizon=horizon,
                                          rho=math.e ** 8))
        return run(comp).thetas[-1]

    ref = final_theta(dt0 / 64.0)
    rows = []
    prev_err = None
    for lev in range(levels):
        dt = dt0 / 2 ** lev
        err = _weighted_l2(grid, final_theta(dt) - ref)
        order = math.log2(prev_err / err) if prev_err is not None else float("nan")
        rows.append({"dt": dt, "error": err, "order": order})
        prev_err = err
    return rows


def dependence(resolved):
    """Continuous-dependence ratios at a ladder of perturbation sizes.

    Requires the uniqueness setting (temperature-only conductivity, an
    insulated boundary); the ratio of the trajectory gap functional to the
    initial gap functional should be insensitive to the perturbation size
    while the response is linear.
    """
    comp, _ = build_components(resolved)
    if not comp.model.k_independent_of_chi:
        raise ModeError("dependence study needs thermo.uniqueness_mode = true")
    deltas = _positive_deltas(resolved)
    base = run(comp)
    rows = []
    for delta in deltas:
        rep = continuous_dependence(comp, delta, base_traj=base)
        rows.append({"delta": delta, "lhs": rep.lhs, "rhs": rep.rhs,
                     "ratio": rep.ratio})
    return rows


def local_limit_profile(length):
    """Linear order-parameter profile used by the limit study.

    A constant gradient makes the limit density flat, so every interior
    deviation of the discrete interaction density is pure concentration
    and quadrature error, with nothing contributed by curvature.
    """

    def chi_fn(x):
        return 0.25 + 0.5 * float(x[0]) / length

    def grad_fn(x):
        return np.array([0.5 / length])

    return chi_fn, grad_fn


def local_limit(resolved):
    """Concentration of the scaled interaction toward its gradient limit.

    For scale index n the kernel support has radius 1/n, so the mesh must
    refine faster than the support shrinks for the cell quadrature to keep
    resolving the kernel; the protocol ties the cell count to n^2.  The
    reported error is the worst interior mismatch between the pair
    interaction density and nu |grad chi|^2, relative to the largest value
    of the limit density.
    """
    from .geometry import build_grid

    if resolved["grid.dim"] != 1:
        raise ModeError("local-limit study is implemented for 1D grids")
    length = resolved["grid.lengths"][0]
    chi_fn, grad_fn = local_limit_profile(length)
    target = None
    rows = []
    for n in resolved["study.local_ns"]:
        cells = n * n
        grid = build_grid(1, [length], [cells])
        rep = local_limit_error(grid, n, chi_fn, grad_fn)
        if target is None:
            gmax = max(float(np.sum(np.square(grad_fn(p)))) for p in grid.centers)
            target = rep.nu * gmax
        rows.append({"n": n, "cells": cells, "nu": rep.nu,
                     "sup_error": rep.sup_error,
                     "rel_error": rep.sup_error / target,
                     "resolution_warning": float(rep.resolution_warning)})
    return rows


def inclusion_dependence(resolved):
    """Stability of the scalar inclusion under forcing perturbations.

    Each forcing g = 0.5 + shift is one cell of a single state, marched from
    z = 0.5 over the time interval [0, 1] in the box [0, 1] by
    ``stepper.step_chi`` with the constant coefficient alpha; cells are independent, so one march per step
    size covers every forcing.  A stiff alpha (around 200) keeps every cell
    in the interior of its box, where the map from forcing to rate is
    exactly 1/alpha.  The study measures (a) the Lipschitz constant
    max|z_0 - z_delta| / delta of the solution map at each perturbation size
    and two step sizes, which should agree, and (b) the L2-in-time distance
    of the rates along forcings g + 1/n to the rate under g, which should
    decrease like 1/(n alpha).
    """
    alpha = resolved["study.inclusion_alpha"]
    if alpha <= 0:
        raise ConfigError("study.inclusion_alpha must be positive")
    ns = resolved["study.inclusion_ns"]
    if any(n < 1 for n in ns):
        raise ConfigError("study.inclusion_ns entries must be >= 1")
    deltas = _positive_deltas(resolved)
    dt = resolved["solver.dt"]
    box = IndicatorBox(np.zeros(1), np.ones(1))
    shifts = np.array([0.0, *deltas, *(1.0 / n for n in ns)])
    a = np.full(shifts.size, alpha)
    g = (0.5 + shifts)[:, None]

    def march(step):
        """Row i is the path of the cell forced by 0.5 + shifts[i]."""
        n_steps = int(math.ceil(1.0 / step - 1e-12))
        z = np.empty((shifts.size, n_steps + 1))
        z[:, 0] = 0.5
        for k in range(n_steps):
            z[:, k + 1] = step_chi(box, z[:, k:k + 1], a, g, step)[:, 0]
        return z

    zs = {step: march(step) for step in (dt, dt / 2.0)}
    rows = []
    for i, delta in enumerate(deltas, start=1):
        for step, z in zs.items():
            lip = float(np.max(np.abs(z[0] - z[i]))) / delta
            rows.append({"quantity": "lipschitz", "param": delta,
                         "dt": step, "value": lip})
    rates = np.diff(zs[dt], axis=-1) / dt
    gaps = np.sqrt(np.sum(np.square(rates[1 + len(deltas):] - rates[:1]),
                          axis=-1) * dt)
    for n, gap in zip(ns, gaps):
        rows.append({"quantity": "rate_gap", "param": float(n), "dt": dt,
                     "value": float(gap)})
    monotone = bool(np.all(np.diff(gaps) <= 1e-12 + 1e-9 * gaps[:-1]))
    rows.append({"quantity": "rate_gap_monotone", "param": float("nan"),
                 "dt": dt, "value": float(monotone)})
    return rows


_RUNNERS = {
    "dt-refinement": dt_refinement,
    "dependence": dependence,
    "local-limit": local_limit,
    "inclusion-dependence": inclusion_dependence,
}


def run_study(kind: str, resolved):
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown study kind '{kind}'; known: "
                          + ", ".join(STUDY_KINDS))
    return _RUNNERS[kind](resolved)


def study_csv(rows) -> str:
    """Render study rows as one CSV with the union of observed columns."""
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("%.17g" % row[c]
                              if isinstance(row[c], float) else str(row[c])
                              for c in cols))
    return "\n".join(lines) + "\n"
