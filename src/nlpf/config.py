"""Flat key-value run configuration.

One `key = value` statement per line, dotted section prefixes, `#` comments.
Every key the parser accepts is listed in the schema below with its default;
anything else is rejected by name, so a manifest echoing the fully-resolved
configuration is parseable by the same code and reproduces the run.
"""

from __future__ import annotations

import math

import numpy as np

from .convex import IndicatorBall, IndicatorBox, IndicatorSimplex
from .errors import ConfigError
from .geometry import BoundaryData, build_grid
from .longrange import (ConstantKernel, EvenPolynomialG, GaussianKernel,
                        QuadraticG, ScaledTopHat, build_coupling)
from .stepper import RunComponents, SolverConfig
from .thermo import MODEL_REGISTRY, build_model, validate_model

# kind tags: b bool, i int, f float, s string, F float list, I int list,
# rho is float-or-"auto"
_SCHEMA = {
    "grid.dim": ("i", 1),
    "grid.lengths": ("F", [1.0]),
    "grid.cells": ("I", [32]),
    "thermo.model": ("s", "two_phase_power"),
    "thermo.alpha": ("i", 1),
    "thermo.mu0": ("f", 1.0),
    "thermo.beta": ("f", 1.0),
    "thermo.lam_amp": ("f", 0.1),
    "thermo.sig_amp": ("f", 0.2),
    "thermo.uniqueness_mode": ("b", False),
    "thermo.components": ("i", 1),
    "potential.kind": ("s", "box"),
    "potential.lo": ("f", 0.0),
    "potential.hi": ("f", 1.0),
    "potential.radius": ("f", 1.0),
    "kernel.kind": ("s", "gaussian"),
    "kernel.amplitude": ("f", 0.1),
    "kernel.width": ("f", 0.25),
    "kernel.scale_index": ("i", 4),
    "interaction.kind": ("s", "quadratic"),
    "interaction.coeffs": ("F", [1.0]),
    "boundary.gamma": ("f", 0.0),
    "boundary.theta_gamma": ("f", 1.0),
    "boundary.theta_gamma_rate": ("f", 0.0),
    "init.theta.kind": ("s", "constant"),
    "init.theta.value": ("f", 1.0),
    "init.theta.base": ("f", 1.0),
    "init.theta.slope": ("f", 0.0),
    "init.theta.amplitude": ("f", 0.0),
    "init.theta.center": ("f", 0.5),
    "init.theta.width": ("f", 0.1),
    "init.chi.kind": ("s", "constant"),
    "init.chi.value": ("f", 0.5),
    "init.chi.base": ("f", 0.5),
    "init.chi.slope": ("f", 0.0),
    "init.chi.amplitude": ("f", 0.0),
    "init.chi.center": ("f", 0.5),
    "init.chi.width": ("f", 0.1),
    "solver.dt": ("f", 1e-3),
    "solver.horizon": ("f", 1.0),
    "solver.n_reg": ("i", 0),
    "solver.rho": ("rho", "auto"),
    "solver.rho_c_star": ("f", 1.0),
    "solver.lag_mode": ("s", "previous_step"),
    "solver.lag_window": ("i", 1),
    "solver.newton_tol": ("f", 1e-14),
    "solver.newton_cap": ("i", 60),
    "output.cadence": ("i", 1),   # kept for manifests; 1 is the only value
    "study.deltas": ("F", [1e-3, 5e-4]),
    "study.dt_levels": ("i", 3),
    "study.local_ns": ("I", [4, 8, 16]),
    "study.inclusion_alpha": ("f", 200.0),
    "study.inclusion_ns": ("I", [10, 20, 40, 80]),
}


def parse_config_text(text: str) -> dict:
    """Raw `key = value` pairs, order preserved, duplicates rejected."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{body!r}")
        key, val = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = val.strip()
    return out


def _convert(key: str, kind: str, raw: str):
    try:
        if kind == "b":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "i":
            return int(raw)
        if kind == "f":
            return float(raw)
        if kind == "s":
            return raw
        if kind == "F":
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        if kind == "I":
            return [int(tok) for tok in raw.split(",") if tok.strip()]
        if kind == "rho":
            return "auto" if raw.lower() == "auto" else float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse {raw!r} as {kind}")
    raise ConfigError(f"schema bug: unknown kind {kind}")


def resolve_config(raw: dict) -> dict:
    """Apply the schema: defaults for absent keys, rejection of unknown ones."""
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    resolved = {}
    for key, (kind, default) in _SCHEMA.items():
        if key in raw:
            resolved[key] = _convert(key, kind, raw[key])
        else:
            resolved[key] = list(default) if isinstance(default, list) else default
    return resolved


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, list):
        return ",".join("%.17g" % x if isinstance(x, float) else str(x)
                        for x in v)
    return str(v)


def render_manifest(resolved: dict) -> str:
    lines = [f"{k} = {_fmt_value(resolved[k])}" for k in sorted(resolved)]
    return "\n".join(lines) + "\n"


def _profile(grid, kind, p, prefix):
    u = grid.centers[:, 0] / grid.lengths[0]
    if kind == "constant":
        return np.full(grid.n_cells, p[f"{prefix}.value"])
    if kind == "ramp":
        return p[f"{prefix}.base"] + p[f"{prefix}.slope"] * u
    if kind == "bump":
        c, w = p[f"{prefix}.center"], p[f"{prefix}.width"]
        if w <= 0:
            raise ConfigError(f"{prefix}.width must be positive")
        return p[f"{prefix}.base"] + p[f"{prefix}.amplitude"] * np.exp(
            -((u - c) ** 2) / (2.0 * w * w))
    raise ConfigError(f"{prefix}.kind must be constant, ramp or bump, "
                      f"got '{kind}'")


def _build_potential(p, d):
    kind = p["potential.kind"]
    if kind == "box":
        lo, hi = p["potential.lo"], p["potential.hi"]
        if not lo < hi:
            raise ConfigError("potential.lo must be below potential.hi")
        return IndicatorBox(np.full(d, lo), np.full(d, hi)), \
            (hi - lo) * math.sqrt(d)
    if kind == "simplex":
        return IndicatorSimplex(d), math.sqrt(2.0)
    if kind == "ball":
        r = p["potential.radius"]
        if r <= 0:
            raise ConfigError("potential.radius must be positive")
        return IndicatorBall(d, r), 2.0 * r
    raise ConfigError(f"potential.kind '{kind}' not recognized")


def _build_kernel(p, dim):
    kind = p["kernel.kind"]
    amp = p["kernel.amplitude"]
    if amp < 0:
        raise ConfigError("kernel.amplitude must be nonnegative")
    if kind == "constant":
        return ConstantKernel(amp)
    if kind == "gaussian":
        if p["kernel.width"] <= 0:
            raise ConfigError("kernel.width must be positive")
        return GaussianKernel(amp, p["kernel.width"])
    if kind == "tophat":
        return ScaledTopHat(p["kernel.scale_index"], dim, amp)
    raise ConfigError(f"kernel.kind '{kind}' not recognized")


def _build_interaction(p):
    kind = p["interaction.kind"]
    if kind == "quadratic":
        return QuadraticG()
    if kind == "even_polynomial":
        return EvenPolynomialG(p["interaction.coeffs"])
    raise ConfigError(f"interaction.kind '{kind}' not recognized")


_MODEL_KWARGS = {
    "two_phase_power": ("alpha", "mu0", "beta", "lam_amp", "sig_amp",
                        "uniqueness_mode"),
    "multi_phase_power": ("d", "alpha", "mu0", "beta", "lam_amp", "sig_amp"),
    "decoupled_power": ("alpha", "mu0", "beta"),
}


def build_components(resolved: dict):
    """Construct validated run components from a resolved configuration.

    Model contract validation happens here, before any stepping, so a
    violating model never produces output files.
    """
    p = resolved
    if p["output.cadence"] != 1:
        raise ConfigError(f"output.cadence = {p['output.cadence']}: every "
                          "step is stored as a frame, so 1 is the only "
                          "accepted value")
    grid = build_grid(p["grid.dim"], p["grid.lengths"], p["grid.cells"])

    name = p["thermo.model"]
    if name not in MODEL_REGISTRY:
        raise ConfigError(f"thermo.model '{name}' not in registry "
                          f"({', '.join(sorted(MODEL_REGISTRY))})")
    kwargs = {}
    for kw in _MODEL_KWARGS[name]:
        kwargs[kw] = p["thermo.components"] if kw == "d" else p[f"thermo.{kw}"]
    model = build_model(name, **kwargs)
    potential, diam = _build_potential(p, model.d)
    validate_model(model, potential,
                   uniqueness_mode=p["thermo.uniqueness_mode"])

    kernel = _build_kernel(p, grid.dim)
    coupling = build_coupling(grid, kernel, _build_interaction(p), diam)

    rate = p["boundary.theta_gamma_rate"]
    base_tg = p["boundary.theta_gamma"]
    if rate == 0.0:
        theta_gamma = base_tg
    else:
        def theta_gamma(t, _b=base_tg, _r=rate):
            return _b + _r * t
    boundary = BoundaryData(grid, p["boundary.gamma"], theta_gamma)

    theta0 = _profile(grid, p["init.theta.kind"], p, "init.theta")
    chi_scalar = _profile(grid, p["init.chi.kind"], p, "init.chi")
    chi0 = np.tile(chi_scalar[:, None], (1, model.d))

    rho = p["solver.rho"]
    if rho == "auto":
        from .diagnostics import calibrate_rho
        rho = calibrate_rho(p["solver.rho_c_star"], grid.dim).rho_star
    windows = {"previous_step": 1, "interval_average": p["solver.lag_window"]}
    if p["solver.lag_mode"] not in windows:
        raise ConfigError(f"unknown lag mode '{p['solver.lag_mode']}'")
    if p["solver.lag_window"] < 1:
        raise ConfigError("lag window must be >= 1")
    config = SolverConfig(dt=p["solver.dt"], horizon=p["solver.horizon"],
                          n_reg=p["solver.n_reg"], rho=rho,
                          lag_window=windows[p["solver.lag_mode"]],
                          newton_tol=p["solver.newton_tol"],
                          newton_cap=p["solver.newton_cap"])

    final = dict(resolved)
    final["solver.rho"] = rho
    return RunComponents(grid=grid, model=model, potential=potential,
                         coupling=coupling, boundary=boundary,
                         theta0=theta0, chi0=chi0, config=config), final


def load_config(path: str):
    with open(path, "r") as fh:
        text = fh.read()
    return resolve_config(parse_config_text(text))
