"""Benchmark workloads: generated nlpf configurations and their output gates.

Every workload is a complete `key = value` configuration. The program sees
only that text; the benchmark never hands it an object. A seed selects one
of `NUM_VARIANTS` variants of the initial bump profiles. Variant 0 is the
unperturbed configuration. The others move each bump centre by up to
`CENTER_SHIFT` and scale each bump amplitude by up to `AMPLITUDE_SCALE`.
These ranges keep each workload's character: the 256-cell Robin case still
rejects about 350 substeps in 50 steps, and the simplex case keeps chi0
admissible. The variant, not the raw seed, indexes the stored reference
states, so any seed has a reference.
"""

from __future__ import annotations

import random

NUM_VARIANTS = 8
DEFAULT_SEED = 0
CENTER_SHIFT = 0.05
AMPLITUDE_SCALE = 0.10

# configs/default.cfg as of the commit that added this benchmark, kept here
# so that later edits to the shipped config do not change the workload.
_DEFAULT_CFG = {
    "grid.dim": "1",
    "grid.lengths": "1.0",
    "grid.cells": "32",
    "thermo.model": "two_phase_power",
    "thermo.alpha": "1",
    "thermo.mu0": "1.0",
    "thermo.beta": "1.0",
    "thermo.lam_amp": "0.1",
    "thermo.sig_amp": "0.2",
    "potential.kind": "box",
    "potential.lo": "0.0",
    "potential.hi": "1.0",
    "kernel.kind": "gaussian",
    "kernel.amplitude": "0.1",
    "kernel.width": "0.25",
    "boundary.gamma": "0.0",
    "init.theta.kind": "bump",
    "init.theta.base": "1.0",
    "init.theta.amplitude": "0.2",
    "init.theta.center": "0.5",
    "init.theta.width": "0.1",
    "init.chi.kind": "bump",
    "init.chi.base": "0.3",
    "init.chi.amplitude": "0.2",
    "init.chi.center": "0.5",
    "init.chi.width": "0.25",
    "solver.dt": "1e-3",
    "solver.horizon": "1.0",
    "solver.rho": "auto",
    "output.cadence": "1",
}

# Absolute max-norm tolerances on the final theta and chi. Workloads that
# never halve a step converge Newton to a 1e-14 relative residual; loosening
# that to 1e-8 moves the final bar1d-default state by 4.6e-8, so 1e-6 admits
# any reasonable stopping rule or summation order and still catches a wrong
# operator. On bar1d-256-robin-avg the solver halves 350 substeps; the same
# run without halving (solver.newton_tol = 1e-12) ends up to 2.1e-4 away in
# theta and 1.1e-5 in chi over the variants, so a Newton fix must pass a
# 1e-3 / 1e-4 gate.
_TIGHT = {"theta": 1e-6, "chi": 1e-6}
_HALVING = {"theta": 1e-3, "chi": 1e-4}

# the default checks of `nlpf verify`
CHECKS = ("energy", "entropy", "selection", "pairing", "lower")

WORKLOADS = {
    "bar1d-default": {
        "why": "configs/default.cfg as users first run it: theta Newton, "
               "sparse assembly and one snapshot per step dominate",
        "overrides": {},
        "probe": "sparse",
        "tolerance": _TIGHT,
        "must_pass": CHECKS,
    },
    "bar1d-256-robin-avg": {
        "why": "256-cell Robin case with interval-average lag: Newton stalls "
               "at round-off and step halving retries it; verify misjudges it",
        "overrides": {
            "grid.cells": "256",
            "boundary.gamma": "1",
            "solver.lag_mode": "interval_average",
            "solver.lag_window": "8",
            "solver.horizon": "0.05",
        },
        "probe": "sparse",
        "tolerance": _HALVING,
        # energy and entropy FAIL today (open verify defects); a fix may
        # turn them to PASS, so only these three are required.
        "must_pass": ("selection", "pairing", "lower"),
    },
    "plate2d-64": {
        "why": "2D 64x64 plate: dense nonlocal fields take ~95% of a step "
               "and the dense kernel dominates set-up and memory",
        "overrides": {
            "grid.dim": "2",
            "grid.lengths": "1.0,1.0",
            "grid.cells": "64,64",
            "solver.horizon": "0.004",
        },
        "probe": "dense",
        "tolerance": _TIGHT,
        "must_pass": CHECKS,
    },
    "plate2d-32-poly3": {
        "why": "2D 32x32, three-phase simplex with even-polynomial pair "
               "term: the vector nonlocal branch and simplex prox run here",
        "overrides": {
            "grid.dim": "2",
            "grid.lengths": "1.0,1.0",
            "grid.cells": "32,32",
            "thermo.model": "multi_phase_power",
            "thermo.components": "3",
            "potential.kind": "simplex",
            "interaction.kind": "even_polynomial",
            "interaction.coeffs": "1.0,0.5",
            "init.chi.base": "0.2",
            "init.chi.amplitude": "0.1",
            "solver.horizon": "0.005",
        },
        "probe": "dense",
        "tolerance": _TIGHT,
        "must_pass": CHECKS,
    },
}


def variant_of(seed: int) -> int:
    return seed % NUM_VARIANTS


def config_values(name: str, seed: int) -> dict:
    """Key/value strings of workload ``name`` for ``seed``."""
    values = dict(_DEFAULT_CFG)
    values.update(WORKLOADS[name]["overrides"])
    variant = variant_of(seed)
    if variant:
        rng = random.Random(variant)
        for field in ("init.theta", "init.chi"):
            center = float(values[f"{field}.center"])
            amplitude = float(values[f"{field}.amplitude"])
            center += rng.uniform(-CENTER_SHIFT, CENTER_SHIFT)
            amplitude *= 1.0 + rng.uniform(-AMPLITUDE_SCALE, AMPLITUDE_SCALE)
            values[f"{field}.center"] = repr(center)
            values[f"{field}.amplitude"] = repr(amplitude)
    return values


def config_text(name: str, seed: int) -> str:
    values = config_values(name, seed)
    return "".join(f"{key} = {values[key]}\n" for key in values)
