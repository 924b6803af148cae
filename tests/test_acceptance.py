"""End-to-end acceptance battery.

Each test prints a single [ACCEPTANCE i] line on the real stdout so the
result survives pytest capture, and asserts the same condition, so a FAIL
line always comes with a failing test. Wall-clock budgets are asserted
where the criterion carries one. Expensive runs are shared through
session-scoped fixtures.
"""

import math
import sys
import time

import numpy as np
import pytest

from nlpf.convex import IndicatorBox
from nlpf.diagnostics import (calibrate_rho, continuous_dependence,
                              energy_figure, generic_check, lower_bound_ode,
                              measured_forcing_bound, run_checks,
                              truncation_inactivity)
from nlpf.geometry import BoundaryData, build_grid
from nlpf.stepper import run
from nlpf.thermo import build_model
from nlpf.studies import run_study
from nlpf.config import resolve_config

from conftest import two_phase_components
from inverse_oracle import inverse_temperature
from ode_oracle import closed_form_envelope


@pytest.fixture(scope="session")
def term(request):
    return request.config.pluginmanager.get_plugin("terminalreporter")


def report(term, i, name, ok):
    line = f"[ACCEPTANCE {i}] {name}: {'PASS' if ok else 'FAIL'}"
    if term is not None:
        term.write_line("")
        term.write_line(line)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


@pytest.fixture(scope="session")
def main_run():
    comp = two_phase_components(horizon=1.0, dt=1e-3)
    start = time.monotonic()
    traj = run(comp)
    return comp, traj, time.monotonic() - start


@pytest.fixture(scope="session")
def half_dt_run():
    comp = two_phase_components(horizon=1.0, dt=5e-4)
    start = time.monotonic()
    traj = run(comp)
    return comp, traj, time.monotonic() - start


def test_acceptance_1_energy(term, main_run, half_dt_run):
    comp, traj, el1 = main_run
    comp2, traj2, el2 = half_dt_run
    label, drift1, _ = energy_figure(comp, traj)
    drift2 = energy_figure(comp2, traj2)[1]
    assert label == "relative drift"
    ratio = drift2 / drift1
    ok = (drift1 <= 1e-6
          and 0.375 <= ratio <= 0.625
          and el1 + el2 < 30.0)
    report(term, 1, "energy conservation", ok)
    assert drift1 <= 1e-6
    assert 0.375 <= ratio <= 0.625, (drift1, drift2)
    assert el1 + el2 < 30.0


def test_acceptance_2_entropy(term, main_run, half_dt_run):
    comp, traj, _ = main_run
    comp2, traj2, _ = half_dt_run
    # the check: global production nonnegative, cellwise residual and face
    # pairing signed right, under both steps
    outcomes = [run_checks(c, t, ["entropy"])[0]
                for c, t in ((comp, traj), (comp2, traj2))]
    scale1 = max(1.0, float(np.max(np.abs(traj.records["total_entropy"]))))
    # global production must be nonnegative up to 1e-8 |S|, and any
    # negative defect must shrink with the step
    def worst(traj, scale):
        rec = traj.records
        totals = np.append(rec["start_entropy"][:1], rec["total_entropy"])
        return min(0.0, float(np.min(np.diff(totals)))) / scale

    ok = (all(oc.passed for oc in outcomes)
          and worst(traj, scale1) >= -1e-8
          and worst(traj2, scale1) >= 0.5 * worst(traj, scale1) - 1e-15)
    report(term, 2, "entropy production", ok)
    assert ok, outcomes


def test_acceptance_3_selection_bound(term, main_run, half_dt_run):
    margins = []
    for comp, traj, _ in (main_run, half_dt_run):
        margins.append(float(np.min(traj.records["selection_margin"])))
    ok = min(margins) >= 0.0
    report(term, 3, "selection bound", ok)
    assert ok, margins


def test_acceptance_4_lower_bound(term):
    comp = two_phase_components(cells=16, horizon=0.5, dt=1e-3,
                                uniqueness=True)
    start = time.monotonic()
    traj = run(comp)
    [outcome] = run_checks(comp, traj, ["lower"])
    elapsed = time.monotonic() - start
    R = measured_forcing_bound(comp, traj)
    env = lower_bound_ode(comp, traj, R)
    margin = float(np.min(traj.records["min_theta"] - (1.0 - 1e-6) * env))
    closed = np.max(np.abs(env - closed_form_envelope(
        comp.model, float(np.min(traj.thetas[0])), R, traj.records["t"],
        comp.config.rho)))
    ok = (outcome.passed and margin >= 0.0 and closed <= 1e-8
          and elapsed < 10.0)
    report(term, 4, "temperature lower bound", ok)
    assert outcome.passed
    assert margin >= 0.0
    assert closed <= 1e-8
    assert elapsed < 10.0


def test_acceptance_5_truncation(term, short_run):
    comp, traj = short_run
    start = time.monotonic()
    diffs = truncation_inactivity(comp, traj, factor=2.0, tol=1e-12)
    res = calibrate_rho(1.0, 1)

    def substitution(rho):
        return (1.0 + math.log(rho)) ** 6 <= rho / 2.0

    elapsed = time.monotonic() - start
    ok = (diffs[2] is None
          and 1e6 <= res.rho_star <= 1e9
          and substitution(res.rho_star)
          and not substitution(res.rho_star / 1.01)
          and elapsed < 60.0)
    report(term, 5, "truncation and calibration", ok)
    assert diffs[2] is None, diffs
    assert substitution(res.rho_star)
    assert not substitution(res.rho_star / 1.01)
    assert elapsed < 60.0


def test_acceptance_6_generic_structure(term):
    grid = build_grid(1, [1.0], [32])
    model = build_model("two_phase_power", alpha=1)
    boundary = BoundaryData(grid, 0.0, 1.0)
    start = time.monotonic()
    defects = generic_check(model, grid, boundary,
                            IndicatorBox([0.0], [1.0]).domain_sample(64),
                            n_samples=100)
    elapsed = time.monotonic() - start
    ok = all(v <= 1e-13 for v in defects) and elapsed < 1.0
    report(term, 6, "generic structure", ok)
    assert ok, defects


def test_acceptance_7_inclusion_stability(term):
    resolved = resolve_config({})
    start = time.monotonic()
    rows = run_study("inclusion-dependence", resolved)
    elapsed = time.monotonic() - start
    lips = [r["value"] for r in rows if r["quantity"] == "lipschitz"]
    gaps = [r["value"] for r in rows if r["quantity"] == "rate_gap"]
    mono = [r["value"] for r in rows
            if r["quantity"] == "rate_gap_monotone"]
    lo, hi = min(lips), max(lips)
    ok = (hi <= 1.5 * lo
          and mono and mono[0] == 1.0
          and gaps[-1] < 1e-4
          and elapsed < 10.0)
    report(term, 7, "inclusion stability", ok)
    assert hi <= 1.5 * lo, lips
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-4
    assert elapsed < 10.0


def test_acceptance_8_continuous_dependence(term):
    comp = two_phase_components(cells=16, horizon=0.25, dt=2e-3,
                                uniqueness=True)
    start = time.monotonic()
    base = run(comp)
    r1 = continuous_dependence(comp, 1e-3, base)
    r2 = continuous_dependence(comp, 5e-4, base)
    elapsed = time.monotonic() - start
    ok = (r1.ratio <= 2.0 * r2.ratio and r2.ratio <= 2.0 * r1.ratio
          and elapsed < 60.0)
    report(term, 8, "continuous dependence", ok)
    assert ok, (r1.ratio, r2.ratio, elapsed)


def test_acceptance_9_local_limit(term):
    from nlpf.longrange import local_limit_nu

    resolved = resolve_config({})
    start = time.monotonic()
    nu = local_limit_nu(1)
    rows = run_study("local-limit", resolved)
    elapsed = time.monotonic() - start
    errs = [r["rel_error"] for r in rows]
    ok = (abs(nu - 2.0 / 3.0) <= 1e-6
          and errs == sorted(errs, reverse=True)
          and errs[-1] <= 0.10
          and elapsed < 30.0)
    report(term, 9, "local limit", ok)
    assert abs(nu - 2.0 / 3.0) <= 1e-6
    assert errs == sorted(errs, reverse=True), errs
    assert errs[-1] <= 0.10, errs
    assert elapsed < 30.0


def test_acceptance_10_thermo_consistency(term):
    model = build_model("two_phase_power", alpha=1)
    start = time.monotonic()
    th = np.linspace(0.05, 10.0, 50)
    worst = 0.0
    for c in np.linspace(0.0, 1.0, 10):
        chi = np.full((50, 1), c)
        w = model.e(th, chi)
        back = inverse_temperature(model, w, chi, tol=1e-13)
        worst = max(worst, float(np.max(np.abs(back - th))))
    chi0 = np.zeros((1, 1))
    spots = (
        abs(model.e(np.array([1.0]), chi0)[0] - (1.0 - math.log(2.0))),
        abs(model.s(np.array([1.0]), chi0)[0] - math.log(2.0)),
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and max(spots) <= 1e-12 and elapsed < 1.0
    report(term, 10, "thermodynamic consistency", ok)
    assert worst <= 1e-10
    assert max(spots) <= 1e-12
    assert elapsed < 1.0
