"""Post-hoc verification: budgets, envelopes, calibration, invariants."""

import math
import time
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from nlpf.diagnostics import (DEFAULT_CHECKS, calibrate_rho,
                              continuous_dependence, energy_budget,
                              entropy_production, generic_check,
                              lower_bound_ode, measured_forcing_bound,
                              moser_exponent, regularity_indicator,
                              run_checks, truncation_inactivity,
                              upper_envelope)
from nlpf.config import build_components, load_config
from nlpf.convex import IndicatorBox
from nlpf.errors import ConfigError, ModeError, NumericalError
from nlpf.geometry import BoundaryData, build_grid
from nlpf.longrange import ConstantKernel, QuadraticG, build_coupling
from nlpf.stepper import (RunComponents, SolverConfig, Trajectory, run,
                          replay_records)
from nlpf.thermo import build_model

from conftest import two_phase_components
from ode_oracle import closed_form_envelope, rk4_envelope, uncut_envelope


UNIT_SAMPLE = IndicatorBox([0.0], [1.0]).domain_sample(64)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@cache
def config_run(name):
    """A shipped config and its run, shared by the tests that read it."""
    comp, _ = build_components(load_config(CONFIGS / name))
    return comp, run(comp)


def equilibrium_components():
    """Uniform state matched to the reservoir: nothing should move."""
    grid = build_grid(1, [1.0], [8])
    model = build_model("decoupled_power")
    potential = IndicatorBox(np.zeros(1), np.ones(1))
    coupling = build_coupling(grid, ConstantKernel(0.0), QuadraticG(), 1.0)
    boundary = BoundaryData(grid, 1.0, 1.0)
    theta0 = np.ones(8)
    chi0 = np.full((8, 1), 0.5)
    config = SolverConfig(dt=0.01, horizon=0.1, rho=100.0)
    return RunComponents(grid, model, potential, coupling, boundary,
                         theta0, chi0, config)


def test_energy_budget_insulated(short_run):
    comp, traj = short_run
    rep = energy_budget(comp, traj)
    assert rep.relative_drift <= 1e-6


def test_energy_budget_robin_equilibrium():
    comp = equilibrium_components()
    traj = run(comp)
    rep = energy_budget(comp, traj)
    # nothing moves, so each step budget closes to machine precision
    assert np.max(np.abs(rep.step_residuals)) <= 1e-12


def test_entropy_production(short_run):
    comp, traj = short_run
    rep = entropy_production(comp, traj)
    assert rep.monotone
    assert rep.local_ok
    assert rep.face_pairing_max <= 0.0


def test_entropy_equilibrium_is_exact():
    comp = equilibrium_components()
    traj = run(comp)
    rep = entropy_production(comp, traj)
    assert rep.global_defect_min >= -1e-14
    assert rep.cell_residual_min >= -1e-14


def test_lower_bound_holds(short_run):
    comp, traj = short_run
    rep = lower_bound_ode(comp, traj)
    assert rep.holds
    assert rep.min_margin >= 0.0
    assert rep.measured_R > 0.0
    ref = closed_form_envelope(comp.model, rep.w0, rep.measured_R,
                               traj.records["t"], comp.config.rho)
    assert np.max(np.abs(rep.envelope - ref)) <= 1e-8


def test_lower_bound_synthetic_decay():
    """Forcing bound R = 2, mu0 = 1, w0 = 1: the envelope at t = 1 must hit
    exp(-1) whatever path the integrator takes."""
    comp = two_phase_components(cells=4, horizon=1.0, dt=0.05)
    traj = run(comp)
    rep = lower_bound_ode(comp, traj, forcing_bound=2.0)
    assert rep.w0 == pytest.approx(float(np.min(traj.thetas[0])))
    idx = np.argmin(np.abs(traj.records["t"] - 1.0))
    assert traj.records["t"][idx] == pytest.approx(1.0, abs=1e-12)
    expected = rep.w0 * math.exp(-1.0)
    assert rep.envelope[idx] == pytest.approx(expected, rel=1e-8)


def test_lower_bound_matches_rk4_oracle_alpha2():
    """alpha = 2 has no explicit solution, and g = mu c~ / w is not constant,
    so Newton takes more than one step.  On a forcing bound strong enough to
    take the envelope down to an eighth of w0, the envelope agrees with a
    fixed-step RK4 at a quarter of the run's step to 1e-9, and with DOP853's
    uncut envelope to 1e-11 (measured 7.9e-13, DOP853's own error: the two
    lie 3e-15 and 7.9e-13 from the exact arctan-log solution)."""
    comp = two_phase_components(cells=4, horizon=1.0, dt=0.05)
    comp = replace(comp, model=build_model("two_phase_power", alpha=2))
    traj = run(comp)
    rep = lower_bound_ode(comp, traj, forcing_bound=2.0)
    ref = rk4_envelope(comp.model, rep.w0, 2.0, comp.config.rho,
                       traj.records["t"], comp.config.dt)
    assert ref[-1] < 0.13 * rep.w0
    assert np.allclose(rep.envelope, ref, rtol=1e-9, atol=0.0)
    ref = uncut_envelope(comp.model, rep.w0, 2.0, comp.config.rho,
                         traj.records["t"])
    assert np.allclose(rep.envelope, ref, rtol=1e-11, atol=0.0)


def test_lower_envelope_across_the_cap_matches_uncut_envelope():
    """A start above the cap (rho = 1, theta0 + 1) puts the kink of
    mu_rho at w = rho inside the envelope's range, where the quadrature is
    split: the envelope is DOP853's uncut one to 1e-11 relative (measured
    3.5e-12, DOP853's own error: the envelope lies within 5e-16 of the
    exact two-piece solution)."""
    comp = two_phase_components(cells=4, horizon=1.0, dt=0.05, rho=1.0)
    comp = replace(comp, theta0=comp.theta0 + 1.0)
    traj = run(comp)
    rep = lower_bound_ode(comp, traj, forcing_bound=4.0)
    ref = uncut_envelope(comp.model, rep.w0, 4.0, comp.config.rho,
                         traj.records["t"])
    assert rep.w0 > comp.config.rho > ref[-1]
    assert np.allclose(rep.envelope, ref, rtol=1e-11, atol=0.0)


def test_lower_envelope_without_forcing_is_w0():
    """decoupled_smoke.cfg has no forcing, R = 0: the envelope is w0 bit for
    bit, with no division by R^2 on the way."""
    comp, traj = config_run("decoupled_smoke.cfg")
    rep = lower_bound_ode(comp, traj)
    assert rep.measured_R == 0.0
    assert np.all(rep.envelope == rep.w0)


def test_lower_envelope_unsolvable_raises():
    """A forcing bound that is not a number leaves Newton without a root:
    a NumericalError, not an envelope."""
    comp, traj = config_run("default.cfg")
    with pytest.raises(NumericalError, match="lower envelope"):
        lower_bound_ode(comp, traj, forcing_bound=math.nan)


def test_lower_envelope_ends_in_bounded_time():
    """A forcing bound of 100 takes the uncut envelope of the default.cfg
    run into the subnormal range, where it used to integrate for minutes;
    it now stops at 1e-3 of the smallest computed minimum, holds there and
    gives its verdict within a second."""
    comp, traj = config_run("default.cfg")
    start = time.monotonic()
    rep = lower_bound_ode(comp, traj, forcing_bound=100.0)
    assert time.monotonic() - start < 1.0
    cut = 1e-3 * min(rep.w0, float(np.min(traj.records["min_theta"])))
    held = rep.envelope == cut
    assert held[-1] and np.all(held[np.argmax(held):])
    assert rep.holds


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_lower_envelope_cut_keeps_the_envelope(name):
    """On every shipped config, at the measured forcing bound and at one
    that ends the uncut envelope at 1e-6 of w0, the envelope is the exact
    uncut one to 1e-12 wherever that lies above the cut-off, the cut-off
    itself below it, and the verdict is the same."""
    comp, traj = config_run(name)
    model, rho, times = comp.model, comp.config.rho, traj.records["t"]
    # every shipped model has alpha = 1, where w decays as
    # w0 exp(-R^2 t / (4 mu0)) (see closed_form_envelope)
    for R in (None, 2.0 * math.sqrt(model.mu0 * math.log(1e6) / times[-1])):
        rep = lower_bound_ode(comp, traj, forcing_bound=R)
        ref = closed_form_envelope(model, rep.w0, rep.measured_R, times, rho)
        cut = 1e-3 * min(rep.w0, float(np.min(traj.records["min_theta"])))
        above = ref > cut
        assert np.all(np.abs(rep.envelope[above] - ref[above])
                      <= 1e-12 * ref[above])
        assert np.all(rep.envelope[~above] == cut)
        margins = traj.records["min_theta"] - (1.0 - 1e-6) * ref
        assert rep.holds == bool(np.min(margins) >= 0.0)
    assert not above[-1]


def test_chi_tampered_trajectory_gets_its_verdict():
    """Frame 500 of the default.cfg run with chi lowered by 0.1 in cell 10,
    its records replayed: the measured forcing bound is about 100, the
    lower envelope ends in bounded time with PASS, and energy, entropy and
    selection FAIL."""
    comp, traj = config_run("default.cfg")
    chis = traj.chis.copy()
    chis[500, 10, 0] -= 0.1
    tampered = Trajectory(traj.times, traj.thetas, chis,
                          replay_records(comp, traj.thetas, chis))
    start = time.monotonic()
    outcomes = run_checks(comp, tampered, DEFAULT_CHECKS)
    assert time.monotonic() - start < 5.0
    assert {oc.name: oc.passed for oc in outcomes} == {
        "energy": False, "entropy": False, "selection": False,
        "pairing": True, "lower": True}
    assert measured_forcing_bound(comp, tampered) == pytest.approx(100.15,
                                                                   abs=0.01)


def test_measured_forcing_bound_positive(short_run):
    comp, traj = short_run
    R = measured_forcing_bound(comp, traj)
    assert 0.0 < R < 10.0


def test_upper_envelope_needs_regularisation(short_run):
    comp, traj = short_run
    with pytest.raises(ModeError):
        upper_envelope(comp, traj)


def test_upper_envelope_regularised():
    comp = two_phase_components(cells=8, horizon=0.2, dt=0.01, n_reg=4)
    traj = run(comp)
    rep = upper_envelope(comp, traj)
    assert rep.holds
    assert rep.v0 >= float(np.max(traj.thetas[0]))
    assert rep.measured_M >= 0.0


def test_moser_exponent():
    assert moser_exponent(1) == 6
    assert moser_exponent(2) == 8


def test_calibration_oracle():
    res = calibrate_rho(1.0, 1)
    assert 1e6 <= res.rho_star <= 1e9
    assert res.rho_star == pytest.approx(1.107854e8, rel=1e-3)

    def ok(rho):
        return 1.0 * (1.0 + math.log(rho)) ** 6 <= rho / 2.0

    assert ok(res.rho_star)
    assert not ok(res.rho_star / 1.01)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("c_star", [0.5, 1.0, 50.0])
def test_calibration_brackets_by_doubling(c_star, dim):
    """The substitution holds at rho_star and fails 1% below it, found in
    a few dozen evaluations (a doubling bracket, then bisection)."""
    res = calibrate_rho(c_star, dim)
    p = moser_exponent(dim)

    def ok(rho):
        return c_star * (1.0 + math.log(rho)) ** p <= rho / 2.0

    assert ok(res.rho_star)
    assert res.rho_star == 1.0 or not ok(res.rho_star / 1.01)
    assert res.evaluations <= 64


def test_calibration_monotone_in_constant():
    r1 = calibrate_rho(1.0, 1).rho_star
    r2 = calibrate_rho(2.0, 1).rho_star
    assert r2 > r1
    with pytest.raises(ConfigError):
        calibrate_rho(-1.0, 1)
    for dim in (0, 3, 7, -3):
        with pytest.raises(ConfigError, match="dimension"):
            calibrate_rho(1.0, dim)


def test_truncation_inactive(short_run):
    comp, traj = short_run
    rep = truncation_inactivity(comp, traj)
    assert rep.inactive
    assert rep.max_theta_diff == 0.0
    assert rep.first_divergent_step is None


def test_truncation_detects_active_cap():
    comp = two_phase_components(cells=8, horizon=0.1, dt=0.01, rho=1.1)
    traj = run(comp)
    rep = truncation_inactivity(comp, traj)
    assert not rep.inactive
    assert rep.first_divergent_step is not None


def test_continuous_dependence_requires_uniqueness(short_run):
    comp, traj = short_run
    with pytest.raises(ModeError):
        continuous_dependence(comp, 1e-3, traj)


def test_continuous_dependence_ratio():
    comp = two_phase_components(cells=8, horizon=0.1, dt=0.01,
                                uniqueness=True)
    base = run(comp)
    rep = continuous_dependence(comp, 1e-3, base)
    assert rep.lhs > 0.0 and rep.rhs > 0.0
    rep2 = continuous_dependence(comp, 5e-4, base)
    assert rep.ratio == pytest.approx(rep2.ratio, rel=0.5)


def test_generic_identities():
    grid = build_grid(1, [1.0], [8])
    model = build_model("two_phase_power", alpha=1)
    boundary = BoundaryData(grid, 0.0, 1.0)
    rep = generic_check(model, grid, boundary, UNIT_SAMPLE)
    assert rep.ok()
    assert rep.identity_max <= 1e-13
    assert rep.degeneracy_max <= 1e-13
    assert rep.conduction_null <= 1e-13


def test_generic_check_catches_unbalanced_row(monkeypatch):
    """Scaling one row of the conduction operator keeps every row sum zero,
    so constants are still annihilated, but the volume-weighted total of
    A theta no longer vanishes: the check must fail."""
    from nlpf import diagnostics

    grid = build_grid(1, [1.0], [8])
    model = build_model("two_phase_power", alpha=1)
    boundary = BoundaryData(grid, 0.0, 1.0)
    real = diagnostics.conduction_operator

    def unbalanced(*args):
        op = real(*args)
        balanced = op.apply

        def apply(theta):
            out = balanced(theta)
            out[3] *= 2.0
            return out

        op.apply = apply
        return op

    monkeypatch.setattr(diagnostics, "conduction_operator", unbalanced)
    rep = generic_check(model, grid, boundary, UNIT_SAMPLE)
    assert not rep.ok()
    assert rep.conduction_null > 1e-3


def test_generic_check_demands_insulation():
    grid = build_grid(1, [1.0], [8])
    model = build_model("two_phase_power", alpha=1)
    with pytest.raises(ModeError):
        generic_check(model, grid, BoundaryData(grid, 1.0, 1.0), UNIT_SAMPLE)
    model2 = build_model("multi_phase_power", d=2)
    with pytest.raises(ModeError):
        generic_check(model2, grid, BoundaryData(grid, 0.0, 1.0),
                      UNIT_SAMPLE)


def test_regularity_indicator_modes(short_run):
    comp, traj = short_run
    with pytest.raises(ModeError):
        regularity_indicator(comp, traj)
    comp_u = two_phase_components(cells=8, horizon=0.1, dt=0.01,
                                  uniqueness=True)
    traj_u = run(comp_u)
    rep = regularity_indicator(comp_u, traj_u)
    assert math.isfinite(rep.rate_l2_sq)
    assert math.isfinite(rep.kirchhoff_h1_max)
    assert rep.rate_l2_sq >= 0.0


def test_run_checks_default_pass(short_run):
    comp, traj = short_run
    outcomes = run_checks(comp, traj)
    assert [o.name for o in outcomes] == list(DEFAULT_CHECKS)
    assert all(o.passed for o in outcomes)


def nan_after_frame_0(traj):
    """``traj`` with the temperature and phase field of every frame after
    the first set to NaN; its times and record rows are kept."""
    thetas, chis = traj.thetas.copy(), traj.chis.copy()
    thetas[1:], chis[1:] = np.nan, np.nan
    return replace(traj, thetas=thetas, chis=chis)


@pytest.mark.parametrize("kw, names", [
    ({"gamma": 1.0}, DEFAULT_CHECKS),
    ({"n_reg": 4}, ("energy", "entropy", "envelope"))],
    ids=["robin-default", "regularised-envelope"])
def test_checks_read_only_rows_and_frame_0(kw, names):
    """Every check but regularity and truncation judges the record rows,
    their times and frame 0 alone: with the later frames gone, each gives
    the verdict and detail it gives on the whole trajectory."""
    comp = two_phase_components(cells=16, horizon=0.1, dt=0.01, **kw)
    traj = run(comp)
    outcomes = run_checks(comp, traj, names)
    assert all(o.passed for o in outcomes)
    assert run_checks(comp, nan_after_frame_0(traj), names) == outcomes


def test_run_checks_unknown_name(short_run):
    comp, traj = short_run
    with pytest.raises(ConfigError):
        run_checks(comp, traj, ["energy", "nope"])
