"""Post-hoc verification: budgets, envelopes, calibration, invariants."""

import math
import time
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from nlpf.diagnostics import (CHECKS, DEFAULT_CHECKS, calibrate_rho,
                              continuous_dependence, energy_figure,
                              generic_check, lower_bound_ode,
                              measured_forcing_bound, moser_exponent,
                              regularity_indicator, run_checks,
                              truncation_inactivity)
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


def check(comp, traj, name):
    """The named check's CheckOutcome on ``traj``."""
    [outcome] = run_checks(comp, traj, [name])
    return outcome


def lower_margin(traj, env):
    """The lower check's margin of the computed minima over ``env``."""
    return float(np.min(traj.records["min_theta"] - (1.0 - 1e-6) * env))


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
    label, drift, bound = energy_figure(comp, traj)
    assert (label, bound) == ("relative drift", 1e-6)
    assert drift <= 1e-6
    assert check(comp, traj, "energy").detail == f"relative drift {drift:.3e}"


def test_energy_budget_robin_equilibrium():
    comp = equilibrium_components()
    traj = run(comp)
    label, residual, _ = energy_figure(comp, traj)
    # nothing moves, so each step budget closes to machine precision
    assert label == "max step residual"
    assert residual <= 1e-12
    assert check(comp, traj, "energy").passed


def test_entropy_production(short_run):
    comp, traj = short_run
    outcome = check(comp, traj, "entropy")
    assert outcome.passed
    face_max = float(np.max(traj.records["face_pairing_max"]))
    assert face_max <= 0.0
    assert outcome.detail.endswith(f"face pairing max {face_max:.3e}")


def test_entropy_equilibrium_is_exact():
    comp = equilibrium_components()
    traj = run(comp)
    rec = traj.records
    totals = np.append(rec["start_entropy"][:1], rec["total_entropy"])
    assert np.min(np.diff(totals)) >= -1e-14
    assert np.min(rec["entropy_residual_min"]) >= -1e-14
    assert check(comp, traj, "entropy").passed


def test_lower_bound_holds(short_run):
    comp, traj = short_run
    R = measured_forcing_bound(comp, traj)
    env = lower_bound_ode(comp, traj, R)
    margin = lower_margin(traj, env)
    assert margin >= 0.0
    assert R > 0.0
    assert check(comp, traj, "lower").detail \
        == f"min margin {margin:.3e} at measured R {R:.4f}"
    ref = closed_form_envelope(comp.model, float(np.min(traj.thetas[0])), R,
                               traj.records["t"], comp.config.rho)
    assert np.max(np.abs(env - ref)) <= 1e-8


def test_lower_bound_synthetic_decay():
    """Forcing bound R = 2, mu0 = 1, w0 = 1: the envelope at t = 1 must hit
    exp(-1) whatever path the integrator takes."""
    comp = two_phase_components(cells=4, horizon=1.0, dt=0.05)
    traj = run(comp)
    env = lower_bound_ode(comp, traj, 2.0)
    idx = np.argmin(np.abs(traj.records["t"] - 1.0))
    assert traj.records["t"][idx] == pytest.approx(1.0, abs=1e-12)
    expected = float(np.min(traj.thetas[0])) * math.exp(-1.0)
    assert env[idx] == pytest.approx(expected, rel=1e-8)


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
    env = lower_bound_ode(comp, traj, 2.0)
    w0 = float(np.min(traj.thetas[0]))
    ref = rk4_envelope(comp.model, w0, 2.0, comp.config.rho,
                       traj.records["t"], comp.config.dt)
    assert ref[-1] < 0.13 * w0
    assert np.allclose(env, ref, rtol=1e-9, atol=0.0)
    ref = uncut_envelope(comp.model, w0, 2.0, comp.config.rho,
                         traj.records["t"])
    assert np.allclose(env, ref, rtol=1e-11, atol=0.0)


def test_lower_envelope_across_the_cap_matches_uncut_envelope():
    """A start above the cap (rho = 1, theta0 + 1) puts the kink of
    mu_rho at w = rho inside the envelope's range, where the quadrature is
    split: the envelope is DOP853's uncut one to 1e-11 relative (measured
    3.5e-12, DOP853's own error: the envelope lies within 5e-16 of the
    exact two-piece solution)."""
    comp = two_phase_components(cells=4, horizon=1.0, dt=0.05, rho=1.0)
    comp = replace(comp, theta0=comp.theta0 + 1.0)
    traj = run(comp)
    env = lower_bound_ode(comp, traj, 4.0)
    w0 = float(np.min(traj.thetas[0]))
    ref = uncut_envelope(comp.model, w0, 4.0, comp.config.rho,
                         traj.records["t"])
    assert w0 > comp.config.rho > ref[-1]
    assert np.allclose(env, ref, rtol=1e-11, atol=0.0)


def test_lower_envelope_without_forcing_is_w0():
    """decoupled_smoke.cfg has no forcing, R = 0: the envelope is w0 bit for
    bit, with no division by R^2 on the way."""
    comp, traj = config_run("decoupled_smoke.cfg")
    R = measured_forcing_bound(comp, traj)
    assert R == 0.0
    assert np.all(lower_bound_ode(comp, traj, R) == np.min(traj.thetas[0]))


def test_lower_envelope_unsolvable_raises():
    """A forcing bound that is not a number leaves Newton without a root:
    a NumericalError, not an envelope."""
    comp, traj = config_run("default.cfg")
    with pytest.raises(NumericalError, match="lower envelope"):
        lower_bound_ode(comp, traj, math.nan)


def test_lower_envelope_ends_in_bounded_time():
    """A forcing bound of 100 takes the uncut envelope of the default.cfg
    run into the subnormal range, where it used to integrate for minutes;
    it now stops at 1e-3 of the smallest computed minimum, holds there and
    gives its verdict within a second."""
    comp, traj = config_run("default.cfg")
    start = time.monotonic()
    env = lower_bound_ode(comp, traj, 100.0)
    assert time.monotonic() - start < 1.0
    cut = 1e-3 * min(float(np.min(traj.thetas[0])),
                     float(np.min(traj.records["min_theta"])))
    held = env == cut
    assert held[-1] and np.all(held[np.argmax(held):])
    assert lower_margin(traj, env) >= 0.0


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
    w0 = float(np.min(traj.thetas[0]))
    cut = 1e-3 * min(w0, float(np.min(traj.records["min_theta"])))
    measured = measured_forcing_bound(comp, traj)
    for R in (measured,
              2.0 * math.sqrt(model.mu0 * math.log(1e6) / times[-1])):
        env = lower_bound_ode(comp, traj, R)
        ref = closed_form_envelope(model, w0, R, times, rho)
        above = ref > cut
        assert np.all(np.abs(env[above] - ref[above]) <= 1e-12 * ref[above])
        assert np.all(env[~above] == cut)
        verdict = lower_margin(traj, ref) >= 0.0
        assert (lower_margin(traj, env) >= 0.0) == verdict
        if R == measured:
            assert check(comp, traj, "lower").passed == verdict
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
        check(comp, traj, "envelope")


def test_upper_envelope_regularised():
    """The barrier starts at v0, the largest initial temperature, and rises
    at n M, M the largest phase source of the rows: its margin is the one
    the check reports, and a maximum just above it at the last row FAILs."""
    comp = two_phase_components(cells=8, horizon=0.2, dt=0.01, n_reg=4)
    traj = run(comp)
    v0 = float(np.max(traj.thetas[0]))
    M = float(np.max(traj.records["source_max"]))
    assert M > 0.0
    rec = traj.records
    barrier = (1.0 + 1e-6) * (v0 + comp.config.n_reg * M * rec["t"])
    margin = float(np.min(barrier - rec["max_theta"]))
    outcome = check(comp, traj, "envelope")
    assert outcome.passed and margin >= 0.0
    assert outcome.detail == f"min margin {margin:.3e}"
    over = rec.copy()
    over["max_theta"][-1] = barrier[-1] * (1.0 + 1e-12)
    assert not check(comp, replace(traj, records=over), "envelope").passed


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
    dth, _, first = truncation_inactivity(comp, traj)
    assert dth == 0.0
    assert first is None
    assert check(comp, traj, "truncation").passed


def test_truncation_detects_active_cap():
    comp = two_phase_components(cells=8, horizon=0.1, dt=0.01, rho=1.1)
    traj = run(comp)
    _, _, first = truncation_inactivity(comp, traj)
    assert first is not None
    assert not check(comp, traj, "truncation").passed


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
    ident, degen, cond = generic_check(model, grid, boundary, UNIT_SAMPLE)
    assert ident <= 1e-13
    assert degen <= 1e-13
    assert cond <= 1e-13
    assert check(two_phase_components(cells=8), None, "generic").passed


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
    assert generic_check(model, grid, boundary, UNIT_SAMPLE)[2] > 1e-3
    # the check itself, which reads no trajectory
    outcome = check(two_phase_components(cells=8), None, "generic")
    assert not outcome.passed
    assert outcome.detail.startswith("identity ")


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
    rate, h1 = regularity_indicator(comp_u, traj_u)
    assert math.isfinite(rate)
    assert math.isfinite(h1)
    assert rate >= 0.0
    assert check(comp_u, traj_u, "regularity").detail \
        == f"rate L2^2 {rate:.3e}, K gradient max {h1:.3e}"


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
    known = ("energy, entropy, selection, pairing, lower, truncation, "
             "generic, envelope, regularity")
    with pytest.raises(ConfigError, match=f"unknown check 'nope'; known: "
                                          f"{known}$"):
        run_checks(comp, traj, ["energy", "nope"])
    assert DEFAULT_CHECKS == tuple(CHECKS)[:5] == (
        "energy", "entropy", "selection", "pairing", "lower")


def test_run_checks_refuses_unknown_name_before_any_check_runs(
        short_run, monkeypatch):
    comp, traj = short_run
    calls = []
    monkeypatch.setitem(CHECKS, "energy",
                        lambda *args: calls.append(args) or (True, ""))
    with pytest.raises(ConfigError, match="unknown check 'bogus'; known: "):
        run_checks(comp, traj, ("energy", "bogus"))
    assert calls == []
    run_checks(comp, traj, ("energy",))
    assert len(calls) == 1


@pytest.mark.parametrize("make, name, match", [
    (two_phase_components, "envelope", "regularized scheme"),
    (two_phase_components, "regularity", "uniqueness mode"),
    (lambda: two_phase_components(gamma=1.0), "generic", "insulated"),
    (lambda: build_components(load_config(CONFIGS / "simplex_plate.cfg"))[0],
     "generic", "scalar order parameter")],
    ids=["envelope-unregularised", "regularity-chi-conductivity",
         "generic-robin", "generic-vector"])
def test_run_checks_refuses_a_check_outside_its_mode_before_any_check_runs(
        make, name, match, monkeypatch):
    """A check that does not fit the run's mode is refused with its
    ModeError before the checks named ahead of it run: a monkeypatched
    truncation rerun is never called."""
    calls = []
    monkeypatch.setitem(CHECKS, "truncation",
                        lambda *args: calls.append(args) or (True, ""))
    with pytest.raises(ModeError, match=match):
        run_checks(make(), None, ("truncation", name))
    assert calls == []
