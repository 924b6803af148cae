"""Time stepping: the two half-steps, lag tracking, and full runs."""

import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

import nlpf.stepper as stepper
from nlpf.config import build_components, parse_config_text, resolve_config
from nlpf.convex import IndicatorBox
from nlpf.errors import ConfigError, ModeError, NumericalError
from nlpf.geometry import BoundaryData, build_grid
from nlpf.longrange import NonlocalCoupling, PairFields
from nlpf.stepper import (SolverConfig, State, bound_C_ell, budget_totals,
                          cell_budget, conduction_operator, kirchhoff,
                          lag_fields, lagged_fields, phase_source,
                          replay_records, rhs_ell, run, selection, step_chi,
                          step_records, step_theta)
from nlpf.thermo import build_model

from conftest import two_phase_components


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, horizon=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, horizon=1.0, rho=0.5)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, horizon=1.0, lag_window=0)
    cfg = SolverConfig(dt=0.1, horizon=1.0, n_reg=4)
    assert cfg.eps_reg == pytest.approx(0.25)
    assert SolverConfig(dt=0.1, horizon=1.0).eps_reg == 0.0


def test_lag_previous_step():
    th, ch = lag_fields(np.array([[1.0], [2.0]]), np.array([[[0.5]], [[0.6]]]),
                        1)
    assert th.tolist() == [[1.0], [2.0]]     # step 1 at x0, step 2 at x1
    assert ch.tolist() == [[[0.5]], [[0.6]]]


def test_lag_interval_average():
    thetas = np.array([[1.0], [1.0], [3.0]])
    chis = np.array([[[0.5]], [[0.5]], [[0.7]]])
    th, ch = lag_fields(thetas[:2], chis[:2], 2)
    assert th.tolist() == [[1.0]]            # window not yet full
    th, ch = lag_fields(thetas, chis, 2)
    assert th[1, 0] == pytest.approx(2.0)    # mean of 1 and 3
    assert ch[1, 0, 0] == 0.7                # order parameter: latest value


def replay_lag(mode, window, thetas, chis):
    """Sequential oracle of the lag rule: the fields each step is frozen at,
    with the states pushed one at a time as a run accepts them."""
    bar, buffer, out = (thetas[0], chis[0]), [], []
    for theta, chi in zip(thetas[1:], chis[1:]):
        out.append(bar)
        if mode == "previous_step":
            bar = (theta, chi)
            continue
        buffer.append(theta)
        if len(buffer) == window:
            bar, buffer = (np.mean(buffer, axis=0), chi), []
    return out


@given(st.sampled_from(["previous_step", "interval_average"]),
       st.integers(1, 5), st.integers(1, 23), st.integers(0, 2 ** 31 - 1))
def test_lag_fields_matches_sequential_replay(mode, window, steps, seed):
    """The stacked lag of every step, ragged last window included, is the
    sequential replay bit for bit."""
    hypothesis.assume(window == 1 or steps % window)
    rng = np.random.default_rng(seed)
    thetas = 0.5 + rng.random((steps + 1, 7))
    chis = rng.random((steps + 1, 7, 2))
    J = window if mode == "interval_average" else 1
    th, ch = lag_fields(thetas[:-1], chis[:-1], J)
    assert len(th) == 1 + (steps - 1) // J
    for n, (want_th, want_ch) in enumerate(replay_lag(mode, window, thetas,
                                                      chis)):
        assert np.array_equal(th[n // J], want_th)
        assert np.array_equal(ch[n // J], want_ch)


def test_bound_c_ell_oracle():
    class Stub:
        C_sigma = 0.0
        C_lambda = 0.0
        beta = 1.0
        c1 = 1.0
        c_bar = 1.0

    assert bound_C_ell(Stub(), 0.0, math.e) == pytest.approx(3.0, rel=1e-15)


def test_step_chi_interior_is_explicit_euler():
    box = IndicatorBox(np.zeros(1), np.ones(1))
    chi = np.array([[0.5]])
    alpha = np.array([2.0])
    g = np.array([[0.25]])
    dt = 0.1
    chi_new = step_chi(box, chi, alpha, g, dt)
    xi = selection(chi, chi_new, alpha, g, dt)
    assert chi_new[0, 0] == pytest.approx(0.5 + dt * 0.25 / 2.0, rel=1e-15)
    assert abs(xi[0, 0]) <= 1e-15


def test_step_chi_clips_and_selects():
    box = IndicatorBox(np.zeros(1), np.ones(1))
    chi = np.array([[0.9]])
    alpha = np.array([1.0])
    g = np.array([[5.0]])
    chi_new = step_chi(box, chi, alpha, g, 0.1)
    xi = selection(chi, chi_new, alpha, g, 0.1)
    assert chi_new[0, 0] == 1.0
    # xi = g - alpha (chi' - chi)/dt = 5 - 1 = 4, a normal-cone element
    assert xi[0, 0] == pytest.approx(4.0, rel=1e-14)


def test_step_theta_single_cell_robin():
    """One insulated-interior cell with a Robin boundary: the update is a
    scalar root-find we can redo by bisection."""
    grid = build_grid(1, [1.0], [1])
    model = build_model("decoupled_power")
    boundary = BoundaryData(grid, 1.0, 2.0)
    st = State(theta=np.array([1.0]), chi=np.zeros((1, 1)), t=0.0)
    chi_new = st.chi
    zeros = np.zeros((1, 1))
    cfg = SolverConfig(dt=0.05, horizon=1.0)
    op = conduction_operator(grid, model, boundary, st.theta, st.chi)
    theta_new = step_theta(model, st, chi_new, zeros.copy(), op, 0.05, cfg)

    def residual(x):
        # e(x) - e(1) + dt * 2 gamma (x - 2) / V with V = 1, two end faces
        return (x - math.log1p(x)) - (1.0 - math.log(2.0)) \
            + 0.05 * 2.0 * (x - 2.0)

    assert theta_new[0] == pytest.approx(bisect(residual, 1.0, 2.0),
                                         abs=1e-12)
    # the operator used inside the Newton solve: no interior face, and
    # both end faces exchange through the one cell
    assert op.trans.shape == (0,)
    assert op.robin.tolist() == [2.0]
    assert op.banded(np.ones(1), 0.05).tolist() == [[1.1]]


def recording(model, name):
    """Wrap ``model.<name>`` on the instance; returns the list of the
    temperatures it is called at, one copy per call."""
    real, seen = getattr(model, name), []

    def wrapped(theta, chi):
        seen.append(np.array(theta, dtype=float))
        return real(theta, chi)

    setattr(model, name, wrapped)
    return seen


def bisect(residual, lo, hi):
    """Root of an increasing scalar ``residual`` on [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def test_step_theta_cold_start_is_monotone():
    """From a cold start far below the root, plain Newton overshoots once and
    then falls monotonically to the root: every iterate the Jacobian is
    evaluated at lies at or above the root and at or below the one before."""
    grid = build_grid(1, [1.0], [1])
    model = build_model("decoupled_power")
    boundary = BoundaryData(grid, 1.0, 100.0)
    st = State(theta=np.array([0.001]), chi=np.zeros((1, 1)), t=0.0)
    cfg = SolverConfig(dt=0.01, horizon=1.0)
    op = conduction_operator(grid, model, boundary, st.theta, st.chi)
    seen = recording(model, "cv")
    theta_new = step_theta(model, st, st.chi, np.zeros((1, 1)), op, 0.01,
                           cfg)

    def energy(x):
        return x - math.log1p(x)

    # e(x) - e(theta0) + dt * 2 gamma (x - 100) / V with V = 1
    root = bisect(lambda x: energy(x) - energy(0.001) + 0.02 * (x - 100.0),
                  0.001, 100.0)
    assert theta_new[0] == pytest.approx(root, abs=1e-12)
    iterates = [float(th[0]) for th in seen]
    assert iterates[0] == 0.001 and len(iterates) >= 3
    assert min(iterates[1:]) >= root * (1 - 1e-12)
    for before, now in zip(iterates[1:], iterates[2:]):
        assert now <= before * (1 + 1e-12)


def test_step_theta_positivity_guard():
    # a single regularised cell with a violently negative source admits a
    # negative root, and the stepper must refuse it rather than continue;
    # the energy is never evaluated at the nonpositive iterate
    grid = build_grid(1, [1.0], [1])
    model = build_model("decoupled_power")
    boundary = BoundaryData(grid, 0.0, 1.0)
    st = State(theta=np.array([1.0]), chi=np.zeros((1, 1)), t=0.0)
    cfg = SolverConfig(dt=0.01, horizon=1.0, n_reg=1)
    chi_new = np.full((1, 1), 0.5)
    b_old = np.full((1, 1), 2000.0)   # (lam' + b) . dchi makes a huge sink
    seen = recording(model, "e")
    with pytest.raises(NumericalError,
                       match=r"positivity violated at t=0\.01: .* in cell 0"):
        step_theta(model, st, chi_new, b_old,
                   conduction_operator(grid, model, boundary, st.theta,
                                       st.chi), 0.01, cfg)
    assert seen and all(np.all(th > 0.0) for th in seen)


def test_step_theta_rejects_nonfinite_source():
    """A NaN in the pair field makes the Newton residual NaN in its cell;
    the step reports it as a numerical failure at t, naming the cell."""
    grid = build_grid(1, [1.0], [4])
    model = build_model("decoupled_power")
    boundary = BoundaryData(grid, 0.0, 1.0)
    st = State(theta=np.ones(4), chi=np.full((4, 1), 0.5), t=0.25)
    b_old = np.zeros((4, 1))
    b_old[2, 0] = np.nan
    op = conduction_operator(grid, model, boundary, st.theta, st.chi)
    with pytest.raises(NumericalError, match=r"t=0\.25: .* cell 2"):
        step_theta(model, st, st.chi, b_old, op, 0.01,
                   SolverConfig(dt=0.01, horizon=1.0))


def test_run_rejects_chi_outside_domain():
    """A proximal map that leaves the set fails the step; the error names
    the step, its end time and the first bad cell."""
    comp = two_phase_components(cells=8, horizon=0.02, dt=0.01)
    box = comp.potential
    real = box.prox

    def leaky(z):
        out = real(z)
        out[3] = 1.5
        return out

    box.prox = leaky
    with pytest.raises(NumericalError, match=r"step 1: .* potential domain "
                       r"at t=0\.01 in cell 3"):
        run(comp)


def test_run_names_the_cell_over_the_pair_bound():
    """A pair field above its a priori bound fails the step, naming the
    cell of the largest |b|."""
    comp = two_phase_components(cells=8, horizon=0.02, dt=0.01)
    comp.coupling.c_b = 0.0025
    with pytest.raises(NumericalError, match=r"^step 1: pair-interaction "
                       r"bound exceeded at t=0 in cell 0: \|b\| = 3\.067e-03$"):
        run(comp)


def test_run_smoke_records_populate(short_run):
    comp, traj = short_run
    n = traj.records.shape[0]
    assert n == 250
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.25, abs=1e-12)
    assert np.all(np.isfinite(traj.records["total_energy"]))
    assert np.all(traj.records["min_theta"] > 0.0)
    assert traj.rejections == 0
    # insulated run: total energy is conserved to solver precision
    drift = abs(traj.records["total_energy"][-1]
                - traj.records["total_energy"][0])
    assert drift <= 1e-6 * max(1.0, abs(traj.records["total_energy"][0]))


def test_run_is_deterministic():
    comp = two_phase_components(cells=12, horizon=0.05, dt=5e-3)
    t1 = run(comp)
    t2 = run(two_phase_components(cells=12, horizon=0.05, dt=5e-3))
    assert np.array_equal(t1.thetas[-1], t2.thetas[-1])
    assert np.array_equal(t1.chis[-1], t2.chis[-1])
    assert np.array_equal(t1.records["total_entropy"],
                          t2.records["total_entropy"])


@functools.cache
def blocked_run(kind):
    """A run of many steps, every step stored, with each step's lagged
    fields: 100 steps of a 16-cell Robin bar with a lag window of 3, or 70
    steps of the three-phase even-polynomial case."""
    if kind == "robin-window":
        comp = two_phase_components(cells=16, horizon=0.1, dt=1e-3,
                                    gamma=1.0)
        comp.config = dataclasses.replace(
            comp.config, lag_window=3)
    else:
        comp = poly3_simplex_components()
        comp.config = dataclasses.replace(comp.config, horizon=0.07,
                                          dt=1e-3)
    traj = run(comp)
    window = comp.config.lag_window
    bar_theta, bar_chi = lag_fields(traj.thetas[:-1], traj.chis[:-1], window)
    of_step = np.arange(traj.records.size) // window
    return comp, traj, bar_theta[of_step], bar_chi[of_step]


def replay_in_chunks(comp, traj, steps):
    """replay_records on ``traj`` with chunks of ``steps`` steps."""
    with mock.patch.object(stepper, "_REPLAY_CELLS",
                           steps * comp.grid.n_cells):
        return replay_records(comp, traj.times, traj.thetas, traj.chis)


@given(st.sampled_from(["robin-window", "poly3"]),
       st.lists(st.integers(1, 40), min_size=1, max_size=30),
       st.integers(1, 40))
def test_step_records_independent_of_blocks(kind, sizes, chunk):
    """Rows computed on blocks of any sizes, 1 included, are bit for bit the
    rows of the whole stack and the rows run wrote; so are the rows
    replay_records gives in chunks of any number of steps, chunks that cut
    lag windows included."""
    comp, traj, bar_theta, bar_chi = blocked_run(kind)
    n = traj.records.size
    cuts = np.minimum(np.cumsum([0] + sizes), n)
    cuts = np.unique(np.append(cuts, n))
    window = comp.config.lag_window
    for a, b in zip(cuts[:-1], cuts[1:]):
        lagged = lagged_fields(traj.thetas, traj.chis, window, a, b)
        assert np.array_equal(lagged[0], bar_theta[a:b])
        assert np.array_equal(lagged[1], bar_chi[a:b])
    rows = np.concatenate([step_records(
        comp, traj.times, traj.thetas, traj.chis,
        comp.coupling.b_field(traj.chis[a:b + 1]), a, b)
        for a, b in zip(cuts[:-1], cuts[1:])])
    whole = step_records(comp, traj.times, traj.thetas, traj.chis,
                         comp.coupling.b_field(traj.chis), 0, n)
    chunked = replay_in_chunks(comp, traj, chunk)
    one_chunk = replay_in_chunks(comp, traj, n)
    for name in rows.dtype.names:
        assert np.array_equal(rows[name], whole[name])
        assert np.array_equal(rows[name], traj.records[name])
        assert np.array_equal(chunked[name], traj.records[name])
        assert np.array_equal(chunked[name], one_chunk[name])


def test_replay_convolves_each_state_once(monkeypatch):
    """Chunks of three steps carry the last state's fields into the next
    chunk: T + 1 states are convolved, and the rows equal one chunk's."""
    comp = two_phase_components(cells=16, horizon=0.1, dt=0.01)
    traj = run(comp)
    whole = replay_records(comp, traj.times, traj.thetas, traj.chis)
    real, states = NonlocalCoupling.b_field, []

    def counted(self, chi):
        states.append(1 if chi.ndim == 2 else len(chi))
        return real(self, chi)

    monkeypatch.setattr(NonlocalCoupling, "b_field", counted)
    chunked = replay_in_chunks(comp, traj, 3)
    assert sum(states) == traj.records.size + 1
    for name in whole.dtype.names:
        assert np.array_equal(chunked[name], whole[name])


def test_run_holds_one_copy(monkeypatch):
    """run writes each state into the trajectory's arrays as it accepts it,
    so its peak allocation stays near one copy of the returned states; a
    list of states stacked at the end holds two."""
    monkeypatch.setattr(stepper, "_REPLAY_CELLS", 8 * 256)
    comp = two_phase_components(cells=256, horizon=0.2, dt=1e-3)
    tracemalloc.start()
    try:
        traj = run(comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (traj.times, traj.thetas, traj.chis))
    assert peak <= 1.6 * held


def test_run_ragged_final_step():
    comp = two_phase_components(cells=8, horizon=0.35, dt=0.1)
    traj = run(comp)
    assert traj.records.shape[0] == 4
    assert traj.times[-1] == pytest.approx(0.35, abs=1e-12)


def test_run_validates_initial_data():
    comp = two_phase_components(cells=8, horizon=0.1, dt=0.05)
    comp.theta0 = comp.theta0.copy()
    comp.theta0[3] = -0.2
    with pytest.raises(ConfigError):
        run(comp)
    comp2 = two_phase_components(cells=8, horizon=0.1, dt=0.05)
    comp2.chi0 = comp2.chi0.copy()
    comp2.chi0[2, 0] = 1.7
    with pytest.raises(ConfigError):
        run(comp2)


def test_failed_step_is_an_error(monkeypatch):
    """A step that fails is not retried: run raises, naming the step."""
    real, calls = stepper.step_theta, []

    def flaky(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalError("synthetic overshoot")
        return real(*args)

    monkeypatch.setattr(stepper, "step_theta", flaky)
    with pytest.raises(NumericalError, match=r"^step 2: synthetic overshoot"):
        run(two_phase_components(cells=8, horizon=0.05, dt=0.01))
    assert len(calls) == 2


def test_kirchhoff_requires_uniqueness_mode():
    model = build_model("two_phase_power", alpha=1)
    with pytest.raises(ModeError):
        kirchhoff(model, np.array([1.0]))


def test_kirchhoff_closed_form_and_quadrature():
    """K(theta) = 2 theta - log(1 + theta): the closed-form primitive agrees
    with the integral of k = 2 - 1/(1 + theta), by hand and by quadrature."""
    model = build_model("two_phase_power", alpha=1, uniqueness_mode=True)
    val = kirchhoff(model, np.array([2.0]))
    assert val[0] == pytest.approx(4.0 - math.log(3.0), rel=1e-12)
    chi = np.zeros((1, 1))
    quad, _ = integrate.quad(lambda s: float(model.k(np.array([s]), chi)[0]),
                             0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    assert val[0] == pytest.approx(quad, rel=1e-12)


def poly3_simplex_components():
    """16-cell bar, three-phase simplex with the even-polynomial pair term."""
    return build_components(resolve_config({
        "grid.cells": "16", "thermo.model": "multi_phase_power",
        "thermo.components": "3", "potential.kind": "simplex",
        "interaction.kind": "even_polynomial", "interaction.coeffs": "1,0.5",
        "init.chi.kind": "bump", "init.chi.base": "0.2",
        "init.chi.amplitude": "0.1", "init.theta.kind": "bump",
        "init.theta.amplitude": "0.2", "solver.dt": "0.01",
        "solver.horizon": "0.05", "solver.rho": "100"}))[0]


@pytest.mark.parametrize("make", [
    lambda: two_phase_components(cells=16, horizon=0.05, dt=0.01, n_reg=4),
    poly3_simplex_components], ids=["two-phase-regularised", "poly3-simplex"])
def test_stack_matches_per_state(make):
    """Row n of each per-cell function on the snapshot stack, and of the
    totals, is what it gives on snapshot n alone.  The run records the
    largest phase source of a step only when it is regularised, for the
    envelope check, and the empty maximum otherwise."""
    comp = make()
    traj = run(comp)
    model, eps = comp.model, comp.config.eps_reg
    th, ch = traj.thetas, traj.chis
    stack = comp.coupling.b_field(ch)
    b, B = stack.b, stack.B
    dts = np.diff(traj.times)
    E, S = cell_budget(model, th, ch, B, eps)
    alpha, g = rhs_ell(model, th, ch, b, comp.config.rho)
    xi = selection(ch[:-1], ch[1:], alpha[:-1], g[:-1], dts[:, None, None])
    src = phase_source(model, ch[:-1], ch[1:], b[:-1], dts[:, None])
    unique = build_model("two_phase_power", uniqueness_mode=True)
    kv = kirchhoff(unique, th)
    tot_E, tot_S = budget_totals(comp.grid.volumes, E, S)
    assert np.all(traj.records["source_max"] == (
        np.abs(src).max(-1) if comp.config.n_reg else -np.inf))
    for n in range(len(traj.times)):
        E_n, S_n = cell_budget(model, th[n], ch[n], B[n], eps)
        a_n, g_n = rhs_ell(model, th[n], ch[n], b[n], comp.config.rho)
        assert np.array_equal(E[n], E_n) and np.array_equal(S[n], S_n)
        assert np.array_equal(alpha[n], a_n) and np.array_equal(g[n], g_n)
        assert np.array_equal(kv[n], kirchhoff(unique, th[n]))
        e_n, s_n = budget_totals(comp.grid.volumes, E_n, S_n)
        assert tot_E[n] == e_n and tot_S[n] == s_n
        if n + 1 < len(traj.times):
            assert np.array_equal(xi[n], selection(ch[n], ch[n + 1], a_n,
                                                   g_n, dts[n]))
            assert np.array_equal(src[n], phase_source(
                model, ch[n], ch[n + 1], b[n], dts[n]))


def test_pairing_residual_independent_of_layout():
    """The pairing sums of the poly3 stack, whose b and Kw chi are views
    across the convolved (T, d, M) columns, are bit for bit those of
    C-contiguous copies of the same fields, the layout run stores."""
    comp = poly3_simplex_components()
    traj = run(comp)
    stack = comp.coupling.b_field(traj.chis)
    copies = PairFields(*(np.ascontiguousarray(v)
                          for v in vars(stack).values()))
    dt = np.diff(traj.times)
    for got, want in zip(comp.coupling.pairing_residual(stack, dt),
                         comp.coupling.pairing_residual(copies, dt)):
        assert np.array_equal(got, want)


def default_physics(config="default.cfg", **overrides):
    """A shipped config, configs/default.cfg unless named, with some keys
    replaced, as run components."""
    path = Path(__file__).resolve().parents[1] / "configs" / config
    values = parse_config_text(path.read_text())
    values.update(overrides)
    return build_components(resolve_config(values))[0]


@pytest.mark.parametrize("cells", [256, 1024])
def test_default_physics_fine_bar_completes(cells):
    """Newton stops at the round-off floor instead of stalling on it; a
    relative tolerance of 1e-14 alone is out of reach at these sizes."""
    traj = run(default_physics(**{"grid.cells": str(cells),
                                  "solver.horizon": "0.01"}))
    assert traj.records.size == 10


def test_default_physics_128_squared_step_completes():
    traj = run(default_physics(**{"grid.dim": "2",
                                  "grid.lengths": "1.0,1.0",
                                  "grid.cells": "128,128",
                                  "solver.horizon": "0.001"}))
    assert traj.records.size == 1


@pytest.mark.parametrize("config", ["default.cfg", "simplex_plate.cfg"])
def test_hard_start_runs_keep_theta_positive(config):
    """Hard starts for undamped Newton: a cold body (0.05) under a hot
    bump (+50), a stiff Robin exchange with a hot exterior and large steps;
    every step completes and every state stays positive."""
    traj = run(default_physics(config, **{
        "init.theta.base": "0.05", "init.theta.amplitude": "50",
        "boundary.gamma": "100", "boundary.theta_gamma": "10",
        "solver.dt": "0.1", "solver.horizon": "1.0", "thermo.alpha": "2"}))
    assert traj.records.size == 10
    assert traj.thetas.min() > 0.0
