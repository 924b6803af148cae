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
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

import nlpf.stepper as stepper
from nlpf.config import build_components, parse_config_text, resolve_config
from nlpf.convex import IndicatorBox
from nlpf.errors import ConfigError, ModeError, NumericalError
from nlpf.geometry import (BoundaryData, assemble_diffusion, build_grid,
                           harmonic_face_conductivity)
from nlpf.longrange import NonlocalCoupling, PairFields
from nlpf.stepper import (SolverConfig, State, bound_C_ell, budget_totals,
                          cell_budget, conduction_operator, kirchhoff,
                          lag_fields, lagged_fields, phase_source,
                          replay_records, rhs_ell, run, selection, step_chi,
                          step_records, step_theta)
from nlpf.thermo import build_model

from conftest import two_phase_components
from csr_oracle import assemble_matrix


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


@pytest.mark.parametrize("a, b", [(0, 1), (0, 9), (1, 2), (3, 9), (8, 9)])
def test_lagged_fields_at_window_one_are_the_states(a, b):
    """At a window of one, ``lagged_fields`` hands out states a .. b - 1
    themselves, bit for bit the rows that the reshape and mean of
    ``lag_fields`` give."""
    rng = np.random.default_rng(a + 10 * b)
    thetas, chis = 0.5 + rng.random((10, 7)), rng.random((10, 7, 2))
    s = max(0, a - 1)
    bar_theta, bar_chi = lag_fields(thetas[s:b], chis[s:b], 1)
    th, ch = lagged_fields(thetas, chis, 1, a, b)
    assert np.array_equal(th, bar_theta[np.arange(a, b) - s])
    assert np.array_equal(ch, bar_chi[np.arange(a, b) - s])


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
    assert op.coeffs[0].shape == (0,)
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
        return replay_records(comp, traj.thetas, traj.chis)


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
        comp, traj.thetas, traj.chis,
        comp.coupling.b_field(traj.chis[a:b + 1]), a, b)
        for a, b in zip(cuts[:-1], cuts[1:])])
    whole = step_records(comp, traj.thetas, traj.chis,
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
    whole = replay_records(comp, traj.thetas, traj.chis)
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


@pytest.mark.parametrize("horizon, dt", [(0.35, 0.1), (0.05, 0.01),
                                         (1.0, 1e-3)])
def test_time_grid_is_the_run_clock(horizon, dt):
    """config.times is 0, then t + step_size(t) one step at a time, bit for
    bit, and it is the times run returns; 0.35 / 0.1 ends in a ragged
    step."""
    comp = two_phase_components(cells=4, horizon=horizon, dt=dt)
    want = [0.0]
    for _ in range(comp.config.n_steps):
        want.append(want[-1] + comp.config.step_size(want[-1]))
    assert np.array_equal(comp.config.times, want)
    assert np.array_equal(run(comp).times, want)


def test_time_grid_that_stalls_is_refused_before_any_step(monkeypatch):
    """A grid whose last step has no length is a ConfigError raised before
    the first step is taken."""
    comp = two_phase_components(cells=4, horizon=0.3, dt=0.1)
    monkeypatch.setattr(SolverConfig, "n_steps", property(lambda self: 4))
    calls = []
    monkeypatch.setattr(stepper, "step_theta",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="does not increase at step 4"):
        run(comp)
    assert not calls


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
def test_stack_matches_per_state(make, monkeypatch):
    """Row n of each per-cell function on the snapshot stack, and of the
    totals, is what it gives on snapshot n alone, each step of size
    ``step_size``.  The run records the largest phase source of a step only
    when it is regularised, for the envelope check, and the empty maximum
    otherwise; that source is bit for bit the one step_theta used."""
    used = []

    def recorded(model, chi_old, chi_new, b_old, dt):
        out = phase_source(model, chi_old, chi_new, b_old, dt)
        if out.ndim == 1:     # step_theta's call, one state
            used.append(out)
        return out

    monkeypatch.setattr(stepper, "phase_source", recorded)
    comp = make()
    traj = run(comp)
    model, eps = comp.model, comp.config.eps_reg
    th, ch = traj.thetas, traj.chis
    stack = comp.coupling.b_field(ch)
    b, B = stack.b, stack.B
    dts = comp.config.step_size(traj.times[:-1])
    assert len(used) == traj.records.size
    assert np.all(traj.records["source_max"] == (
        np.abs(used).max(-1) if comp.config.n_reg else -np.inf))
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
    dt = comp.config.step_size(traj.times[:-1])
    for got, want in zip(
            comp.coupling.pairing_residual(traj.chis, stack, dt),
            comp.coupling.pairing_residual(traj.chis, copies, dt)):
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
    """Newton's bound is relative to the size of each cell's terms, so it
    stays within reach on fine bars, where a tolerance on the absolute
    residual alone would stall at round-off."""
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


def plate(cells, **overrides):
    """configs/default.cfg on a unit square of cells x cells, some keys
    replaced."""
    return default_physics(**{"grid.dim": "2", "grid.lengths": "1.0,1.0",
                              "grid.cells": f"{cells},{cells}", **overrides})


def first_step(comp, dt):
    """The arguments of step_theta for a step of size dt from the initial
    data of ``comp``."""
    return step_from(comp, comp.theta0, comp.chi0, 0.0, dt)


def step_from(comp, theta, chi, t, dt):
    """The arguments of step_theta for a step of size dt from the state
    (theta, chi) at time t of ``comp``, the conductivity frozen there."""
    state = State(theta, chi, t, comp.coupling.b_field(chi))
    alpha, g = rhs_ell(comp.model, state.theta, state.chi, state.fields.b,
                       comp.config.rho)
    chi_new = step_chi(comp.potential, state.chi, alpha, g, dt)
    op = conduction_operator(comp.grid, comp.model, comp.boundary,
                             state.theta, state.chi)
    return comp.model, state, chi_new, state.fields.b, op, dt, comp.config


def reference_newton(model, state, chi_new, b_old, op, dt, config):
    """Reference energy step: Newton with ``spsolve`` on the assembled CSR
    matrix at every iterate, until the update stops moving theta."""
    base = model.e(state.theta, state.chi) + dt * (
        phase_source(model, state.chi, chi_new, b_old, dt)
        + op.robin_load(state.t + dt))
    theta = state.theta.copy()
    mat = assemble_matrix(op)
    for _ in range(config.newton_cap):
        f = model.e(theta, chi_new) + dt * op.apply(theta) - base
        delta = spsolve(sp.csc_matrix(
            sp.diags(model.cv(theta, chi_new)) + dt * mat), -f)
        theta = theta + delta
        if np.max(np.abs(delta)) <= 1e-15 * np.max(theta):
            return theta
    raise AssertionError("reference Newton did not converge")


def counting(monkeypatch, *names):
    """Wrap the ``nlpf.stepper`` names and count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(stepper, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(stepper, name, counted)
    return calls


def cg_iterations(monkeypatch):
    """Wrap ``nlpf.stepper.cg``; returns the list of its iteration counts,
    one per call."""
    counts, real = [], stepper.cg

    def counted(*args, **kwargs):
        counts.append(0)
        return real(*args, callback=lambda x: counts.__setitem__(
            -1, counts[-1] + 1), **kwargs)

    monkeypatch.setattr(stepper, "cg", counted)
    return counts


@pytest.mark.parametrize("gamma, theta_gamma, dt", [
    ("0.0", "1.0", 1e-3), ("100", "10", 1e-3), ("100", "10", 0.1)])
def test_wide_band_step_matches_banded_newton(gamma, theta_gamma, dt,
                                              monkeypatch):
    """On a 64 x 64 plate the Newton systems go to CG, and the step agrees
    with Newton on ``spsolve`` of the assembled matrix to 1e-12, insulated
    and with stiff Robin exchange."""
    comp = plate(64, **{"boundary.gamma": gamma,
                        "boundary.theta_gamma": theta_gamma,
                        "solver.rho": "100"})
    args = first_step(comp, dt)
    calls = counting(monkeypatch, "cg")
    got = step_theta(*args)
    want = reference_newton(*args)
    assert calls["cg"] > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_predictor_start_saves_newton_solves(monkeypatch):
    """Each step after the first starts Newton from the predictor
    extrapolated from the two latest states: configs/default.cfg takes at
    most 1200 banded solves in its 1000 steps (2018 from theta_n)."""
    calls = counting(monkeypatch, "solveh_banded")
    run(default_physics())
    assert calls["solveh_banded"] <= 1200


@pytest.mark.parametrize("config", ["default.cfg", "simplex_plate.cfg"])
def test_first_step_is_the_plain_step(config, monkeypatch):
    """Step 1 has no history: run hands step_theta no start, and frame 1 is
    bit for bit a plain step_theta step from theta_0; step 2 gets one."""
    comp = default_physics(config, **{"solver.horizon": "0.002"})
    real, starts = stepper.step_theta, []

    def recorded(*args):
        starts.append(args[8])
        return real(*args)

    monkeypatch.setattr(stepper, "step_theta", recorded)
    traj = run(comp)
    assert starts[0] is None and starts[1] is not None
    plain = real(*first_step(comp, comp.config.dt), start=None)
    assert np.array_equal(traj.thetas[1], plain)


@pytest.mark.parametrize("make", [
    lambda: default_physics(),
    lambda: plate(64, **{"boundary.gamma": "100",
                         "boundary.theta_gamma": "10", "solver.rho": "100"})],
    ids=["bar-32", "robin-plate-64"])
def test_predictor_start_finds_the_reference_root(make):
    """From the predictor theta_1^2 / theta_0, the second step agrees with
    Newton on ``spsolve`` of the assembled matrix from theta_1 to 1e-12,
    on the default bar and on a 64 x 64 plate with stiff Robin exchange."""
    comp = make()
    dt = comp.config.dt
    traj = run(dataclasses.replace(
        comp, config=dataclasses.replace(comp.config, horizon=dt)))
    (theta0, theta1), chi1 = traj.thetas, traj.chis[1]
    args = step_from(comp, theta1, chi1, traj.times[1], dt)
    got = step_theta(*args, start=theta1 * (theta1 / theta0))
    want = reference_newton(*args)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_predictor_start_stays_positive_where_a_cell_halves(monkeypatch):
    """Where a cell's temperature halves in a step, linear extrapolation
    would start the next Newton at 0 there; the predictor starts it at half
    again, positive, and the step converges to the reference root."""
    comp = default_physics(**{"solver.horizon": "0.002"})
    real, calls = stepper.step_theta, []

    def halving(*args):
        calls.append(args)
        if len(calls) == 1:       # step 1 halves the temperature of cell 5
            theta = args[1].theta.copy()
            theta[5] /= 2
            return theta
        return real(*args)

    monkeypatch.setattr(stepper, "step_theta", halving)
    traj = run(comp)
    theta0, theta1 = traj.thetas[:2]
    assert 2 * theta1[5] - theta0[5] == 0.0
    start = calls[1][8]
    assert start[5] == theta1[5] / 2 and (start > 0).all()
    want = reference_newton(*calls[1][:7])
    assert np.max(np.abs(traj.thetas[2] - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("dim, cells, solver", [
    (1, 32, "solveh_banded"), (2, 16, "cg"), (2, 32, "cg"), (2, 64, "cg"),
    (2, 128, "cg")])
def test_newton_solver_follows_the_band(dim, cells, solver, monkeypatch):
    """A 1D bar factorises every Newton system; a plate, with dense axis
    bases (16^2 to 64^2) or the FFT's DCT-II (128^2), calls CG once per
    Newton iteration, that is once per Jacobian evaluation, and never
    factorises."""
    overrides = {"solver.horizon": "0.002", "solver.rho": "100"}
    comp = plate(cells, **overrides) if dim == 2 \
        else default_physics(**{"grid.cells": str(cells), **overrides})
    calls = counting(monkeypatch, "cg", "solveh_banded")
    jacobians = recording(comp.model, "cv")
    run(comp)
    assert calls[solver] == len(jacobians) >= 2
    assert sum(calls.values()) == calls[solver]


@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("cells", [(48, 48), (64, 64), (128, 128), (96, 48)],
                         ids=lambda c: "x".join(map(str, c)))
def test_robin_plate_cg_iterations_stay_few(cells, dt, monkeypatch):
    """With stiff Robin exchange (gamma 100, theta_Gamma 10) the
    preconditioner carries each side's Robin coefficient on its end cells:
    CG needs at most 13 iterations per Newton solve over three steps
    (the DCT preconditioner of the evenly spread Robin term needed 28 to
    50).  The run asks CG for less than full accuracy, so each Newton
    system it solved is captured and solved again at the full tolerance,
    without a target; those solves are counted."""
    comp = plate(cells[0], **{"grid.cells": f"{cells[0]},{cells[1]}",
                              "boundary.gamma": "100",
                              "boundary.theta_gamma": "10",
                              "solver.rho": "100", "solver.dt": str(dt),
                              "solver.horizon": str(3 * dt)})
    real, systems = stepper._newton_solve, []

    def captured(*args):
        systems.append(args[:6])
        return real(*args)

    monkeypatch.setattr(stepper, "_newton_solve", captured)
    run(comp)
    counts = cg_iterations(monkeypatch)
    for args in systems:
        real(*args)
    assert len(counts) == len(systems) >= 3
    assert max(counts) <= 13


@pytest.mark.parametrize("make, solves, most", [
    (lambda: plate(64, **{"solver.horizon": "0.004"}), 11, 0.7 * 90),
    (lambda: default_physics("simplex_plate.cfg", **{
        "grid.cells": "32,32", "boundary.gamma": "100",
        "boundary.theta_gamma": "10"}), 63, 0.6 * 685)],
    ids=["default-plate-64", "robin-plate-32"])
def test_inexact_newton_halves_cg_work(make, solves, most, monkeypatch):
    """Each 2D Newton solve asks CG only for the accuracy Newton can use:
    the Newton solves stay as many as with exact solves (11 on four steps
    of the 64^2 default plate, 63 on the 20 steps of the 32^2 plate with
    gamma 100, theta_Gamma 10), and CG takes at most 0.7 and 0.6 times the
    90 and 685 iterations it takes at the full tolerance."""
    counts = cg_iterations(monkeypatch)
    run(make())
    assert len(counts) == solves
    assert sum(counts) <= most


@pytest.mark.parametrize("target", [1e-2, 1e-6, 0.0])
def test_newton_solve_meets_its_target(target, monkeypatch):
    """On a 2D plate with random per-face gamma and cell conductivity,
    ``_newton_solve(..., atol=a)`` returns x with |rhs - J x|_2 at most
    max(1e-13 |rhs|_2, a), J = diag(shift) + dt A assembled as CSR; a
    looser target takes fewer CG iterations.  Without a target the solve
    is bit for bit scipy's ``cg`` at rtol 1e-13 and no atol."""
    g = build_grid(2, (1.0, 1.5), (12, 20))
    rng = np.random.default_rng(3)
    bnd = BoundaryData(g, 100.0 * (0.5 + rng.random(g.n_bfaces)), 10.0)
    op = assemble_diffusion(g, harmonic_face_conductivity(
        g, 0.6 + rng.random(g.n_cells)), bnd, (0.5, 2.0))
    shift, dt = 0.6 + 0.5 * rng.random(g.n_cells), 1e-3
    rhs = rng.standard_normal(g.n_cells)
    jac = sp.diags(shift) + dt * assemble_matrix(op)
    system = stepper.TensorPreconditioner(g, bnd).system(op, dt)
    real, calls = stepper.cg, []
    monkeypatch.setattr(stepper, "cg", lambda *a, **kw: (
        calls.append((a, kw)) or real(*a, **kw)))
    counts = cg_iterations(monkeypatch)
    size = np.linalg.norm(rhs)
    got = stepper._newton_solve(op, system, shift, dt, rhs, 0.0,
                                atol=target * size)
    assert np.linalg.norm(rhs - jac @ got) <= max(1e-13, target) * size
    plain = stepper._newton_solve(op, system, shift, dt, rhs, 0.0)
    assert counts[0] < counts[1] if target else counts[0] == counts[1]
    a, kw = calls[1]
    today = {k: v for k, v in kw.items() if k not in ("atol", "callback")}
    assert np.array_equal(plain, real(*a, **today)[0])


@pytest.mark.parametrize("gamma, lag, bases", [
    ("0.0", {}, 0), ("100", {}, 8),
    ("100", {"solver.lag_mode": "interval_average",
             "solver.lag_window": "2"}, 4)])
def test_robin_axis_bases_are_built_once_per_operator(gamma, lag, bases,
                                                      monkeypatch):
    """Over four steps of a 32^2 plate, ``eigh_tridiagonal`` runs once per
    Robin axis and conduction operator (one operator per lag window), never
    per Newton solve, and never on an insulated plate."""
    comp = plate(32, **{"boundary.gamma": gamma, "solver.rho": "100",
                        "solver.horizon": "0.004", **lag})
    calls = counting(monkeypatch, "cg", "eigh_tridiagonal")
    run(comp)
    assert calls["eigh_tridiagonal"] == bases < calls["cg"]


@pytest.mark.parametrize("cells, lengths, side_gamma", [
    ((24, 40), (1.0, 2.0), (5.0, 50.0, 0.0, 0.0)),
    ((30, 20), (1.5, 1.0), (1.0, 2.0, 3.0, 4.0)),
    ((16, 128), (1.0, 1.0), (0.0, 0.0, 0.0, 0.0))],
    ids=["robin-x", "robin-xy", "insulated-fft"])
def test_tensor_preconditioner_is_exact_on_separable_plates(
        cells, lengths, side_gamma, monkeypatch):
    """A constant conductivity, a uniform gamma per side and a uniform
    shift make the system separable: the preconditioner is its inverse and
    CG stops after one iteration, at the ``spsolve`` solution."""
    g = build_grid(2, lengths, cells)
    gamma = np.concatenate([np.full(side.size, value) for side, value in
                            zip(g.sides_by_axis(np.zeros(g.n_bfaces)),
                                side_gamma)])
    bnd = BoundaryData(g, gamma, 2.0)
    op = assemble_diffusion(g, [np.full(s, 1.3) for s in g.face_shapes],
                            bnd, (0.5, 2.0))
    shift, dt = np.full(g.n_cells, 0.7), 1e-3
    rhs = np.random.default_rng(5).standard_normal(g.n_cells)
    counts = cg_iterations(monkeypatch)
    system = stepper.TensorPreconditioner(g, bnd).system(op, dt)
    got = stepper._newton_solve(op, system, shift, dt, rhs, 0.0)
    want = spsolve(sp.csc_matrix(sp.diags(shift) + dt * assemble_matrix(op)),
                   rhs)
    assert counts == [1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cg_that_misses_its_tolerance_fails_the_step(monkeypatch):
    """A CG that stops short is a failed step: NumericalError naming the
    step, the time, CG's iteration count and the cell of the largest
    residual of the returned solution (here 0, so the largest |rhs|)."""
    rhs = []
    monkeypatch.setattr(stepper, "cg", lambda a, b, **kw: (
        rhs.append(b) or np.zeros_like(b), 17))
    with pytest.raises(NumericalError, match=r"^step 1: temperature step at "
                       r"t=0: CG did not converge in 17 iterations") as exc:
        run(plate(64, **{"solver.horizon": "0.002", "solver.rho": "100"}))
    k = int(np.argmax(np.abs(rhs[0])))
    assert str(exc.value).endswith(
        f"; residual {abs(rhs[0][k]):.3e} in cell {k}")


@pytest.mark.parametrize("dim, cells, gamma", [(1, 1, "1.0"), (1, 32, "0.0"),
                                               (1, 256, "100")])
def test_newton_band_built_once_is_banded_bit_for_bit(dim, cells, gamma):
    """In 1D ``step_theta`` builds ``op.banded(0.0, dt)`` once and adds
    each iterate's shift to its diagonal row: the solve is that of
    ``op.banded(shift, dt)``, bit for bit, and the cached band is left
    as it was."""
    comp = default_physics(**{"grid.cells": str(cells),
                              "boundary.gamma": gamma, "solver.rho": "100"})
    model, state, chi_new, _, op, dt, config = first_step(comp, 1e-3)
    rng = np.random.default_rng(cells)
    shift = model.cv(state.theta * (1 + 0.1 * rng.random(cells ** dim)),
                     chi_new)
    rhs = rng.normal(size=cells ** dim)
    band = op.banded(0.0, dt)
    kept = band.copy()
    got = stepper._newton_solve(op, band, shift, dt, rhs, 0.0)
    want = solveh_banded(op.banded(shift, dt), rhs, check_finite=False)
    assert np.array_equal(got, want)
    assert np.array_equal(band, kept)


def newton_bound(model, state, chi_new, b_old, op, dt, config):
    """The stop bound of ``step_theta``, from its definition: max(newton_tol,
    ROUNDOFF_ULPS ulp) (eps th_n + |e(th_n, chi')| + dt |A| th_n + |base|),
    and the residual F it bounds, evaluated as the step evaluates it."""
    eps, theta_n = config.eps_reg, state.theta
    base = eps * theta_n + model.e(theta_n, state.chi) + dt * (
        phase_source(model, state.chi, chi_new, b_old, dt)
        + op.robin_load(state.t + dt))
    bound = max(config.newton_tol,
                stepper.ROUNDOFF_ULPS * np.finfo(float).eps) * (
        eps * theta_n + np.abs(model.e(theta_n, chi_new))
        + dt * op.apply_abs(theta_n) + np.abs(base))

    def residual(th):
        return eps * th + model.e(th, chi_new) + dt * op.apply(th) - base

    return bound, residual


def robin_plate(cells, **overrides):
    """configs/simplex_plate.cfg on cells x cells with the CI's stiff Robin
    exchange, gamma 100 and theta_Gamma 10."""
    return default_physics("simplex_plate.cfg", **{
        "grid.cells": f"{cells},{cells}", "boundary.gamma": "100",
        "boundary.theta_gamma": "10", **overrides})


@pytest.mark.parametrize("make", [lambda: default_physics(),
                                  lambda: robin_plate(32)],
                         ids=["bar-32", "robin-plate-32"])
def test_stop_rule_does_not_depend_on_the_start(make, monkeypatch):
    """The second step, from theta_1 and from the predictor theta_1^2 /
    theta_0, is judged by one bound fixed by theta_1: every iterate that
    Newton solves from misses it in some cell, the iterate returned meets
    it in every cell, and both roots agree to 1e-13.  On the Robin plate
    the predictor's residual is about ten times that of theta_1, which
    moved the stop bound of a start-anchored rule."""
    comp = make()
    dt = comp.config.dt
    traj = run(dataclasses.replace(
        comp, config=dataclasses.replace(comp.config, horizon=dt)))
    (theta0, theta1), chi1 = traj.thetas, traj.chis[1]
    args = step_from(comp, theta1, chi1, traj.times[1], dt)
    bound, residual = newton_bound(*args)
    real, judged = stepper._newton_solve, []
    monkeypatch.setattr(stepper, "_newton_solve", lambda *a: (
        judged.append(-a[4]) or real(*a)))
    roots = []
    for start in (None, theta1 * (theta1 / theta0)):
        judged.clear()
        roots.append(step_theta(*args, start=start))
        assert judged and all((np.abs(f) > bound).any() for f in judged)
        assert (np.abs(residual(roots[-1])) <= bound).all()
        assert np.array_equal(judged[0], residual(
            theta1 if start is None else start))
    assert np.max(np.abs(roots[0] - roots[1])) <= 1e-13 * np.max(roots[0])


@pytest.mark.parametrize("make", [
    lambda: robin_plate(32),
    lambda: robin_plate(64, **{"solver.horizon": "0.005"})],
    ids=["robin-plate-32", "robin-plate-64"])
def test_robin_plates_stop_at_their_own_bound(make, monkeypatch):
    """On the CI Robin plates every step returns an iterate whose residual
    meets the cellwise bound in every cell: no second, looser test ends a
    step (the round-off test it replaced let iterates through at up to 5.7
    times the start-anchored bound)."""
    real, worst = stepper.step_theta, []

    def judged(*args):
        theta = real(*args)
        bound, residual = newton_bound(*args[:7])
        worst.append(float(np.max(np.abs(residual(theta)) / bound)))
        return theta

    comp = make()
    monkeypatch.setattr(stepper, "step_theta", judged)
    run(comp)
    assert len(worst) == comp.config.n_steps
    assert max(worst) <= 1.0


@pytest.mark.parametrize("config, most", [
    ("default.cfg", 1089), ("decoupled_smoke.cfg", 104),
    ("regularised.cfg", 103), ("robin_average.cfg", 104),
    ("simplex_plate.cfg", 45), ("uniqueness.cfg", 333)])
def test_shipped_configs_newton_solve_counts(config, most, monkeypatch):
    """The cellwise stop rule takes no more Newton solves than these on
    each shipped config (the start-anchored rule with its round-off test
    took 1099, 105, 105, 106, 46 and 343)."""
    calls = counting(monkeypatch, "_newton_solve")
    run(default_physics(config))
    assert calls["_newton_solve"] <= most
