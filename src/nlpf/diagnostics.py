"""Post-hoc verification of the discrete structure.

Everything here is a pure function of a stored trajectory plus the objects
that produced it, so a run can be checked long after the fact (or by a
different process) and must reproduce the stepper's own bookkeeping exactly.
Each check is one function ``(components, traj) -> (passed, detail)`` in
``CHECKS``: the energy budget, entropy monotonicity and its local residual,
the selection bound, the pairing identity, the two-sided temperature
envelopes, truncation inactivity, the algebraic identities of the
dissipative operator, and a Kirchhoff-transform regularity functional; the
helpers they call return plain numbers.  All but ``regularity`` and
``truncation`` read only the record rows that ``stepper.replay_records``
gives on the frames, their times and frame 0, and none convolves or steps
through time: the lower envelope's comparison ODE is solved by separation
of variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ModeError, NumericalError
from .stepper import (RunComponents, conduction_operator, forcing_norm,
                      kirchhoff, run)
from .thermo import generic_coefficients, truncated_mobility


# ---------------------------------------------------------------------------
# energy budget

def energy_figure(components, traj):
    """Name, value and bound of the number the energy check judges.

    With insulated boundaries every step residual of the energy balance is
    a pure Taylor remainder of the phase couplings, O(dt^2) per step, and
    the check judges the relative drift from E(0).  With Robin exchange
    each row's boundary outflow is added back, and the check judges the
    largest step residual Delta E + dt * outflow.  E(0) is the first row's
    start energy; dt is each step's ``step_size``.
    """
    rec = traj.records
    totals = np.append(rec["start_energy"][:1], rec["total_energy"])
    scale = max(1.0, abs(totals[0]))
    if components.boundary.is_insulated:
        drift = float(np.max(np.abs(totals - totals[0])))
        return "relative drift", drift / scale, 1e-6
    dt = components.config.step_size(traj.times[:-1])
    res = np.diff(totals) + dt * rec["outflow"]
    return ("max step residual", float(np.max(np.abs(res), initial=0.0)),
            1e-6 * scale)


def _energy(components, traj):
    label, value, bound = energy_figure(components, traj)
    return value <= bound, f"{label} {value:.3e}"


# ---------------------------------------------------------------------------
# entropy production, selection bounds and pairing

def _entropy(components, traj):
    """Local and global entropy checks along the trajectory.

    The flux pairing <q, grad theta> is nonpositive face by face because the
    flux is minus a positive transmissibility times the same difference it is
    paired with; that part is exact.  The cellwise residual
    theta' (S' - S)/dt + (A theta' - load) equals the dissipation
    mu * |chi_t|^2 plus O(dt) remainders, so it is required to clear a small
    negative tolerance rather than zero.  The global total must not decrease
    when the boundary is insulated.  The cellwise and face values are the
    step records' ``entropy_residual_min`` and ``face_pairing_max``, which
    ``stepper.replay_records`` gives on the frames with each step's lag.
    """
    rec = traj.records
    totals = np.append(rec["start_entropy"][:1], rec["total_entropy"])
    tol = 1e-8 * max(1.0, float(np.max(np.abs(totals))))
    defects = np.diff(totals)
    global_min = float(np.min(defects)) if defects.size else 0.0
    cell_min = float(np.min(rec["entropy_residual_min"]))
    face_max = float(np.max(rec["face_pairing_max"], initial=-math.inf))
    monotone = bool(np.all(defects >= -tol)) \
        if components.boundary.is_insulated else True
    return (monotone and cell_min >= -tol and face_max <= 0.0,
            f"global defect min {global_min:.3e}, cell residual min "
            f"{cell_min:.3e}, face pairing max {face_max:.3e}")


def _selection(components, traj):
    """Every step's selection xi obeys the cone bound |xi| <= C_ell."""
    worst = float(np.min(traj.records["selection_margin"]))
    return worst >= 0.0, f"min margin {worst:.3e}"


def _pairing(components, traj):
    """Every step's pairing identity of the pair fields closes to 1e-11."""
    worst = float(np.max(np.abs(traj.records["pairing_residual"])))
    return worst <= 1e-11, f"max residual {worst:.3e}"


# ---------------------------------------------------------------------------
# lower temperature envelope

def measured_forcing_bound(components, traj) -> float:
    """Largest |sigma' - s_chi^rho + xi| seen along the trajectory.

    The selection xi is the residual of each proximal step; the step
    records carry each step's largest value, and xi is zero at the initial
    state.
    """
    initial = forcing_norm(components.model, traj.thetas[0], traj.chis[0],
                           0.0, components.config.rho)
    return float(max(np.max(initial), np.max(traj.records["forcing_max"])))


# Gauss-Legendre nodes and weights on [0, 1] for the envelope's integral
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_X, _GL_W = (1.0 + _GL_X) / 2.0, _GL_W / 2.0


def lower_bound_ode(components, traj, R):
    """The solution w at the record times of the comparison ODE
    c~(w) w' = -R^2 w^2 / (4 mu_rho(w)), started at the initial minimum w0.

    In u = ln(w0 / w) the ODE separates: w0 e^-u is reached at
    4 tau(u) / R^2, tau(u) = int_0^u g with g = mu_rho(s) c~(s) / s > 0 at
    s = w0 e^-u, by 20-point Gauss-Legendre split at the cap's kink
    u = ln(w0 / rho).  Newton, bisecting when it leaves its bracket, solves
    for u at every record time; for alpha = 1, g is constant and one step is
    exact.  At w = 1e-3 min theta, before w^2 turns subnormal, w is held:
    above the solution and below every minimum, it keeps the whole
    solution's verdict.
    """
    model, rho, t = components.model, components.config.rho, traj.records["t"]
    w0 = float(np.min(traj.thetas[0]))
    cut = 1e-3 * min(w0, float(np.min(traj.records["min_theta"])))
    u_rho, u_cut = max(0.0, math.log(w0 / rho)), math.log(w0 / cut)

    def g(u):
        s = w0 * np.exp(-u)
        return truncated_mobility(model, s, rho) * model.c_tilde(s) / s

    tau_rho = u_rho * float(g(u_rho * _GL_X) @ _GL_W)

    def tau(u):
        a = np.where(u > u_rho, u_rho, 0.0)
        return np.where(u > u_rho, tau_rho, 0.0) \
            + (u - a) * (g(a[..., None] + (u - a)[..., None] * _GL_X) @ _GL_W)

    tau_cut = float(tau(u_cut))
    target = np.minimum(0.25 * R * R * t, tau_cut)
    u = np.minimum(target / g(0.0), u_cut)
    lo, hi = np.zeros_like(u), np.full_like(u, u_cut)
    for _ in range(100):
        # 256 records at a time: (256, 20) work arrays of 40 kB
        F = np.concatenate([tau(c) for c in np.split(
            u, range(256, u.size, 256))]) - target
        lo, hi = np.where(F < 0.0, u, lo), np.where(F > 0.0, u, hi)
        step = F / g(u)
        unsettled = ~(np.abs(step) <= 1e-14 * np.maximum(u, 1.0))
        u = u - step
        u = np.where((lo <= u) & (u <= hi), u, 0.5 * (lo + hi))
        if not unsettled.any():
            break
    else:
        k = int(np.argmax(unsettled))
        raise NumericalError(f"lower envelope: Newton finds no root at step "
                             f"{k + 1}, t={t[k]:.6g}, for R {R:.4e}")
    return np.where(target < tau_cut, w0 * np.exp(-u), cut)


def _lower(components, traj):
    """The envelope at the measured R stays below every computed minimum."""
    R = measured_forcing_bound(components, traj)
    env = lower_bound_ode(components, traj, R)
    margin = float(np.min(traj.records["min_theta"] - (1.0 - 1e-6) * env))
    return margin >= 0.0, f"min margin {margin:.3e} at measured R {R:.4f}"


# ---------------------------------------------------------------------------
# upper temperature envelope (regularized scheme only)

def _envelope(components, traj):
    """Affine barrier v(t) = v0 + n M t for the regularized scheme.

    The (1/n) theta_t term alone caps the growth rate by n times the largest
    phase source magnitude M of the rows, so the computed maximum must stay
    below the barrier at every record time, up to relative slack 1e-6; v0 is
    the largest initial or exterior temperature.  Meaningless without
    regularization (``run_checks`` refuses n_reg = 0).
    """
    boundary, config = components.boundary, components.config
    M = float(np.max(traj.records["source_max"]))
    v0 = float(np.max(traj.thetas[0]))
    if not boundary.is_insulated:
        v0 = max(v0, float(np.max(boundary.theta_gamma_at(traj.times))))
    env = v0 + config.n_reg * M * traj.records["t"]
    margin = float(np.min((1.0 + 1e-6) * env - traj.records["max_theta"]))
    return margin >= 0.0, f"min margin {margin:.3e}"


# ---------------------------------------------------------------------------
# truncation calibration

@dataclass
class CalibrationResult:
    rho_star: float
    evaluations: int


def moser_exponent(dim: int) -> int:
    return 4 + 2 * dim


CALIBRATION_REL_WIDTH = 1e-3


def calibrate_rho(c_star: float, dim: int):
    """Smallest rho >= 1 with C* (1 + log rho)^(4+2N) <= rho / 2.

    Doubling brackets the crossing, then geometric bisection narrows the
    bracket to relative width CALIBRATION_REL_WIDTH.  The left side grows
    polylogarithmically and the right side linearly, so past the crossing
    the inequality holds for every larger rho; self-consistency of a
    truncation level is therefore a single substitution.
    """
    if c_star <= 0:
        raise ConfigError("Moser constant must be positive")
    if dim not in (1, 2):
        raise ConfigError(f"spatial dimension must be 1 or 2, got {dim}")
    p = moser_exponent(dim)
    evals = 0

    def ok(rho):
        nonlocal evals
        evals += 1
        return c_star * (1.0 + math.log(rho)) ** p <= rho / 2.0

    if ok(1.0):
        return CalibrationResult(1.0, evals)
    lo, hi = 1.0, 2.0
    while not ok(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e305:
            raise ConfigError("no self-consistent truncation level below "
                              "overflow; the fitted constant is implausible")
    while hi / lo > 1.0 + CALIBRATION_REL_WIDTH:
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return CalibrationResult(hi, evals)


def truncation_inactivity(components: RunComponents, traj, factor: float = 2.0,
                          tol: float = 1e-12):
    """Rerun with the truncation level scaled up and compare trajectories:
    the largest temperature and phase differences and the first step whose
    difference exceeds tol, or None.

    When the computed temperatures never reach the level, the truncation
    never engages and both runs traverse identical arithmetic; any excess of
    the difference over tol localizes the first step where the level bit.
    """
    comp2 = replace(components, config=replace(components.config,
                                               rho=components.config.rho * factor))
    other = run(comp2)
    dth = np.abs(other.thetas - traj.thetas)
    dch = np.abs(other.chis - traj.chis)
    step_max = np.maximum(dth.max(axis=1), dch.max(axis=(1, 2)))
    bad = np.nonzero(step_max > tol)[0]
    return (float(dth.max()), float(dch.max()),
            int(bad[0]) if bad.size else None)


def _truncation(components, traj):
    """Doubling the truncation level changes no step."""
    dth, dch, first = truncation_inactivity(components, traj)
    return first is None, f"max diffs {dth:.3e}/{dch:.3e}"


# ---------------------------------------------------------------------------
# continuous dependence on the data

@dataclass
class DependenceReport:
    lhs: float       # integral of ||theta diff||^2 + sup ||chi diff||^2
    rhs: float       # same functional of the initial perturbation
    delta: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / self.rhs


def perturbation_profiles(grid, d):
    """Fixed unit-amplitude profiles used by the dependence studies."""
    x = grid.centers[:, 0] / grid.lengths[0]
    eta_theta = np.cos(math.pi * x)
    eta_chi = np.tile((x - 0.5)[:, None], (1, d))
    return eta_theta, eta_chi


def continuous_dependence(components: RunComponents, delta: float,
                          base_traj=None):
    """Stability functional of two runs differing only in the initial data.

    Requires the uniqueness setting: conductivity depending on temperature
    alone and an insulated boundary.  Returns the discrete counterpart of
    (time-integrated temperature gap squared + largest phase gap squared)
    against the same measure of the initial perturbation.
    """
    model = components.model
    if not model.k_independent_of_chi:
        raise ModeError("continuous dependence needs a conductivity "
                        "depending on temperature only")
    if not components.boundary.is_insulated:
        raise ModeError("continuous dependence needs an insulated boundary")

    traj1 = run(components) if base_traj is None else base_traj
    eta_th, eta_ch = perturbation_profiles(components.grid, model.d)
    th0 = components.theta0 + delta * eta_th
    if np.any(th0 <= 0):
        raise ConfigError("perturbation too large: initial temperature "
                          "would lose positivity")
    ch0 = components.potential.prox(components.chi0 + delta * eta_ch)
    comp2 = replace(components, theta0=th0, chi0=ch0)
    traj2 = run(comp2)

    w = components.grid.volumes
    dth0 = th0 - components.theta0
    dch0 = ch0 - components.chi0
    rhs = float(np.dot(w, dth0 ** 2)) \
        + float(np.dot(w, np.sum(dch0 ** 2, axis=-1)))

    th_sq = [np.dot(w, d ** 2) for d in traj1.thetas - traj2.thetas]
    ch_sq = [np.dot(w, np.sum(d ** 2, axis=-1))
             for d in traj1.chis - traj2.chis]
    lhs = float(np.dot(np.diff(traj1.times), th_sq[:-1])) \
        + float(np.max(ch_sq))
    return DependenceReport(lhs=lhs, rhs=rhs, delta=delta)


# ---------------------------------------------------------------------------
# dissipative-operator identities

def _operator_mode(model, boundary):
    """ModeError unless the operator identities apply: a scalar order
    parameter and an insulated boundary."""
    if model.d != 1:
        raise ModeError("operator identities are formulated for a scalar "
                        "order parameter")
    if not boundary.is_insulated:
        raise ModeError("operator identities need an insulated boundary")


def generic_check(model, grid, boundary, chi_sample, coupling=None,
                  n_samples=100, seed=20260819):
    """Largest relative defects of the dissipative operator's identities
    (rank one, degeneracy, conduction null space) on random states, phase
    values drawn from ``chi_sample``, points of the potential's domain.

    The 2x2 phase-conduction block must be rank one and positive
    semidefinite (m12^2 = m11 m22 exactly) and must annihilate the energy
    gradient (c_V, D_chi E).  The conduction part must annihilate constants
    and conserve the volume-weighted total when the boundary is insulated.
    Scalar order parameter only; Robin exchange breaks the conservation row,
    so gamma > 0 is refused rather than fudged.
    """
    _operator_mode(model, boundary)
    rng = np.random.default_rng(seed)
    dom = np.asarray(chi_sample, dtype=float)
    ident = degen = 0.0
    b_cap = coupling.c_b if coupling is not None else 1.0
    for _ in range(n_samples):
        th = float(rng.uniform(0.05, 8.0))
        ch = dom[rng.integers(len(dom))]
        mu = float(model.mu(np.array(th)))
        cv = float(model.cv(np.array([th]), ch[None, :])[0])
        b = float(rng.uniform(-b_cap, b_cap))
        dE = float(model.e_chi(np.array([th]), ch[None, :])[0, 0]
                   + model.lam_p(ch[None, :])[0, 0] + b)
        m11, m12, m22 = generic_coefficients(th, mu, cv, dE)
        scale = max(m11 * m22, m12 * m12, 1e-300)
        ident = max(ident, abs(m12 * m12 - m11 * m22) / scale)
        gscale = max(abs(m11 * cv), abs(m12 * dE), abs(m22 * dE), 1e-300)
        degen = max(degen,
                    abs(m11 * cv + m12 * dE) / gscale,
                    abs(m12 * cv + m22 * dE) / gscale)

    # conduction block: constants are annihilated (face fluxes, and A 1
    # relative to the diagonal), and the volume-weighted total of A theta
    # vanishes, relative to the same total of |A| |theta|
    th_field = rng.uniform(0.5, 2.0, grid.n_cells)
    ch_field = np.tile(dom[0], (grid.n_cells, 1))
    op = conduction_operator(grid, model, boundary, th_field, ch_field)
    ones = np.ones(grid.n_cells)
    null_flux = max(float(np.max(np.abs(f), initial=0.0))
                    for f in op.face_fluxes(ones))
    diag = float(np.max(np.abs(op.diagonal())))
    rowsum = float(np.max(np.abs(op.apply(ones)))) / max(diag, 1e-300)
    vol = grid.volumes
    colsum = abs(float(np.dot(vol, op.apply(th_field)))) \
        / max(float(np.dot(vol, op.apply_abs(th_field))), 1e-300)
    cond = max(null_flux, rowsum, colsum)
    return ident, degen, cond


def _generic(components, traj):
    """The operator identities hold to 1e-13 on the run's model and grid."""
    ident, degen, cond = generic_check(
        components.model, components.grid, components.boundary,
        components.potential.domain_sample(64), components.coupling)
    return (ident <= 1e-13 and degen <= 1e-13 and cond <= 1e-13,
            f"identity {ident:.3e}, degeneracy {degen:.3e}, conduction "
            f"{cond:.3e}")


# ---------------------------------------------------------------------------
# Kirchhoff-transform regularity functional

def regularity_indicator(components, traj):
    """Quantities whose boundedness the refined estimates assert.

    Sum over steps of dt ||(theta' - theta)/dt||^2, and the largest discrete
    gradient energy of the Kirchhoff transform K(theta).  Uniqueness setting
    only, since K needs a chi-free conductivity.
    """
    grid = components.grid
    dts = components.config.step_size(traj.times[:-1])
    dth = np.diff(traj.thetas, axis=0) / dts[:, None]
    rate = float(np.dot(dts, dth ** 2 @ grid.volumes))
    kv = kirchhoff(components.model, traj.thetas[1:])
    h1 = grid.volumes[0] * float(np.max(sum(
        s * np.sum(d * d, axis=tuple(range(-grid.dim, 0)))
        for s, d in zip(grid.face_scale, grid.face_differences(kv)))))
    return rate, h1


def _regularity(components, traj):
    """Both regularity quantities are finite."""
    rate, h1 = regularity_indicator(components, traj)
    return (math.isfinite(rate) and math.isfinite(h1),
            f"rate L2^2 {rate:.3e}, K gradient max {h1:.3e}")


# ---------------------------------------------------------------------------
# check orchestration for the command line

@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


# every check, in the order `nlpf verify` lists them; the first five by default
CHECKS = {"energy": _energy, "entropy": _entropy, "selection": _selection,
          "pairing": _pairing, "lower": _lower, "truncation": _truncation,
          "generic": _generic, "envelope": _envelope,
          "regularity": _regularity}
DEFAULT_CHECKS = tuple(CHECKS)[:5]


def _regularised(components):
    if components.config.n_reg == 0:
        raise ModeError("upper envelope requires the regularized scheme "
                        "(n_reg >= 1)")


# the checks that hold in one mode only, each with its ModeError for a run
# of another mode; kirchhoff refuses a conductivity that depends on chi
_MODES = {"envelope": _regularised,
          "generic": lambda c: _operator_mode(c.model, c.boundary),
          "regularity": lambda c: kirchhoff(c.model, 1.0)}


def run_checks(components: RunComponents, traj, names=DEFAULT_CHECKS):
    """Evaluate named invariants against a finished run.  An unknown name,
    then a check that does not fit the run's mode, is refused before any
    check runs."""
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check '{name}'; known: "
                              f"{', '.join(CHECKS)}")
    for name in names:
        if name in _MODES:
            _MODES[name](components)
    out = []
    for name in names:
        passed, detail = CHECKS[name](components, traj)
        out.append(CheckOutcome(name=name, passed=bool(passed), detail=detail))
    return out
