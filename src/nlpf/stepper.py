"""Coupled time stepper: per-cell proximal step for the order parameter,
then a backward-Euler quasilinear energy step for the temperature.

Each step freezes the conductivity at lagged fields (previous step, or the
previous macro-interval average), advances chi by one implicit proximal step
of the inclusion

    alpha chi_t + dphi(chi) ni g,   alpha = mu_trunc/(beta+theta),

and then solves the nonlinear energy balance

    [eps th' + e(th',chi') - eps th - e(th,chi)]/dt - div(k grad th') + Robin
        = -(lam'(chi') + b[chi]) . (chi'-chi)/dt

by plain Newton, undamped because the map is convex (see step_theta), from
the predictor th_n (th_n/th_(n-1))^r that run extrapolates from the two
latest states, r = dt_n/dt_(n-1) (step 1 starts from th_0).  phi
is the indicator of the constraint set, zero on every admissible state, so
it has no term here; each new phase field is checked to lie in the set.
Each Newton matrix diag(eps + c_V) + dt A is symmetric positive definite.  In
1D it is tridiagonal and banded Cholesky solves it, O(M).  In 2D CG solves
it with the operator's own apply, preconditioned by fast diagonalisation
(R. E. Lynch, J. R. Rice and D. H. Thomas, Numer. Math. 6 (1964) 185) of a
separable operator that keeps each side's Robin exchange: O(M n) per
iteration on an n-cell axis, or O(M log n) through the FFT's DCT-II on a
long insulated one.  Newton is inexact in 2D: CG is asked only for the
accuracy Newton can use.  Newton stops at one cellwise bound fixed by the
step's first state (see step_theta).
With gamma = 0 the volume-weighted row sums of the diffusion map vanish, so
the scheme conserves the discrete total energy up to the Taylor remainders of
the lam and pair-interaction difference quotients, which are O(dt) overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, solveh_banded
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConfigError, ModeError, NumericalError
from .geometry import assemble_diffusion, harmonic_face_conductivity
from .longrange import PairFields
from .thermo import truncated_entropy_gradient, truncated_mobility

RECORD_COLUMNS = ("t", "total_energy", "total_entropy", "min_theta",
                  "max_theta", "entropy_residual_min", "pairing_residual",
                  "selection_margin")

# per-step values kept in memory only: the largest <q, grad theta'>,
# |sigma' - s_chi^rho + xi'| and |phase source| (regularised runs only), the
# Robin outflow at the step's end, and the total energy and entropy of the
# step's first state
STEP_VALUES = ("face_pairing_max", "forcing_max", "source_max", "outflow",
               "start_energy", "start_entropy")
_RECORD_DTYPE = np.dtype([(c, "f8") for c in RECORD_COLUMNS + STEP_VALUES])
# cells of all states per record chunk of run and replay_records: a long
# run is recorded in chunks whose work arrays stay in cache.  Against 2^16
# cells (Xeon, 2 vCPU, one BLAS thread, least of 15), replaying
# configs/default.cfg over 1000 steps fell from 7.3 to 6.8 ms, with
# bit-identical rows, and 20 steps of the default physics on a 128^2 plate
# from 85 to 55 ms.  On a 96^2 plate, one step per chunk, it read 27 -> 33
# ms interleaved in one process but 46-77 -> 34-35 ms in fresh processes.
# perfbench's bar1d-default verifies a freshly read trajectory once: there
# the second chunk's convolution and lagged operator cost 0.27 ms of
# verify_s (+1.3%), and the smaller stacks 1.6 MB less peak RSS
_REPLAY_CELLS = 1 << 14

# Newton's round-off floor, in units of the double-precision epsilon
ROUNDOFF_ULPS = 4.0
_ULP = float(np.finfo(float).eps)
# 2D Newton systems go to CG: relative residual 1e-13, at most 1000 iterations
_CG_RTOL, _CG_CAP = 1e-13, 1000
# An insulated axis of more cells than this is transformed by the FFT's
# DCT-II, a shorter one by its dense basis, whose four products per
# preconditioner application cost O(n^3) (measurements in CHANGES.md)
_DENSE_AXIS = 112


@dataclass
class State:
    theta: np.ndarray          # (M,)
    chi: np.ndarray            # (M, d)
    t: float
    fields: PairFields | None = None   # nonlocal fields of chi


@dataclass
class SolverConfig:
    dt: float
    horizon: float
    n_reg: int = 0                       # regularizing eps = 1/n_reg; 0 disables
    rho: float = math.e ** 8             # truncation cap (resolved by the caller)
    lag_window: int = 1                  # steps per lag window; 1: previous step
    newton_tol: float = 1e-14
    newton_cap: int = 60

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ConfigError("dt and horizon must be positive")
        if self.rho < 1:
            raise ConfigError("truncation parameter must be >= 1")
        if self.n_reg < 0:
            raise ConfigError("regularization index must be >= 0")
        if self.lag_window < 1:
            raise ConfigError("lag window must be >= 1")

    @property
    def eps_reg(self) -> float:
        return 1.0 / self.n_reg if self.n_reg > 0 else 0.0

    @property
    def n_steps(self) -> int:
        """Steps to the horizon, at least one; the last may be shorter."""
        return max(1, int(math.ceil(self.horizon / self.dt - 1e-12)))

    def step_size(self, t):
        """Nominal step from time t (or from each of an array of times): dt,
        cut short at the horizon."""
        return np.minimum(self.dt, self.horizon - t)

    @property
    def times(self):
        """The one clock of run, the replay and every check: the times of
        the n_steps + 1 states, 0 then t + step_size(t), as one sequential
        sum of dt and the ragged last step; refused unless increasing."""
        t = np.zeros(self.n_steps + 1)
        np.cumsum(np.full(self.n_steps, self.dt), out=t[1:])
        t[-1] = t[-2] + self.step_size(t[-2])
        bad = np.flatnonzero(np.diff(t) <= 0)
        if bad.size:
            n = int(bad[0])
            raise ConfigError(f"time grid does not increase at step {n + 1}: "
                              f"{t[n]!r} then {t[n + 1]!r}")
        return t


@dataclass
class Trajectory:
    times: np.ndarray          # (T + 1,) the config's time grid
    thetas: np.ndarray         # (T + 1, M)
    chis: np.ndarray           # (T + 1, M, d)
    records: np.ndarray        # structured, one row per step
    # run takes each step once and retries none; perfbench/run.py reads
    # this count on every trajectory for its step_attempts_per_step
    rejections = 0


def lag_fields(thetas, chis, window):
    """Fields the conductivity is frozen at, one row per window of J steps.

    ``thetas`` (T, M) and ``chis`` (T, M, d) are consecutive states of a
    run, the first opening a window; previous_step is J = 1.  Window 0 is
    frozen at the first state (the initial data), window m >= 1 at the mean
    temperature and the last phase field of the J states of window m - 1.
    Step n = 1, 2, ... uses row (n - 1) // J of the 1 + (T - 1) // J rows.
    """
    closed = (len(thetas) - 1) // window * window
    means = thetas[1:closed + 1].reshape(-1, window, thetas.shape[-1]) \
        .mean(axis=1)
    return (np.concatenate([thetas[:1], means]),
            np.concatenate([chis[:1], chis[window:closed + 1:window]]))


def lagged_fields(thetas, chis, window, a, b):
    """Lagged fields (b - a, M[, d]) of the steps a .. b - 1, one row per
    step, from the states of a run before state b.

    The step from state n uses window m = n // J, frozen at state 0 for
    m = 0 and at states (m - 1) J + 1 .. m J otherwise: for the steps
    a .. b - 1, all of them lie in s .. b - 1.  At J = 1 the rows are the
    states a .. b - 1 themselves: a mean over one row is that row."""
    if window == 1:
        return thetas[a:b], chis[a:b]
    s = max(0, a // window - 1) * window
    bar_theta, bar_chi = lag_fields(thetas[s:b], chis[s:b], window)
    row = np.arange(a, b) // window - s // window
    return bar_theta[row], bar_chi[row]


def bound_C_ell(model, c_b: float, rho: float) -> float:
    """Forcing bound for the inclusion right-hand side at truncation rho."""
    return (model.C_sigma + (model.C_lambda + c_b) / model.beta
            + model.c1 * model.c_bar + model.c1 ** 2
            + model.c1 * model.c_bar * math.log(rho))


def rhs_ell(model, theta, chi, b_val, rho):
    """Coefficient alpha and forcing g of the cellwise inclusion.

    alpha = mu_trunc(theta)/(beta+theta); g collects the phase couplings
    -(theta sig' + lam' + b + e_chi - theta s_chi^rho)/(beta+theta).  theta
    is (..., M) and chi, b_val are (..., M, d): one state or a stack.
    """
    theta = np.asarray(theta, dtype=float)
    denom = model.beta + theta
    alpha = truncated_mobility(model, theta, rho) / denom
    s_chi_r = truncated_entropy_gradient(model, theta, chi, rho)
    ell = (theta[..., None] * model.sig_p(chi) + model.lam_p(chi) + b_val
           + model.e_chi(theta, chi) - theta[..., None] * s_chi_r)
    g = -ell / denom[..., None]
    return alpha, g


def step_chi(potential, chi, alpha, g, dt):
    """One implicit proximal step; returns chi'.

    The implicit Euler step of ``alpha chi' + dphi(chi) ni g`` is the
    proximal map of phi at chi + dt g/alpha, and ``selection`` gives the
    element of dphi(chi') it picks.  Cells are independent: each row is one
    inclusion.
    """
    return potential.prox(chi + (dt / alpha)[:, None] * g)


def selection(chi_old, chi_new, alpha, g, dt):
    """Selection xi' = g - alpha (chi' - chi)/dt of the subdifferential at
    chi'; prox optimality puts it there and, because chi lies in the set, it
    obeys the cone bound of the continuous theory: |xi'| <= |g|.  Broadcasts
    over leading axes, with dt a scalar or one step per leading index."""
    return g - alpha[..., None] * (chi_new - chi_old) / dt


def conduction_operator(grid, model, boundary, bar_theta, bar_chi):
    """Diffusion operator with the conductivity frozen at the lagged fields,
    or a stack of them for lagged fields (T, M), (T, M, d).

    Face values are harmonic means of the cell conductivities; a face value
    outside the model's [k0, k1] is a contract violation.
    """
    face_k = harmonic_face_conductivity(grid, model.k(bar_theta, bar_chi))
    return assemble_diffusion(grid, face_k, boundary,
                              k_bounds=(model.k0, model.k1))


def cell_budget(model, theta, chi, B, eps):
    """Per-cell energy E = eps theta + e + lam + B and entropy
    S = eps ln theta + s - sig, of one state or of a stack of states.

    eps ln theta is the entropy of the regularizing energy eps theta.  The
    indicator of the constraint set is zero on the admissible chi that the
    stepper and the trajectory reader let through, so it has no term here.
    """
    E_cell = model.e(theta, chi) + model.lam(chi) + B
    S_cell = model.s(theta, chi) - model.sig(chi)
    if eps:
        E_cell = E_cell + eps * theta
        S_cell = S_cell + eps * np.log(theta)
    return E_cell, S_cell


def budget_totals(volumes, E_cell, S_cell):
    """Total energy sum w E and total entropy sum w S of the cell budgets of
    one state, or of each state of a stack.  Each state is summed on its
    own, pairwise, which a BLAS product does not promise."""
    return (np.add.reduce(E_cell * volumes, axis=-1),
            np.add.reduce(S_cell * volumes, axis=-1))


def forcing_norm(model, theta, chi, xi, rho):
    """|sigma'(chi) - s_chi^rho(theta, chi) + xi| per cell, the forcing of
    the lower envelope's comparison ODE."""
    return np.linalg.norm(model.sig_p(chi) - truncated_entropy_gradient(
        model, theta, chi, rho) + xi, axis=-1)


def step_records(components, thetas, chis, fields, a, b):
    """Record rows of the steps a .. b - 1 of a run, from its states up to
    b, ``thetas`` (.., M) and ``chis`` (.., M, d), and the PairFields
    ``fields`` of states a .. b; each step takes its lagged fields from
    ``lagged_fields`` and its times and size from the config.

    Row n, the nominal step from state n to n + 1, depends on that step
    alone, so the rows do not depend on how the steps are cut into chunks.
    The cellwise entropy residual theta' (S' - S)/dt + div q' is kept above
    a small negative tolerance by the scheme.
    """
    grid, model, config = components.grid, components.model, components.config
    coupling, rho = components.coupling, config.rho
    bar_theta, bar_chi = lagged_fields(thetas, chis, config.lag_window, a, b)
    times, thetas, chis = config.times[a:b + 1], thetas[a:b + 1], \
        chis[a:b + 1]
    dt = config.step_size(times[:-1])
    theta, chi = thetas[1:], chis[1:]
    rows = np.empty(len(dt), dtype=_RECORD_DTYPE)
    rows["t"] = times[1:]
    rows["min_theta"], rows["max_theta"] = theta.min(-1), theta.max(-1)
    E_cell, S_cell = cell_budget(model, thetas, chis, fields.B, config.eps_reg)
    E, S = budget_totals(grid.volumes, E_cell, S_cell)
    rows["total_energy"], rows["total_entropy"] = E[1:], S[1:]
    rows["start_energy"], rows["start_entropy"] = E[:-1], S[:-1]
    rows["outflow"] = components.boundary.outflow(theta, times[1:])
    op = conduction_operator(grid, model, components.boundary, bar_theta,
                             bar_chi)
    rows["entropy_residual_min"] = (theta * (S_cell[1:] - S_cell[:-1])
                                    / dt[:, None]
                                    + op.residual(theta, times[1:])).min(-1)
    # <q', grad theta'> per face: minus the flux times the jump it crosses
    rows["face_pairing_max"] = grid.volumes[0] * np.max([
        np.max(-w * d * d, axis=tuple(range(-grid.dim, 0)), initial=-math.inf)
        for w, d in zip(op.coeffs, grid.face_differences(theta))], axis=0)
    rows["pairing_residual"] = coupling.pairing_residual(chis, fields, dt)[2]
    # only the envelope check of a regularised run reads source_max; other
    # runs get the empty maximum, as face_pairing_max does with no face
    rows["source_max"] = np.abs(phase_source(
        model, chis[:-1], chi, fields.b[:-1], dt[:, None])
    ).max(-1) if config.n_reg >= 1 else -math.inf
    alpha, g = rhs_ell(model, thetas[:-1], chis[:-1], fields.b[:-1], rho)
    xi = selection(chis[:-1], chi, alpha, g, dt[:, None, None])
    # an indicator's normal cone holds 0, so xi obeys the forcing bound alone
    c_bound = bound_C_ell(model, coupling.c_b, rho) * (1 + 1e-6)
    rows["selection_margin"] = c_bound - np.linalg.norm(xi, axis=-1).max(-1)
    rows["forcing_max"] = forcing_norm(model, theta, chi, xi, rho).max(-1)
    return rows


def replay_records(components, thetas, chis):
    """Record rows of the T steps of a run, from its T + 1 states.

    The states are cut into chunks of about ``_REPLAY_CELLS`` cells; each
    chunk is convolved on its own and gives its rows by ``step_records``,
    so neither the pair fields nor a lag copy exist over the whole stack.
    As in ``run``, slot 0 of the fields carries the last state of the
    previous chunk, so each state is convolved once.
    """
    n_steps = len(thetas) - 1
    size = min(max(1, _REPLAY_CELLS // thetas.shape[-1]), n_steps)
    fields = components.coupling.b_field(chis[:size + 1])
    rows = np.empty(n_steps, dtype=_RECORD_DTYPE)
    for a in range(0, n_steps, size):
        b = min(a + size, n_steps)
        if a:
            fields[0] = fields[size]
            fields[1:b - a + 1] = components.coupling.b_field(
                chis[a + 1:b + 1])
        rows[a:b] = step_records(components, thetas, chis,
                                 fields[:b - a + 1], a, b)
    return rows


def phase_source(model, chi_old, chi_new, b_old, dt):
    """Phase source -(lam'(chi') + b) . dchi/dt of the energy balance, the
    indicator phi adding nothing between admissible states; broadcasts over
    leading axes like ``selection``."""
    force = model.lam_p(chi_new) + b_old
    return -np.einsum("...d,...d->...", force, chi_new - chi_old) / dt


class TensorPreconditioner:
    """The 2D Newton systems of one run and their fast-diagonalisation
    preconditioner (R. E. Lynch, J. R. Rice and D. H. Thomas, Numer. Math.
    6 (1964) 185).

    The system diag(shift) + dt A is preconditioned by the separable
    c I + dt (T_x (+) T_y), c the mean shift.  T_a is the axis' mean face
    coefficient times the 1D Neumann Laplacian, plus the mean Robin
    coefficient of each of the axis' two sides on its end cells, so the
    preconditioner is the system itself for a uniform shift, a constant
    conductivity and a uniform gamma per side.  An insulated axis is
    diagonalised by the DCT-II whatever the conductivity, so its basis is
    built here, once per run: a dense matrix in closed form up to
    ``_DENSE_AXIS`` cells, the FFT above, which alone imports
    ``scipy.fft``.  A Robin axis' basis depends on the conductivity and is
    built by ``eigh_tridiagonal`` once per conduction operator.
    """

    def __init__(self, grid, boundary):
        robin = boundary.gamma_arr * grid.bface_area / grid.volumes[0]
        sides = [s.mean() for s in grid.sides_by_axis(robin)]
        self._ends = list(zip(sides[::2], sides[1::2]))
        self._dct = [_dct_basis(n) if n <= _DENSE_AXIS and not any(ends)
                     else None for n, ends in zip(grid.cells, self._ends)]
        self._op = self._axes = None

    def system(self, op, dt):
        """What ``_newton_solve`` needs of a step with operator ``op``, on
        the (nx, ny) view of the cells: the eigenvalues of dt (T_x (+) T_y)
        and the axis bases, whose columns are the eigenvectors (None: the
        FFT's DCT-II).  T_a takes the mean of the axis' face coefficients
        of ``op``."""
        if op is not self._op:
            self._op, self._axes = op, [
                _axis(n, w.sum() / max(1, w.size), ends, q)
                for n, w, ends, q in zip(op.grid.cells, op.coeffs,
                                         self._ends, self._dct)]
        (lx, qx), (ly, qy) = self._axes
        return dt * (lx[:, None] + ly), (qx, qy)


def _dct_basis(n):
    """The orthonormal DCT-II basis of n cells, one vector per column:
    sqrt(2/n) cos(pi k (2j + 1) / 2n) in row j of column k, column 0
    scaled by 1/sqrt(2).  The phase k (2j + 1) is reduced mod 4n in
    integers, which keeps each entry within 6e-16 of scipy's DCT-II
    matrix on every axis up to ``_DENSE_AXIS`` cells, and leaves 4n
    cosines to evaluate."""
    phase = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    cosines = math.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * np.arange(4 * n))
    q = cosines[phase]
    q[:, 0] = math.sqrt(1.0 / n)
    return q


def _axis(n, w, ends, dct_basis):
    """Eigenpairs of w L + diag(ends[0], 0, ..., 0, ends[1]), L the
    Neumann Laplacian of n cells; an insulated axis' are the DCT-II's."""
    if not any(ends):
        return w * 4 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2, dct_basis
    diag = np.full(n, 2 * w)
    diag[0] += ends[0] - w
    diag[-1] += ends[1] - w
    return eigh_tridiagonal(diag, np.full(n - 1, -w))


def _to_basis(y, q, axis):
    """Coefficients of y along ``axis`` in the basis q (None: DCT-II)."""
    if q is None:
        from scipy.fft import dct
        return dct(y, norm="ortho", axis=axis)
    return q.T @ y if axis == 0 else y @ q


def _from_basis(y, q, axis):
    if q is None:
        from scipy.fft import idct
        return idct(y, norm="ortho", axis=axis)
    return q @ y if axis == 0 else y @ q.T


def _newton_solve(op, system, shift, dt, rhs, t, atol=0.0):
    """x with (diag(shift) + dt A) x = rhs, A = ``op``, from the ``system``
    step_theta builds once per call.  In 1D that is the band
    ``op.banded(0.0, dt)``; its copy gets shift on its diagonal row (0.0 + x
    is x: ``op.banded(shift, dt)`` bit for bit) for ``solveh_banded``, which
    is exact and ignores ``atol``.  In 2D it is
    ``TensorPreconditioner.system``: CG applies the matrix as shift x + dt
    ``op.apply(x)`` and is preconditioned by fast diagonalisation; it stops
    once |rhs - (diag(shift) + dt A) x|_2 is below max(_CG_RTOL |rhs|_2,
    atol).  A CG that stops short raises
    NumericalError naming the cell of the largest residual."""
    if op.grid.dim == 1:
        ab = system.copy()
        ab[-1] += shift
        return solveh_banded(ab, rhs, overwrite_ab=True, check_finite=False)
    lam, (qx, qy) = system
    cells, m = op.grid.cells, op.grid.n_cells
    denom = lam + shift.mean()

    def matvec(v):
        return shift * v + dt * op.apply(v)

    def precond(r):
        y = _to_basis(_to_basis(r.reshape(cells), qx, 0), qy, 1) / denom
        return _from_basis(_from_basis(y, qx, 0), qy, 1).reshape(-1)

    x, info = cg(LinearOperator((m, m), dtype=float, matvec=matvec), rhs,
                 rtol=_CG_RTOL, atol=atol, maxiter=_CG_CAP,
                 M=LinearOperator((m, m), dtype=float, matvec=precond))
    if info:
        miss = np.abs(rhs - matvec(x))
        k = int(np.argmax(miss))
        raise NumericalError(f"temperature step at t={t:.6g}: CG did not "
                             f"converge in {info} iterations; residual "
                             f"{miss[k]:.3e} in cell {k}")
    return x


def step_theta(model, state, chi_new, b_old, op, dt, config, plate=None,
               start=None):
    """Backward-Euler energy step with diffusion operator ``op``; returns theta'.

    Plain Newton on the residual F(th) = eps th + e(th, chi') + dt A th -
    base, from ``start`` (run's predictor; the step's first temperature
    when None).  c_V = de/dth is positive and increasing on th > 0, so F is
    convex there and its Jacobian diag(eps + c_V) + dt A is an M-matrix.
    If a positive root exists, the first iterate from any positive start
    lies at or above it and the later ones fall monotonically to it (Ortega
    and Rheinboldt, Iterative Solution of Nonlinear Equations in Several
    Variables, 1970, section 13.3): a positive start needs no fallback, no
    step needs damping, and a nonpositive iterate means that no positive
    root exists.  Newton stops at the first iterate with |F_i| <= bound_i
    in every cell, bound = max(``newton_tol``, ``ROUNDOFF_ULPS`` ulp) (eps
    th_n + |e(th_n, chi')| + dt |A| th_n + |base|): relative to the terms
    that cancel in F and fixed by the step's first state th_n, whatever the
    start, and never below their round-off floor, where the residual is
    rounding noise that no step can lower (Kelley, Iterative Methods for
    Linear and Nonlinear Equations, SIAM 1995, section 5).  A 1D step
    factorises its band, built here once; a 2D step hands its systems to
    CG, preconditioned by ``plate``, the run's ``TensorPreconditioner`` (a
    fresh one when None).  That Newton is inexact (Dembo, Eisenstat and
    Steihaug, SIAM J. Numer. Anal. 19 (1982) 400; Eisenstat and Walker,
    SIAM J. Sci. Comput. 17 (1996) 16): CG may stop once its residual r has
    |r|_2 <= max(min(bound) / 10, 0.01 |F|^2 / scale), scale = max(1,
    |F(start)|), 1/100 of what the quadratic term leaves, so convergence
    stays quadratic.  J is an M-matrix diagonally dominant by min(eps +
    c_V), so the inexact iterate lies within |r| / min(eps + c_V) of the
    exact Newton iterate: the monotone argument holds up to that, and
    positivity is still checked on every iterate.

    Raises NumericalError when the residual is not finite (naming the first
    such cell), when the Newton solve fails (CG naming the cell of its
    largest residual), when an iterate is nonpositive
    (naming its coldest cell), or when the iterate of the ``newton_cap``-th
    solve still misses the stop rule (naming the cell that misses it by
    the largest factor).
    """
    t_new = state.t + dt
    eps = config.eps_reg
    theta_n = state.theta

    source = phase_source(model, state.chi, chi_new, b_old, dt)
    base = eps * theta_n + model.e(theta_n, state.chi) \
        + dt * (source + op.robin_load(t_new))
    bound = max(config.newton_tol, ROUNDOFF_ULPS * _ULP) * (
        eps * theta_n + np.abs(model.e(theta_n, chi_new))
        + dt * op.apply_abs(theta_n) + np.abs(base))

    theta = theta_n.copy() if start is None else start
    if op.grid.dim == 1:
        system = op.banded(0.0, dt)
    else:
        plate = plate or TensorPreconditioner(op.grid, op.boundary)
        system = plate.system(op, dt)

    def residual(th):
        return eps * th + model.e(th, chi_new) + dt * op.apply(th) - base

    f = residual(theta)
    for solves in range(config.newton_cap + 1):
        size = np.abs(f)
        if (size <= bound).all():      # a NaN is never within its bound
            return theta
        norm = float(size.max())
        if not math.isfinite(norm):
            raise NumericalError(
                f"temperature step at t={state.t:.6g}: residual not finite "
                f"in cell {int(np.flatnonzero(~np.isfinite(f))[0])}")
        if solves == config.newton_cap:
            break
        if solves == 0:
            scale = max(1.0, norm)
        try:
            # f is finite, and so is the matrix at a finite theta
            delta = _newton_solve(
                op, system, eps + model.cv(theta, chi_new), dt, -f, state.t,
                max(float(bound.min()) / 10, 0.01 * norm * norm / scale))
        except LinAlgError as exc:
            raise NumericalError(
                f"temperature step at t={state.t:.6g}: Newton matrix not "
                f"positive definite ({exc})") from exc
        theta = theta + delta
        if (theta <= 0.0).any():
            raise NumericalError(
                f"temperature positivity violated at t={t_new:.6g}: min "
                f"theta' = {float(np.min(theta)):.3e} in cell "
                f"{int(np.argmin(theta))}")
        f = residual(theta)
    k = int(np.argmax(np.abs(f) / bound))
    raise NumericalError(
        f"temperature step exceeded {config.newton_cap} Newton iterations "
        f"at t={state.t:.6g}; residual {abs(f[k]):.3e} over its bound "
        f"{bound[k]:.3e} in cell {k}")


def kirchhoff(model, theta):
    """Primitive of the chi-independent conductivity, K(th) = int_0^th k.

    Strictly increasing with k0 th <= K(th) <= k1 th; every model with a
    chi-independent conductivity gives it in closed form.
    """
    if not model.k_independent_of_chi:
        raise ModeError("Kirchhoff transform needs a conductivity depending "
                        "on temperature only (uniqueness mode)")
    return model.k_bar_primitive(np.asarray(theta, dtype=float))


@dataclass
class RunComponents:
    """Everything run() needs, bundled so studies can clone and perturb."""

    grid: object
    model: object
    potential: object
    coupling: object
    boundary: object
    theta0: np.ndarray
    chi0: np.ndarray
    config: SolverConfig


def run(components: RunComponents):
    """March the coupled scheme over the steps of the config's time grid.

    Returns a Trajectory with every state, written into its arrays as it
    is accepted.  The pair fields of the states are kept for one chunk of
    about ``_REPLAY_CELLS`` cells; when a chunk closes, ``step_records``
    turns it into rows.  Each nominal step is taken once, so every row is a
    step that ``verify`` can replay; a step that fails raises
    NumericalError naming the step, its time and the cell.
    """
    grid, model, config = components.grid, components.model, components.config
    potential, coupling = components.potential, components.coupling
    boundary = components.boundary

    theta0 = np.asarray(components.theta0, dtype=float).copy()
    chi0 = np.atleast_2d(np.asarray(components.chi0, dtype=float)).copy()
    if theta0.shape != (grid.n_cells,) or chi0.shape != (grid.n_cells, model.d):
        raise ConfigError("initial fields must match the grid and model shapes")
    if np.any(theta0 <= 0):
        raise ConfigError("initial temperature must be positive everywhere")
    if not np.all(potential.contains(chi0)):
        raise ConfigError("initial phase field must lie in the potential domain")

    window, n_steps, times = config.lag_window, config.n_steps, config.times
    size = min(max(1, _REPLAY_CELLS // grid.n_cells), n_steps)
    state = State(theta0, chi0, times[0], coupling.b_field(chi0))
    thetas = np.empty((n_steps + 1,) + theta0.shape)
    chis = np.empty((n_steps + 1,) + chi0.shape)
    fields = PairFields(*(np.empty((size + 1,) + v.shape)
                          for v in vars(state.fields).values()))
    records = np.empty(n_steps, dtype=_RECORD_DTYPE)
    thetas[0], chis[0], fields[0] = theta0, chi0, state.fields
    a = 0      # the first state of the open chunk, fields[0]
    # the 2D preconditioner's bases, kept for this run only
    plate = TensorPreconditioner(grid, boundary) if grid.dim == 2 else None
    start = None   # step 1 has no history: Newton starts from theta_0

    for n in range(1, n_steps + 1):
        if (n - 1) % window == 0:
            bar = lagged_fields(thetas, chis, window, n - 1, n)
            op = conduction_operator(grid, model, boundary,
                                     *(v[0] for v in bar))
        dt, b_old = config.step_size(state.t), state.fields.b
        if n > 1:
            # Newton's start: theta_n (theta_n / theta_(n-1))^r, r the ratio
            # of the two step sizes, positive by construction (step_theta)
            r = dt / config.step_size(times[n - 2])
            start = state.theta * (state.theta / thetas[n - 2]) ** r
        try:
            pair = np.linalg.norm(b_old, axis=-1)
            if (pair > coupling.c_b * (1 + 1e-9)).any():
                raise NumericalError(
                    f"pair-interaction bound exceeded at t={state.t:.6g} in "
                    f"cell {int(np.argmax(pair))}: |b| = {pair.max():.3e}")
            alpha, g = rhs_ell(model, state.theta, state.chi, b_old,
                               config.rho)
            chi_new = step_chi(potential, state.chi, alpha, g, dt)
            outside = np.flatnonzero(~potential.contains(chi_new))
            if outside.size:
                raise NumericalError(
                    f"phase field left the potential domain at "
                    f"t={state.t + dt:.6g} in cell {int(outside[0])}")
            theta_new = step_theta(model, state, chi_new, b_old, op, dt,
                                   config, plate, start)
        except NumericalError as exc:
            raise NumericalError(f"step {n}: {exc}") from exc
        # each state carries its nonlocal fields, so each is convolved once
        state = State(theta_new, chi_new, times[n], coupling.b_field(chi_new))
        thetas[n], chis[n], fields[n - a] = theta_new, chi_new, state.fields
        if n - a == size or n == n_steps:
            records[a:n] = step_records(components, thetas, chis,
                                        fields[:n - a + 1], a, n)
            fields[0] = state.fields
            a = n

    return Trajectory(times=times, thetas=thetas, chis=chis, records=records)
