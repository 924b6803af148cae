"""Constraint potentials, proximal steps, and the rate-independent inclusion solver.

The order parameter is constrained by the indicator of a closed convex set:
a coordinate box, a centered ball, or the corner simplex
{x >= 0, sum x <= 1}.  For an indicator the proximal map is the euclidean
projection onto the set, whatever the weight.

The implicit Euler step of ``alpha zeta' + dphi(zeta) ∋ g`` is a proximal
map; the selection xi = g - alpha (zeta' - zeta)/dt recovered from the step
lies in the normal cone at zeta' and, because the previous state lies in
the set, satisfies the cone bound of the continuous theory: |xi| <= |g|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import qmc

from .errors import ConfigError


# ---------------------------------------------------------------------------
# potentials


class IndicatorBox:
    """Indicator of the coordinate box prod [lo_i, hi_i]."""

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ConfigError("box bounds must satisfy lo < hi per component")
        self.lo, self.hi = lo, hi
        self.d = lo.shape[0]
        self._tol = 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))

    def phi(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        inside = np.all((x >= self.lo - self._tol) & (x <= self.hi + self._tol), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def contains(self, x) -> np.ndarray:
        return np.isfinite(self.phi(x))

    def prox(self, z, rho) -> np.ndarray:
        z = np.atleast_2d(z)
        return np.clip(z, self.lo, self.hi)


class IndicatorBall:
    """Indicator of the centered euclidean ball of given radius."""

    def __init__(self, d: int, radius: float):
        if radius <= 0:
            raise ConfigError("ball radius must be positive")
        self.d = int(d)
        self.radius = float(radius)
        self._tol = 1e-12 * max(1.0, radius)

    def phi(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.where(np.linalg.norm(x, axis=-1) <= self.radius + self._tol, 0.0, np.inf)

    def contains(self, x) -> np.ndarray:
        return np.isfinite(self.phi(x))

    def prox(self, z, rho) -> np.ndarray:
        z = np.atleast_2d(z)
        nz = np.linalg.norm(z, axis=-1)
        fac = np.where(nz > self.radius,
                       np.divide(self.radius, nz, out=np.ones_like(nz), where=nz > 0),
                       1.0)
        return z * fac[..., None]


def _halton(d: int, n: int) -> np.ndarray:
    sampler = qmc.Halton(d=d, scramble=False)
    pts = sampler.random(n + 1)[1:]  # drop the degenerate all-zero first point
    return pts


class IndicatorSimplex:
    """Indicator of the corner simplex {x >= 0, sum_i x_i <= 1}."""

    def __init__(self, d: int):
        self.d = int(d)
        self._tol = 1e-12

    def phi(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        ok = np.all(x >= -self._tol, axis=-1) & (np.sum(x, axis=-1) <= 1.0 + self._tol)
        return np.where(ok, 0.0, np.inf)

    def contains(self, x) -> np.ndarray:
        return np.isfinite(self.phi(x))

    def prox(self, z, rho) -> np.ndarray:
        z = np.atleast_2d(z)
        p = np.maximum(z, 0.0)
        out = p.copy()
        over = np.sum(p, axis=-1) > 1.0
        if np.any(over):
            out[over] = _project_unit_simplex(z[over])
        return out

    def domain_sample(self, n: int) -> np.ndarray:
        """Up to n Halton points of the simplex."""
        pts = _halton(self.d, 4 * n + 16)
        pts = pts[np.sum(pts, axis=-1) <= 1.0][:n]
        return pts


def _project_unit_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto {x >= 0, sum x = 1} (sort method)."""
    u = np.sort(z, axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, z.shape[-1] + 1)
    cond = u - css / idx > 0
    k = np.sum(cond, axis=-1)
    tau = css[np.arange(z.shape[0]), k - 1] / k
    return np.maximum(z - tau[:, None], 0.0)


# ---------------------------------------------------------------------------
# inclusion solver


@dataclass
class InclusionProblem:
    """Data for  alpha(t) zeta' + dphi(zeta) ∋ g(t),  zeta(0) = zeta0.

    ``alpha`` maps t to a positive scalar, ``g`` maps t to a vector of the
    potential's dimension, ``C`` is a declared forcing bound |g| <= C that is
    validated on the time grid.
    """

    alpha: Callable[[float], float]
    g: Callable[[float], np.ndarray]
    zeta0: np.ndarray
    C: float
    T: float


@dataclass
class InclusionTrajectory:
    t: np.ndarray          # (K+1,)
    zeta: np.ndarray       # (K+1, d)
    xi: np.ndarray         # (K, d) selection at steps 1..K
    alpha: np.ndarray      # (K,)
    g: np.ndarray          # (K, d)
    phi: np.ndarray        # (K+1,)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def rates(self) -> np.ndarray:
        return np.diff(self.zeta, axis=0) / self.dt


def inclusion_solve(problem: InclusionProblem, potential,
                    dt: float) -> InclusionTrajectory:
    """Implicit Euler via proximal steps; returns states and selections.

    Each step solves zeta_k = prox(phi, zeta_{k-1} + dt g_k / alpha_k,
    alpha_k / dt) and recovers xi_k = g_k - alpha_k (zeta_k - zeta_{k-1})/dt,
    which lies in dphi(zeta_k) by prox optimality.
    """
    if dt <= 0 or problem.T <= 0:
        raise ConfigError("dt and T must be positive")
    z0 = np.asarray(problem.zeta0, dtype=float).reshape(potential.d)
    if not bool(np.atleast_1d(potential.contains(z0))[0]):
        raise ConfigError("initial value lies outside the potential domain")

    n_steps = int(math.ceil(problem.T / dt - 1e-12))
    d = potential.d
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    zeta = np.zeros((n_steps + 1, d))
    zeta[0] = z0
    xi = np.zeros((n_steps, d))
    alphas = np.zeros(n_steps)
    gs = np.zeros((n_steps, d))
    for k in range(1, n_steps + 1):
        tk = t[k]
        a = float(problem.alpha(tk))
        if a <= 0:
            raise ConfigError("alpha must stay positive")
        gk = np.asarray(problem.g(tk), dtype=float).reshape(d)
        if np.linalg.norm(gk) > problem.C * (1.0 + 1e-9) + 1e-15:
            raise ConfigError(
                f"forcing exceeds its declared bound at t={tk}: |g|={np.linalg.norm(gk)}")
        z = zeta[k - 1] + (dt / a) * gk
        y = potential.prox(z[None, :], np.array([a / dt]))[0]
        zeta[k] = y
        xi[k - 1] = gk - a * (y - zeta[k - 1]) / dt
        alphas[k - 1] = a
        gs[k - 1] = gk
    phis = potential.phi(zeta)
    return InclusionTrajectory(t=t, zeta=zeta, xi=xi, alpha=alphas, g=gs, phi=phis)


@dataclass
class InclusionGapReport:
    sup_distance: float
    lip_constant: float


def dependence_gap(tr1: InclusionTrajectory, tr2: InclusionTrajectory) -> InclusionGapReport:
    """Measure the trajectory gap against the data gap and report the
    smallest multiplicative constant closing the stability bound.

    ``lip_constant`` closes |z1 - z2|(t) <= |z01 - z02| + L * integral of
    (|1/a1 - 1/a2| + |g1 - g2|).
    """
    if tr1.t.shape != tr2.t.shape or not np.allclose(tr1.t, tr2.t):
        raise ConfigError("dependence_gap requires matching time grids")
    dt = tr1.dt
    diff = np.linalg.norm(tr1.zeta - tr2.zeta, axis=-1)
    init_gap = float(diff[0])
    sup_distance = float(np.max(diff))

    data_rate = np.abs(1.0 / tr1.alpha - 1.0 / tr2.alpha) + np.linalg.norm(
        tr1.g - tr2.g, axis=-1)
    data_cum = np.concatenate([[0.0], np.cumsum(data_rate) * dt])

    lip = 0.0
    for k in range(1, diff.shape[0]):
        if data_cum[k] > 1e-300:
            lip = max(lip, (diff[k] - init_gap) / data_cum[k])
    return InclusionGapReport(sup_distance=sup_distance, lip_constant=lip)


def derivative_convergence(problems: Sequence[InclusionProblem],
                           limit: InclusionProblem, potential, dt: float):
    """L2-in-time distances of the discrete rates to the limit run.

    Returns (distances, verdict): verdict is true when the sequence is
    nonincreasing and the final distance is the smallest.
    """
    ref = inclusion_solve(limit, potential, dt)
    ref_rates = ref.rates()
    distances = []
    for p in problems:
        tr = inclusion_solve(p, potential, dt)
        gap = np.linalg.norm(tr.rates() - ref_rates, axis=-1)
        distances.append(float(math.sqrt(np.sum(np.square(gap)) * dt)))
    arr = np.asarray(distances)
    verdict = bool(np.all(np.diff(arr) <= 1e-12 + 1e-9 * arr[:-1]))
    return distances, verdict


def dissipation_identity_residuals(tr: InclusionTrajectory) -> np.ndarray:
    """Per-step defect of phi(z_k) - phi(z_{k-1}) <= dt (|g|^2-|xi|^2-|a z'|^2)/2a.

    Nonpositive values satisfy the inequality; the convexity argument makes
    the bound exact up to prox tolerance, independent of dt.
    """
    dt = tr.dt
    rates = tr.rates()
    lhs = np.diff(tr.phi)
    g2 = np.sum(np.square(tr.g), axis=-1)
    xi2 = np.sum(np.square(tr.xi), axis=-1)
    ar2 = np.square(tr.alpha) * np.sum(np.square(rates), axis=-1)
    rhs = dt * (g2 - xi2 - ar2) / (2.0 * tr.alpha)
    return lhs - rhs
