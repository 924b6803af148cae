"""Convex potentials, proximal steps, and the rate-independent inclusion solver.

Supported potentials: indicator of a coordinate box, of a centered ball, of
the corner simplex {x >= 0, sum x <= 1}, and smooth gauge potentials
``f(M_K(x))`` built from a symmetric convex body K (ball or centered box)
and an increasing convex C^1 function f with f(0) = f'(0) = 0.

The implicit Euler step of ``alpha zeta' + dphi(zeta) ∋ g`` is a proximal
map; the subgradient selection recovered from the step satisfies the same
cone bound as the continuous theory: |xi| <= C for indicators and
|xi| <= (R/r) C for gauge potentials, whenever |g| <= C and the initial
value admits a subgradient of norm <= C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.stats import qmc

from .errors import ConfigError, NumericalError

_PROX_TOL = 1e-12
_PROX_MAX_ITER = 100


# ---------------------------------------------------------------------------
# scalar profile functions f


class QuadraticProfile:
    """f(s) = scale * s^2 / 2 on [0, inf)."""

    f0 = math.inf

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ConfigError("profile scale must be positive")
        self.scale = float(scale)

    def value(self, s):
        return 0.5 * self.scale * np.square(s)

    def deriv(self, s):
        return self.scale * np.asarray(s, dtype=float)

    def deriv2(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.scale)

    def inv_deriv(self, y: float) -> float:
        return y / self.scale

    @property
    def sup_deriv(self) -> float:
        return math.inf


class LogBarrierProfile:
    """f(s) = -log(1 - s^2) on [0, 1); blows up at the gauge unit level."""

    f0 = 1.0

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return -np.log1p(-np.square(s))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return 2.0 * s / (1.0 - np.square(s))

    def deriv2(self, s):
        s2 = np.square(np.asarray(s, dtype=float))
        return 2.0 * (1.0 + s2) / np.square(1.0 - s2)

    def inv_deriv(self, y: float) -> float:
        # solve 2s/(1-s^2) = y: s = (sqrt(1+y^2)-1)/y for y > 0
        if y == 0.0:
            return 0.0
        return (math.sqrt(1.0 + y * y) - 1.0) / y

    @property
    def sup_deriv(self) -> float:
        return math.inf


# ---------------------------------------------------------------------------
# convex bodies for gauges


class BallBody:
    """Centered euclidean ball of radius r; gauge M(x) = |x| / r."""

    def __init__(self, d: int, radius: float):
        if radius <= 0:
            raise ConfigError("ball radius must be positive")
        self.d = int(d)
        self.r = float(radius)
        self.R = float(radius)

    def gauge(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.atleast_2d(x), axis=-1) / self.r

    def project_scaled(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Closest point of m*K to each row of z."""
        z = np.atleast_2d(z)
        nz = np.linalg.norm(z, axis=-1)
        lim = np.asarray(m, dtype=float) * self.r
        fac = np.where(nz > lim, np.divide(lim, nz, out=np.ones_like(nz), where=nz > 0), 1.0)
        return z * fac[..., None]

    def dist_deriv(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        """d/dm of dist^2(z, m K) / 2  =  -r * (|z| - m r)_+ ."""
        nz = np.linalg.norm(np.atleast_2d(z), axis=-1)
        return -self.r * np.maximum(nz - np.asarray(m) * self.r, 0.0)

    def dist_deriv2(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        nz = np.linalg.norm(np.atleast_2d(z), axis=-1)
        return np.where(nz > np.asarray(m) * self.r, self.r ** 2, 0.0)

    def gauge_subdiff(self, x: np.ndarray):
        """(min-norm element, sup of norms, extreme points) of dM at a point x != 0."""
        nx = float(np.linalg.norm(x))
        w = np.asarray(x, dtype=float) / (self.r * nx)
        return w, float(np.linalg.norm(w)), [w]


class BoxBody:
    """Centered coordinate box with per-axis halfwidths; gauge max_i |x_i|/a_i."""

    def __init__(self, halfwidths: Sequence[float]):
        a = np.asarray(halfwidths, dtype=float)
        if a.ndim != 1 or np.any(a <= 0):
            raise ConfigError("box halfwidths must be positive")
        self.a = a
        self.d = a.shape[0]
        self.r = float(np.min(a))
        self.R = float(np.linalg.norm(a))

    def gauge(self, x: np.ndarray) -> np.ndarray:
        return np.max(np.abs(np.atleast_2d(x)) / self.a, axis=-1)

    def project_scaled(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        lim = np.asarray(m, dtype=float)[..., None] * self.a
        return np.clip(z, -lim, lim)

    def dist_deriv(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        exc = np.maximum(np.abs(z) - np.asarray(m)[..., None] * self.a, 0.0)
        return -np.sum(self.a * exc, axis=-1)

    def dist_deriv2(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        active = np.abs(z) > np.asarray(m)[..., None] * self.a
        return np.sum(np.square(self.a) * active, axis=-1)

    def gauge_subdiff(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        ratios = np.abs(x) / self.a
        mval = float(np.max(ratios))
        active = np.flatnonzero(ratios >= mval * (1.0 - 1e-12))
        extremes = []
        for i in active:
            e = np.zeros(self.d)
            e[i] = math.copysign(1.0, x[i]) / self.a[i]
            extremes.append(e)
        # min-norm convex combination: weights proportional to a_i^2
        wts = np.square(self.a[active])
        wts = wts / np.sum(wts)
        w = np.zeros(self.d)
        for lam, i in zip(wts, active):
            w[i] = lam * math.copysign(1.0, x[i]) / self.a[i]
        sup = float(max(np.linalg.norm(e) for e in extremes))
        return w, sup, extremes


# ---------------------------------------------------------------------------
# subdifferential report


@dataclass
class SubdiffInfo:
    """Description of dphi at a point: minimal-norm element and norm range.

    ``sup_norm`` is the supremum of |eta| over the subdifferential
    (``inf`` for an unbounded normal cone at a boundary point), ``extremes``
    lists generators: extreme points for gauge potentials, cone generators
    for indicators.
    """

    min_norm_element: np.ndarray
    sup_norm: float
    extremes: list
    is_cone: bool


def _halton(d: int, n: int) -> np.ndarray:
    sampler = qmc.Halton(d=d, scramble=False)
    pts = sampler.random(n + 1)[1:]  # drop the degenerate all-zero first point
    return pts


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

    def subdiff(self, x) -> SubdiffInfo:
        x = np.asarray(x, dtype=float).reshape(self.d)
        if not self.contains(x)[0]:
            raise ConfigError("subdifferential requested outside the domain")
        gens = []
        for i in range(self.d):
            if x[i] >= self.hi[i] - self._tol:
                e = np.zeros(self.d); e[i] = 1.0; gens.append(e)
            if x[i] <= self.lo[i] + self._tol:
                e = np.zeros(self.d); e[i] = -1.0; gens.append(e)
        sup = math.inf if gens else 0.0
        return SubdiffInfo(np.zeros(self.d), sup, gens, is_cone=True)

    def d_bound(self) -> float:
        return 1.0

    def domain_sample(self, n: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * _halton(self.d, n)

    def domain_diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


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

    def subdiff(self, x) -> SubdiffInfo:
        x = np.asarray(x, dtype=float).reshape(self.d)
        if not self.contains(x)[0]:
            raise ConfigError("subdifferential requested outside the domain")
        nx = float(np.linalg.norm(x))
        if nx >= self.radius - self._tol and nx > 0:
            return SubdiffInfo(np.zeros(self.d), math.inf, [x / nx], is_cone=True)
        return SubdiffInfo(np.zeros(self.d), 0.0, [], is_cone=True)

    def d_bound(self) -> float:
        return 1.0

    def domain_sample(self, n: int) -> np.ndarray:
        pts = 2.0 * _halton(self.d, 4 * n + 16) - 1.0
        pts = pts[np.linalg.norm(pts, axis=-1) <= 1.0][:n]
        return pts * self.radius

    def domain_diameter(self) -> float:
        return 2.0 * self.radius


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

    def subdiff(self, x) -> SubdiffInfo:
        x = np.asarray(x, dtype=float).reshape(self.d)
        if not self.contains(x)[0]:
            raise ConfigError("subdifferential requested outside the domain")
        gens = []
        for i in range(self.d):
            if x[i] <= self._tol:
                e = np.zeros(self.d); e[i] = -1.0; gens.append(e)
        if np.sum(x) >= 1.0 - self._tol:
            gens.append(np.ones(self.d))
        sup = math.inf if gens else 0.0
        return SubdiffInfo(np.zeros(self.d), sup, gens, is_cone=True)

    def d_bound(self) -> float:
        return 1.0

    def domain_sample(self, n: int) -> np.ndarray:
        pts = _halton(self.d, 4 * n + 16)
        pts = pts[np.sum(pts, axis=-1) <= 1.0][:n]
        return pts

    def domain_diameter(self) -> float:
        return math.sqrt(2.0) if self.d > 1 else 1.0


def _project_unit_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto {x >= 0, sum x = 1} (sort method)."""
    u = np.sort(z, axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, z.shape[-1] + 1)
    cond = u - css / idx > 0
    k = np.sum(cond, axis=-1)
    tau = css[np.arange(z.shape[0]), k - 1] / k
    return np.maximum(z - tau[:, None], 0.0)


class GaugePotential:
    """phi(x) = f(M_K(x)) for a symmetric convex body K and profile f.

    The proximal map reduces to a scalar convex problem in the gauge level
    m = M_K(y): minimize f(m) + (rho/2) dist^2(z, m K) over m in
    [0, M_K(z)], then project z onto m* K.  On a ball body this coincides
    with the classical solve along the ray through z; on a box body the
    level-set form stays exact where the ray ansatz would not.
    """

    def __init__(self, body, profile):
        self.body = body
        self.profile = profile
        self.d = body.d

    # -- basic evaluations

    def gauge(self, x) -> np.ndarray:
        return self.body.gauge(x)

    def phi(self, x) -> np.ndarray:
        m = self.body.gauge(x)
        out = np.full(m.shape, np.inf)
        ok = m < self.profile.f0
        out[ok] = self.profile.value(m[ok])
        return out

    def contains(self, x) -> np.ndarray:
        return self.body.gauge(x) < self.profile.f0

    # -- prox via scalar root solve on the gauge level

    def prox(self, z, rho) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        rho = np.broadcast_to(np.asarray(rho, dtype=float), (z.shape[0],))
        if np.any(rho <= 0):
            raise ConfigError("prox weight must be positive")
        m_z = self.body.gauge(z)
        hi_cap = self.profile.f0 * (1.0 - 1e-12) if math.isfinite(self.profile.f0) else math.inf
        hi = np.minimum(m_z, hi_cap)
        lo = np.zeros_like(hi)

        def fprime(m):
            return self.profile.deriv(m) + rho * self.body.dist_deriv(z, m)

        # trivial rows: z already inside the minimizing level at m = m_z
        m = 0.5 * hi
        active = hi > 0
        if not np.any(active):
            return self.body.project_scaled(z, np.zeros_like(hi))
        # F' is nondecreasing: F'(0) <= 0 always (f'(0)=0); root in [0, hi]
        for it in range(_PROX_MAX_ITER):
            val = fprime(m)
            conv = np.abs(val) <= _PROX_TOL * np.maximum(1.0, rho * np.maximum(m_z, 1.0))
            lo = np.where((val < 0) & active, m, lo)
            hi = np.where((val > 0) & active, m, hi)
            active = active & ~conv & (hi - lo > 1e-16 * np.maximum(1.0, m_z))
            if not np.any(active):
                break
            d2 = self.profile.deriv2(m) + rho * self.body.dist_deriv2(z, m)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = m - np.where(d2 > 0, val / np.where(d2 > 0, d2, 1.0), 0.0)
            bad = ~np.isfinite(newton) | (newton <= lo) | (newton >= hi) | (d2 <= 0)
            m_next = np.where(bad, 0.5 * (lo + hi), newton)
            m = np.where(active, m_next, m)
        else:
            if np.any(active):
                raise NumericalError(
                    f"gauge prox failed to converge; residual {np.max(np.abs(fprime(m)[active]))}")
        return self.body.project_scaled(z, m)

    # -- subdifferential

    def subdiff(self, x) -> SubdiffInfo:
        x = np.asarray(x, dtype=float).reshape(self.d)
        m = float(np.atleast_1d(self.body.gauge(x))[0])
        if m >= self.profile.f0:
            raise ConfigError("subdifferential requested outside the domain")
        if m == 0.0:
            return SubdiffInfo(np.zeros(self.d), 0.0, [np.zeros(self.d)], is_cone=False)
        fp = float(self.profile.deriv(m))
        w_min, w_sup, w_ext = self.body.gauge_subdiff(x)
        ext = [fp * w for w in w_ext]
        return SubdiffInfo(fp * w_min, fp * w_sup, ext, is_cone=False)

    def d_bound(self) -> float:
        return self.body.R / self.body.r

    # -- threshold C1 = f((f')^{-1}(C R)) and its implications

    def c1_threshold(self, C: float) -> float:
        if C < 0:
            raise ConfigError("bound C must be nonnegative")
        y = C * self.body.R
        if y >= self.profile.sup_deriv:
            return math.inf
        s = self.profile.inv_deriv(y)
        return float(self.profile.value(s))

    def domain_sample(self, n: int) -> np.ndarray:
        cap = self.profile.f0 if math.isfinite(self.profile.f0) else 1.0
        shell = 3.0 if not math.isfinite(self.profile.f0) else cap * (1.0 - 1e-9)
        pts = (2.0 * _halton(self.d, 6 * n + 32) - 1.0) * self.body.R * shell
        pts = pts[np.atleast_1d(self.body.gauge(pts)) < cap * (1.0 - 1e-12)][:n]
        return pts

    def domain_diameter(self) -> float:
        cap = self.profile.f0 if math.isfinite(self.profile.f0) else 3.0
        return 2.0 * self.body.R * cap


def verify_c1_threshold(potential: GaugePotential, C: float, n: int = 1000):
    """Sample the domain and check both threshold implications.

    Returns (ok, worst) where worst collects the extreme sampled ratios:
    phi <= C1 must force sup |dphi| <= (R/r) C, and phi >= C1 must force
    min |dphi| >= C.
    """
    c1 = potential.c1_threshold(C)
    dr = potential.d_bound()
    pts = potential.domain_sample(n)
    ok = True
    worst = {"below_max": 0.0, "above_min": math.inf, "c1": c1}
    for p in pts:
        val = float(potential.phi(p)[0])
        info = potential.subdiff(p)
        if val <= c1:
            worst["below_max"] = max(worst["below_max"], info.sup_norm)
            if info.sup_norm > dr * C * (1.0 + 1e-9) + 1e-12:
                ok = False
        if val >= c1 and math.isfinite(c1):
            nrm = float(np.linalg.norm(info.min_norm_element))
            worst["above_min"] = min(worst["above_min"], nrm)
            if nrm < C * (1.0 - 1e-9) - 1e-12:
                ok = False
    return ok, worst


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


def inclusion_solve(problem: InclusionProblem, potential, dt: float,
                    selection_tol: float = 1e-9) -> InclusionTrajectory:
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
    info0 = potential.subdiff(z0)
    min_norm0 = float(np.linalg.norm(info0.min_norm_element))
    if min_norm0 > problem.C + selection_tol:
        raise ConfigError(
            f"initial value violates the selection bound: |xi(zeta0)| = {min_norm0} > C = {problem.C}")

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
    deriv_l1_distance: float
    data_distance: float
    lip_constant: float
    cdg_constant: float


def dependence_gap(tr1: InclusionTrajectory, tr2: InclusionTrajectory) -> InclusionGapReport:
    """Measure both trajectory gaps against the data gap and report the
    smallest multiplicative constants closing the stability bounds.

    ``lip_constant`` closes |z1 - z2|(t) <= |z01 - z02| + L * integral of
    (|1/a1 - 1/a2| + |g1 - g2|); ``cdg_constant`` closes the strengthened
    form with the L1 norm of the rate gap added on the left and the initial
    gap folded into the right side.
    """
    if tr1.t.shape != tr2.t.shape or not np.allclose(tr1.t, tr2.t):
        raise ConfigError("dependence_gap requires matching time grids")
    dt = tr1.dt
    diff = np.linalg.norm(tr1.zeta - tr2.zeta, axis=-1)
    init_gap = float(diff[0])
    sup_distance = float(np.max(diff))
    rate_gap = np.linalg.norm(tr1.rates() - tr2.rates(), axis=-1)
    deriv_l1 = float(np.sum(rate_gap) * dt)

    data_rate = np.abs(1.0 / tr1.alpha - 1.0 / tr2.alpha) + np.linalg.norm(
        tr1.g - tr2.g, axis=-1)
    data_cum = np.concatenate([[0.0], np.cumsum(data_rate) * dt])
    data_distance = float(init_gap + data_cum[-1])

    lip = 0.0
    for k in range(1, diff.shape[0]):
        if data_cum[k] > 1e-300:
            lip = max(lip, (diff[k] - init_gap) / data_cum[k])
    cdg = 0.0
    rate_cum = np.concatenate([[0.0], np.cumsum(rate_gap) * dt])
    for k in range(1, diff.shape[0]):
        rhs = init_gap + data_cum[k]
        if rhs > 1e-300:
            cdg = max(cdg, (rate_cum[k] + diff[k]) / rhs)
    return InclusionGapReport(
        sup_distance=sup_distance,
        deriv_l1_distance=deriv_l1,
        data_distance=data_distance,
        lip_constant=lip,
        cdg_constant=cdg,
    )


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
