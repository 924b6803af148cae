"""Constitutive layer: heat capacity, energy and entropy densities, their
phase gradients, truncations, the inverse energy map, and the model validator.

Every model exposes cv, cv_chi and, in closed form, the integrated quantities

    e(th, x) = int_0^th cv,   s(th, x) = int_0^th cv/tau,   u = int_0^th cv tau.

Declared bounds (c_bar, c_lower, c1, ...) are part of the model and are
cross-examined on a sample lattice by validate_model; a model whose declared
bounds fail the lattice check is rejected with the violated inequality
named, never silently repaired.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ModelContractError

def _power_ratio(theta, alpha):
    """theta^alpha / (1 + theta^alpha), the common temperature profile."""
    t = np.power(theta, alpha)
    return t / (1.0 + t)


def _power_primitive(theta, alpha):
    """int_0^theta tau^a/(1+tau^a) dtau for a in {1, 2}."""
    if alpha == 1:
        return theta - np.log1p(theta)
    return theta - np.arctan(theta)


def _power_entropy(theta, alpha):
    """int_0^theta tau^(a-1)/(1+tau^a) dtau."""
    if alpha == 1:
        return np.log1p(theta)
    return 0.5 * np.log1p(np.square(theta))


def _power_heat(theta, alpha):
    """int_0^theta tau^(a+1)/(1+tau^a) dtau."""
    if alpha == 1:
        return 0.5 * np.square(theta) - theta + np.log1p(theta)
    return 0.5 * np.square(theta) - 0.5 * np.log1p(np.square(theta))


class ThermoModel:
    """Base of the constitutive models.

    Subclasses set d, alpha, beta, mu0, the declared bounds and
    ctilde_integral_diverges, and give cv, cv_chi and the integrated
    quantities e, e_chi, s, s_chi, u in closed form.  chi always carries a
    trailing component axis of length d.
    """

    d = 1
    name = "base"
    k_independent_of_chi = False

    # --- pointwise constitutive functions (must override) ---------------

    def cv(self, theta, chi):
        raise NotImplementedError

    def cv_chi(self, theta, chi):
        raise NotImplementedError

    def lam(self, chi):
        raise NotImplementedError

    def lam_p(self, chi):
        raise NotImplementedError

    def sig(self, chi):
        raise NotImplementedError

    def sig_p(self, chi):
        raise NotImplementedError

    def mu(self, theta):
        raise NotImplementedError

    def k(self, theta, chi):
        raise NotImplementedError

    def chi_domain_sample(self, n):
        raise NotImplementedError

    # --- even/odd extensions used by the implicit temperature solve ------

    def e_ext(self, theta, chi):
        """Odd extension sign(th) e(|th|, x), matching the even cv extension."""
        th = np.asarray(theta, dtype=float)
        return np.sign(th) * self.e(np.abs(th), chi)

    def cv_ext(self, theta, chi):
        return self.cv(np.abs(np.asarray(theta, dtype=float)), chi)

    def c_tilde(self, theta):
        """min over the phase domain and over temperatures >= theta of cv."""
        raise NotImplementedError


class TwoPhasePowerModel(ThermoModel):
    """Scalar two-phase model: cv = (1 + x/2) th^a/(1+th^a), x in [0,1].

    alpha in {1, 2} with closed-form integrals; mu = mu0 (1+th); conductivity
    interpolates between two bounded phase profiles and stays in [k0, k1].
    """

    d = 1
    name = "two_phase_power"

    def __init__(self, alpha=1, mu0=1.0, beta=1.0, lam_amp=0.1, sig_amp=0.2,
                 uniqueness_mode=False):
        if alpha not in (1, 2):
            raise ConfigError("two_phase_power: alpha must be 1 or 2")
        if mu0 <= 0 or beta <= 0:
            raise ConfigError("two_phase_power: mu0 and beta must be positive")
        self.alpha = int(alpha)
        self.mu0 = float(mu0)
        self.beta = float(beta)
        self.lam_amp = float(lam_amp)
        self.sig_amp = float(sig_amp)
        self.uniqueness_mode = bool(uniqueness_mode)
        self.k_independent_of_chi = bool(uniqueness_mode)

        # declared bounds, exact by inspection of the closed forms
        self.c_bar = 1.5
        self.c_lower = 0.5
        q1 = _power_entropy(1.0, self.alpha)          # entropy kernel at th=1
        sup_qp = 1.0 if self.alpha == 1 else 0.5      # sup of d/dth of that kernel
        self.c1 = max(0.5, 1.5 * q1, 0.5 * sup_qp)
        # lam_p = lam_amp 2x(1-x)(1-2x); |.| <= lam_amp * 2 * max of the cubic
        self.C_lambda = self.lam_amp * 2.0 * (1.0 / (6.0 * math.sqrt(3.0)))
        self.C_sigma = 2.0 * self.sig_amp
        self.k0 = 1.0
        self.k1 = 2.0
        self.L_mu = 0.0                                # (1+th)/mu is constant
        self.ctilde_integral_diverges = (self.alpha <= 1)

    # -- constitutive pieces

    def cv(self, theta, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return (1.0 + 0.5 * x) * _power_ratio(np.asarray(theta, dtype=float),
                                              self.alpha)

    def cv_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        out = np.empty(shape + (1,))
        out[..., 0] = 0.5 * _power_ratio(th, self.alpha)
        return out

    def e(self, theta, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return (1.0 + 0.5 * x) * _power_primitive(np.asarray(theta, float),
                                                  self.alpha)

    def e_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        out = np.empty(shape + (1,))
        out[..., 0] = 0.5 * _power_primitive(th, self.alpha)
        return out

    def s(self, theta, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return (1.0 + 0.5 * x) * _power_entropy(np.asarray(theta, float),
                                                self.alpha)

    def s_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        out = np.empty(shape + (1,))
        out[..., 0] = 0.5 * _power_entropy(th, self.alpha)
        return out

    def u(self, theta, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return (1.0 + 0.5 * x) * _power_heat(np.asarray(theta, float),
                                             self.alpha)

    def lam(self, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return self.lam_amp * np.square(x) * np.square(1.0 - x)

    def lam_p(self, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        out = np.empty(x.shape + (1,))
        out[..., 0] = self.lam_amp * 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
        return out

    def sig(self, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return self.sig_amp * np.square(x)

    def sig_p(self, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        out = np.empty(x.shape + (1,))
        out[..., 0] = 2.0 * self.sig_amp * x
        return out

    def mu(self, theta):
        return self.mu0 * (1.0 + np.asarray(theta, dtype=float))

    def k(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        if self.uniqueness_mode:
            shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
            return np.broadcast_to(2.0 - 1.0 / (1.0 + th), shape).copy()
        x = np.asarray(chi, dtype=float)[..., 0]
        k1p = 2.0 - 1.0 / (1.0 + th)            # phase-1 profile in [1,2)
        k2p = 1.0 + 0.5 * th / (1.0 + th)       # phase-0 profile in [1,1.5)
        return np.clip(k1p * x + k2p * (1.0 - x), self.k0, self.k1)

    def k_bar_primitive(self, theta):
        if not self.uniqueness_mode:
            raise ConfigError("k_bar_primitive requires uniqueness mode "
                              "(k independent of chi)")
        th = np.asarray(theta, dtype=float)
        return 2.0 * th - np.log1p(th)

    def c_tilde(self, theta):
        # cv is increasing in theta and minimized at x = 0
        return _power_ratio(np.asarray(theta, dtype=float), self.alpha)

    def lower_bound_closed_form(self, w0, R, t, rho):
        """Exact comparison solution when the ODE collapses to linear decay.

        For alpha = 1 the minorant w/(1+w) cancels the linear mobility
        growth, so w(t) = w0 exp(-R^2 t / (4 mu0)) as long as the truncation
        never engages (w decreasing, so w0 <= rho suffices).
        """
        if self.alpha != 1 or w0 > rho:
            return None
        return w0 * np.exp(-(R * R) * np.asarray(t, dtype=float) / (4.0 * self.mu0))

    def chi_domain_sample(self, n):
        return np.linspace(0.0, 1.0, n)[:, None]


class MultiPhasePowerModel(ThermoModel):
    """Vector variant on the simplex: cv = (1 + <a, chi>) th^a/(1+th^a)."""

    name = "multi_phase_power"

    def __init__(self, d=2, alpha=1, mu0=1.0, beta=1.0, lam_amp=0.1,
                 sig_amp=0.2, weights=None):
        if d < 1:
            raise ConfigError("multi_phase_power: d must be >= 1")
        if alpha not in (1, 2):
            raise ConfigError("multi_phase_power: alpha must be 1 or 2")
        self.d = int(d)
        self.alpha = int(alpha)
        self.mu0 = float(mu0)
        self.beta = float(beta)
        self.lam_amp = float(lam_amp)
        self.sig_amp = float(sig_amp)
        if weights is None:
            weights = np.full(self.d, 0.5 / self.d)
        self.a = np.asarray(weights, dtype=float)
        if self.a.shape != (self.d,) or np.any(self.a < 0) or self.a.sum() > 1.0:
            raise ConfigError("multi_phase_power: weights must be nonnegative "
                              "with sum <= 1 (keeps cv positive on the simplex)")
        self.uniqueness_mode = False
        amax = float(self.a.max())               # max of <a,chi> on the simplex
        self.c_bar = 1.0 + amax
        self.c_lower = 0.5
        q1 = _power_entropy(1.0, self.alpha)
        sup_qp = 1.0 if self.alpha == 1 else 0.5
        amag = float(np.linalg.norm(self.a))
        self.c1 = max(amag, (1.0 + amax) * q1, amag * sup_qp)
        # |chi| <= 1 on the simplex, so the quadratic wells have these slopes
        self.C_lambda = 2.0 * self.lam_amp
        self.C_sigma = 2.0 * self.sig_amp
        self.k0 = 1.0
        self.k1 = 2.0
        self.L_mu = 0.0
        self.ctilde_integral_diverges = (self.alpha <= 1)

    def _mix(self, chi):
        return np.einsum("...d,d->...", np.asarray(chi, dtype=float), self.a)

    def cv(self, theta, chi):
        return (1.0 + self._mix(chi)) * _power_ratio(
            np.asarray(theta, dtype=float), self.alpha)

    def cv_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(self.a, shape + (self.d,)) \
            * _power_ratio(th, self.alpha)[..., None]

    def e(self, theta, chi):
        return (1.0 + self._mix(chi)) * _power_primitive(
            np.asarray(theta, dtype=float), self.alpha)

    def e_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(self.a, shape + (self.d,)) \
            * _power_primitive(th, self.alpha)[..., None]

    def s(self, theta, chi):
        return (1.0 + self._mix(chi)) * _power_entropy(
            np.asarray(theta, dtype=float), self.alpha)

    def s_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(self.a, shape + (self.d,)) \
            * _power_entropy(th, self.alpha)[..., None]

    def u(self, theta, chi):
        return (1.0 + self._mix(chi)) * _power_heat(
            np.asarray(theta, dtype=float), self.alpha)

    def lam(self, chi):
        return self.lam_amp * np.sum(np.square(np.asarray(chi, float)), axis=-1)

    def lam_p(self, chi):
        return 2.0 * self.lam_amp * np.asarray(chi, dtype=float)

    def sig(self, chi):
        return self.sig_amp * np.sum(np.square(np.asarray(chi, float)), axis=-1)

    def sig_p(self, chi):
        return 2.0 * self.sig_amp * np.asarray(chi, dtype=float)

    def mu(self, theta):
        return self.mu0 * (1.0 + np.asarray(theta, dtype=float))

    def k(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        m = np.clip(np.sum(np.asarray(chi, dtype=float), axis=-1), 0.0, 1.0)
        k1p = 2.0 - 1.0 / (1.0 + th)
        k2p = 1.0 + 0.5 * th / (1.0 + th)
        return np.clip(k1p * m + k2p * (1.0 - m), self.k0, self.k1)

    def c_tilde(self, theta):
        return _power_ratio(np.asarray(theta, dtype=float), self.alpha)

    def chi_domain_sample(self, n):
        from .convex import IndicatorSimplex
        return IndicatorSimplex(self.d).domain_sample(n)


class DecoupledPowerModel(ThermoModel):
    """Phase-independent fixture: cv = th^a/(1+th^a), lam = sig = 0, k = k(th).

    With a zero kernel the order parameter sees no forcing and the energy
    balance reduces to pure (nonlinear) conduction; used by the manufactured
    convergence study and the decoupled smoke tests.
    """

    d = 1
    name = "decoupled_power"
    k_independent_of_chi = True

    def __init__(self, alpha=1, mu0=1.0, beta=1.0, uniqueness_mode=True):
        if alpha not in (1, 2):
            raise ConfigError("decoupled_power: alpha must be 1 or 2")
        self.alpha = int(alpha)
        self.mu0 = float(mu0)
        self.beta = float(beta)
        self.uniqueness_mode = bool(uniqueness_mode)
        self.c_bar = 1.0
        self.c_lower = 0.5
        q1 = _power_entropy(1.0, self.alpha)
        self.c1 = max(q1, 0.5)
        self.C_lambda = 0.0
        self.C_sigma = 0.0
        self.k0 = 1.0
        self.k1 = 2.0
        self.L_mu = 0.0
        self.ctilde_integral_diverges = (self.alpha <= 1)

    def cv(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(_power_ratio(th, self.alpha), shape).copy()

    def cv_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.zeros(shape + (1,))

    def e(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(_power_primitive(th, self.alpha), shape).copy()

    def e_chi(self, theta, chi):
        return self.cv_chi(theta, chi)

    def s(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(_power_entropy(th, self.alpha), shape).copy()

    def s_chi(self, theta, chi):
        return self.cv_chi(theta, chi)

    def u(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(_power_heat(th, self.alpha), shape).copy()

    def lam(self, chi):
        return np.zeros(np.asarray(chi).shape[:-1])

    def lam_p(self, chi):
        return np.zeros(np.asarray(chi, dtype=float).shape)

    def sig(self, chi):
        return np.zeros(np.asarray(chi).shape[:-1])

    def sig_p(self, chi):
        return np.zeros(np.asarray(chi, dtype=float).shape)

    def mu(self, theta):
        return self.mu0 * (1.0 + np.asarray(theta, dtype=float))

    def k(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        return np.broadcast_to(2.0 - 1.0 / (1.0 + th), shape).copy()

    def k_bar_primitive(self, theta):
        th = np.asarray(theta, dtype=float)
        return 2.0 * th - np.log1p(th)

    def c_tilde(self, theta):
        return _power_ratio(np.asarray(theta, dtype=float), self.alpha)

    def lower_bound_closed_form(self, w0, R, t, rho):
        if self.alpha != 1 or w0 > rho:
            return None
        return w0 * np.exp(-(R * R) * np.asarray(t, dtype=float) / (4.0 * self.mu0))

    def chi_domain_sample(self, n):
        return np.linspace(0.0, 1.0, n)[:, None]


MODEL_REGISTRY = {
    "two_phase_power": TwoPhasePowerModel,
    "multi_phase_power": MultiPhasePowerModel,
    "decoupled_power": DecoupledPowerModel,
}


def build_model(name, **kwargs):
    if name not in MODEL_REGISTRY:
        raise ConfigError(f"unknown thermo model '{name}'; have "
                          f"{sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](**kwargs)


# ---------------------------------------------------------------------------
# truncations


def truncated_entropy_gradient(model, theta, chi, rho):
    """s_chi at the capped temperature min(|theta|, rho); even in theta."""
    if rho < 1:
        raise ConfigError("truncation parameter must be >= 1")
    th = np.minimum(np.abs(np.asarray(theta, dtype=float)), rho)
    return model.s_chi(th, chi)


def truncated_mobility(model, theta, rho):
    """mu at the capped temperature: constant extension above the cap."""
    if rho < 1:
        raise ConfigError("truncation parameter must be >= 1")
    th = np.minimum(np.abs(np.asarray(theta, dtype=float)), rho)
    return model.mu(th)


def inverse_temperature(model, w, chi, tol=1e-10, max_iter=100):
    """Solve e(theta, chi) = w for theta >= 0 by bracketed Newton.

    Vectorized over w; Newton steps that leave the live bracket fall back to
    bisection, so convergence is unconditional for the increasing e.
    """
    from .errors import NumericalError
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ConfigError("inverse_temperature: target energy must be >= 0")
    chi = np.asarray(chi, dtype=float)
    lo = np.zeros_like(w)
    hi = np.ones_like(w)
    for _ in range(200):
        need = model.e(hi, chi) < w
        if not np.any(need):
            break
        hi = np.where(need, 2.0 * hi, hi)
    else:
        raise NumericalError("inverse_temperature: failed to bracket max "
                             f"target {float(np.max(w)):.3e}")
    th = 0.5 * (lo + hi)
    f = model.e(th, chi) - w
    for _ in range(max_iter):
        done = np.abs(f) <= tol
        if np.all(done):
            break
        lo = np.where(f < 0, th, lo)
        hi = np.where(f > 0, th, hi)
        dcv = model.cv(th, chi)
        step = np.where(dcv > 0, f / np.where(dcv > 0, dcv, 1.0), 0.0)
        cand = th - step
        bad = (cand <= lo) | (cand >= hi) | (dcv <= 0)
        th = np.where(done, th, np.where(bad, 0.5 * (lo + hi), cand))
        f = model.e(th, chi) - w
    else:
        raise NumericalError("inverse_temperature: Newton did not reach "
                             f"tolerance {tol}; worst residual "
                             f"{float(np.max(np.abs(f))):.3e}")
    return np.where(w == 0.0, 0.0, th)


def generic_coefficients(theta, mu, c_v, dchi_E):
    """Dissipative-block entries (m11, m12, m22) for scalar order parameter.

    m11 = th (DchiE)^2/(mu cv^2), m12 = -th DchiE/(mu cv), m22 = th/mu; the
    block is rank-1 PSD with m12^2 = m11 m22 by construction.
    """
    th = np.asarray(theta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    cv = np.asarray(c_v, dtype=float)
    de = np.asarray(dchi_E, dtype=float)
    if np.any(th <= 0) or np.any(mu <= 0) or np.any(cv <= 0):
        raise ConfigError("generic_coefficients: theta, mu, cv must be positive")
    m11 = th * np.square(de) / (mu * np.square(cv))
    m12 = -th * de / (mu * cv)
    m22 = th / mu
    return m11, m12, m22


# ---------------------------------------------------------------------------
# model-contract validation


def _check(ok, name, message, report):
    report[name] = bool(ok)
    if not ok:
        raise ModelContractError(name, message)


def validate_model(model, uniqueness_mode=False, n_theta=120, n_chi=25,
                   theta_max=50.0):
    """Check every declared bound on a sample lattice; raise on violation.

    Raises ModelContractError with the violated inequality's short name
    ("c1", "c2", "c4", "s1", "s2", "k-bounds", "mu-structure", "mu-lipschitz",
    "h2-k", "h2-mono", "h2-div", "h2-pos") and returns a {name: True} report
    when everything passes.
    """
    report = {}
    th = np.concatenate([[0.0], np.logspace(-3, np.log10(theta_max), n_theta)])
    chis = model.chi_domain_sample(n_chi)            # (n_chi, d)
    TH = th[:, None]                                  # broadcast over chi rows
    CH = chis[None, :, :]

    cv = model.cv(TH, CH)
    _check(model.beta > 0, "beta", "latent weight beta must be positive", report)
    _check(np.all(np.abs(cv[0]) <= 1e-14)
           and np.all(cv[1:] > 0)
           and np.all(cv <= model.c_bar * (1 + 1e-12)),
           "c1", "need cv(0,chi)=0 and 0 < cv <= c_bar on the lattice", report)
    hot = th >= 1.0
    _check(np.all(cv[hot] >= model.c_lower * (1 - 1e-12)),
           "c2", "need cv >= c_lower for theta >= 1", report)
    s_small = model.s(np.asarray([1e-6]), chis[:1])
    _check(np.all(np.isfinite(s_small)),
           "c3", "entropy integral must converge at small theta", report)

    cvx = model.cv_chi(TH, CH)
    dominated = np.linalg.norm(cvx, axis=-1) <= model.c1 * cv + 1e-13
    # chi-Lipschitz of cv_chi with the same constant, over lattice pairs
    dchi = np.linalg.norm(chis[1:] - chis[:-1], axis=-1)
    lip_cvx = np.linalg.norm(cvx[:, 1:, :] - cvx[:, :-1, :], axis=-1) \
        <= model.c1 * dchi[None, :] * (1 + 1e-9) + 1e-13
    _check(np.all(dominated) and np.all(lip_cvx),
           "c4", "need |cv_chi| <= c1 cv and cv_chi c1-Lipschitz in chi", report)

    s1 = model.s(np.ones((1, 1)), CH)[0]
    _check(np.all(s1 > 0) and np.all(s1 <= model.c1 * (1 + 1e-12)),
           "s1", "need 0 < s(1,chi) <= c1", report)

    sx = model.s_chi(TH, CH)
    dth = th[1:] - th[:-1]
    lip_th = np.linalg.norm(sx[1:] - sx[:-1], axis=-1) \
        <= model.c1 * dth[:, None] * (1 + 1e-9) + 1e-13
    lip_ch = np.linalg.norm(sx[:, 1:, :] - sx[:, :-1, :], axis=-1) \
        <= model.c1 * dchi[None, :] * (1 + 1e-9) + 1e-13
    _check(np.all(lip_th) and np.all(lip_ch),
           "s2", "need s_chi jointly c1-Lipschitz in (theta, chi)", report)

    lp = np.linalg.norm(model.lam_p(chis), axis=-1)
    sp = np.linalg.norm(model.sig_p(chis), axis=-1)
    _check(np.all(lp <= model.C_lambda * (1 + 1e-12) + 1e-15)
           and np.all(sp <= model.C_sigma * (1 + 1e-12) + 1e-15),
           "sigma-lambda-bounds",
           "need |lam'| <= C_lambda and |sig'| <= C_sigma", report)

    kv = model.k(TH, CH)
    _check(model.k0 > 0 and np.all(kv >= model.k0 * (1 - 1e-12))
           and np.all(kv <= model.k1 * (1 + 1e-12)),
           "k-bounds", "need k0 <= k(theta,chi) <= k1 with k0 > 0", report)

    muv = model.mu(th)
    ratio = (1.0 + th) / muv
    _check(np.all(muv > 0) and np.all(ratio <= 1.0 / model.mu0 + 1e-12),
           "mu-structure", "need mu(theta) >= mu0 (1 + theta)", report)
    lip_mu = np.abs(ratio[1:] - ratio[:-1]) <= (model.L_mu + 1e-12) * dth
    _check(np.all(lip_mu),
           "mu-lipschitz", "need (1+theta)/mu Lipschitz with constant L_mu",
           report)

    if uniqueness_mode:
        _check(model.k_independent_of_chi
               and np.allclose(kv, kv[:, :1], rtol=0, atol=1e-14),
               "h2-k", "uniqueness mode needs chi-independent conductivity",
               report)
        v = th[1:]
        v2mu = np.square(v) / model.mu(v)
        _check(np.all(np.diff(v2mu) >= -1e-14),
               "h2-mono", "need v^2/mu(v) nondecreasing", report)
        _check(bool(model.ctilde_integral_diverges),
               "h2-div", "need the small-temperature integral of "
               "c_tilde mu / v^2 to diverge", report)
        _check(np.all(model.c_tilde(th[1:]) > 0),
               "h2-pos", "need c_tilde(theta) > 0 for theta > 0", report)
    return report
