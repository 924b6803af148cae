"""Constitutive layer: the power-law model family, its truncations, and the
model validator.

Every registered model is a PowerModel with heat capacity

    cv(th, x) = (1 + <a, x>) th^alpha / (1 + th^alpha),   alpha in {1, 2},

and, in closed form, the integrated quantities

    e(th, x) = int_0^th cv,   s(th, x) = int_0^th cv/tau.

multi_phase_power is the family on the d-simplex; two_phase_power fixes
d = 1, a = 1/2 and a double-well lam; decoupled_power sets a = 0, drops the
wells and makes k depend on temperature only.  Declared bounds (c_bar, c1,
...) are cross-examined by validate_model on a temperature lattice times the
configured potential's domain sample; it names the violated inequality
instead of repairing the model.
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


class PowerModel:
    """The power-law family with weights a (nonnegative, sum <= 1, so cv > 0
    on the simplex), wells lam = lam_amp |chi|^2 and sig = sig_amp |chi|^2,
    and mu = mu0 (1+th).  k mixes two temperature profiles by the phase
    fraction, or is the first one alone in uniqueness mode.  chi always
    carries a trailing component axis of length d.
    """

    c_lower = 0.5                                  # cv >= 1/2 for th >= 1
    k0, k1 = 1.0, 2.0
    L_mu = 0.0                                     # (1+th)/mu is constant

    def __init__(self, d=2, alpha=1, mu0=1.0, beta=1.0, lam_amp=0.1,
                 sig_amp=0.2, weights=None, uniqueness_mode=False):
        if d < 1:
            raise ConfigError("thermo.components must be >= 1")
        if alpha not in (1, 2):
            raise ConfigError("thermo.alpha must be 1 or 2")
        if mu0 <= 0 or beta <= 0:
            raise ConfigError("thermo.mu0 and thermo.beta must be positive")
        self.d = int(d)
        self.alpha = int(alpha)
        self.mu0 = float(mu0)
        self.beta = float(beta)
        self.lam_amp = float(lam_amp)
        self.sig_amp = float(sig_amp)
        if weights is None:
            weights = np.full(self.d, 0.5 / self.d)
        self.a = np.asarray(weights, dtype=float)
        if self.a.shape != (self.d,) or self.a.min() < 0 or self.a.sum() > 1.0:
            raise ConfigError("weights must be nonnegative with sum "
                              "<= 1 (keeps cv positive on the simplex)")
        self.k_independent_of_chi = bool(uniqueness_mode)

        # declared bounds, exact by inspection of the closed forms
        amax = float(self.a.max())               # max of <a,chi> on the simplex
        self.c_bar = 1.0 + amax
        q1 = _power_entropy(1.0, self.alpha)          # entropy kernel at th=1
        sup_qp = 1.0 if self.alpha == 1 else 0.5      # sup of d/dth of that kernel
        amag = float(np.linalg.norm(self.a))
        self.c1 = max(amag, (1.0 + amax) * q1, amag * sup_qp)
        # |chi| <= 1 on the simplex, so the quadratic wells have these slopes
        self.C_lambda = 2.0 * self.lam_amp
        self.C_sigma = 2.0 * self.sig_amp
        self.ctilde_integral_diverges = (self.alpha <= 1)

    def _density(self, profile, theta, chi):
        """(1 + <a, chi>) profile(theta): one product for one component, else
        einsum, whose summation order the stored outputs depend on."""
        x = np.asarray(chi, dtype=float)
        mix = x[..., 0] * self.a[0] if self.d == 1 \
            else np.einsum("...d,d->...", x, self.a)
        return (1.0 + mix) * profile(np.asarray(theta, dtype=float),
                                     self.alpha)

    def _gradient(self, profile, theta, chi):
        """a profile(theta), broadcast over theta and the rows of chi."""
        p = profile(np.asarray(theta, dtype=float), self.alpha)
        rows = np.shape(chi)[:-1]
        if p.shape != rows:
            p = np.broadcast_to(p, np.broadcast_shapes(p.shape, rows))
        return p[..., None] * self.a

    def _square_norm(self, chi):
        x = np.asarray(chi, dtype=float)
        return np.square(x[..., 0]) if self.d == 1 else np.sum(x * x, axis=-1)

    def cv(self, theta, chi):
        return self._density(_power_ratio, theta, chi)

    def cv_chi(self, theta, chi):
        return self._gradient(_power_ratio, theta, chi)

    def e(self, theta, chi):
        return self._density(_power_primitive, theta, chi)

    def e_chi(self, theta, chi):
        return self._gradient(_power_primitive, theta, chi)

    def s(self, theta, chi):
        return self._density(_power_entropy, theta, chi)

    def s_chi(self, theta, chi):
        return self._gradient(_power_entropy, theta, chi)

    def lam(self, chi):
        return self.lam_amp * self._square_norm(chi)

    def lam_p(self, chi):
        return 2.0 * self.lam_amp * np.asarray(chi, dtype=float)

    def sig(self, chi):
        return self.sig_amp * self._square_norm(chi)

    def sig_p(self, chi):
        return 2.0 * self.sig_amp * np.asarray(chi, dtype=float)

    def mu(self, theta):
        return self.mu0 * (1.0 + np.asarray(theta, dtype=float))

    def k(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        k1p = 2.0 - 1.0 / (1.0 + th)            # phase-1 profile in [1,2)
        if self.k_independent_of_chi:
            shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
            return np.broadcast_to(k1p, shape).copy()
        x = np.asarray(chi, dtype=float)
        # phase fraction: chi itself for one component, else the clipped sum
        m = x[..., 0] if self.d == 1 \
            else np.clip(np.sum(x, axis=-1), 0.0, 1.0)
        k2p = 1.0 + 0.5 * th / (1.0 + th)       # phase-0 profile in [1,1.5)
        return np.clip(k1p * m + k2p * (1.0 - m), self.k0, self.k1)

    def k_bar_primitive(self, theta):
        """int_0^th of the temperature-only conductivity 2 - 1/(1+tau)."""
        th = np.asarray(theta, dtype=float)
        return 2.0 * th - np.log1p(th)

    def c_tilde(self, theta):
        """min of cv over the phase domain and over temperatures >= theta:
        cv increases in theta and is least where <a, chi> = 0."""
        return _power_ratio(np.asarray(theta, dtype=float), self.alpha)


class TwoPhasePowerModel(PowerModel):
    """Scalar two-phase model: d = 1, a = 1/2 on x in [0, 1], with the
    double well lam = lam_amp x^2 (1-x)^2."""

    def __init__(self, alpha=1, mu0=1.0, beta=1.0, lam_amp=0.1, sig_amp=0.2,
                 uniqueness_mode=False):
        super().__init__(d=1, alpha=alpha, mu0=mu0, beta=beta,
                         lam_amp=lam_amp, sig_amp=sig_amp, weights=[0.5],
                         uniqueness_mode=uniqueness_mode)
        # lam_p = lam_amp 2x(1-x)(1-2x); |.| <= lam_amp * 2 * max of the cubic
        self.C_lambda = self.lam_amp * 2.0 * (1.0 / (6.0 * math.sqrt(3.0)))

    def lam(self, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return self.lam_amp * np.square(x) * np.square(1.0 - x)

    def lam_p(self, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return (self.lam_amp * 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x))[..., None]


def decoupled_power(alpha=1, mu0=1.0, beta=1.0):
    """Phase-independent preset: a = 0, lam = sig = 0, k = k(th).  With a
    zero kernel chi sees no forcing and the energy balance is pure nonlinear
    conduction (the manufactured convergence study, decoupled_smoke.cfg)."""
    return PowerModel(d=1, alpha=alpha, mu0=mu0, beta=beta, lam_amp=0.0,
                      sig_amp=0.0, weights=[0.0], uniqueness_mode=True)


MODEL_REGISTRY = {
    "two_phase_power": TwoPhasePowerModel,
    "multi_phase_power": PowerModel,
    "decoupled_power": decoupled_power,
}


def build_model(name, **kwargs):
    if name not in MODEL_REGISTRY:
        raise ConfigError(f"unknown thermo model '{name}'; have "
                          f"{sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](**kwargs)


def truncated_entropy_gradient(model, theta, chi, rho):
    """s_chi at the capped temperature min(theta, rho), rho >= 1."""
    return model.s_chi(np.minimum(theta, rho), chi)


def truncated_mobility(model, theta, rho):
    """mu at the capped temperature: constant extension above the cap."""
    return model.mu(np.minimum(theta, rho))


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


def _norm(v):
    """|v| over the trailing component axis, as d - 1 vector adds of the
    squares: numpy reduces a short trailing axis about ten times slower."""
    total = np.square(v[..., 0])
    for k in range(1, v.shape[-1]):
        total = total + np.square(v[..., k])
    return np.sqrt(total)


def validate_model(model, potential, uniqueness_mode=False, n_theta=120,
                   n_chi=25, theta_max=50.0):
    """Check every declared bound on a sample lattice; raise on violation.

    Phase values are the potential's ``domain_sample``: wherever the
    proximal step can put the order parameter.

    Raises ModelContractError with the violated inequality's short name
    ("c1", "c2", "c4", "s1", "s2", "k-bounds", "mu-structure", "mu-lipschitz",
    "h2-k", "h2-mono", "h2-div", "h2-pos") and returns a {name: True} report
    when everything passes.
    """
    report = {}
    th = np.concatenate([[0.0], np.logspace(-3, np.log10(theta_max), n_theta)])
    chis = potential.domain_sample(n_chi)            # (n_chi, d)
    TH = th[:, None]                                  # broadcast over chi rows
    CH = chis[None, :, :]

    cv = model.cv(TH, CH)
    _check(model.beta > 0, "beta", "latent weight beta must be positive", report)
    _check(np.all(np.abs(cv[0]) <= 1e-14) and np.all(cv[1:] > 0)
           and np.all(cv <= model.c_bar * (1 + 1e-12)),
           "c1", "need cv(0,chi)=0 and 0 < cv <= c_bar on the lattice", report)
    hot = th >= 1.0
    _check(np.all(cv[hot] >= model.c_lower * (1 - 1e-12)),
           "c2", "need cv >= c_lower for theta >= 1", report)
    s_small = model.s(np.asarray([1e-6]), chis[:1])
    _check(np.all(np.isfinite(s_small)),
           "c3", "entropy integral must converge at small theta", report)

    cvx = model.cv_chi(TH, CH)
    dominated = _norm(cvx) <= model.c1 * cv + 1e-13
    # chi-Lipschitz of cv_chi with the same constant, over lattice pairs
    dchi = _norm(chis[1:] - chis[:-1])
    lip_cvx = _norm(cvx[:, 1:, :] - cvx[:, :-1, :]) \
        <= model.c1 * dchi[None, :] * (1 + 1e-9) + 1e-13
    _check(np.all(dominated) and np.all(lip_cvx),
           "c4", "need |cv_chi| <= c1 cv and cv_chi c1-Lipschitz in chi", report)

    s1 = model.s(np.ones((1, 1)), CH)[0]
    _check(np.all(s1 > 0) and np.all(s1 <= model.c1 * (1 + 1e-12)),
           "s1", "need 0 < s(1,chi) <= c1", report)

    sx = model.s_chi(TH, CH)
    dth = th[1:] - th[:-1]
    lip_th = _norm(sx[1:] - sx[:-1]) \
        <= model.c1 * dth[:, None] * (1 + 1e-9) + 1e-13
    lip_ch = _norm(sx[:, 1:, :] - sx[:, :-1, :]) \
        <= model.c1 * dchi[None, :] * (1 + 1e-9) + 1e-13
    _check(np.all(lip_th) and np.all(lip_ch),
           "s2", "need s_chi jointly c1-Lipschitz in (theta, chi)", report)

    lp = _norm(model.lam_p(chis))
    sp = _norm(model.sig_p(chis))
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
    _check(np.all(lip_mu), "mu-lipschitz",
           "need (1+theta)/mu Lipschitz with constant L_mu", report)

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
