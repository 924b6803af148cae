"""Constitutive relations: densities, bounds, model contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quadrature_oracle
from inverse_oracle import inverse_temperature
from ode_oracle import closed_form_envelope
from nlpf.convex import IndicatorSimplex
from nlpf.errors import ConfigError, ModelContractError
from nlpf.thermo import (MODEL_REGISTRY, TwoPhasePowerModel, _norm,
                         _power_ratio, build_model, generic_coefficients,
                         truncated_entropy_gradient, truncated_mobility,
                         validate_model)

TP = build_model("two_phase_power", alpha=1)


def simplex_sample(model, n):
    """n points of the d-simplex the presets are declared on ([0, 1] for
    one component)."""
    return IndicatorSimplex(model.d).domain_sample(n)


def test_energy_spot_value():
    # alpha = 1: cv = theta/(1+theta), e(theta, 0) = theta - log(1+theta)
    chi = np.zeros((1, 1))
    assert TP.e(np.array([1.0]), chi)[0] == pytest.approx(
        1.0 - math.log(2.0), rel=1e-14)


def test_entropy_spot_value():
    # s(theta, 0) = integral of cv/s = log(1+theta) at alpha = 1
    chi = np.zeros((1, 1))
    assert TP.s(np.array([1.0]), chi)[0] == pytest.approx(
        math.log(2.0), rel=1e-14)


@given(st.floats(0.05, 30.0), st.floats(0.0, 1.0))
@example(0.0546875, 0.0)   # e is flat here: an energy tolerance missed by 1.4e-9
def test_inverse_temperature_roundtrip(theta, c):
    chi = np.array([[c]])
    w = TP.e(np.array([theta]), chi)
    back = inverse_temperature(TP, w, chi)
    assert back[0] == pytest.approx(theta, abs=1e-9, rel=1e-9)


def test_quadrature_matches_closed_form():
    """Adaptive quadrature of cv and cv_chi must agree with the
    hand-integrated expressions the concrete model provides."""
    probe = build_model("two_phase_power", alpha=2)
    th = np.array([0.3, 1.0, 4.2])
    chi = np.tile([[0.25]], (3, 1))
    for name in ("e", "e_chi", "s", "s_chi"):
        ref = getattr(quadrature_oracle, name)(probe, th, chi)
        assert np.allclose(ref, getattr(probe, name)(th, chi), rtol=1e-10), name


def test_truncated_entropy_gradient_freezes():
    chi = np.full((2, 1), 0.3)
    rho = 2.0
    hot = truncated_entropy_gradient(TP, np.array([5.0, 50.0]), chi, rho)
    at_rho = TP.s_chi(np.array([rho, rho]), chi)
    assert np.allclose(hot, at_rho, atol=1e-15)
    cold = truncated_entropy_gradient(TP, np.array([1.0, 1.5]), chi, rho)
    assert np.allclose(cold, TP.s_chi(np.array([1.0, 1.5]), chi), atol=1e-15)


def test_truncated_mobility_freezes():
    rho = 3.0
    assert truncated_mobility(TP, np.array([10.0]), rho)[0] == TP.mu(
        np.array([rho]))[0]
    assert truncated_mobility(TP, np.array([2.0]), rho)[0] == TP.mu(
        np.array([2.0]))[0]


def test_declared_c1_bound_holds():
    th = np.linspace(0.05, 8.0, 50)
    chi = simplex_sample(TP, 10)
    for c in chi:
        row = np.tile(c[None, :], (50, 1))
        lhs = np.linalg.norm(TP.cv_chi(th, row), axis=-1)
        assert np.all(lhs <= TP.c1 * TP.cv(th, row) + 1e-12)


def test_generic_coefficients_oracle():
    m11, m12, m22 = generic_coefficients(1.0, 1.0, 1.0, 2.0)
    assert (m11, m12, m22) == (4.0, -2.0, 1.0)
    # identity m12^2 = m11 m22 holds by construction
    assert m12 ** 2 == m11 * m22


def test_generic_coefficients_positivity_check():
    with pytest.raises(ConfigError):
        generic_coefficients(-1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ConfigError):
        generic_coefficients(1.0, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("name,kw", [
    ("two_phase_power", dict(alpha=1)),
    ("two_phase_power", dict(alpha=2)),
    ("multi_phase_power", dict(d=2)),
    ("multi_phase_power", dict(d=3)),
    ("decoupled_power", dict()),
    ("multi_phase_power", dict(d=1)),
    ("decoupled_power", dict(alpha=2)),
])
def test_builtin_models_validate(name, kw):
    model = build_model(name, **kw)
    validate_model(model, IndicatorSimplex(model.d))


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_preset_gradients_broadcast(name):
    # validate_model evaluates theta (n, 1) against chi (1, m, d); an
    # unbroadcast (n, 1, d) result would leave its chi-Lipschitz slices empty
    model = build_model(name)
    th = np.linspace(0.0, 3.0, 4)[:, None]
    chi = simplex_sample(model, 5)[None, :, :]
    for method in ("cv_chi", "e_chi", "s_chi"):
        out = getattr(model, method)(th, chi)
        assert out.shape == (4, 5, model.d), method


def test_decoupled_preset_ignores_phase():
    model = build_model("decoupled_power")
    th = np.linspace(0.0, 5.0, 11)[:, None]
    chi = simplex_sample(model, 7)[None, :, :]
    assert np.all(model.cv_chi(th, chi) == 0.0)
    k = model.k(th, chi)
    assert k.shape == (11, 7)
    assert np.all(k == k[:, :1])


@pytest.mark.parametrize("alpha", [1, 2])
def test_two_phase_is_one_component_family(alpha):
    two = build_model("two_phase_power", alpha=alpha)
    one = build_model("multi_phase_power", d=1, alpha=alpha, weights=[0.5])
    th = np.array([0.0, 0.3, 1.0, 7.5])[:, None]
    chi = np.linspace(0.0, 1.0, 6)[None, :, None]
    for name in ("cv", "cv_chi", "e", "e_chi", "s", "s_chi"):
        a, b = getattr(two, name)(th, chi), getattr(one, name)(th, chi)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_uniqueness_validation():
    ok = build_model("two_phase_power", alpha=1, uniqueness_mode=True)
    validate_model(ok, IndicatorSimplex(1), uniqueness_mode=True)
    # alpha = 2 has a convergent mobility integral, which the uniqueness
    # route must reject
    bad = build_model("two_phase_power", alpha=2, uniqueness_mode=True)
    with pytest.raises(ModelContractError) as info:
        validate_model(bad, IndicatorSimplex(1), uniqueness_mode=True)
    assert info.value.violation == "h2-div"


class BadC4Fixture(TwoPhasePowerModel):
    """Deliberately broken: cv = (0.2 + x) th/(1+th) with declared c1 = 1.

    The ratio |cv_chi|/cv = 1/(0.2 + x) reaches 5 at x = 0, so the declared
    gradient-domination constant is false and the validator must say so.
    Only cv and cv_chi are replaced: the lattice check compares nothing
    else with them before it reaches c4.
    """

    def __init__(self):
        super().__init__(alpha=1)
        self.c1 = 1.0
        self.c_bar = 1.2
        self.c_lower = 0.1   # honest: inf of (0.2+x) p on theta >= 1

    def cv(self, theta, chi):
        x = np.asarray(chi, dtype=float)[..., 0]
        return (0.2 + x) * _power_ratio(np.asarray(theta, float), 1)

    def cv_chi(self, theta, chi):
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(th.shape, np.asarray(chi).shape[:-1])
        out = np.empty(shape + (1,))
        out[..., 0] = _power_ratio(th, 1)
        return out


def test_bad_fixture_caught():
    bad = BadC4Fixture()
    with pytest.raises(ModelContractError) as info:
        validate_model(bad, IndicatorSimplex(1))
    assert info.value.violation == "c4"


def test_unknown_model_name():
    with pytest.raises(ConfigError):
        build_model("nope")
    assert sorted(MODEL_REGISTRY) == ["decoupled_power", "multi_phase_power",
                                      "two_phase_power"]


def test_densities_identity_and_domain():
    from nlpf.convex import IndicatorBox
    from nlpf.stepper import cell_budget

    box = IndicatorBox(np.zeros(1), np.ones(1))
    th = np.array([0.5, 1.0, 3.0])
    chi = np.array([[0.2], [0.5], [0.9]])
    assert np.all(box.contains(chi))
    E, S = cell_budget(TP, th, chi, 0.125, 0.0)
    # free energy F = (e - th s) + lam + B + th sig; phi = 0 inside the box
    F = (TP.e(th, chi) - th * TP.s(th, chi)) + TP.lam(chi) + 0.125 \
        + th * TP.sig(chi)
    assert np.allclose(F, E - th * S, rtol=1e-13)
    # outside the box the indicator is infinite: the stepper and the
    # trajectory reader refuse such a chi before any budget is formed
    assert not box.contains(np.array([[2.0]]))[0]


def test_closed_form_envelope():
    # alpha = 1 and w0 below the cap: w(t) = w0 exp(-R^2 t / (4 mu0))
    val = closed_form_envelope(TP, 1.0, 2.0, 1.0, rho=100.0)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_mobility_sandwich():
    th = np.linspace(0.01, 20.0, 200)
    mu = TP.mu(th)
    assert np.all(mu >= TP.mu0)
    assert np.all(np.diff(mu) >= 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_component_norm_is_linalg_norm(d):
    """validate_model's norm over the component axis, summed by d - 1
    vector adds, is ``np.linalg.norm(..., axis=-1)`` bit for bit."""
    v = np.random.default_rng(d).standard_normal((121, 25, d))
    assert np.array_equal(_norm(v), np.linalg.norm(v, axis=-1))
