"""Constitutive relations: densities, extensions, bounds, model contracts."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlpf.errors import ConfigError, ModelContractError
from nlpf.thermo import (build_model, generic_coefficients,
                         inverse_temperature, truncated_entropy_gradient,
                         truncated_mobility, validate_model)

TP = build_model("two_phase_power", alpha=1)


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


def test_heat_spot_value():
    # u = integral of s cv'(s) ds = theta - theta^2/... : at alpha = 1,
    # u(1, 0) = integral_0^1 s/(1+s)^2 ds = log 2 - 1/2
    chi = np.zeros((1, 1))
    assert TP.u(np.array([1.0]), chi)[0] == pytest.approx(
        math.log(2.0) - 0.5, rel=1e-13)


def test_odd_extension():
    chi = np.full((3, 1), 0.4)
    th = np.array([-2.0, 0.0, 2.0])
    e = TP.e_ext(th, chi)
    assert e[0] == -e[2]
    assert e[1] == 0.0
    cv = TP.cv_ext(th, chi)
    assert cv[0] == cv[2]
    assert cv[0] > 0.0


@given(st.floats(0.05, 30.0), st.floats(0.0, 1.0))
def test_inverse_temperature_roundtrip(theta, c):
    chi = np.array([[c]])
    w = TP.e(np.array([theta]), chi)
    back = inverse_temperature(TP, w, chi)
    assert back[0] == pytest.approx(theta, abs=1e-9, rel=1e-9)


def test_quadrature_matches_closed_form():
    """The generic quadrature path of the base class must agree with the
    hand-integrated expressions the concrete model provides."""
    from nlpf.thermo import ThermoModel

    probe = build_model("two_phase_power", alpha=2)
    th = np.array([0.3, 1.0, 4.2])
    chi = np.tile([[0.25]], (3, 1))
    e_quad = ThermoModel.e(probe, th, chi)
    s_quad = ThermoModel.s(probe, th, chi)
    assert np.allclose(e_quad, probe.e(th, chi), rtol=1e-10)
    assert np.allclose(s_quad, probe.s(th, chi), rtol=1e-10)


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
    chi = TP.chi_domain_sample(10)
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
])
def test_builtin_models_validate(name, kw):
    model = build_model(name, **kw)
    validate_model(model)


def test_uniqueness_validation():
    ok = build_model("two_phase_power", alpha=1, uniqueness_mode=True)
    validate_model(ok, uniqueness_mode=True)
    # alpha = 2 has a convergent mobility integral, which the uniqueness
    # route must reject
    bad = build_model("two_phase_power", alpha=2, uniqueness_mode=True)
    with pytest.raises(ModelContractError) as info:
        validate_model(bad, uniqueness_mode=True)
    assert info.value.violation == "h2-div"


def test_bad_fixture_caught():
    bad = build_model("bad_c4_fixture")
    with pytest.raises(ModelContractError) as info:
        validate_model(bad)
    assert info.value.violation == "c4"


def test_unknown_model_name():
    with pytest.raises(ConfigError):
        build_model("nope")


def test_densities_identity_and_domain():
    from nlpf.convex import IndicatorBox
    from nlpf.errors import NumericalError
    from nlpf.stepper import cell_budget

    box = IndicatorBox(np.zeros(1), np.ones(1))
    th = np.array([0.5, 1.0, 3.0])
    chi = np.array([[0.2], [0.5], [0.9]])
    E, S = cell_budget(TP, box, th, chi, 0.125)
    # free energy F = (e - th s) + lam + B + th sig; phi = 0 inside the box
    F = (TP.e(th, chi) - th * TP.s(th, chi)) + TP.lam(chi) + 0.125 \
        + th * TP.sig(chi)
    assert np.allclose(F, E - th * S, rtol=1e-13)
    with pytest.raises(NumericalError):
        cell_budget(TP, box, np.array([1.0]), np.array([[2.0]]), 0.0)


def test_closed_form_envelope():
    # alpha = 1 and w0 below the cap: w(t) = w0 exp(-R^2 t / (4 mu0))
    val = TP.lower_bound_closed_form(1.0, 2.0, 1.0, rho=100.0)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_mobility_sandwich():
    th = np.linspace(0.01, 20.0, 200)
    mu = TP.mu(th)
    assert np.all(mu >= TP.mu0)
    assert np.all(np.diff(mu) >= 0.0)
