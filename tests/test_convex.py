"""Constraint potentials, proximal maps, and the scalar inclusion solver."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlpf.convex import (IndicatorBall, IndicatorBox, IndicatorSimplex,
                         InclusionProblem, dependence_gap,
                         derivative_convergence,
                         dissipation_identity_residuals, inclusion_solve)
from nlpf.errors import ConfigError


def test_box_prox_is_clip():
    box = IndicatorBox(np.zeros(2), np.ones(2))
    z = np.array([[1.7, -0.3], [0.4, 0.9]])
    out = box.prox(z, np.ones(2))
    assert np.array_equal(out, [[1.0, 0.0], [0.4, 0.9]])


def test_ball_prox_is_radial_projection():
    ball = IndicatorBall(2, 0.5)
    out = ball.prox(np.array([[3.0, 4.0]]), np.array([2.0]))
    assert np.allclose(out, [[0.3, 0.4]], atol=1e-15)


def test_simplex_prox_properties():
    sx = IndicatorSimplex(3)
    rng = np.random.default_rng(11)
    z = rng.normal(size=(40, 3))
    out = sx.prox(z, np.ones(40))
    assert np.all(out >= -1e-15)
    assert np.all(out.sum(axis=1) <= 1.0 + 1e-12)
    assert np.all(sx.contains(out))
    # projection characterisation: (z - p) . (y - p) <= 0 for feasible y
    ys = sx.domain_sample(25)
    for p, zz in zip(out, z):
        gaps = (ys - p) @ (zz - p)
        assert np.max(gaps) <= 1e-10


@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_indicator_prox_lands_in_domain(d, seed):
    rng = np.random.default_rng(seed)
    pots = [IndicatorBox(np.zeros(d), np.ones(d)), IndicatorBall(d, 0.7),
            IndicatorSimplex(d)]
    z = rng.normal(scale=2.0, size=(8, d))
    for pot in pots:
        out = pot.prox(z, np.full(8, 0.5))
        assert np.all(pot.contains(out))


def test_inclusion_ramp_then_stick():
    """alpha = 1, g = 1 on the unit interval: zeta(t) = min(t, 1).

    Backward Euler reproduces the ramp exactly because the prox is a clip,
    and once the constraint is active the selection must carry the full
    forcing, xi = 1.
    """
    box = IndicatorBox(np.zeros(1), np.ones(1))
    prob = InclusionProblem(alpha=lambda t: 1.0,
                            g=lambda t: np.ones(1),
                            zeta0=np.zeros(1), C=1.0, T=2.0)
    tr = inclusion_solve(prob, box, dt=0.1)
    assert np.allclose(tr.zeta[:, 0], np.minimum(tr.t, 1.0), atol=1e-14)
    # xi has one row per step; steps ending after t = 1 sit on the face
    late = tr.xi[tr.t[1:] > 1.0 + 1e-12, 0]
    assert np.allclose(late, 1.0, atol=1e-12)
    assert np.max(np.abs(dissipation_identity_residuals(tr))) <= 1e-12


def test_inclusion_forcing_bound_checked():
    box = IndicatorBox(np.zeros(1), np.ones(1))
    prob = InclusionProblem(alpha=lambda t: 1.0,
                            g=lambda t: np.ones(1),
                            zeta0=np.zeros(1), C=0.5, T=1.0)
    with pytest.raises(ConfigError):
        inclusion_solve(prob, box, dt=0.1)


def test_dependence_gap_lipschitz_constant():
    # constant forcing shift delta inside the interior: the gap grows as
    # delta * t / alpha, so the fitted constant is exactly 1 / alpha
    alpha = 200.0
    box = IndicatorBox(np.zeros(1), np.full(1, 10.0))
    base = InclusionProblem(lambda t: alpha, lambda t: np.full(1, 0.5),
                            np.full(1, 5.0), 10.0, 1.0)
    shifted = InclusionProblem(lambda t: alpha,
                               lambda t: np.full(1, 0.5 + 1e-3),
                               np.full(1, 5.0), 10.0, 1.0)
    tr1 = inclusion_solve(base, box, dt=0.01)
    tr2 = inclusion_solve(shifted, box, dt=0.01)
    rep = dependence_gap(tr1, tr2)
    assert rep.lip_constant == pytest.approx(1.0 / alpha, rel=1e-6)
    assert rep.sup_distance == pytest.approx(1e-3 / alpha, rel=1e-6)


def test_derivative_convergence_gaps():
    alpha = 200.0
    box = IndicatorBox(np.zeros(1), np.full(1, 10.0))

    def make(shift):
        return InclusionProblem(lambda t: alpha,
                                lambda t, s=shift: np.full(1, 0.5 + s),
                                np.full(1, 5.0), 10.0, 1.0)

    ns = [10, 20, 40]
    problems = [make(1.0 / n) for n in ns]
    gaps, verdict = derivative_convergence(problems, make(0.0), box, dt=0.01)
    assert verdict
    expected = [1.0 / (n * alpha) for n in ns]
    assert np.allclose(gaps, expected, rtol=1e-9)


def test_mismatched_grids_rejected():
    box = IndicatorBox(np.zeros(1), np.ones(1))
    prob = InclusionProblem(lambda t: 1.0, lambda t: np.zeros(1),
                            np.full(1, 0.5), 1.0, 1.0)
    tr1 = inclusion_solve(prob, box, dt=0.1)
    tr2 = inclusion_solve(prob, box, dt=0.05)
    with pytest.raises(ConfigError):
        dependence_gap(tr1, tr2)
