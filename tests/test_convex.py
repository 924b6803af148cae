"""Constraint potentials, proximal maps, and the inclusion study that
marches the proximal step."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlpf.config import resolve_config
from nlpf.convex import (IndicatorBall, IndicatorBox, IndicatorSimplex,
                         _halton)
from nlpf.errors import ConfigError
from nlpf.stepper import selection, step_chi
from nlpf.studies import inclusion_dependence


def test_box_prox_is_clip():
    box = IndicatorBox(np.zeros(2), np.ones(2))
    z = np.array([[1.7, -0.3], [0.4, 0.9]])
    out = box.prox(z)
    assert np.array_equal(out, [[1.0, 0.0], [0.4, 0.9]])


@pytest.mark.parametrize("lo, hi", [([0.0], [1.0]), ([-0.5, 2.0], [3.0, 7.5]),
                                    ([-2e3], [-1e3])])
def test_box_contains_matches_the_bounds_at_their_tolerance(lo, hi):
    """``contains`` with its bounds computed once gives the verdicts of
    ``all((x >= lo - tol) & (x <= hi + tol))``, bit for bit, at and one
    ulp either side of lo - tol and hi + tol, on single points and rows."""
    box = IndicatorBox(np.array(lo), np.array(hi))
    lo_t, hi_t = box.lo - box._tol, box.hi + box._tol
    edges = [lo_t, hi_t, box.lo, box.hi]
    values = np.stack([f(e, v) for e in edges for v in (-np.inf, np.inf)
                       for f in (np.nextafter, lambda e, v: e)])
    x = np.concatenate([values, values[::-1], np.roll(values, 1, axis=-1)])
    want = np.all((x >= lo_t) & (x <= hi_t), axis=-1)
    assert want.any() and not want.all()
    assert np.array_equal(box.contains(x), want)
    for row, verdict in zip(x, want):
        assert box.contains(row).tolist() == [verdict]


def test_ball_prox_is_radial_projection():
    ball = IndicatorBall(2, 0.5)
    out = ball.prox(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.3, 0.4]], atol=1e-15)


def test_simplex_prox_properties():
    sx = IndicatorSimplex(3)
    rng = np.random.default_rng(11)
    z = rng.normal(size=(40, 3))
    out = sx.prox(z)
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
        out = pot.prox(z)
        assert np.all(pot.contains(out))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_domain_sample_lies_in_domain(d):
    """25 points of every domain up to six components: the points drawn
    grow with the share of the box the domain leaves empty."""
    pots = [IndicatorBox(np.full(d, -0.5), np.full(d, 3.0)),
            IndicatorBall(d, 0.7), IndicatorSimplex(d)]
    for pot in pots:
        pts = pot.domain_sample(25)
        assert pts.shape == (25, d)
        assert np.all(pot.contains(pts))
    # one component: the uniform lattice spanning the interval
    if d == 1:
        for pot, (lo, hi) in zip(pots, [(-0.5, 3.0), (-0.7, 0.7), (0, 1)]):
            assert np.array_equal(pot.domain_sample(9)[:, 0],
                                  np.linspace(lo, hi, 9))


def test_halton_matches_scipy_bit_for_bit():
    """``_halton`` gives points 1..n of scipy's unscrambled Halton sequence,
    bit for bit.  Only the tests load ``scipy.stats``."""
    from scipy.stats import qmc
    for d in range(1, 13):
        for n in (1, 2, 16, 116, 272):
            ref = qmc.Halton(d=d, scramble=False).random(n + 1)[1:]
            got = _halton(d, n)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_domain_sample_is_the_scipy_halton_lattice(d):
    """The validation lattice of every potential is the one drawn through
    ``scipy.stats.qmc``: the first n Halton points of the box, in Halton
    order, that the domain contains.  In 2D each domain holds n of the
    first 4n + 16 points, so the lattice is the one those gave."""
    from scipy.stats import qmc
    pots = [(IndicatorBox(np.full(d, -0.5), np.full(d, 3.0)), -0.5, 3.0),
            (IndicatorBall(d, 0.7), -0.7, 0.7), (IndicatorSimplex(d), 0.0, 1.0)]
    unit = qmc.Halton(d=d, scramble=False).random(4097)[1:]
    for pot, lo, hi in pots:
        box = lo + (hi - lo) * unit
        for n in (25, 64):
            ref = box[pot.contains(box)][:n]
            if d == 2:
                first = box[:4 * n + 16]
                assert np.array_equal(ref, first[pot.contains(first)][:n])
            assert pot.domain_sample(n).tobytes() == ref.tobytes()


def test_domain_sample_refuses_a_domain_too_thin_for_its_box():
    """Seven simplex components fill 1/5040 of the box: 25 points would
    need 332640 Halton points, over the cap, so the sample is refused
    naming the component count."""
    with pytest.raises(ConfigError, match="7 components"):
        IndicatorSimplex(7).domain_sample(25)
    assert IndicatorBall(11, 0.7).domain_sample(25).shape == (25, 11)
    with pytest.raises(ConfigError, match="12 components"):
        IndicatorBall(12, 0.7).domain_sample(25)


def test_inclusion_ramp_then_stick():
    """alpha = 1, g = 1 on the unit interval: zeta(t) = min(t, 1).

    Backward Euler reproduces the ramp exactly because the prox is a clip,
    and once the constraint is active the selection must carry the full
    forcing, xi = 1.  Each step closes the discrete dissipation identity
    phi(z_k) - phi(z_{k-1}) = dt (|g|^2 - |xi|^2 - |alpha z'|^2) / 2 alpha,
    whose left side is 0: the indicator phi vanishes on the box, where
    every step lands.
    """
    box = IndicatorBox(np.zeros(1), np.ones(1))
    dt, n_steps = 0.1, 20
    alpha, g = np.ones(1), np.ones((1, 1))
    t = dt * np.arange(n_steps + 1)
    zeta = np.zeros(n_steps + 1)
    xi = np.zeros(n_steps)
    residuals = np.zeros(n_steps)
    for k in range(n_steps):
        z_old = zeta[k:k + 1, None]
        z_new = step_chi(box, z_old, alpha, g, dt)
        zeta[k + 1] = z_new[0, 0]
        xi[k] = selection(z_old, z_new, alpha, g, dt)[0, 0]
        rate = (zeta[k + 1] - zeta[k]) / dt
        assert box.contains(z_new)[0]
        residuals[k] = 0.0 - dt * (1.0 - xi[k] ** 2 - rate ** 2) / 2.0
    assert np.allclose(zeta, np.minimum(t, 1.0), atol=1e-14)
    # xi has one entry per step; steps ending after t = 1 sit on the face
    late = xi[t[1:] > 1.0 + 1e-12]
    assert late.size == 10
    assert np.allclose(late, 1.0, atol=1e-12)
    assert np.max(np.abs(residuals)) <= 1e-12


def study_rows(quantity, **overrides):
    values = {"solver.dt": "1e-3", **overrides}
    return [r for r in inclusion_dependence(resolve_config(values))
            if r["quantity"] == quantity]


def test_dependence_gap_lipschitz_constant():
    # a constant forcing shift delta inside the interior: the gap grows as
    # delta * t / alpha, so every Lipschitz row is 1 / alpha
    for alpha in (200.0, 50.0):
        rows = study_rows("lipschitz",
                          **{"study.inclusion_alpha": str(alpha)})
        assert len(rows) == 4
        for row in rows:
            assert row["value"] == pytest.approx(1.0 / alpha, rel=1e-6)


def test_derivative_convergence_gaps():
    alpha = 200.0
    ns = [10, 20, 40]
    rows = study_rows("rate_gap", **{"study.inclusion_ns": "10,20,40"})
    assert [r["param"] for r in rows] == ns
    expected = [1.0 / (n * alpha) for n in ns]
    assert np.allclose([r["value"] for r in rows], expected, rtol=1e-9)
    (mono,) = study_rows("rate_gap_monotone",
                         **{"study.inclusion_ns": "10,20,40"})
    assert mono["value"] == 1.0


# `nlpf study inclusion-dependence --config configs/default.cfg` as printed
# by the separate inclusion solver this study replaced
_DEFAULT_TABLE = """\
lipschitz,0.001,0.001,0.0049999999696126451
lipschitz,0.001,0.00050000000000000001,0.0050000001916572501
lipschitz,0.00050000000000000001,0.001,0.0049999999696126451
lipschitz,0.00050000000000000001,0.00050000000000000001,0.0049999999696126451
rate_gap,10,0.001,0.00049999999995886668
rate_gap,20,0.001,0.00025000000003494449
rate_gap,40,0.001,0.00012500000001747225
rate_gap,80,0.001,6.2499999953224972e-05
rate_gap_monotone,nan,0.001,1
"""


def test_inclusion_study_reproduces_default_table():
    rows = inclusion_dependence(resolve_config({"solver.dt": "1e-3"}))
    expected = [line.split(",") for line in _DEFAULT_TABLE.splitlines()]
    assert len(rows) == len(expected)
    for row, (quantity, param, dt, value) in zip(rows, expected):
        got = [row["quantity"]] + ["%.17g" % row[c]
                                   for c in ("param", "dt", "value")]
        if quantity == "rate_gap":
            assert got[:3] == [quantity, param, dt]
            assert row["value"] == pytest.approx(float(value), rel=1e-12)
        else:
            assert got == [quantity, param, dt, value]
