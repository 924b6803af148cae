import hypothesis
import numpy as np
import pytest

from nlpf.convex import IndicatorBox
from nlpf.geometry import BoundaryData, build_grid
from nlpf.longrange import GaussianKernel, QuadraticG, build_coupling
from nlpf.stepper import RunComponents, SolverConfig
from nlpf.thermo import build_model

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


def two_phase_components(cells=32, horizon=1.0, dt=1e-3, n_reg=0,
                         rho=float(np.e) ** 8, uniqueness=False,
                         gamma=0.0, lam_amp=0.1, sig_amp=0.2):
    """Standard 1D bar with a warm bump and a phase gradient.

    This is the configuration most tests share: insulated by default, both
    fields smooth and safely inside their domains, mild enough that no step
    is ever rejected.
    """
    grid = build_grid(1, [1.0], [cells])
    model = build_model("two_phase_power", alpha=1, lam_amp=lam_amp,
                        sig_amp=sig_amp, uniqueness_mode=uniqueness)
    potential = IndicatorBox(np.zeros(1), np.ones(1))
    coupling = build_coupling(grid, GaussianKernel(0.1, 0.25), QuadraticG(),
                              1.0)
    boundary = BoundaryData(grid, gamma, 1.0)
    x = grid.centers[:, 0]
    theta0 = 1.0 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.02)
    chi0 = (0.3 + 0.2 * np.sin(np.pi * x))[:, None]
    config = SolverConfig(dt=dt, horizon=horizon, n_reg=n_reg, rho=rho)
    return RunComponents(grid, model, potential, coupling, boundary,
                         theta0, chi0, config)


@pytest.fixture(scope="session")
def short_run():
    """One shared quarter-horizon reference run (insulated, dt = 1e-3)."""
    from nlpf.stepper import run

    comp = two_phase_components(horizon=0.25)
    return comp, run(comp)
