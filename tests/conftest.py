import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bo3 import flows, stepper
from bo3.experiments import config_from_dict
from bo3.spectral import RealField, make_grid
from bo3.stepper import Trajectory

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def shipped_config(name):
    """The canonical config of an experiment: ``configs/<name>.json``, loaded."""
    return config_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))


@pytest.fixture
def grid2pi():
    return make_grid(256, 2.0 * np.pi)


@pytest.fixture
def grid_rig():
    """The standard measurement grid."""
    return make_grid(1024, 256.0 * np.pi)


def random_bandlimited_field(grid, seed, bandlimit=None, mean_free=True):
    """Seeded random real field, hard-bandlimited to |xi| <= bandlimit."""
    rng = np.random.default_rng(seed)
    if bandlimit is None:
        bandlimit = grid.xi_max / 3.0
    half = grid.n // 2
    spec = np.zeros(grid.n, dtype=complex)
    keep = np.abs(grid.xi[1:half]) <= bandlimit
    coeff = (rng.normal(size=half - 1) + 1j * rng.normal(size=half - 1)) * keep
    spec[1:half] = coeff
    spec[-(half - 1):] = np.conj(coeff[::-1])
    if not mean_free:
        spec[0] = rng.normal() * grid.n
    vals = np.fft.ifft(spec).real
    peak = np.max(np.abs(vals))
    return RealField(grid, vals / (peak + 1e-300))


def trajectory(frames):
    """Trajectory of ``(t, RealField)`` pairs on one grid, kept as half spectra."""
    grid = frames[0][1].grid
    times = np.array([t for t, _ in frames], dtype=float)
    spectra = np.array([f.modes for _, f in frames])
    return Trajectory(grid, times, spectra)


def linear_march(f, config):
    """The stepper's integrating-factor march of f with the nonlinear part
    switched off: the Airy flow as the third-order march carries it."""
    ws = flows._workspace(f.grid)
    times, (spectra,) = stepper._march(ws, f.modes, 0.0, config.t_end, config,
                                       lambda s, out: out.fill(0.0))
    return Trajectory(f.grid, times, spectra)
