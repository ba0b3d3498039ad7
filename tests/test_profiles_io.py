import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from bo3.plotting import line_plot_svg, plot_csv
from bo3.profiles import PROFILES, make_profile
from bo3.snapshots import read_csv, write_csv
from bo3.spectral import make_grid


@pytest.fixture
def grid():
    return make_grid(256, 64.0 * np.pi)


# ---------------------------------------------------------------------------
# profiles


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profiles_are_mean_free_and_normalized(name, grid):
    f = make_profile(name, grid, amplitude=1.0, bandlimit=2.0, seed=3)
    assert abs(np.mean(f.values)) <= 1e-13
    assert np.max(np.abs(f.values)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", ["gaussian_bump", "sech_bump", "airy_packet"])
def test_profiles_respect_bandlimit(name, grid):
    f = make_profile(name, grid, amplitude=1.0, bandlimit=1.5, seed=0)
    power = np.abs(f.spectrum) ** 2
    outside = np.abs(grid.xi) > 1.5
    assert np.sum(power[outside]) <= 1e-20 * np.sum(power)


def test_profile_amplitude_scaling(grid):
    f1 = make_profile("gaussian_bump", grid, amplitude=0.05)
    f2 = make_profile("gaussian_bump", grid, amplitude=0.1)
    assert np.max(np.abs(2.0 * f1.values - f2.values)) <= 1e-14


def test_random_profile_is_seed_deterministic(grid):
    a = make_profile("random_bandlimited", grid, seed=11)
    b = make_profile("random_bandlimited", grid, seed=11)
    c = make_profile("random_bandlimited", grid, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_odd_packet_parity(grid):
    f = make_profile("odd_packet", grid, width=5.0, bandlimit=1.0)
    flipped = -f.values[::-1]
    # odd about the center; index 0 has no mirror partner but carries ~0
    assert np.max(np.abs(f.values[1:] - flipped[:-1])) <= 1e-12


def test_unknown_profile(grid):
    with pytest.raises(KeyError):
        make_profile("soliton", grid)


def test_two_modes_need_a_finite_number_of_grid_modes(grid):
    with pytest.raises(ValueError, match="bandlimit 1e\\+308 is no finite number of grid modes"):
        make_profile("two_mode", grid, bandlimit=1e308)


# ---------------------------------------------------------------------------
# CSV tables


def test_csv_roundtrip_full_precision(tmp_path):
    rows = [["t", "value", "label"], [0.1, 1.0 / 3.0, "a"], [0.2, np.pi, "b"]]
    path = tmp_path / "table.csv"
    write_csv(path, rows)
    header, back = read_csv(path)
    assert header == ["t", "value", "label"]
    assert back[0][1] == 1.0 / 3.0  # bit-exact through the %.17g format
    assert back[1][1] == np.pi
    assert back[1][2] == "b"


# ---------------------------------------------------------------------------
# plots


def test_line_plot_svg(tmp_path):
    xs = np.geomspace(1.0, 100.0, 20)
    ys = xs**-0.5
    out = tmp_path / "plot.svg"
    line_plot_svg([("decay", xs, ys)], out, loglog=True, annotate="slope -1/2")
    text = out.read_text()
    assert text.startswith("<svg")
    assert "slope -1/2" in text


def test_line_plot_svg_without_a_point_draws_the_frame(tmp_path):
    out = tmp_path / "plot.svg"
    line_plot_svg([("zeros", [1.0, 2.0], [0.0, 0.0]), ("nan", [1.0], [np.nan])], out,
                  loglog=True, title="t<1")
    text = out.read_text()
    assert "no finite points" in text and "<path" not in text and "t&lt;1" in text
    ElementTree.parse(out)


def test_plot_csv(tmp_path):
    csv = tmp_path / "data.csv"
    write_csv(csv, [["t", "a", "b"], [1.0, 2.0, 3.0], [2.0, 1.0, 4.0]])
    out = tmp_path / "data.svg"
    plot_csv(csv, out, x="t", y=["a", "b"])
    assert out.exists()
    with pytest.raises(KeyError):
        plot_csv(csv, out, x="t", y="missing")


def test_plot_empty_csv(tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("t,a\n")
    with pytest.raises(ValueError):
        plot_csv(csv, tmp_path / "x.svg", x="t", y="a")
