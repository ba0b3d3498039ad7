import math
import tempfile
import tracemalloc
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bo3.invariants import CHANNELS, EnergySeries
from bo3.plotting import line_plot_svg, plot_csv
from bo3.profiles import PROFILES, make_profile
from bo3.snapshots import read_csv, write_csv
from bo3.spectral import make_grid

from oracles import line_plot_svg_oracle, write_csv_oracle


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


@pytest.mark.parametrize("name", ["gaussian_bump", "airy_packet"])
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


def test_energy_table_rows_are_each_frames_channels(tmp_path):
    # 150 frames cross the blocks in which to_rows takes its floats
    t = np.linspace(0.0, 1.0, 150)
    series = EnergySeries(t, {name: np.cos((i + 1) * t) for i, name in enumerate(CHANNELS)})
    series.channels["E1"][7] = np.nan
    names = sorted(series.channels)
    by_index = [["t"] + names] + [[t[i]] + [series.channels[n][i] for n in names]
                                  for i in range(t.size)]
    write_csv(tmp_path / "rows.csv", series.to_rows())
    write_csv_oracle(tmp_path / "index.csv", by_index)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "index.csv").read_bytes()


def test_a_row_that_fails_to_format_leaves_no_partial_table(tmp_path):
    def rows():
        yield ["t", "a"]
        yield [0.0, 1.0]
        yield [1.0, object()]  # "%.17g" refuses it

    earlier = tmp_path / "table.csv"
    write_csv(earlier, [["t", "a"], [0.0, 2.0]])
    before = earlier.read_bytes()
    with pytest.raises(TypeError):
        write_csv(earlier, rows())
    assert earlier.read_bytes() == before
    with pytest.raises(TypeError):
        write_csv(tmp_path / "fresh.csv", rows())
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


# NaN, infinities, signed zeros and magnitudes that overflow a range,
# as floats or small ints
VALUES = st.one_of(st.floats(), st.floats(-1e6, 1e6),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
                   st.integers(-1000, 1000))
TEXT = st.text(alphabet="ab &<>", max_size=4)
# (label, xs, ys, as arrays), usually of equal lengths
SERIES = st.tuples(TEXT, st.lists(VALUES, max_size=6), st.lists(VALUES, max_size=6),
                   st.booleans())


def written(writer, path, *args, **kwargs):
    """The bytes ``writer`` writes to ``path``, or the type of the
    ArithmeticError it raises, after which ``path`` must not exist."""
    try:
        writer(*args, **kwargs)
    except ArithmeticError as exc:
        assert not path.exists()
        return type(exc)
    return path.read_bytes()


@example([("x<y", [1.0], [2.0], False)], False, "", "")  # one point: x1 == x0
@example([("nan", [math.nan, 1.0], [1.0, math.inf], True),
          ("neg", [-1.0, 0.0], [1.0, 2.0], False)], True, "t&1", "")  # no drawable point
@example([("big", [1e20, 1e20], [0.0, 1.0], False)], False, "", "")  # 1 cannot widen x
@example([("wide", [-1e308, 1e308], [0.0, 1.0], True)], False, "", "")  # the span overflows
@settings(max_examples=300, deadline=None)
@given(st.lists(SERIES, max_size=3), st.booleans(), TEXT, TEXT)
def test_plot_writes_the_bytes_of_the_reference_writer(series, loglog, title, annotate):
    series = [(label, np.array(xs, dtype=float) if arrays else xs,
               np.array(ys, dtype=float) if arrays else ys)
              for label, xs, ys, arrays in series]
    with tempfile.TemporaryDirectory() as tmp:
        want, got = Path(tmp) / "want.svg", Path(tmp) / "got.svg"
        kwargs = dict(xlabel="x&", ylabel="<y>", loglog=loglog, title=title, annotate=annotate)
        assert (written(line_plot_svg, got, series, got, **kwargs)
                == written(line_plot_svg_oracle, want, series, want, **kwargs))


CSV_CELLS = st.one_of(VALUES, TEXT, VALUES.map(np.float64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(CSV_CELLS, max_size=4), max_size=6))
def test_table_writes_the_bytes_of_the_reference_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        want, got = Path(tmp) / "want.csv", Path(tmp) / "got.csv"
        write_csv_oracle(want, rows)
        write_csv(got, iter(rows))
        assert got.read_bytes() == want.read_bytes()


def test_writers_hold_a_bounded_share_of_their_input(tmp_path):
    # 20 000 frames of a dense conserve run: the writers that held every row
    # and point as Python objects peaked at about 8 MB for the table and 10 MB
    # for the plot
    t = np.linspace(0.0, 2.0, 20_000)
    series = EnergySeries(t, {name: np.cos((i + 1) * t) for i, name in enumerate(CHANNELS)})
    drift = [(name, t, np.abs(np.sin((i + 1) * t)) + 1e-18)
             for i, name in enumerate(("E0", "E1", "E2"))]
    peaks = []
    tracemalloc.start()
    try:
        for write in (lambda: write_csv(tmp_path / "energies.csv", series.to_rows()),
                      lambda: line_plot_svg(drift, tmp_path / "energies.svg")):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    csv_peak, svg_peak = peaks
    assert csv_peak < 0.1 * 2**20
    assert svg_peak < 1.0 * 2**20
    assert (tmp_path / "energies.csv").stat().st_size > 20_000 * 6 * 17


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
