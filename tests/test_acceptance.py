"""Acceptance suite: every machine-checkable claim at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them live).  The heavy canonical experiments are shared across criteria
through session fixtures, so the whole suite stays within a few minutes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bo3 import snapshots
from bo3.cli import main as cli_main
from bo3.experiments import (
    TOLERANCES,
    apply_override,
    config_to_dict,
    run_experiment,
)
from bo3.flows import FlowKind, airy_propagate
from bo3.invariants import track
from bo3.spectral import (
    RealField,
    antiderivative,
    dealiased_product,
    derivative,
    hilbert,
    l2_norm,
    make_grid,
    project_band,
    resolved_bands,
)
from bo3.stepper import SolverConfig, integrate

from conftest import linear_march, random_bandlimited_field, shipped_config


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}  {num:>3}. {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def rig():
    return make_grid(1024, 256.0 * np.pi)


def _canonical(name, tmp_path_factory, overrides=()):
    cfg = shipped_config(name)
    for ov in overrides:
        apply_override(cfg, ov)
    out = tmp_path_factory.mktemp(f"canon_{name}")
    return run_experiment(cfg, base_dir=out), out


@pytest.fixture(scope="session")
def conserve_result(tmp_path_factory):
    return _canonical("conserve", tmp_path_factory)


@pytest.fixture(scope="session")
def scaling_result(tmp_path_factory):
    return _canonical("scaling", tmp_path_factory)


@pytest.fixture(scope="session")
def airy_result(tmp_path_factory):
    return _canonical("airy_decay", tmp_path_factory)


@pytest.fixture(scope="session")
def strichartz_result(tmp_path_factory):
    return _canonical("strichartz", tmp_path_factory)


@pytest.fixture(scope="session")
def normalform_result(tmp_path_factory):
    return _canonical("normalform_scaling", tmp_path_factory)


@pytest.fixture(scope="session")
def linearized_result(tmp_path_factory):
    return _canonical("linearized_l2", tmp_path_factory)


@pytest.fixture(scope="session")
def lnl_result(tmp_path_factory):
    return _canonical("lnl_conservation", tmp_path_factory)


@pytest.fixture(scope="session")
def decay_result(tmp_path_factory):
    return _canonical("decay_profile", tmp_path_factory)


# ---------------------------------------------------------------------------
# 1. operator identities


def test_criterion_01_operator_identities(rig):
    worst = {"skew_adjoint": 0.0, "skew_identity": 0.0, "convolution": 0.0,
             "involution": 0.0, "roundtrip": 0.0}
    quad = rig.spacing
    for seed in range(100):
        u = random_bandlimited_field(rig, seed=10_000 + seed, bandlimit=2.0)
        v = random_bandlimited_field(rig, seed=20_000 + seed, bandlimit=2.0)
        hu, hv = hilbert(u), hilbert(v)
        scale = l2_norm(u) * l2_norm(v) + 1.0
        worst["skew_adjoint"] = max(
            worst["skew_adjoint"],
            abs(quad * np.sum(u.values * hv.values) + quad * np.sum(v.values * hu.values)) / scale,
        )
        worst["skew_identity"] = max(
            worst["skew_identity"],
            abs(quad * np.sum(hu.values * hv.values) - quad * np.sum(u.values * v.values)) / scale,
        )
        conv = hilbert(RealField(rig, dealiased_product(u, hv).values
                                 + dealiased_product(v, hu).values)).values
        rhs = dealiased_product(hu, hv).values - dealiased_product(u, v).values
        worst["convolution"] = max(worst["convolution"], np.max(np.abs(conv - rhs)))
        invol = hilbert(hu).values + (u.values - np.mean(u.values))
        worst["involution"] = max(worst["involution"], np.max(np.abs(invol)))
        worst["roundtrip"] = max(
            worst["roundtrip"],
            np.max(np.abs(derivative(antiderivative(u)).values - u.values)),
        )
    ok = all(w <= 1e-10 for w in worst.values())
    report(1, "operator identity suite",
           ok, ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 2. dyadic decomposition


def test_criterion_02_littlewood_paley(rig):
    # partition of unity on the standard rig
    worst_partition = 0.0
    for seed in range(20):
        f = random_bandlimited_field(rig, seed=30_000 + seed, bandlimit=3.9)
        total = np.zeros(rig.n)
        for k in resolved_bands(rig):
            total = total + project_band(f, k).values
        worst_partition = max(worst_partition, np.max(np.abs(total - f.values)))

    # one Bernstein and one commutator constant across 100 randomized trials
    # on a deep dyadic ladder
    deep = make_grid(1024, 2.0 * np.pi)
    bern, comm = 0.0, 0.0
    for seed in range(100):
        f = random_bandlimited_field(deep, seed=40_000 + seed, bandlimit=400.0)
        for k in (3, 6, 8):
            piece = project_band(f, k)
            nrm = l2_norm(piece)
            if nrm > 1e-12:
                bern = max(bern, np.max(np.abs(piece.values)) / (2.0 ** (k / 2.0) * nrm))
        lo = random_bandlimited_field(deep, seed=50_000 + seed, bandlimit=8.0)
        hi = random_bandlimited_field(deep, seed=60_000 + seed, bandlimit=300.0)
        k = 7
        fg = dealiased_product(lo, hi)
        commutator = (project_band(fg, k).values
                      - dealiased_product(lo, project_band(hi, k)).values)
        bound = 2.0 ** (-k) * np.max(np.abs(derivative(lo).values)) * l2_norm(hi)
        comm = max(comm, l2_norm(RealField(deep, commutator)) / bound)
    ok = worst_partition <= 1e-12 and bern <= 1.0 and comm <= 5.0
    report(2, "Littlewood-Paley suite", ok,
           f"partition={worst_partition:.1e}, bernstein C={bern:.2f}, commutator C={comm:.2f}")


# ---------------------------------------------------------------------------
# 3. exact linear propagation


def test_criterion_03_airy_exactness(rig):
    f = random_bandlimited_field(rig, seed=7, bandlimit=2.0)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, snapshot_stride=20)
    traj = linear_march(f, cfg)  # the integrating factor carries the linear part exactly
    worst = 0.0
    for t, fld in traj.frames:
        worst = max(worst, np.max(np.abs(fld.values - airy_propagate(f, t).values)))
    k, t = 2.0, 0.8  # plane-wave dispersion: exact phase shift
    pw = RealField(rig, np.cos(k * rig.x))
    moved = airy_propagate(pw, t)
    disp = np.max(np.abs(moved.values - np.cos(k * rig.x - k**3 * t)))
    ok = worst <= 1e-12 and disp <= 1e-12
    report(3, "Airy exactness", ok, f"integrator={worst:.1e}, plane wave={disp:.1e}")


# ---------------------------------------------------------------------------
# 4-12: canonical experiments


def test_criterion_04_stationary_phase_decay(airy_result):
    res, _ = airy_result
    slope = res.metrics["airy_decay_slope"]
    ok = res.verdicts["airy_decay_slope"]
    report(4, "stationary-phase decay exponent", ok, f"slope={slope:.4f} (target -1/3 +- 0.02)")


def test_criterion_05_conservation(conserve_result):
    res, _ = conserve_result
    ok = res.passed
    report(5, "E0/E1/E2 conservation and 4th-order convergence", ok,
           f"E0={res.metrics['e0_drift']:.1e}, E1={res.metrics['e1_drift']:.1e}, "
           f"E2={res.metrics['e2_drift']:.1e}, order={res.metrics['convergence_order']:.3f}")


def test_criterion_05b_reference_drift_budget(rig):
    # companion stepper budget: amplitude 0.1 over [0, 1] at dt = 1e-4
    from bo3.profiles import make_profile

    data = make_profile("gaussian_bump", rig, amplitude=0.1, width=4.0, bandlimit=1.0)
    cfg = SolverConfig(dt=1e-4, t_end=1.0, snapshot_stride=1000)
    traj = integrate(FlowKind("third_order_bo"), data, cfg)
    series = track(traj, ["E0"])
    drift = series.drift("E0")
    ok = drift <= 1e-8
    report("5b", "reference-budget L2 drift", ok, f"E0 drift={drift:.2e}")


def test_criterion_06_scaling_symmetry(scaling_result):
    res, _ = scaling_result
    ok = res.verdicts["scaling_agreement"]
    report(6, "two-to-one rescaled-run agreement", ok,
           f"pointwise deviation={res.metrics['scaling_agreement']:.1e}")


def test_criterion_07_normal_form_keystone(normalform_result):
    res, _ = normalform_result
    ok = res.passed
    report(7, "normal-form cubic residual scaling", ok,
           f"k=1 slopes ({res.metrics['raw_slope_k1']:.2f}, {res.metrics['gauged_slope_k1']:.2f}), "
           f"k=2 slopes ({res.metrics['raw_slope_k2']:.2f}, {res.metrics['gauged_slope_k2']:.2f}), "
           f"unitarity={res.metrics['gauge_unitarity']:.1e}, "
           f"Bk constant={res.metrics['bk_constant_max']:.3f}")


def test_criterion_08_linearized_flow(linearized_result):
    res, _ = linearized_result
    ok = res.passed
    report(8, "linearized/adjoint duality, Gateaux, growth", ok,
           f"duality={res.metrics['duality_pairing']:.1e}, "
           f"gateaux={res.metrics['gateaux_relative']:.1e}, "
           f"growth C={res.metrics['growth_max']:.4f} (K={res.metrics['growth_rate']:.3f})")


def test_criterion_09_almost_conservation(lnl_result):
    res, _ = lnl_result
    ok = res.passed
    report(9, "critical-norm almost-conservation", ok,
           f"y drift / eps = {res.metrics['y_drift_over_eps']:.2e} (cap "
           f"{TOLERANCES['y_drift_over_eps'][2]}), cubic bound="
           f"{res.metrics['cubic_energy_bound']:.2e} (cap {TOLERANCES['cubic_energy_bound'][2]})")


def test_criterion_10_vector_field(airy_result, decay_result):
    airy, _ = airy_result
    decay, _ = decay_result
    ok = airy.verdicts["l_vf_conservation"] and decay.verdicts["lnl_half_over_eps"]
    report(10, "vector-field norms", ok,
           f"linear conservation={airy.metrics['l_vf_deviation']:.1e}, "
           f"nonlinear K={decay.metrics['lnl_half_over_eps']:.2f} (cap "
           f"{TOLERANCES['lnl_half_over_eps'][2]})")


def test_criterion_11_decay_weights(decay_result):
    res, _ = decay_result
    ok = (res.verdicts["decay_phi_over_eps"] and res.verdicts["decay_phix_over_eps"]
          and res.verdicts["elliptic_log_over_eps"])
    report(11, "weighted decay channels bounded", ok,
           f"K_phi={res.metrics['decay_phi_over_eps']:.2f}, "
           f"K_phix={res.metrics['decay_phix_over_eps']:.2f}, "
           f"K_elliptic={res.metrics['elliptic_log_over_eps']:.2f}")


def test_criterion_12_bilinear_strichartz(strichartz_result):
    res, _ = strichartz_result
    ok = res.verdicts["strichartz_spread"]
    report(12, "bilinear smoothing ratio sweep", ok,
           f"max/min={res.metrics['strichartz_spread']:.2f} "
           f"(ratios {res.metrics['ratio_min']:.3f}..{res.metrics['ratio_max']:.3f})")


# ---------------------------------------------------------------------------
# golden canonical artifacts

GOLDEN = Path(__file__).parent / "golden"
CANONICAL = {"airy_decay": "airy_result", "conserve": "conserve_result",
             "decay_profile": "decay_result", "linearized_l2": "linearized_result",
             "lnl_conservation": "lnl_result", "normalform_scaling": "normalform_result",
             "scaling": "scaling_result", "strichartz": "strichartz_result"}
GOLDEN_RTOL = 1e-10


def _assert_near(got, want, where):
    """Every number of a JSON value within GOLDEN_RTOL of its golden, relative."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_near(got[key], want[key], f"{where}.{key}")
    else:
        assert got == want or abs(got - want) <= GOLDEN_RTOL * abs(want), (where, got, want)


def _assert_table_near(got_path, want_path, scales):
    """Each number column within GOLDEN_RTOL of its scale (the column's largest
    magnitude unless ``scales`` names it), NaN where the golden has NaN; each
    text column identical."""
    header, want_rows = snapshots.read_csv(want_path)
    got_header, got_rows = snapshots.read_csv(got_path)
    assert got_header == header and len(got_rows) == len(want_rows), got_path
    for name, got, want in zip(header, zip(*got_rows), zip(*want_rows)):
        where = f"{want_path.parent.name}/{want_path.name}:{name}"
        if any(isinstance(w, str) for w in want):
            assert got == want, where
            continue
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        assert np.array_equal(np.isnan(got), np.isnan(want)), where
        known = ~np.isnan(want)
        scale = scales.get(name, np.max(np.abs(want[known]), initial=0.0))
        worst = np.max(np.abs(got[known] - want[known]), initial=0.0)
        assert worst <= GOLDEN_RTOL * scale, (where, worst, scale)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_artifacts_match_the_goldens(name, request):
    """The canonical run's CSVs, decay_fit.json and manifest metrics agree with
    the goldens in tests/golden/<experiment>/ beyond round-off.

    Each number column is within 1e-10 of its column's largest magnitude, and
    every metric and number of decay_fit.json within 1e-10 relative.
    strichartz.csv, which no march feeds, is byte-identical.  One exception:
    the ``error`` column of conserve/convergence.csv holds differences of
    samples of size ``ConserveAnalysis.conv_amplitude``, down to ~3e-11, which
    round-off moves on the scale of the samples, not of the column; it is
    compared on that scale.

    After a change of numerics on purpose, regenerate the goldens with

        for c in configs/*.json; do bo3 run "$c" --out tests/golden; done
        rm tests/golden/*/*.svg

    and say in CHANGES.md which files moved, and by how much.
    """
    _, out = request.getfixturevalue(CANONICAL[name])
    golden, run = GOLDEN / name, out / name
    files = sorted(p.name for p in golden.iterdir() if p.name != "manifest.json")
    assert sorted(p.name for p in run.iterdir()
                  if p.suffix != ".svg" and p.name != "manifest.json") == files
    metrics = [json.loads((d / "manifest.json").read_text())["metrics"] for d in (run, golden)]
    _assert_near(*metrics, f"{name} metrics")
    scales = {"convergence.csv": {"error": shipped_config("conserve").analysis.conv_amplitude}}
    for file in files:
        if file == "strichartz.csv":
            assert (run / file).read_bytes() == (golden / file).read_bytes()
        elif file.endswith(".json"):
            _assert_near(*(json.loads((d / file).read_text()) for d in (run, golden)), file)
        else:
            _assert_table_near(run / file, golden / file, scales.get(file, {}))


# ---------------------------------------------------------------------------
# 13. reproducibility and exit codes


def test_criterion_13_reproducibility(tmp_path):
    cfg = shipped_config("normalform_scaling")
    apply_override(cfg, "analysis.t_probe=0.02")
    cfg_path = tmp_path / "nf.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))

    code_a = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "a")])
    code_b = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "b")])
    identical = all(
        (tmp_path / "a" / "normalform_scaling" / n).read_bytes()
        == (tmp_path / "b" / "normalform_scaling" / n).read_bytes()
        for n in ("residuals.csv", "bk_constants.csv")
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "conserve", "grid": {"n": 100}}')
    code_bad = cli_main(["validate", str(bad)])
    ok = code_a == 0 and code_b == 0 and identical and code_bad == 3
    report(13, "byte-identical reruns and exit codes", ok,
           f"exit codes ({code_a}, {code_b}, bad={code_bad}), identical={identical}")
