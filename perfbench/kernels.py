"""Kernel table: public per-layer functions timed alone at n = 128, 1024, 4096.

Each entry is the median, over a few repeats, of the mean time per call of a
batch sized to take about ``BATCH_S`` seconds.  The grids keep the spacing of
``configs/conserve.json`` (L / n = pi / 4), so every n resolves the same band
of wavenumbers and the data are the same smooth random field, only longer.
The normal-form and dispersion kernels take data with the bandlimit of
``configs/normalform_scaling.json`` instead, so the bands they use hold energy;
the table fails rather than time a kernel that found its bands empty.
"""

from __future__ import annotations

import math
import statistics
import time

SIZES = (128, 1024, 4096)
REPEATS = 5
BATCH_S = 0.02
SPACING = math.pi / 4.0
AMPLITUDE = 0.05
WIDE_BANDLIMIT = 3.5
DT = 1e-4

KERNEL_METRICS = {
    "flows.tbo_rhs_us": "us",
    "flows.linearized_tbo_rhs_us": "us",
    "flows.adjoint_linearized_rhs_us": "us",
    "stepper.single_step_us": "us",
    "stepper.coupled_step_us": "us",
    "stepper.coupled_over_single": "ratio",
    "spectral.dealiased_product_us": "us",
    "invariants.e1_us": "us",
    "invariants.e2_us": "us",
    "invariants.modified_energy_us": "us",
    "spectral.numpy_fft_c2c_2n_us": "us",
    "spectral.numpy_rfft_2n_us": "us",
    "flows.airy_propagate_us": "us",
    "normalform.band_transform_us": "us",
    "dispersion.bilinear_ratio_us": "us",
    "snapshots.write_csv_us": "us",
    "plotting.svg_us": "us",
}


def time_call(fn, repeats: int = REPEATS, batch_s: float = BATCH_S) -> float:
    """Median over repeats of the mean seconds per call of ``fn()``."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(batch_s / once))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def require_band(field, k: int, floor: float = 1e-3) -> None:
    """Fail unless band k holds at least ``floor`` of the field's L2 norm.

    Without energy in its bands a kernel times round-off, or returns early.
    """
    from bo3 import spectral

    share = spectral.l2_norm(spectral.project_band(field, k)) / spectral.l2_norm(field)
    if not share >= floor:
        raise RuntimeError(f"band {k} holds {share:.1e} of the kernel data at n={field.grid.n}")


def kernel_table(seed: int, work_dir) -> dict:
    """Every KERNEL_METRICS entry with a ``.n<size>`` suffix, in its unit.

    The IO kernels write their files into ``work_dir``.
    """
    import numpy as np

    from bo3 import dispersion, flows, invariants, normalform, plotting, profiles, snapshots
    from bo3 import spectral, stepper
    from bo3.flows import FlowKind

    out = {}
    for n in SIZES:
        grid = spectral.make_grid(n, n * SPACING)
        phi = profiles.make_profile("random_bandlimited", grid, amplitude=AMPLITUDE,
                                    bandlimit=1.0, seed=seed)
        v = profiles.make_profile("random_bandlimited", grid, amplitude=AMPLITUDE,
                                  bandlimit=1.0, seed=seed + 1)
        # bandlimit 1 leaves bands 1 and 2 empty; WIDE_BANDLIMIT fills them
        wide_phi = profiles.make_profile("random_bandlimited", grid, amplitude=AMPLITUDE,
                                         bandlimit=WIDE_BANDLIMIT, seed=seed)
        wide_v = profiles.make_profile("random_bandlimited", grid, amplitude=AMPLITUDE,
                                       bandlimit=WIDE_BANDLIMIT, seed=seed + 1)
        for field, k in ((wide_phi, 1), (wide_phi, 2), (wide_v, 2)):
            require_band(field, k)

        def ratio():
            # one band split into opposite halves: the cheapest separated pair
            r = dispersion.bilinear_strichartz_ratio(
                2, 2, wide_phi, wide_v, 1.0, halves=("plus", "minus"), samples=16)
            if r == 0.0:
                raise RuntimeError(f"bilinear ratio kernel returned 0 at n={n}")
            return r

        steps = max(4, 16384 // n)
        march = stepper.SolverConfig(dt=DT, t_end=steps * DT, snapshot_stride=10**9)
        single = time_call(lambda: stepper.integrate(FlowKind("third_order_bo"), phi, march),
                           repeats=3) / steps
        coupled = time_call(lambda: stepper.integrate_linearized_pair(phi, v, march),
                            repeats=3) / steps
        c2c = np.tile(phi.spectrum, 2)
        real = np.tile(phi.values, 2)
        rows = [["x", "phi", "v"]] + [[x, a, b] for x, a, b in zip(grid.x, phi.values, v.values)]
        series = [("phi", grid.x, phi.values), ("v", grid.x, v.values)]
        row = {
            "flows.tbo_rhs_us": time_call(lambda: flows.tbo_rhs(phi)),
            "flows.linearized_tbo_rhs_us": time_call(lambda: flows.linearized_tbo_rhs(v, phi)),
            "flows.adjoint_linearized_rhs_us": time_call(
                lambda: flows.adjoint_linearized_rhs(v, phi)),
            "stepper.single_step_us": single,
            "stepper.coupled_step_us": coupled,
            "spectral.dealiased_product_us": time_call(lambda: spectral.dealiased_product(phi, v)),
            "invariants.e1_us": time_call(lambda: invariants.e1(phi)),
            "invariants.e2_us": time_call(lambda: invariants.e2(phi)),
            "invariants.modified_energy_us": time_call(
                lambda: invariants.modified_energy(v, phi, 0.5)),
            "spectral.numpy_fft_c2c_2n_us": time_call(lambda: np.fft.fft(c2c)),
            "spectral.numpy_rfft_2n_us": time_call(lambda: np.fft.rfft(real)),
            "flows.airy_propagate_us": time_call(lambda: flows.airy_propagate(phi, 1.0)),
            "normalform.band_transform_us": time_call(
                lambda: normalform.band_transform(wide_phi, 1)),
            "dispersion.bilinear_ratio_us": time_call(ratio),
            "snapshots.write_csv_us": time_call(
                lambda: snapshots.write_csv(work_dir / "kernel.csv", rows)),
            "plotting.svg_us": time_call(
                lambda: plotting.line_plot_svg(series, work_dir / "kernel.svg")),
        }
        for name, secs in row.items():
            out[f"{name}.n{n}"] = 1e6 * secs
        out[f"stepper.coupled_over_single.n{n}"] = coupled / single
    return out
