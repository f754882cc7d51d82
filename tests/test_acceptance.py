"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (collected in the terminal summary) and
enforces its runtime budget. Budgets are generous; the statistical content
is the real gate.
"""

import time

import numpy as np

from conftest import ACCEPTANCE_RESULTS
from edhsim.binner import BinnerBank, StepParams, run_optimized
from edhsim.estimator import bin_to_distance, ewh_peak, rho0, t0_hat, t1_hat, rho1
from edhsim.harness import ExperimentConfig, SweepSpec, median_tracking_experiment, run_experiment, sweep
from edhsim.histogrammer import EdhBoundaries, EwHistogram, oedh, pedh, hedh
from edhsim.metrics import boundary_rmse, distance_metrics
from edhsim.scene import PixelConfig, synth_scene
from edhsim.transient import SPEED_OF_LIGHT, PhotonStream, SimConfig, build_transient, sample_stream

SIM = SimConfig()
B = SIM.n_bins
STEP = StepParams()
DISTANCES_10 = np.linspace(1.5, 13.5, 10)


def _record(name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    ACCEPTANCE_RESULTS.append(
        f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s"


def _brute_force_bounds(pooled_sorted, q, n_bins):
    n = len(pooled_sorted)
    interior = []
    for j in range(1, q):
        for i, t in enumerate(pooled_sorted):
            if (i + 1) * q >= j * n:
                interior.append(t)
                break
    return np.concatenate(([0.0], interior, [float(n_bins)]))


def test_criterion_1_oracle_equivalence_exact():
    t_start = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(200):
        q = int(rng.choice([2, 4, 8, 16, 32, 64]))
        n = int(rng.integers(q, 10_001))
        pooled = np.sort(rng.uniform(0.0, B, size=n))
        if trial % 5 == 0:  # inject repeated values to stress tie handling
            pooled[: n // 3] = pooled[0]
            pooled = np.sort(pooled)
        n_cycles = int(rng.integers(1, 8))
        splits = np.sort(rng.integers(0, n + 1, size=n_cycles - 1))
        cycles = np.split(pooled, splits)
        stream = PhotonStream.from_cycles(cycles, B)
        got = oedh(stream, q).bounds
        expected = _brute_force_bounds(np.sort(pooled), q, B)
        if not np.array_equal(got, expected):
            mismatches += 1
    elapsed = time.time() - t_start
    _record(
        "criterion 1 (oracle equivalence)", mismatches == 0, elapsed, 10.0,
        f"200 random streams, {mismatches} mismatches vs brute force",
    )


def test_criterion_2_median_tracking_ordering():
    t_start = time.time()
    bkg_levels = [0.5, 1.0, 2.0, 5.0]
    table = median_tracking_experiment(
        bkg_levels=bkg_levels, distances=DISTANCES_10, phi_sig=1.0,
        n_seeds=50, sim=SIM, step=STEP, fixed_step_size=1.0, global_seed=0,
    )
    elapsed = time.time() - t_start
    wins = sum(table[("optimized", b)] < table[("fixed", b)] for b in bkg_levels)
    under_10 = all(table[("optimized", b)] < 10.0 for b in bkg_levels)
    detail = "; ".join(
        f"bkg {b}: fixed {table[('fixed', b)]:.2f} vs opt {table[('optimized', b)]:.2f}"
        for b in bkg_levels
    )
    _record(
        "criterion 2 (median tracking ordering)",
        wins >= 3 and under_10, elapsed, 300.0,
        f"optimized wins {wins}/4, all optimized < 10 bins; {detail}",
    )


def test_criterion_3_pedh_beats_hedh_at_high_background():
    t_start = time.time()
    distances = np.linspace(1.5, 13.5, 5)
    ok = True
    details = []
    for bkg in (2.0, 5.0):
        p_rmse, h_rmse = [], []
        for d_idx, z in enumerate(distances):
            transient = build_transient(PixelConfig(float(z), 1.0, bkg), SIM)
            for seed in range(10):
                stream = sample_stream(transient, SIM.n_cycles, (3, int(bkg * 10), d_idx, seed))
                oracle = oedh(stream, 32)
                p_rmse.append(boundary_rmse(pedh(stream, 32, STEP), oracle))
                h_rmse.append(boundary_rmse(hedh(stream, 32, 1.0), oracle))
        details.append(f"bkg {bkg}: pedh {np.mean(p_rmse):.1f} vs hedh {np.mean(h_rmse):.1f} bins")
        ok = ok and np.mean(p_rmse) < np.mean(h_rmse)
    elapsed = time.time() - t_start
    _record(
        "criterion 3 (pedh beats hedh at high background)", ok, elapsed, 600.0,
        "; ".join(details) + " (50 seeded runs each)",
    )


def test_criterion_4_quantization_bound_and_pedh_mae():
    t_start = time.time()
    # (a) worst-case error of the 32-bin equi-width peak on a noiseless pulse
    worst_cm = 0.0
    for z in np.linspace(6.9, 8.1, 240):
        transient = build_transient(PixelConfig(float(z), 1.0, 0.0), SIM)
        hist = EwHistogram(transient.values.reshape(32, 32).sum(axis=1), float(B))
        err_cm = abs(bin_to_distance(ewh_peak(hist), SIM) - z) * 100.0
        worst_cm = max(worst_cm, err_cm)
    fine_bin_cm = (B / 1024) * SIM.dt * SPEED_OF_LIGHT / 2.0 * 100.0
    bound_ok = abs(worst_cm - 23.4375) <= fine_bin_cm

    # (b) parallel histogrammer with the narrowest-bin estimator at (1, 1)
    scene = synth_scene("staircase", n_steps=10, z_min=1.5, z_max=13.5,
                        phi_sig=1.0, phi_bkg=1.0)
    abs_err_cm = []
    for d_idx, (_, _, pixel) in enumerate(scene.iter_pixels()):
        transient = build_transient(pixel, SIM)
        for seed in range(5):
            stream = sample_stream(transient, SIM.n_cycles, (4, d_idx, seed))
            t = t0_hat(pedh(stream, 32, STEP))
            abs_err_cm.append(abs(bin_to_distance(t, SIM) - pixel.z) * 100.0)
    mae = float(np.mean(abs_err_cm))
    elapsed = time.time() - t_start
    _record(
        "criterion 4 (quantization bound + pedh accuracy)",
        bound_ok and mae <= 5.0, elapsed, 120.0,
        f"ewh32 worst {worst_cm:.2f} cm (target 23.44 +- {fine_bin_cm:.2f}); "
        f"pedh t0 MAE {mae:.2f} cm (<= 5)",
    )


def test_criterion_5_estimator_ordering():
    t_start = time.time()
    # the interpolated estimator is quantized to the 1024-point grid, so its
    # error depends on each distance's sub-bin phase; cover phases uniformly
    # (as natural scenes do) instead of letting one phase dominate
    positions = np.array([120, 210, 321, 400, 512, 590, 676, 760, 840, 900]) \
        + (np.arange(10) / 10 + 0.05)
    mae = {k: [] for k in ("oedh_t0", "oedh_t1", "pedh_t0", "pedh_t1")}
    for d_idx, tpos in enumerate(positions):
        z = bin_to_distance(float(tpos), SIM)
        transient = build_transient(PixelConfig(z, 1.0, 1.0), SIM)
        for seed in range(50):
            stream = sample_stream(transient, SIM.n_cycles, (5, d_idx, seed))
            for tag, bounds in (("oedh", oedh(stream, 32)), ("pedh", pedh(stream, 32, STEP))):
                mae[f"{tag}_t0"].append(abs(bin_to_distance(t0_hat(bounds), SIM) - z) * 100)
                mae[f"{tag}_t1"].append(abs(bin_to_distance(t1_hat(rho1(bounds)), SIM) - z) * 100)
    m = {k: float(np.mean(v)) for k, v in mae.items()}
    oracle_ok = m["oedh_t1"] <= m["oedh_t0"]
    pedh_ok = m["pedh_t1"] >= m["pedh_t0"] - 0.3
    elapsed = time.time() - t_start
    _record(
        "criterion 5 (estimator ordering, 500 runs)", oracle_ok and pedh_ok,
        elapsed, 300.0,
        f"oedh t1 {m['oedh_t1']:.3f} <= t0 {m['oedh_t0']:.3f} cm; "
        f"pedh t1 {m['pedh_t1']:.3f} >= t0 {m['pedh_t0']:.3f} - 0.3 cm",
    )


def test_criterion_6_hyperparameter_sweeps():
    t_start = time.time()
    scene = synth_scene("staircase", n_steps=10, z_min=1.5, z_max=13.5,
                        phi_sig=1.0, phi_bkg=1.0)
    pairs = ((1.0, 1.0), (1.0, 5.0), (0.5, 1.0), (0.5, 2.5))

    def cfg_with(step):
        return ExperimentConfig(
            scene=scene, sim=SIM, pairs=pairs, methods=("pedh",),
            estimators=("t0",), step=step, q=32, n_monte_carlo=3, global_seed=6,
        )

    gamma_rows = sweep(
        SweepSpec("gamma", (0.99, 0.999, 0.99902, 0.9999, 1.0)),
        cfg_with(StepParams(k_pct=1.0, beta1=0.0, beta2=0.0)),
    )
    by_gamma = {r["value"]: r["boundary_rmse_bins"] for r in gamma_rows}
    argmin_gamma = min(by_gamma, key=by_gamma.get)
    gamma_ok = argmin_gamma in (0.999, 0.99902)

    k_rows = sweep(
        SweepSpec("k_pct", (1.0, 3.0, 10.0, 30.0)),
        cfg_with(StepParams(k_pct=1.0, gamma=1.0, beta1=0.0, beta2=0.0)),
    )
    k_rmse = [r["boundary_rmse_bins"] for r in k_rows]
    k_ok = all(a <= b + 1e-9 for a, b in zip(k_rmse, k_rmse[1:]))
    elapsed = time.time() - t_start
    _record(
        "criterion 6 (hyperparameter sweeps)", gamma_ok and k_ok, elapsed, 900.0,
        f"gamma argmin {argmin_gamma} in {{0.999, 0.99902}} "
        f"({ {k: round(v, 2) for k, v in by_gamma.items()} }); "
        f"K rmse non-decreasing {[round(v, 1) for v in k_rmse]}",
    )


def test_criterion_7_invariant_suite(tmp_path):
    t_start = time.time()
    rng = np.random.default_rng(7)
    checks = []

    # raw proportional step magnitude < 1: one binner over one cycle on
    # n_bins=1 with k_pct=100, no smoothing and no decay steps by exactly
    # target - early/m (early photons at 0, late ones on the CV)
    raw = StepParams(k_pct=100.0, gamma=1.0, beta1=0.0, beta2=0.0)

    def raw_step(target, early, late):
        cycle = np.array([0.0] * early + [target] * late)
        return run_optimized(PhotonStream.from_cycles([cycle], 1), target, raw).s_prev

    deltas_ok = all(
        abs(raw_step(float(rng.uniform(0.01, 0.99)), int(rng.integers(0, 50)),
                     int(rng.integers(0, 50)))) < 1.0
        for _ in range(500)
    )
    checks.append(("delta magnitude", deltas_ok))

    # CV clamped to [0, B] cycle by cycle even with violent steps
    transient = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
    stream = sample_stream(transient, 500, 1)
    bank = BinnerBank(np.arange(1, 8) / 8, StepParams(k_pct=80.0, gamma=1.0,
                      beta1=0.0, beta2=0.0, decay_freeze_cycle=0), B)
    clamped = True
    for i in range(stream.n_cycles):
        bank.run(PhotonStream.from_cycles([stream.cycle(i)], B))
        clamped = clamped and bool(np.all((bank.cvs >= 0.0) & (bank.cvs <= B)))
    checks.append(("cv clamped", clamped))

    # piecewise-constant density mass equals q
    mass_ok = True
    for _ in range(50):
        q = int(rng.integers(2, 40))
        interior = np.sort(rng.choice(np.arange(1, 4 * B), size=q - 1, replace=False)) / 4.0
        bounds = EdhBoundaries(q, np.concatenate(([0.0], interior, [float(B)])))
        d = rho0(bounds)
        mass_ok = mass_ok and np.isclose(np.sum(np.diff(d.edges) * d.values), q, rtol=1e-12)
    checks.append(("rho0 mass", mass_ok))

    # rmse >= mae and inlier monotonicity on random error grids
    metrics_ok = True
    for _ in range(30):
        truth = rng.uniform(1.0, 14.0, size=(4, 4))
        est = truth + rng.normal(0.0, 0.5, size=(4, 4))
        rep = distance_metrics(est, truth, thresholds=(1.0, 2.0, 5.0, 10.0))
        ordered = [rep.inlier_pct[p] for p in sorted(rep.inlier_pct)]
        metrics_ok = metrics_ok and rep.rmse_cm >= rep.mae_cm - 1e-9
        metrics_ok = metrics_ok and all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
    checks.append(("metric inequalities", metrics_ok))

    # parallel histogrammer state is O(q) scalars, not O(photons)
    sizes = []
    for phi in (0.5, 20.0):
        s = sample_stream(build_transient(PixelConfig(7.5, phi, phi), SIM), 200, 2)
        bk = BinnerBank(np.arange(1, 32) / 32, StepParams(decay_freeze_cycle=100), B)
        bk.run(s)
        sizes.append(sum(v.size for v in vars(bk).values() if isinstance(v, np.ndarray)))
    checks.append(("pedh state O(q)", sizes[0] == sizes[1] and sizes[0] <= 4 * 31))

    # determinism: identical config gives byte-identical experiment output
    scene = synth_scene("staircase", n_steps=3, z_min=3.0, z_max=12.0,
                        phi_sig=1.0, phi_bkg=1.0)
    outs = []
    for name in ("d1", "d2"):
        cfg = ExperimentConfig(
            scene=scene, sim=SimConfig(n_cycles=300),
            step=StepParams(decay_freeze_cycle=250), q=8,
            n_monte_carlo=2, global_seed=5, out_dir=tmp_path / name,
        )
        run_experiment(cfg)
        outs.append((tmp_path / name / "summary.csv").read_bytes()
                    + (tmp_path / name / "runs.csv").read_bytes())
    checks.append(("determinism", outs[0] == outs[1]))

    elapsed = time.time() - t_start
    failed = [name for name, ok in checks if not ok]
    _record(
        "criterion 7 (invariant suite)", not failed, elapsed, 60.0,
        "all invariants hold" if not failed else f"failed: {failed}",
    )


def test_criterion_8_poisson_simulator_statistics():
    t_start = time.time()
    transient = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
    n_cycles = 10_000
    stream = sample_stream(transient, n_cycles, 8)
    counts = np.bincount(stream.timestamps.astype(np.int64), minlength=B)
    se = np.sqrt(transient.values / n_cycles)
    max_dev_se = float(np.max(np.abs(counts / n_cycles - transient.values) / se))
    elapsed = time.time() - t_start
    _record(
        "criterion 8 (per-bin Poisson statistics)", max_dev_se <= 5.0, elapsed, 30.0,
        f"max per-bin deviation {max_dev_se:.2f} standard errors (<= 5)",
    )
