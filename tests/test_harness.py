import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from edhsim.binner import StepParams
from edhsim.config import (
    build_scene,
    load_experiment_config,
    parse_config_file,
)
from edhsim.errors import InvalidParamsError, ParseError, SweepValueError, TooFewPhotonsError
import edhsim.harness as harness
from edhsim.harness import (
    SWEEPABLE_PARAMS,
    ExperimentConfig,
    SweepSpec,
    export_density_features,
    median_tracking_experiment,
    read_boundaries_csv,
    read_channel_grid,
    run_experiment,
    sweep,
    write_boundaries_csv,
)
from edhsim.metrics import distance_metrics
from edhsim.histogrammer import EdhBoundaries, pedh
from edhsim.scene import PixelConfig, synth_scene
from edhsim.transient import SPEED_OF_LIGHT, SimConfig, build_transient, sample_stream, true_quantiles

SIM_SMALL = SimConfig(n_cycles=400)
STEP_SMALL = StepParams(decay_freeze_cycle=300)


def call_spy(monkeypatch, names):
    """Replace each named function on the harness module with a wrapper
    that records its name in the returned list, then calls the original."""
    calls = []

    def spy(name):
        real = getattr(harness, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(harness, name, spy(name))
    return calls


def reference_sweep(spec, cfg):
    """Independent oracle for sweep: one pedh run per (stream, value)."""
    pixels = [(r, c) for r in range(cfg.scene.height) for c in range(cfg.scene.width)]
    truth = cfg.scene.depth_map.depths.astype(np.float64)
    targets = np.arange(1, cfg.q) / cfg.q
    est = {v: [] for v in spec.values}
    true_z = {v: [] for v in spec.values}
    sq = {v: [] for v in spec.values}
    for pair_idx, (phi_sig, phi_bkg) in enumerate(cfg.pairs):
        for mc in range(cfg.n_monte_carlo):
            for pix_idx, (r, c) in enumerate(pixels):
                pixel = PixelConfig(float(truth[r, c]), phi_sig, phi_bkg)
                transient = build_transient(pixel, cfg.sim)
                seed = harness.derive_seed(cfg.global_seed, harness._CTX_EXPERIMENT, pair_idx, mc, pix_idx)
                stream = sample_stream(transient, cfg.sim.n_cycles, seed)
                for value in spec.values:
                    step = replace(cfg.step, **{spec.param: value})
                    bounds = pedh(stream, cfg.q, step)
                    est[value].append(harness.bin_to_distance(harness.t0_hat(bounds), cfg.sim))
                    true_z[value].append(pixel.z)
                    sq[value].extend(((bounds.interior - true_quantiles(transient, targets)) ** 2))
    rows = []
    for value in spec.values:
        report = distance_metrics(np.reshape(est[value], (1, -1)), np.reshape(true_z[value], (1, -1)),
                                  z_max=cfg.sim.z_max)
        rows.append({"schema_version": 1, "param": spec.param, "value": value,
                     "n_runs": len(est[value]),
                     "boundary_rmse_bins": float(np.sqrt(np.mean(sq[value]))),
                     "distance_rmse_cm": report.rmse_cm})
    return rows


def shifted(bounds, shift):
    """``bounds`` with bound q//2 pushed up by ``shift`` and the set
    re-sorted; a shift of 1e4 leaves the set ending past n_bins."""
    b = bounds.bounds.copy()
    b[bounds.q // 2] += shift
    return EdhBoundaries(bounds.q, np.sort(b))


def shifted_pedh(shift):
    """harness.pedh with its result :func:`shifted`."""
    real = harness.pedh
    return lambda stream, q, params=None: shifted(real(stream, q, params), shift)


def small_config(**overrides):
    base = dict(
        scene=synth_scene("staircase", n_steps=3, z_min=3.0, z_max=12.0,
                          phi_sig=1.0, phi_bkg=1.0),
        sim=SIM_SMALL,
        pairs=((1.0, 1.0),),
        methods=("oedh", "pedh"),
        estimators=("t0",),
        step=STEP_SMALL,
        q=8,
        n_monte_carlo=2,
        global_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPixelStreams:
    def test_strong_signal_converges_to_truth(self):
        # near-noiseless run: lots of signal photons, no background
        sim = SimConfig(n_cycles=5000)
        scene = synth_scene("constant", z=7.5, width=1, height=1, phi_sig=5.0, phi_bkg=0.0)
        [(cell, pixel, _tr, stream)] = harness.pixel_streams(scene, sim, 1)
        assert cell == (0, 0) and pixel == PixelConfig(7.5, 5.0, 0.0)
        bounds = harness.summarize(stream, "pedh", 32, StepParams(), 1.0)
        t = harness.estimate_bins("t0", bounds)
        center = (2.0 * 7.5 / SPEED_OF_LIGHT) / sim.dt
        assert abs(t - center) <= 2.0


class TestRunExperiment:
    def test_row_shape(self, tmp_path):
        cfg = small_config(
            pairs=((1.0, 0.5), (1.0, 2.0)),
            methods=("oedh", "pedh", "ewh32"),
            estimators=("t0", "t1", "ewh_peak"),
            out_dir=tmp_path,
        )
        result = run_experiment(cfg)
        assert not result.failures
        # per pair: oedh x {t0,t1} + pedh x {t0,t1} + ewh32 x {ewh_peak}
        assert len(result.summary_rows) == 2 * 5
        n_pixels = cfg.scene.width * cfg.scene.height
        assert len(result.run_rows) == 2 * cfg.n_monte_carlo * n_pixels * 5
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "runs.csv").exists()

    def test_table_looks_functions_up_on_the_module(self, monkeypatch):
        # replacing a histogrammer or estimator on the harness module must
        # reach the pipeline: the benchmark's checks and layer spans rely on it
        calls = call_spy(monkeypatch, ("pedh", "t0_hat"))
        scene = synth_scene("constant", z=7.5, width=1, height=1, phi_sig=1.0, phi_bkg=1.0)
        run_experiment(small_config(scene=scene, methods=("pedh",), n_monte_carlo=1))
        assert calls == ["pedh", "t0_hat"]

    def test_byte_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_config(out_dir=out_a))
        run_experiment(small_config(out_dir=out_b))
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        assert (out_a / "runs.csv").read_bytes() == (out_b / "runs.csv").read_bytes()

    def test_different_seed_changes_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_config(out_dir=out_a))
        run_experiment(small_config(out_dir=out_b, global_seed=12))
        assert (out_a / "runs.csv").read_bytes() != (out_b / "runs.csv").read_bytes()

    def test_paired_streams_across_methods(self, tmp_path):
        cfg = small_config(methods=("oedh", "pedh", "ewh32"),
                           estimators=("t0", "ewh_peak"), out_dir=tmp_path)
        result = run_experiment(cfg)
        by_run = {}
        for row in result.run_rows:
            key = (row["phi_sig"], row["phi_bkg"], row["mc_index"],
                   row["pixel_row"], row["pixel_col"])
            by_run.setdefault(key, set()).add(row["stream_checksum"])
        assert all(len(v) == 1 for v in by_run.values())

    def test_reaggregating_runs_matches_summary(self, tmp_path):
        cfg = small_config(out_dir=tmp_path, methods=("pedh",), estimators=("t0", "t1"))
        result = run_experiment(cfg)
        with open(tmp_path / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for srow in result.summary_rows:
            sel = [
                r for r in rows
                if r["method"] == srow["method"] and r["estimator"] == srow["estimator"]
                and float(r["phi_sig"]) == srow["phi_sig"]
            ]
            est = np.array([float(r["z_est_m"]) for r in sel])
            truth = np.array([float(r["z_true_m"]) for r in sel])
            report = distance_metrics(
                est.reshape(1, -1), truth.reshape(1, -1),
                thresholds=cfg.inlier_thresholds, z_max=cfg.sim.z_max,
            )
            assert report.rmse_cm == srow["rmse_cm"]
            assert report.mae_cm == srow["mae_cm"]

    def test_failing_condition_gets_error_row(self, tmp_path):
        cfg = small_config(pairs=((1.0, 1.0), (-1.0, 1.0)), out_dir=tmp_path)
        result = run_experiment(cfg)
        assert result.failures
        statuses = {(r["phi_sig"], r["status"]) for r in result.summary_rows}
        assert (1.0, "ok") in statuses
        assert (-1.0, "error") in statuses
        # the good pair still produced full rows
        ok_rows = [r for r in result.summary_rows if r["status"] == "ok"]
        assert len(ok_rows) == 2

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            small_config(methods=())
        with pytest.raises(InvalidParamsError):
            small_config(methods=("bogus",))
        with pytest.raises(InvalidParamsError):
            small_config(n_monte_carlo=0)
        for bad in (dict(q=8.0), dict(n_monte_carlo=1.5), dict(global_seed=1.5),
                    dict(pairs=((1.0,),)), dict(pairs=(("a", "b"),)),
                    dict(pairs=((1.0, 2.0, 3.0),)), dict(pairs=((True, 1.0),)),
                    dict(pairs=(1.0,)),
                    dict(inlier_thresholds=(2.0, float("nan"))),
                    dict(inlier_thresholds=(float("inf"),)), dict(inlier_thresholds=(-1.0,)),
                    dict(inlier_thresholds=(2, 2.0)),
                    dict(inlier_thresholds=(2.0000001, 2.0000002))):
            with pytest.raises(InvalidParamsError):
                small_config(**bad)


    def test_failing_method_keeps_the_other_methods_rows(self, tmp_path):
        # at 0.001:0.001 the oracle sees too few photons; pedh's rows stand
        cfg = small_config(pairs=((1.0, 1.0), (0.001, 0.001)), estimators=("t0", "t1"),
                           out_dir=tmp_path)
        result = run_experiment(cfg)
        assert len(result.failures) == 1 and "(0.001, 0.001), oedh" in result.failures[0]
        low = {(r["method"], r["estimator"]): r for r in result.summary_rows if r["phi_sig"] == 0.001}
        assert [k for k in low] == [("oedh", "t0"), ("oedh", "t1"), ("pedh", "t0"), ("pedh", "t1")]
        for est in ("t0", "t1"):
            assert low[("oedh", est)]["status"] == "error"
            assert "photons" in low[("oedh", est)]["message"]
            assert low[("pedh", est)]["status"] == "ok"
            assert low[("pedh", est)]["boundary_rmse_bins"] == ""  # no oracle to compare with
            assert low[("pedh", est)]["n_samples"] == 6
        low_runs = [r for r in result.run_rows if r["phi_sig"] == 0.001]
        assert {r["method"] for r in low_runs} == {"pedh"} and len(low_runs) == 2 * 6
        # the good pair is what it is on its own
        alone = run_experiment(small_config(estimators=("t0", "t1")))
        assert [r for r in result.summary_rows if r["phi_sig"] == 1.0] == alone.summary_rows
        assert [r for r in result.run_rows if r["phi_sig"] == 1.0] == alone.run_rows

    def test_method_failing_mid_pair_drops_its_rows(self, monkeypatch):
        # oedh fails on the second run: its first run's rows go too, it is
        # not called again for the pair, and pedh keeps every row
        real, calls = harness.oedh, []

        def oedh(stream, q):
            calls.append(q)
            if len(calls) == 4:
                raise TooFewPhotonsError("injected")
            return real(stream, q)

        monkeypatch.setattr(harness, "oedh", oedh)
        result = run_experiment(small_config())
        assert len(calls) == 4
        assert result.failures == ["pair (1.0, 1.0), oedh: injected"]
        assert [(r["method"], r["status"]) for r in result.summary_rows] == [
            ("oedh", "error"), ("pedh", "ok")]
        assert result.summary_rows[1]["boundary_rmse_bins"] == ""
        assert [r["method"] for r in result.run_rows] == ["pedh"] * 6

    def test_boundary_set_past_n_bins_is_an_error_row(self, monkeypatch):
        monkeypatch.setattr(harness, "pedh", shifted_pedh(1e4))
        result = run_experiment(small_config())
        [failure] = result.failures
        assert failure.startswith("pair (1.0, 1.0), pedh: boundary set ends at ")
        assert failure.endswith(", not at n_bins=1024")
        assert [(r["method"], r["status"]) for r in result.summary_rows] == [
            ("oedh", "ok"), ("pedh", "error")]
        assert [r["method"] for r in result.run_rows] == ["oedh"] * 6

    def test_methods_no_estimator_reads_are_not_run(self, monkeypatch):
        calls = call_spy(monkeypatch, ("oedh", "hedh", "ewh"))
        result = run_experiment(small_config(
            methods=("oedh", "hedh", "ewh32"), estimators=("ewh_peak",), n_monte_carlo=3,
        ))
        assert not result.failures
        assert calls == ["ewh"] * 9  # 3 pixels x 3 runs, ewh32 only
        assert [r["method"] for r in result.summary_rows] == ["ewh32"]


class TestConfigChecks:
    """Settings that would fail every pair are rejected when the config is built."""

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("inf"), float("nan")])
    def test_fixed_step_size_must_be_finite_and_positive(self, bad):
        with pytest.raises(InvalidParamsError, match="fixed_step_size"):
            small_config(methods=("hedh", "pedh"), fixed_step_size=bad)

    def test_overflowing_step_scale(self):
        # k_pct=1e308 is a valid StepParams, but (k_pct/100) * n_bins overflows
        with pytest.raises(InvalidParamsError, match="step scale"):
            small_config(step=StepParams(k_pct=1e308))

    def test_hedh_needs_power_of_two_q(self):
        with pytest.raises(InvalidParamsError, match="power-of-two"):
            small_config(methods=("hedh", "pedh"), q=6)
        assert small_config(methods=("oedh", "pedh"), q=6).q == 6

    @pytest.mark.parametrize("method", ["ewh0", "ewh1025"])
    def test_ewh_bin_count_within_n_bins(self, method):
        with pytest.raises(InvalidParamsError, match=r"\[1, 1024\]"):
            small_config(methods=(method,), estimators=("ewh_peak",))

    @pytest.mark.parametrize("method", ["ewh", "ewhx", "ewh-4", "EDH", "pedh2"])
    def test_unknown_method_name(self, method):
        with pytest.raises(InvalidParamsError, match="unknown method"):
            small_config(methods=("pedh", method))

    def test_methods_and_estimators_must_pair(self):
        # oedh gives boundaries and ewh_peak reads histograms: an empty grid
        with pytest.raises(InvalidParamsError, match="no listed estimator"):
            small_config(methods=("oedh",), estimators=("ewh_peak",))
        with pytest.raises(InvalidParamsError, match="unknown estimator"):
            small_config(estimators=("t0", "t2"))

    def test_repeated_method_rejected(self):
        # a repeat would run the method twice and write each of its rows twice
        with pytest.raises(InvalidParamsError, match="methods must be distinct, got 'pedh' and 'pedh'"):
            small_config(methods=("pedh", "pedh"))

    def test_repeated_estimator_rejected(self):
        with pytest.raises(InvalidParamsError, match="estimators must be distinct, got 't0' and 't0'"):
            small_config(estimators=("t0", "t0"))

    def test_freeze_past_the_end_changes_nothing(self, tmp_path):
        # a freeze at or past the last cycle never triggers
        n = SIM_SMALL.n_cycles
        outputs = []
        for freeze in (n, n + 1, 4000):
            out = tmp_path / str(freeze)
            run_experiment(small_config(step=StepParams(decay_freeze_cycle=freeze), out_dir=out))
            outputs.append([(out / name).read_bytes() for name in ("summary.csv", "runs.csv")])
        assert outputs[0] == outputs[1] == outputs[2]


class TestMethodComparisonTable:
    def test_any_ewh_resolution(self):
        result = run_experiment(small_config(methods=("ewh16",), estimators=("t0", "ewh_peak")))
        assert not result.failures
        assert {(r["method"], r["estimator"]) for r in result.summary_rows} == {
            ("ewh16", "ewh_peak")
        }
        # every estimate is the center of one of 16 bins, each 1024/16 = 64 wide
        for row in result.run_rows:
            t = 2.0 * row["z_est_m"] / SPEED_OF_LIGHT / SIM_SMALL.dt
            assert abs(t / 64.0 - 0.5 - round(t / 64.0 - 0.5)) < 1e-9

    def test_four_method_columns(self):
        # the standard comparison: both equi-width resolutions against the
        # parallel histogrammer with both boundary estimators
        cfg = small_config(
            methods=("ewh1024", "ewh32", "pedh"),
            estimators=("t0", "t1", "ewh_peak"),
        )
        result = run_experiment(cfg)
        combos = {(r["method"], r["estimator"]) for r in result.summary_rows}
        assert combos == {
            ("ewh1024", "ewh_peak"), ("ewh32", "ewh_peak"),
            ("pedh", "t0"), ("pedh", "t1"),
        }
        for row in result.summary_rows:
            assert row["rmse_cm"] >= row["mae_cm"]
            assert 0.0 <= row["inlier_2_pct"] <= 100.0


class TestMedianTracking:
    def test_table_layout_and_keys(self, tmp_path):
        out = tmp_path / "median.csv"
        table = median_tracking_experiment(
            bkg_levels=[0.5, 2.0], distances=[3.0, 9.0], phi_sig=1.0,
            n_seeds=2, sim=SIM_SMALL, step=STEP_SMALL, out_path=out,
        )
        assert set(table) == {("fixed", 0.5), ("fixed", 2.0),
                              ("optimized", 0.5), ("optimized", 2.0)}
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy"] for r in rows] == ["fixed", "optimized"]
        assert set(rows[0]) == {"schema_version", "strategy", "bkg_0.5", "bkg_2"}

    @pytest.mark.parametrize("bad", [
        dict(n_seeds=0), dict(n_seeds=1.5), dict(bkg_levels=[]), dict(distances=[]),
        dict(global_seed=-1), dict(global_seed=1.7), dict(global_seed=True),
    ])
    def test_validation(self, bad):
        args = dict(bkg_levels=[0.5], distances=[3.0], phi_sig=1.0, n_seeds=1,
                    sim=SIM_SMALL, step=STEP_SMALL)
        with pytest.raises(InvalidParamsError):
            median_tracking_experiment(**{**args, **bad})

    @pytest.mark.parametrize("levels, message", [
        ([1, 1.0], "background levels must be distinct, got 1 and 1.0"),
        ([0.5, 1.0000001, 1.0000002],
         "background levels 1.0000001 and 1.0000002 share the label 'bkg_1'"),
    ])
    def test_repeated_levels_rejected(self, levels, message):
        # one level's streams must not be pooled with another's, nor its column shared
        with pytest.raises(InvalidParamsError) as info:
            median_tracking_experiment(levels, [3.0], phi_sig=1.0, n_seeds=1,
                                       sim=SIM_SMALL, step=STEP_SMALL)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [
        dict(bkg_levels=["a"]), dict(bkg_levels=[0.5, None]), dict(bkg_levels=[True]),
        dict(bkg_levels=[np.nan]), dict(bkg_levels=[-1.0]), dict(distances=["a"]),
        dict(distances=[0.0]), dict(phi_sig="a"), dict(phi_sig=np.inf),
    ])
    def test_levels_and_distances_must_be_real_before_any_stream(self, monkeypatch, bad):
        # unchecked, a string level escapes as a bare ValueError from the
        # column label's :g format
        calls = call_spy(monkeypatch, ("build_transient", "sample_stream"))
        args = dict(bkg_levels=[0.5], distances=[3.0], phi_sig=1.0, n_seeds=1,
                    sim=SIM_SMALL, step=STEP_SMALL)
        with pytest.raises(InvalidParamsError, match="must be a real number"):
            median_tracking_experiment(**{**args, **bad})
        assert calls == []


class TestSweep:
    def test_single_value_sweep_matches_experiment(self, tmp_path):
        cfg = small_config(methods=("pedh",), estimators=("t0",), out_dir=None)
        rows = sweep(SweepSpec("gamma", (STEP_SMALL.gamma,)), cfg)
        result = run_experiment(cfg)
        exp_rmse = [r["rmse_cm"] for r in result.summary_rows
                    if r["method"] == "pedh" and r["estimator"] == "t0"]
        assert rows[0]["distance_rmse_cm"] == exp_rmse[0]

    @pytest.mark.parametrize("param", SWEEPABLE_PARAMS)
    def test_rows_equal_one_pedh_run_per_value(self, param):
        values = {"k_pct": (1.0, 3.0, 30.0), "gamma": (0.99, 0.999, 1.0),
                  "beta1": (0.0, 0.5, 0.95), "beta2": (0.0, 0.8)}[param]
        spec = SweepSpec(param, values)
        cfg = small_config(methods=("pedh",), pairs=((1.0, 1.0), (1.0, 5.0)),
                           step=StepParams(decay_freeze_cycle=300))
        assert sweep(spec, cfg) == reference_sweep(spec, cfg)

    def test_each_stream_stepped_once(self, monkeypatch):
        calls = call_spy(monkeypatch, ("pedh",))
        cfg = small_config(methods=("pedh",))
        sweep(SweepSpec("gamma", (0.99, 0.999, 1.0)), cfg)
        # 3 pixels per run, 2 runs: each stream stepped once per value
        assert calls == ["pedh"] * 18

    def test_boundary_set_past_n_bins_rejected(self, monkeypatch):
        monkeypatch.setattr(harness, "pedh", shifted_pedh(1e4))
        with pytest.raises(InvalidParamsError, match="not at n_bins=1024"):
            sweep(SweepSpec("gamma", (0.99, 1.0)), small_config(methods=("pedh",)))

    def test_invalid_value_rejected(self):
        cfg = small_config()
        with pytest.raises(SweepValueError, match=r"gamma=1.5: gamma must be a real number in \(0, 1\]"):
            sweep(SweepSpec("gamma", (1.5,)), cfg)

    def test_overflowing_step_scale_rejected_before_any_stream(self, monkeypatch):
        # k_pct=1e308 is a valid StepParams, but (k_pct/100) * n_bins overflows
        calls = call_spy(monkeypatch, ("sample_stream", "pedh"))
        with pytest.raises(SweepValueError, match=r"k_pct=1e\+308: step scale"):
            sweep(SweepSpec("k_pct", (3.0, 1e308)), small_config(methods=("pedh",)))
        assert calls == []

    @pytest.mark.parametrize("value", ["a", None, True, 1j, np.nan, np.inf])
    def test_values_must_be_finite_reals_when_built(self, value):
        # unchecked, "a" raises a bare TypeError inside sweep and True runs as 1.0
        with pytest.raises(SweepValueError, match="each sweep value must be a real number"):
            SweepSpec("gamma", (0.99, value))

    def test_invalid_param_rejected(self):
        with pytest.raises(Exception):
            SweepSpec("bogus", (1.0,))

    @pytest.mark.parametrize("values", [(0.99, 0.99), (0.99, 1.0, 0.99), (1, 1.0)])
    def test_repeated_values_rejected_when_built(self, values):
        with pytest.raises(SweepValueError, match="sweep values must be distinct"):
            SweepSpec("gamma", values)

    def test_csv_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_config()
        sweep(SweepSpec("k_pct", (1.0, 3.0)), cfg, out_path=out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [1.0, 3.0]


class TestFeatureExport:
    def test_file_size_and_roundtrip(self, tmp_path):
        scene = synth_scene("constant", z=7.5, width=2, height=2, phi_sig=1.0, phi_bkg=1.0)
        path = tmp_path / "features.bin"
        export_density_features(scene, SIM_SMALL, STEP_SMALL, 8, path, global_seed=0)
        blob = path.read_bytes()
        assert len(blob) == 16 + 2 * 2 * 1024 * 4
        arr = read_channel_grid(path)
        assert arr.shape == (2, 2, 1024)
        assert arr.dtype == np.float32
        # sidecar with ground truth
        sidecar = tmp_path / "features.bin.truth.csv"
        assert sidecar.exists()

    def test_density_equals_per_pixel_pedh(self, tmp_path):
        scene = synth_scene("staircase", n_steps=3, z_min=3.0, z_max=12.0, phi_sig=1.0, phi_bkg=2.0)
        path = tmp_path / "features.bin"
        export_density_features(scene, SIM_SMALL, STEP_SMALL, 8, path, global_seed=4)
        arr = read_channel_grid(path)
        for pix_idx, (r, c, pixel) in enumerate(scene.iter_pixels()):
            seed = harness.derive_seed(4, harness._CTX_FEATURES, pix_idx)
            stream = sample_stream(build_transient(pixel, SIM_SMALL), SIM_SMALL.n_cycles, seed)
            density = harness.rho1(pedh(stream, 8, STEP_SMALL)).values.astype(np.float32)
            assert np.array_equal(arr[r, c], density)

    def test_no_photon_pixel_gives_flat_density(self, tmp_path):
        # background so weak the exposure sees no photons: the parallel
        # binners never move, so the density is exactly q / n_bins
        scene = synth_scene("constant", z=7.5, width=1, height=1,
                            phi_sig=0.0, phi_bkg=1e-12)
        path = tmp_path / "flat.bin"
        q = 8
        export_density_features(scene, SIM_SMALL, STEP_SMALL, q, path, global_seed=0)
        arr = read_channel_grid(path)
        assert np.all(arr == np.float32(q / SIM_SMALL.n_bins))


class TestBoundariesCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = np.sort(rng.uniform(1, 1023, size=(2, 3, 7)), axis=2)
        grid[:, :, 0] = 0.0
        grid[:, :, -1] = 1024.0
        path = tmp_path / "bounds.csv"
        write_boundaries_csv(path, grid)
        again = read_boundaries_csv(path)
        assert np.array_equal(grid, again)

    def test_missing_pixel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "schema_version,pixel_row,pixel_col,t_0,t_1\n1,1,1,0.0,1024.0\n"
        )
        with pytest.raises(ParseError, match=r"missing pixels, the first \(0, 0\)"):
            read_boundaries_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text("schema_version,pixel_row,pixel_col,t_0,t_1,t_2\n"
                        "1,0,0,0.0,512.0,1024.0\n"
                        f"1,0,1,0.0,{value},1024.0\n")
        with pytest.raises(ParseError, match=r"bad.csv: the row of pixel \(0, 1\) holds a non-finite"):
            read_boundaries_csv(path)

    def test_negative_pixel_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("schema_version,pixel_row,pixel_col,t_0,t_1\n"
                        "1,0,0,0.0,1024.0\n1,-1,0,0.0,1024.0\n")
        with pytest.raises(ParseError, match=r"negative pixel index \(-1, 0\)"):
            read_boundaries_csv(path)

    def test_far_pixel_index_is_refused_before_allocating(self, tmp_path):
        # two rows cannot fill a 1,000,001-row grid; the grid such an index
        # implies (about 55 MB here) must not be allocated to find that out
        path = tmp_path / "bad.csv"
        path.write_text("schema_version,pixel_row,pixel_col,t_0,t_1,t_2,t_3,t_4,t_5,t_6\n"
                        "1,0,0,0,1,2,3,4,5,1024\n1,1000000,0,0,1,2,3,4,5,1024\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"missing pixels, the first \(1, 0\)"):
                read_boundaries_csv(path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("header, bad", [
        ("t_0,t_x", "'t_x' where 't_1' belongs"),  # no integer to sort by
        ("t_0,t_2", "'t_2' where 't_1' belongs"),  # t_1 missing: not a q = 1 set
        ("t_1,t_0", "'t_1' where 't_0' belongs"),
        ("t_0,t_01", "'t_01' where 't_1' belongs"),
    ])
    def test_boundary_columns_must_run_t_0_to_t_q(self, tmp_path, header, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"schema_version,pixel_row,pixel_col,{header}\n1,0,0,0.0,1024.0\n")
        with pytest.raises(ParseError, match=f"bad.csv: boundary column {bad}"):
            read_boundaries_csv(path)

    def test_duplicate_pixel_rejected(self, tmp_path):
        # two rows for one pixel: neither may silently win
        path = tmp_path / "bad.csv"
        path.write_text("schema_version,pixel_row,pixel_col,t_0,t_1,t_2\n"
                        "1,0,0,0.0,100.0,1024.0\n1,0,0,0.0,900.0,1024.0\n")
        with pytest.raises(ParseError, match=r"bad.csv: pixel \(0, 0\) has more than one row"):
            read_boundaries_csv(path)


class TestConfigFiles:
    def test_parse_and_build(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text(
            "# comment\n"
            "sim.n_cycles = 300\n"
            "step.gamma = 0.999\n"
            "step.decay_freeze_cycle = 250\n"
            "scene.kind = staircase\n"
            "scene.n_steps = 4\n"
            "scene.z_min = 2.0\n"
            "scene.z_max = 11.0\n"
            "experiment.pairs = 1.0:1.0, 0.5:2.5\n"
            "experiment.methods = pedh\n"
            "experiment.estimators = t0, t1\n"
            "experiment.n_monte_carlo = 2\n"
            "experiment.seed = 5\n"
            "experiment.q = 8\n"
        )
        cfg = load_experiment_config(p)
        assert cfg.sim.n_cycles == 300
        assert cfg.step.gamma == 0.999
        assert cfg.pairs == ((1.0, 1.0), (0.5, 2.5))
        assert cfg.scene.width == 4
        assert cfg.global_seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text("experiment.tpyo = 3\n")
        with pytest.raises(ParseError):
            parse_config_file(p)

    def test_seed_comes_from_the_override_else_the_config(self, tmp_path, monkeypatch):
        p = tmp_path / "exp.conf"
        p.write_text("experiment.seed = 5\nsim.n_cycles = 300\nstep.decay_freeze_cycle = 250\n")
        # the environment sets no seed
        monkeypatch.setenv("EDH_SEED", "99")
        assert load_experiment_config(p).global_seed == 5
        assert load_experiment_config(p, seed_override=123).global_seed == 123
        p.write_text("sim.n_cycles = 300\n")
        assert load_experiment_config(p).global_seed == 0

    def test_step_clip_is_an_unknown_key(self, tmp_path):
        # StepParams has no step cap, so its old key is refused like a typo
        p = tmp_path / "exp.conf"
        p.write_text("step.clip = 0.02\n")
        with pytest.raises(ParseError, match="unknown key 'step.clip'"):
            parse_config_file(p)

    def test_scene_from_file(self, tmp_path):
        depth = tmp_path / "d.csv"
        depth.write_text("3.0,4.0\n")
        p = tmp_path / "exp.conf"
        p.write_text(f"scene.kind = file\nscene.path = {depth}\nscene.phi_sig = 0.5\n")
        scene = build_scene(parse_config_file(p))
        assert scene.width == 2 and scene.height == 1
        assert scene.phi_sig == 0.5
