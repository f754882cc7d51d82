import csv

import numpy as np
import pytest

from edhsim import config as cfgmod
from edhsim.cli import build_parser, main
from edhsim.estimator import bin_to_distance, ewh_peak
from edhsim.harness import (
    EDH_METHODS,
    ESTIMATORS,
    SWEEPABLE_PARAMS,
    read_boundaries_csv,
)
from edhsim.histogrammer import ewh, hedh, pedh
import edhsim.harness as harness
from edhsim.scene import load_grid, read_raw, write_raw
from edhsim.transient import build_transient, sample_stream


def _pixel_streams(conf):
    """(row, col, stream) for every scene pixel, as the pipeline subcommands seed them."""
    flat = cfgmod.parse_config_file(conf)
    sim = cfgmod.build_sim_config(flat)
    seed = cfgmod.resolve_seed(flat)
    for pix_idx, (r, c, pixel) in enumerate(cfgmod.build_scene(flat, sim).iter_pixels()):
        yield r, c, sample_stream(build_transient(pixel, sim), sim.n_cycles,
                                  harness.derive_seed(seed, harness._CTX_SIMULATE, pix_idx))


@pytest.fixture()
def conf(tmp_path):
    p = tmp_path / "exp.conf"
    p.write_text(
        "sim.n_cycles = 300\n"
        "step.decay_freeze_cycle = 250\n"
        "scene.kind = staircase\n"
        "scene.n_steps = 3\n"
        "scene.z_min = 3.0\n"
        "scene.z_max = 12.0\n"
        "scene.phi_sig = 1.0\n"
        "scene.phi_bkg = 1.0\n"
        "experiment.pairs = 1.0:1.0\n"
        "experiment.methods = oedh, pedh\n"
        "experiment.estimators = t0\n"
        "experiment.n_monte_carlo = 2\n"
        "experiment.q = 8\n"
        "experiment.seed = 3\n"
    )
    return p


def test_simulate_writes_stream_dumps(conf, tmp_path, capsys):
    out = tmp_path / "streams"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    files = sorted(out.glob("stream_*.csv"))
    assert len(files) == 3
    header, first = files[0].read_text().splitlines()[:2]
    assert header == "cycle_index,timestamp"
    cycle, ts = first.split(",")
    assert int(cycle) >= 0 and 0.0 <= float(ts) < 1024.0


def test_edh_estimate_evaluate_pipeline(conf, tmp_path, capsys):
    bounds_csv = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "pedh",
                 "--q", "8", "--out", str(bounds_csv)]) == 0
    grid = read_boundaries_csv(bounds_csv)
    assert grid.shape == (1, 3, 9)

    est_csv = tmp_path / "est.csv"
    assert main(["estimate", "--config", str(conf), "--estimator", "t0",
                 "--bounds", str(bounds_csv), "--out", str(est_csv)]) == 0
    est = load_grid(est_csv)
    assert est.shape == (1, 3)

    truth_csv = tmp_path / "truth.csv"
    truth_csv.write_text("3.0,7.5,12.0\n")
    metrics_csv = tmp_path / "metrics.csv"
    assert main(["evaluate", "--truth", str(truth_csv), "--est", str(est_csv),
                 "--inliers", "2,10", "--out", str(metrics_csv)]) == 0
    out = capsys.readouterr().out
    assert "RMSE (cm)" in out
    with open(metrics_csv, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["inlier_10_pct"]) == 100.0


def test_estimate_direct_pipeline_matches_bounds_route(conf, tmp_path):
    bounds_csv = tmp_path / "bounds.csv"
    main(["edh", "--config", str(conf), "--method", "pedh", "--q", "8",
          "--out", str(bounds_csv)])
    via_bounds = tmp_path / "a.csv"
    main(["estimate", "--config", str(conf), "--estimator", "t0",
          "--bounds", str(bounds_csv), "--out", str(via_bounds)])
    direct = tmp_path / "b.csv"
    main(["estimate", "--config", str(conf), "--estimator", "t0",
          "--method", "pedh", "--q", "8", "--out", str(direct)])
    assert np.array_equal(load_grid(via_bounds), load_grid(direct))


@pytest.mark.parametrize("q", [2, 16])
def test_edh_pedh_grid_equals_per_pixel_pedh(conf, tmp_path, q):
    out = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "pedh", "--q", str(q), "--out", str(out)]) == 0
    grid = read_boundaries_csv(out)
    assert grid.shape == (1, 3, q + 1)
    step = cfgmod.build_step_params(cfgmod.parse_config_file(conf))
    for r, c, stream in _pixel_streams(conf):
        assert np.array_equal(grid[r, c], pedh(stream, q, step).bounds)


def test_estimate_ewh_peak(conf, tmp_path):
    out = tmp_path / "est.csv"
    assert main(["estimate", "--config", str(conf), "--estimator", "ewh_peak",
                 "--ewh-bins", "32", "--out", str(out)]) == 0
    assert load_grid(out).shape == (1, 3)


def test_edh_hedh_with_fixed_step_size(conf, tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "hedh", "--q", "8",
                 "--fixed-step-size", "2", "--out", str(out)]) == 0
    grid = read_boundaries_csv(out)
    for r, c, stream in _pixel_streams(conf):
        assert np.array_equal(grid[r, c], hedh(stream, 8, 2.0).bounds)


def test_estimate_ewh_peak_bins_match_library(conf, tmp_path):
    out = tmp_path / "est.csv"
    assert main(["estimate", "--config", str(conf), "--estimator", "ewh_peak",
                 "--ewh-bins", "16", "--out", str(out)]) == 0
    est = load_grid(out)
    sim = cfgmod.build_sim_config(cfgmod.parse_config_file(conf))
    for r, c, stream in _pixel_streams(conf):
        assert est[r, c] == np.float32(bin_to_distance(ewh_peak(ewh(stream, 16)), sim))


def test_estimate_ewh_peak_rejects_boundary_file(conf, tmp_path, capsys):
    bounds_csv = tmp_path / "bounds.csv"
    main(["edh", "--config", str(conf), "--method", "oedh", "--q", "8", "--out", str(bounds_csv)])
    assert main(["estimate", "--config", str(conf), "--estimator", "ewh_peak",
                 "--bounds", str(bounds_csv), "--out", str(tmp_path / "est.csv")]) == 2
    assert "ewh_peak" in capsys.readouterr().err


def test_parser_choices_come_from_the_harness():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices

    def choices(command, dest):
        return tuple(next(a for a in subparsers[command]._actions if a.dest == dest).choices)

    assert choices("edh", "method") == EDH_METHODS
    assert choices("estimate", "method") == EDH_METHODS
    assert choices("estimate", "estimator") == ESTIMATORS
    assert choices("sweep", "param") == SWEEPABLE_PARAMS


def test_experiment_command(conf, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["experiment", "--config", str(conf), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert "pedh" in capsys.readouterr().out


def test_experiment_failure_exit_code(conf, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text(conf.read_text().replace(
        "experiment.pairs = 1.0:1.0", "experiment.pairs = 1.0:1.0, -2.0:1.0"))
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1


def test_repeated_method_exits_2(conf, tmp_path, capsys):
    conf.write_text(conf.read_text().replace("experiment.methods = oedh, pedh",
                                             "experiment.methods = pedh, pedh"))
    assert main(["experiment", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
    assert "methods must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_edh_q_defaults_to_the_config(conf, tmp_path):
    # the fixture sets experiment.q = 8
    out = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "pedh", "--out", str(out)]) == 0
    assert read_boundaries_csv(out).shape == (1, 3, 9)
    flag = tmp_path / "flag.csv"
    assert main(["edh", "--config", str(conf), "--method", "pedh", "--q", "16",
                 "--out", str(flag)]) == 0
    assert read_boundaries_csv(flag).shape == (1, 3, 17)


def test_fixed_step_size_defaults_to_the_config(conf, tmp_path):
    conf.write_text(conf.read_text() + "experiment.fixed_step_size = 2\n")
    paths = {name: tmp_path / f"{name}.csv" for name in ("config", "flag", "other")}
    for name, extra in (("config", []), ("flag", ["--fixed-step-size", "2"]),
                        ("other", ["--fixed-step-size", "1"])):
        assert main(["edh", "--config", str(conf), "--method", "hedh",
                     "--out", str(paths[name])] + extra) == 0
    assert paths["config"].read_bytes() == paths["flag"].read_bytes()
    assert paths["config"].read_bytes() != paths["other"].read_bytes()


def test_estimate_reads_the_config_q(conf, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["estimate", "--config", str(conf), "--estimator", "t0", "--out", str(a)]) == 0
    assert main(["estimate", "--config", str(conf), "--estimator", "t0", "--q", "8",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_command(conf, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(conf), "--param", "k_pct",
                 "--values", "1,3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_export_features_command(conf, tmp_path):
    out = tmp_path / "features.bin"
    assert main(["export-features", "--config", str(conf), "--out", str(out)]) == 0
    arr = read_raw(out, 3)
    assert arr.shape == (1, 3, 1024)


def test_seed_flag_reproducibility(conf, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["edh", "--config", str(conf), "--method", "oedh", "--q", "8",
          "--seed", "42", "--out", str(a)])
    main(["edh", "--config", str(conf), "--method", "oedh", "--q", "8",
          "--seed", "42", "--out", str(b)])
    main(["edh", "--config", str(conf), "--method", "oedh", "--q", "8",
          "--seed", "43", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_error_reporting(tmp_path, capsys):
    missing = tmp_path / "nope.conf"
    missing.write_text("scene.kind = warp\n")
    assert main(["experiment", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, conf_line", [
    (["simulate", "--seed", "-1", "--out", "streams"], ""),
    (["edh", "--seed", "-1", "--method", "pedh", "--q", "8", "--out", "b.csv"], ""),
    (["estimate", "--seed", "-1", "--estimator", "t0", "--method", "pedh", "--q", "8",
      "--out", "est.csv"], ""),
    (["export-features", "--seed", "-1", "--out", "f.bin"], ""),
    (["simulate", "--out", "streams"], "experiment.seed = -1"),
])
def test_negative_seed_exits_2(conf, tmp_path, monkeypatch, capsys, argv, conf_line):
    # every stream's seed is checked where it is derived, so no subcommand
    # ends in numpy's own traceback
    monkeypatch.chdir(tmp_path)
    conf.write_text(conf.read_text() + conf_line + "\n")
    assert main(argv + ["--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: global_seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["experiment", "--config", "missing.conf"],
    ["estimate", "--config", "missing.conf", "--estimator", "t0", "--out", "est.csv"],
    ["evaluate", "--truth", "missing.csv", "--est", "est.csv"],
    ["experiment", "--config", "scene.conf"],  # its scene.path is missing
])
def test_missing_input_file_exits_2(tmp_path, monkeypatch, capsys, argv):
    # exit 1 means an experiment finished with failed conditions
    monkeypatch.chdir(tmp_path)
    (tmp_path / "est.csv").write_text("3.0\n")
    (tmp_path / "scene.conf").write_text("scene.kind = file\nscene.path = missing.csv\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "missing." in captured.err


@pytest.mark.parametrize("argv", [
    ["estimate", "--config", "f.bin", "--estimator", "t0", "--out", "est.csv"],
    ["estimate", "--config", "exp.conf", "--estimator", "t0", "--bounds", "f.bin",
     "--out", "est.csv"],
    ["evaluate", "--truth", "f.bin", "--est", "f.bin"],
])
def test_binary_file_as_text_input_exits_2(conf, tmp_path, monkeypatch, capsys, argv):
    # a channel grid is not UTF-8 text; its bytes fail the parser's own checks
    monkeypatch.chdir(tmp_path)
    write_raw("f.bin", np.full((1, 2, 3), -2.5e-38))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: f.bin: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, conf_line", [
    (["evaluate", "--inliers", "2,x"], ""),
    (["evaluate", "--inliers", "nan"], ""),
    (["evaluate", "--z-max", "nan"], ""),
    (["evaluate", "--z-max", "0"], ""),
    (["sweep", "--param", "gamma", "--values", "0.99,abc"], ""),
    (["sweep", "--param", "gamma", "--values", ","], ""),
    (["experiment"], "experiment.inliers = 2,x"),
    (["experiment"], "experiment.inliers = nan"),
    (["experiment"], "experiment.inliers = 2, 2"),
    (["evaluate", "--inliers", "2,2.0"], ""),
    (["experiment"], "experiment.inliers = 2.0000001, 2.0000002"),
    (["evaluate", "--inliers", "2.0000001,2.0000002"], ""),
    (["sweep", "--param", "gamma", "--values", "0.99,0.99"], ""),
])
def test_bad_number_list_or_metric_limit_exits_2(conf, tmp_path, capsys, argv, conf_line):
    # each is refused before any work, with one error line and no traceback
    if argv[0] == "evaluate":
        truth = tmp_path / "truth.csv"
        truth.write_text("3.0,9.0\n")
        argv = argv + ["--truth", str(truth), "--est", str(truth)]
    else:
        conf.write_text(conf.read_text() + conf_line + "\n")
        argv = argv + ["--config", str(conf)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, conf_line", [
    (["--method", "pedh", "--q", "100000000000000"], ""),
    (["--method", "hedh", "--q", "1099511627776"], ""),
    (["--method", "pedh"], "sim.n_bins = 100000000000000"),
    (["--method", "pedh"], "scene.kind = constant\nscene.width = 100000000000000"),
])
def test_size_numpy_cannot_allocate_exits_2(conf, tmp_path, capsys, argv, conf_line):
    # numpy refuses each array (terabytes) before allocating it, and the
    # CLI reports its MemoryError as it does a bad value
    conf.write_text(conf.read_text() + conf_line + "\n")
    out = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("header", ["t_0,t_x", "t_0,t_2"])
def test_estimate_rejects_misnamed_boundary_columns(conf, tmp_path, capsys, header):
    bounds_csv = tmp_path / "bounds.csv"
    bounds_csv.write_text(f"schema_version,pixel_row,pixel_col,{header}\n1,0,0,0.0,1024.0\n")
    assert main(["estimate", "--config", str(conf), "--estimator", "t0",
                 "--bounds", str(bounds_csv), "--out", str(tmp_path / "est.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"boundary column {header[4:]!r}" in err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("end", [400.0, 5000.0])
def test_estimate_rejects_bounds_not_ending_at_n_bins(conf, tmp_path, capsys, end):
    # the config has 1,024 bins; a row ending anywhere else would give a
    # confident depth from boundaries that do not span the window
    bounds_csv = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "oedh", "--q", "8",
                 "--out", str(bounds_csv)]) == 0
    grid = read_boundaries_csv(bounds_csv)
    grid[0, 2, :] *= end / 1024.0
    harness.write_boundaries_csv(bounds_csv, grid)
    capsys.readouterr()
    for est in ("t0", "t1"):
        assert main(["estimate", "--config", str(conf), "--estimator", est,
                     "--bounds", str(bounds_csv), "--out", str(tmp_path / "est.csv")]) == 2
        err = capsys.readouterr().err
        assert "pixel (0, 2)" in err and "n_bins=1024" in err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("bad, message", [
    ({0: 5.0}, "boundary set must start at 0"),
    ({3: 700.0, 4: 300.0}, "boundaries must be non-decreasing"),
])
def test_estimate_names_the_file_and_pixel_of_a_bad_row(conf, tmp_path, capsys, bad, message):
    bounds_csv = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "oedh", "--q", "8",
                 "--out", str(bounds_csv)]) == 0
    grid = read_boundaries_csv(bounds_csv)
    for j, value in bad.items():
        grid[0, 1, j] = value
    harness.write_boundaries_csv(bounds_csv, grid)
    capsys.readouterr()
    assert main(["estimate", "--config", str(conf), "--estimator", "t0",
                 "--bounds", str(bounds_csv), "--out", str(tmp_path / "est.csv")]) == 2
    assert f"{bounds_csv}: the row of pixel (0, 1): {message}" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("q", [-3, 0, 1])
def test_edh_rejects_q_below_two(conf, tmp_path, capsys, q):
    out = tmp_path / "bounds.csv"
    assert main(["edh", "--config", str(conf), "--method", "pedh", "--q", str(q),
                 "--out", str(out)]) == 2
    assert f"q must be an integer >= 2, got {q}" in capsys.readouterr().err
    assert not out.exists()
