"""Command-line interface.

Subcommands mirror the pipeline stages: ``simulate`` dumps raw photon
streams, ``edh`` writes boundary sets, ``estimate`` turns boundaries (or a
fresh pipeline run) into a distance map, ``evaluate`` scores a distance map
against ground truth, ``experiment`` runs the full Monte-Carlo grid,
``sweep`` scans one stepping parameter, and ``export-features`` writes the
1024-channel interpolated density grid.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import EdhsimError, InvalidParamsError
from .estimator import bin_to_distance
from .harness import (
    EDH_METHODS,
    ESTIMATORS,
    SWEEPABLE_PARAMS,
    ExperimentConfig,
    SweepSpec,
    check_span,
    conditions,
    dump_stream_csv,
    estimate_bins,
    export_density_features,
    pipeline_streams,
    read_boundaries_csv,
    run_experiment,
    summarize,
    sweep,
    write_boundaries_csv,
    write_csv,
)
from .histogrammer import EdhBoundaries
from .metrics import distance_metrics, inlier_column
from .scene import load_depth_map, load_grid, save_grid
from .transient import DEFAULT_Z_MAX


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the global seed")


def _pipeline_streams(conf, seed_override):
    """The config's scene and its :func:`pipeline_streams`."""
    sim = cfgmod.build_sim_config(conf)
    scene = cfgmod.build_scene(conf, sim)
    return scene, pipeline_streams(scene, sim, cfgmod.resolve_seed(conf, seed_override))


def _method_settings(args, conf):
    """The config's step parameters, then ``--q`` and ``--fixed-step-size``,
    or the config's values where not given."""
    q = cfgmod.get_int(conf, "experiment.q", ExperimentConfig.q)
    size = cfgmod.get_float(conf, "experiment.fixed_step_size", ExperimentConfig.fixed_step_size)
    return (cfgmod.build_step_params(conf), q if args.q is None else args.q,
            size if args.fixed_step_size is None else args.fixed_step_size)


def _cmd_simulate(args) -> int:
    conf = cfgmod.parse_config_file(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene, streams = _pipeline_streams(conf, args.seed)
    for (r, c), _pixel, _tr, stream in streams:
        dump_stream_csv(stream, out / f"stream_r{r}_c{c}.csv")
    print(f"wrote {scene.height * scene.width} stream dumps to {out}")
    return 0


def _cmd_edh(args) -> int:
    conf = cfgmod.parse_config_file(args.config)
    step, q, size = _method_settings(args, conf)
    scene, streams = _pipeline_streams(conf, args.seed)
    # row-major, as pixel_streams yields them; the method checks q first
    grid = np.array([summarize(stream, args.method, q, step, size).bounds
                     for _cell, _pixel, _tr, stream in streams])
    grid = grid.reshape(scene.height, scene.width, -1)
    write_boundaries_csv(args.out, grid)
    print(f"wrote {args.method} boundaries ({q} bins/pixel) to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    conf = cfgmod.parse_config_file(args.config)
    sim = cfgmod.build_sim_config(conf)
    if args.bounds:
        grid = read_boundaries_csv(args.bounds)
        q = grid.shape[2] - 1
        est = np.empty(grid.shape[:2])
        for r, c in np.ndindex(est.shape):
            try:
                bounds = EdhBoundaries(q, grid[r, c])
                check_span(bounds, sim.n_bins)
            except InvalidParamsError as exc:
                raise InvalidParamsError(
                    f"{args.bounds}: the row of pixel ({r}, {c}): {exc}") from None
            est[r, c] = bin_to_distance(estimate_bins(args.estimator, bounds), sim)
    else:
        step, q, size = _method_settings(args, conf)
        # the estimator reads either --method's boundaries or the --ewh-bins histogram
        [(method, _)] = conditions((args.method, f"ewh{args.ewh_bins}"), (args.estimator,))
        scene, streams = _pipeline_streams(conf, args.seed)
        est = np.empty((scene.height, scene.width))
        for cell, _pixel, _tr, stream in streams:
            summary = summarize(stream, method, q, step, size)
            est[cell] = bin_to_distance(estimate_bins(args.estimator, summary), sim)
    save_grid(est, args.out)
    print(f"wrote {args.estimator} distance map to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    truth = load_depth_map(args.truth, z_limit=float("inf"))
    est = load_grid(args.est)
    thresholds = cfgmod.parse_numbers("--inliers", args.inliers)
    report = distance_metrics(
        est, truth.depths, thresholds=thresholds,
        z_max=args.z_max, inlier_mode="relative" if args.relative else "range",
    )
    print(report.format_table())
    if args.out:
        fields = ["rmse_cm", "mae_cm"] + [inlier_column(p) for p in thresholds] + ["n_pixels"]
        row = {"rmse_cm": report.rmse_cm, "mae_cm": report.mae_cm, "n_pixels": report.n_pixels}
        row.update({inlier_column(p): report.inlier_pct[p] for p in thresholds})
        write_csv(args.out, [row], fields)
    return 0


def _cmd_experiment(args) -> int:
    cfg = cfgmod.load_experiment_config(args.config, out_dir=args.out, seed_override=args.seed)
    result = run_experiment(cfg)
    widths = (10, 8, 8, 9, 10, 12, 12, 8)
    header = ("phi_sig", "phi_bkg", "method", "estimator", "rmse_cm", "mae_cm", "bnd_rmse", "status")
    print("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for row in result.summary_rows:
        cells = (
            f"{row['phi_sig']}", f"{row['phi_bkg']}", row["method"], row["estimator"],
            _fmt_num(row["rmse_cm"]), _fmt_num(row["mae_cm"]),
            _fmt_num(row["boundary_rmse_bins"]), row["status"],
        )
        print("  ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))
    if result.summary_path:
        print(f"summary: {result.summary_path}")
    if result.failures:
        print(f"{len(result.failures)} condition(s) failed:", file=sys.stderr)
        for f in result.failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


def _fmt_num(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else (str(v) if v != "" else "-")


def _cmd_sweep(args) -> int:
    cfg = cfgmod.load_experiment_config(args.config, seed_override=args.seed)
    spec = SweepSpec(args.param, cfgmod.parse_numbers("--values", args.values))
    rows = sweep(spec, cfg, out_path=args.out)
    print(f"{'value':>12}  {'boundary_rmse_bins':>20}  {'distance_rmse_cm':>18}")
    for row in rows:
        print(
            f"{row['value']:>12g}  {row['boundary_rmse_bins']:>20.4f}  "
            f"{row['distance_rmse_cm']:>18.4f}"
        )
    if args.out:
        print(f"sweep table: {args.out}")
    return 0


def _cmd_export_features(args) -> int:
    conf = cfgmod.parse_config_file(args.config)
    sim = cfgmod.build_sim_config(conf)
    scene = cfgmod.build_scene(conf, sim)
    step = cfgmod.build_step_params(conf)
    q = cfgmod.get_int(conf, "experiment.q", ExperimentConfig.q)
    seed = cfgmod.resolve_seed(conf, args.seed)
    path = export_density_features(scene, sim, step, q, args.out, global_seed=seed)
    print(f"wrote {scene.height}x{scene.width}x1024 density features to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edhsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="dump per-pixel photon streams as CSV")
    _add_config_arg(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("edh", help="write equi-depth boundary sets")
    _add_config_arg(p)
    p.add_argument("--method", choices=EDH_METHODS, required=True)
    p.add_argument("--q", type=int, help="default: experiment.q")
    p.add_argument("--fixed-step-size", type=float, help="default: experiment.fixed_step_size")
    p.add_argument("--out", required=True, help="boundary CSV path")
    p.set_defaults(func=_cmd_edh)

    p = sub.add_parser("estimate", help="produce a distance map")
    _add_config_arg(p)
    p.add_argument("--estimator", choices=ESTIMATORS, required=True)
    p.add_argument("--bounds", default=None, help="boundary CSV from the edh command")
    p.add_argument("--method", choices=EDH_METHODS, default="pedh")
    p.add_argument("--q", type=int, help="default: experiment.q")
    p.add_argument("--fixed-step-size", type=float, help="default: experiment.fixed_step_size")
    p.add_argument("--ewh-bins", type=int, default=32)
    p.add_argument("--out", required=True, help="distance map path: CSV if it ends in .csv, else raw_f32")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="score a distance map against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--inliers", default="2,10", help="comma-separated inlier percentages")
    p.add_argument("--relative", action="store_true", help="inlier threshold relative to true depth")
    p.add_argument("--z-max", type=float, default=DEFAULT_Z_MAX)
    p.add_argument("--out", default=None, help="optional metrics CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full Monte-Carlo comparison grid")
    _add_config_arg(p)
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", help="scan one stepping parameter")
    _add_config_arg(p)
    p.add_argument("--param", choices=SWEEPABLE_PARAMS, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default=None, help="optional sweep CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-features", help="write 1024-channel density features")
    _add_config_arg(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_features)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EdhsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
