"""Monte-Carlo experiment orchestration.

Everything here is deterministic given the experiment's global seed: each
(pair, run, pixel) gets its own generator derived from stable integer keys,
so results do not depend on execution order, and every method within one run
consumes the identical photon stream (paired comparisons).

Every scene is walked by :func:`pixel_streams`, one pixel at a time: it
derives the pixel's seed from the global seed, the caller's key and the
pixel's index, samples the pixel's stream, and the caller summarizes it with
each method and drops it before the next pixel, so one stream is held at
once.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .binner import StepParams, run_fixed, run_optimized, step_scale
from .errors import (
    EdhsimError,
    InvalidParamsError,
    ParseError,
    check_distinct,
    check_int,
    check_real,
    check_type,
    is_real,
)
from .estimator import RHO1_GRID_SIZE, bin_to_distance, ewh_peak, rho1, t0_hat, t1_hat
from .histogrammer import EdhBoundaries, EwHistogram, ewh, hedh, oedh, pedh
from .metrics import boundary_rmse, check_metric_limits, distance_metrics, inlier_column
from .scene import PixelConfig, Scene, save_grid, write_raw
from .transient import PhotonStream, SimConfig, build_transient, sample_stream, true_quantiles

SCHEMA_VERSION = 1

SWEEPABLE_PARAMS = ("k_pct", "gamma", "beta1", "beta2")

# seed-derivation contexts keep independent tools off each other's streams
_CTX_EXPERIMENT = 0
_CTX_FEATURES = 1
_CTX_SIMULATE = 2
_CTX_MEDIAN = 3


def derive_seed(global_seed: int, *key: int) -> np.random.SeedSequence:
    """Stable per-worker seed from the global seed, an integer >= 0 (checked
    here, so for every stream), plus integer key parts."""
    return np.random.SeedSequence((check_int("global_seed", global_seed, 0),)
                                  + tuple(int(k) for k in key))


# Method and estimator tables. Each entry looks its function up in this
# module when called, so a replacement installed here (a test spy, the
# benchmark's checking and timing wrappers) is what runs; a stored function
# reference would bypass it.
_EDH = {
    "oedh": lambda stream, q, step, fixed_step_size: oedh(stream, q),
    "pedh": lambda stream, q, step, fixed_step_size: pedh(stream, q, step),
    "hedh": lambda stream, q, step, fixed_step_size: hedh(stream, q, fixed_step_size),
}
# name -> (summary type the estimator reads, summary -> bin position)
_ESTIMATORS = {
    "t0": (EdhBoundaries, lambda bounds: t0_hat(bounds)),
    "t1": (EdhBoundaries, lambda bounds: t1_hat(rho1(bounds))),
    "ewh_peak": (EwHistogram, lambda hist: ewh_peak(hist)),
}
# any other method name must be ewhN: an N-bin equi-width histogram
_EWH_METHOD = re.compile(r"ewh(\d+)")
# boundary RMSE of the other equi-depth methods is measured against this one
_ORACLE = "oedh"

EDH_METHODS = tuple(_EDH)
ESTIMATORS = tuple(_ESTIMATORS)


def _ewh_bins(method: str) -> int:
    match = _EWH_METHOD.fullmatch(method)
    if match is None:
        raise InvalidParamsError(f"unknown method {method!r}: use one of {EDH_METHODS} or ewhN")
    return int(match.group(1))


def _estimator(name: str):
    if name not in _ESTIMATORS:
        raise InvalidParamsError(f"unknown estimator {name!r}: use one of {ESTIMATORS}")
    return _ESTIMATORS[name]


def conditions(methods: Sequence[str], estimators: Sequence[str]) -> list[tuple[str, str]]:
    """Every (method, estimator) pair whose estimator reads what the method
    produces, method-major in the given orders."""
    return [(m, e) for m in methods for e in estimators
            if _estimator(e)[0] is (EdhBoundaries if m in _EDH else EwHistogram)]


def summarize(stream: PhotonStream, method: str, q: int, step: StepParams,
              fixed_step_size: float):
    """Run one method over a stream: equi-depth boundaries for ``oedh``,
    ``pedh`` and ``hedh``, an N-bin equi-width histogram for ``ewhN``. A
    boundary set must end at the stream's ``n_bins`` (:func:`check_span`)."""
    build = _EDH.get(method)
    if build is None:
        return ewh(stream, _ewh_bins(method))
    bounds = build(stream, q, step, fixed_step_size)
    check_span(bounds, stream.n_bins)
    return bounds


def check_span(bounds: EdhBoundaries, n_bins: int) -> None:
    """Reject a boundary set that does not end at ``n_bins``: it does not
    span the time window, so no depth read off it can be trusted."""
    if bounds.span != n_bins:
        raise InvalidParamsError(f"boundary set ends at {bounds.span!r}, not at n_bins={n_bins}")


def pixel_streams(scene: Scene, sim: SimConfig, global_seed: int, *key: int) -> Iterator[tuple]:
    """Sample every scene pixel, the i-th (row-major) from
    ``derive_seed(global_seed, *key, i)``, and yield ``((row, col), pixel,
    transient, stream)`` for each, in that order."""
    for i, (r, c, pixel) in enumerate(scene.iter_pixels()):
        transient = build_transient(pixel, sim)
        seed = derive_seed(global_seed, *key, i)
        yield (r, c), pixel, transient, sample_stream(transient, sim.n_cycles, seed)


def pipeline_streams(scene: Scene, sim: SimConfig, global_seed: int) -> Iterator[tuple]:
    """:func:`pixel_streams` for the single-pass pipeline tools (simulate /
    edh / estimate), under one key shared across those tools so that, e.g.,
    boundary sets written by one invocation correspond to the streams
    another invocation re-derives."""
    return pixel_streams(scene, sim, global_seed, _CTX_SIMULATE)


def estimate_bins(estimator: str, summary) -> float:
    """Time-of-flight position, in bins, that ``estimator`` reads off a
    summary made by :func:`summarize`."""
    kind, estimate = _estimator(estimator)
    if not isinstance(summary, kind):
        raise InvalidParamsError(f"{estimator} reads {kind.__name__}, not {type(summary).__name__}")
    return estimate(summary)


@dataclass(frozen=True)
class ExperimentConfig:
    """One full experiment: scene, sensor, photon pairs, methods, seeds."""

    scene: Scene
    sim: SimConfig = field(default_factory=SimConfig)
    pairs: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    methods: tuple[str, ...] = ("oedh", "pedh")
    estimators: tuple[str, ...] = ("t0",)
    step: StepParams = field(default_factory=StepParams)
    q: int = 32
    fixed_step_size: float = 1.0
    n_monte_carlo: int = 50
    global_seed: int = 0
    out_dir: Optional[Path] = None
    inlier_thresholds: tuple[float, ...] = (2.0, 10.0)

    def __post_init__(self):
        if not self.methods or not self.estimators:
            raise InvalidParamsError("need at least one method and one estimator")
        check_distinct("methods", self.methods, str)
        check_distinct("estimators", self.estimators, str)
        for m in self.methods:
            if m not in _EDH and not 1 <= _ewh_bins(m) <= self.sim.n_bins:
                raise InvalidParamsError(f"{m}: bin count must lie in [1, {self.sim.n_bins}]")
        if not conditions(self.methods, self.estimators):
            raise InvalidParamsError("no listed estimator reads what a listed method produces")
        check_int("n_monte_carlo", self.n_monte_carlo, 1)
        check_int("global_seed", self.global_seed, 0)
        check_int("q", self.q, 2)
        if "hedh" in self.methods and self.q & (self.q - 1):
            raise InvalidParamsError(f"hedh requires a power-of-two q, got {self.q}")
        check_real("fixed_step_size", self.fixed_step_size, 0)
        step_scale(self.step, self.sim.n_bins)
        check_metric_limits(self.inlier_thresholds, self.sim.z_max)
        if not self.pairs:
            raise InvalidParamsError("need at least one (phi_sig, phi_bkg) pair")
        for pair in self.pairs:
            if not _is_pair(pair):
                raise InvalidParamsError(
                    f"each (phi_sig, phi_bkg) pair must be two real numbers, got {pair!r}")
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))


def _is_pair(pair) -> bool:
    try:
        a, b = pair
    except (TypeError, ValueError):
        return False
    return is_real(a) and is_real(b)


@dataclass
class ExperimentResult:
    summary_rows: list
    run_rows: list
    failures: list
    summary_path: Optional[Path] = None
    runs_path: Optional[Path] = None


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full (pair x run x pixel x method x estimator) grid.

    Each (pair, run) samples its pixels one at a time and runs every method
    over each stream (:func:`summarize`); run rows come pixel-major, then in
    :func:`conditions` order. A method that raises stops for the rest of its
    pair: its conditions get error rows and its run rows of that pair are
    dropped, while the other methods keep theirs (``boundary_rmse_bins``
    stays blank if the oracle failed); a boundary set that does not end at
    ``n_bins`` is such a raise. A pair whose streams cannot be sampled fails
    every condition. Each condition's distance metrics come from its kept run
    rows. Callers should treat a non-empty ``failures`` list as a nonzero
    exit.
    """
    conds = conditions(cfg.methods, cfg.estimators)
    # a method no listed estimator reads is not run
    methods = tuple(dict.fromkeys(m for m, _ in conds))

    summary_rows: list[dict] = []
    run_rows: list[dict] = []
    failures: list[str] = []

    for pair_idx, (phi_sig, phi_bkg) in enumerate(cfg.pairs):
        bnd_acc: dict = {m: [] for m in methods if m in _EDH and m != _ORACLE}
        pair_rows: list[dict] = []
        errors: dict = {}
        try:
            scene = replace(cfg.scene, phi_sig=phi_sig, phi_bkg=phi_bkg)
            for mc in range(cfg.n_monte_carlo):
                for (r, c), pixel, _tr, stream in pixel_streams(
                        scene, cfg.sim, cfg.global_seed, _CTX_EXPERIMENT, pair_idx, mc):
                    # every method reads the identical stream; one that
                    # raises, in its summary or an estimate, joins ``errors``
                    done = {}
                    for m in (m for m in methods if m not in errors):
                        try:
                            summary = summarize(stream, m, cfg.q, cfg.step, cfg.fixed_step_size)
                            done[m] = summary, {e: bin_to_distance(estimate_bins(e, summary), cfg.sim)
                                                for mm, e in conds if mm == m}
                        except EdhsimError as exc:
                            errors[m] = exc
                    checksum = stream.checksum()
                    for m, e in conds:
                        if m not in done:
                            continue
                        pair_rows.append({
                            "schema_version": SCHEMA_VERSION,
                            "scene": cfg.scene.label,
                            "phi_sig": phi_sig,
                            "phi_bkg": phi_bkg,
                            "mc_index": mc,
                            "pixel_row": r,
                            "pixel_col": c,
                            "method": m,
                            "estimator": e,
                            "z_true_m": pixel.z,
                            "z_est_m": done[m][1][e],
                            "stream_checksum": checksum,
                        })
                    if _ORACLE in done:
                        for m, acc in bnd_acc.items():
                            if m in done:
                                acc.append(boundary_rmse(done[m][0], done[_ORACLE][0]))
        except EdhsimError as exc:
            failures.append(f"pair ({phi_sig}, {phi_bkg}): {exc}")
            summary_rows += [_summary_row(cfg, phi_sig, phi_bkg, m, e, error=exc) for m, e in conds]
            continue

        run_rows += [row for row in pair_rows if row["method"] not in errors]
        failures += [f"pair ({phi_sig}, {phi_bkg}), {m}: {errors[m]}" for m in methods if m in errors]
        for m, e in conds:
            if m in errors:
                summary_rows.append(_summary_row(cfg, phi_sig, phi_bkg, m, e, error=errors[m]))
                continue
            rows = [row for row in pair_rows if (row["method"], row["estimator"]) == (m, e)]
            report = distance_metrics(
                np.array([[row["z_est_m"] for row in rows]]),
                np.array([[row["z_true_m"] for row in rows]]),
                thresholds=cfg.inlier_thresholds,
                z_max=cfg.sim.z_max,
            )
            bnd = float(np.mean(bnd_acc[m])) if bnd_acc.get(m) and _ORACLE not in errors else ""
            summary_rows.append(_summary_row(cfg, phi_sig, phi_bkg, m, e, report, bnd))

    summary_path = runs_path = None
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        summary_path = cfg.out_dir / "summary.csv"
        runs_path = cfg.out_dir / "runs.csv"
        write_csv(summary_path, summary_rows, _summary_fields(cfg))
        write_csv(runs_path, run_rows, _RUN_FIELDS)
    return ExperimentResult(summary_rows, run_rows, failures, summary_path, runs_path)


def _summary_row(cfg, phi_sig, phi_bkg, method, estimator, report=None,
                 boundary_rmse_bins="", error=None) -> dict:
    """One ``summary.csv`` row: metrics from ``report``, or blanks and the
    message of the ``error`` that stopped the condition."""
    row = dict.fromkeys(_summary_fields(cfg), "")
    row.update(schema_version=SCHEMA_VERSION, scene=cfg.scene.label, phi_sig=phi_sig,
               phi_bkg=phi_bkg, method=method, estimator=estimator, n_runs=cfg.n_monte_carlo)
    if error is not None:
        row.update(status="error", message=str(error))
        return row
    row.update(
        n_samples=report.n_pixels, rmse_cm=report.rmse_cm, mae_cm=report.mae_cm,
        boundary_rmse_bins=boundary_rmse_bins, status="ok",
    )
    for p in cfg.inlier_thresholds:
        row[inlier_column(p)] = report.inlier_pct[float(p)]
    return row


def _summary_fields(cfg: ExperimentConfig) -> list[str]:
    fields = [
        "schema_version", "scene", "phi_sig", "phi_bkg", "method", "estimator",
        "n_runs", "n_samples", "rmse_cm", "mae_cm",
    ]
    fields += [inlier_column(p) for p in cfg.inlier_thresholds]
    fields += ["boundary_rmse_bins", "status", "message"]
    return fields


_RUN_FIELDS = [
    "schema_version", "scene", "phi_sig", "phi_bkg", "mc_index", "pixel_row",
    "pixel_col", "method", "estimator", "z_true_m", "z_est_m", "stream_checksum",
]


def write_csv(path, rows: list, fieldnames: list) -> None:
    """Write ``rows`` (dicts) as a CSV table under a ``fieldnames`` header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# median-tracking comparison (fixed vs optimized stepping)


def _bkg_column(bkg: float) -> str:
    return f"bkg_{bkg:g}"


def median_tracking_experiment(
    bkg_levels: Sequence[float],
    distances: Sequence[float],
    phi_sig: float,
    n_seeds: int,
    sim: SimConfig,
    step: StepParams,
    fixed_step_size: float = 1.0,
    global_seed: int = 0,
    out_path: Optional[Path] = None,
) -> dict:
    """Boundary RMSE of a single median binner, fixed vs optimized stepping.

    For every (background level, distance, seed) one stream is sampled and
    fed to both stepping strategies; the error is the final CV minus the
    population median of the transient. Returns
    ``{(strategy, bkg): rmse_bins}`` and optionally writes a CSV table with
    one row per strategy and one column per background level. Empty
    ``bkg_levels`` or ``distances``, a level, distance, ``phi_sig`` or
    ``fixed_step_size`` that is not a finite real number (>= 0, a distance
    or step size > 0), a ``step`` that is not a :class:`StepParams`, or two
    levels that are equal or share a column, raise
    :class:`InvalidParamsError` before any stream is sampled.
    """
    if len(bkg_levels) == 0 or len(distances) == 0:
        raise InvalidParamsError("need at least one background level and one distance")
    for b in bkg_levels:
        check_real("each background level", b, 0, ends="[)")
    for z in distances:
        check_real("each distance", z, 0)
    check_real("phi_sig", phi_sig, 0, ends="[)")
    check_real("fixed_step_size", fixed_step_size, 0)
    check_type("step", step, StepParams)
    check_distinct("background levels", bkg_levels, _bkg_column)
    check_int("n_seeds", n_seeds, 1)
    sq_err = {("fixed", b): [] for b in bkg_levels}
    sq_err.update({("optimized", b): [] for b in bkg_levels})
    for bkg_idx, bkg in enumerate(bkg_levels):
        for d_idx, z in enumerate(distances):
            transient = build_transient(PixelConfig(z, phi_sig, bkg), sim)
            median = float(true_quantiles(transient, [0.5])[0])
            for s_idx in range(n_seeds):
                seed = derive_seed(global_seed, _CTX_MEDIAN, bkg_idx, d_idx, s_idx)
                stream = sample_stream(transient, sim.n_cycles, seed)
                cv_fix = run_fixed(stream, 0.5, fixed_step_size).cv
                cv_opt = run_optimized(stream, 0.5, step).cv
                sq_err[("fixed", bkg)].append((cv_fix - median) ** 2)
                sq_err[("optimized", bkg)].append((cv_opt - median) ** 2)
    table = {key: float(np.sqrt(np.mean(v))) for key, v in sq_err.items()}
    if out_path is not None:
        fields = ["schema_version", "strategy"] + [_bkg_column(b) for b in bkg_levels]
        rows = []
        for strat in ("fixed", "optimized"):
            row = {"schema_version": SCHEMA_VERSION, "strategy": strat}
            row.update({_bkg_column(b): table[(strat, b)] for b in bkg_levels})
            rows.append(row)
        write_csv(out_path, rows, fields)
    return table


# ---------------------------------------------------------------------------
# hyperparameter sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Vary one stepping parameter over distinct, finite real values, others
    held fixed; :func:`sweep` checks each against ``param``'s range."""

    param: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.param not in SWEEPABLE_PARAMS:
            raise InvalidParamsError(f"param must be one of {SWEEPABLE_PARAMS}, got {self.param!r}")
        if not self.values:
            raise InvalidParamsError("need at least one sweep value")
        for v in self.values:
            check_real("each sweep value", v, -float("inf"))
        check_distinct("sweep values", self.values, str)


def sweep(spec: SweepSpec, cfg: ExperimentConfig, out_path: Optional[Path] = None) -> list:
    """Average boundary and distance error of the parallel histogrammer
    across the sweep values.

    Every sweep value sees the identical streams (seeds are derived exactly
    as in :func:`run_experiment`), so value-to-value differences are not
    sampling noise. Each stream is summarized once per value, by ``pedh``
    under that value's schedule (:func:`summarize`). Boundary RMSE is
    measured against the population quantiles of each transient; distance
    RMSE uses the narrowest-bin estimator ``t0`` against the scene truth. A
    boundary set that does not end at ``n_bins`` raises
    (:func:`check_span`).
    """
    steps = []
    for v in spec.values:
        try:
            steps.append(replace(cfg.step, **{spec.param: v}))
            step_scale(steps[-1], cfg.sim.n_bins)
        except InvalidParamsError as exc:
            raise InvalidParamsError(f"{spec.param}={v}: {exc}") from None

    targets = np.arange(1, cfg.q, dtype=np.float64) / cfg.q

    est_acc = {v: [] for v in spec.values}
    truth = []
    bnd_sq = {v: [] for v in spec.values}
    for pair_idx, (phi_sig, phi_bkg) in enumerate(cfg.pairs):
        scene = replace(cfg.scene, phi_sig=phi_sig, phi_bkg=phi_bkg)
        for mc in range(cfg.n_monte_carlo):
            for _cell, pixel, transient, stream in pixel_streams(
                    scene, cfg.sim, cfg.global_seed, _CTX_EXPERIMENT, pair_idx, mc):
                true_bounds = true_quantiles(transient, targets)
                truth.append(pixel.z)
                for value, step in zip(spec.values, steps):
                    bounds = summarize(stream, "pedh", cfg.q, step, cfg.fixed_step_size)
                    est_acc[value].append(bin_to_distance(estimate_bins("t0", bounds), cfg.sim))
                    bnd_sq[value].extend(((bounds.interior - true_bounds) ** 2).tolist())

    rows = []
    for value in spec.values:
        report = distance_metrics(
            np.asarray(est_acc[value]).reshape(1, -1),
            np.asarray(truth).reshape(1, -1),
            z_max=cfg.sim.z_max,
        )
        rows.append({
            "schema_version": SCHEMA_VERSION,
            "param": spec.param,
            "value": value,
            "n_runs": len(est_acc[value]),
            "boundary_rmse_bins": float(np.sqrt(np.mean(bnd_sq[value]))),
            "distance_rmse_cm": report.rmse_cm,
        })
    if out_path is not None:
        write_csv(out_path, rows, ["schema_version", "param", "value", "n_runs",
                                   "boundary_rmse_bins", "distance_rmse_cm"])
    return rows


# ---------------------------------------------------------------------------
# density features


def export_density_features(
    scene: Scene,
    sim: SimConfig,
    step: StepParams,
    q: int,
    path,
    global_seed: int = 0,
) -> Path:
    """Write per-pixel interpolated photon densities as a 1024-channel grid.

    Runs the parallel histogrammer on each pixel (at the scene's photon
    level, pixel by pixel through :func:`pixel_streams`) and stores the
    interpolated density as float32 channels of a raw_f32 channel grid
    (magic ``EDHF``, see :mod:`edhsim.scene`), plus a sidecar
    ``<path>.truth.csv`` with the ground-truth depths.
    """
    arr = np.empty((scene.height, scene.width, RHO1_GRID_SIZE), dtype=np.float32)
    for cell, _pixel, _tr, stream in pixel_streams(scene, sim, global_seed, _CTX_FEATURES):
        arr[cell] = rho1(summarize(stream, "pedh", q, step, 1.0)).values
    path = Path(path)
    write_raw(path, arr)
    save_grid(scene.depth_map.depths, str(path) + ".truth.csv")
    return path


# ---------------------------------------------------------------------------
# CSV serialization for streams and boundary grids


def dump_stream_csv(stream: PhotonStream, path) -> None:
    """Debug dump: one ``cycle_index,timestamp`` line per photon."""
    with open(path, "w") as fh:
        fh.write("cycle_index,timestamp\n")
        for i in range(stream.n_cycles):
            for t in stream.cycle(i):
                fh.write(f"{i},{float(t)!r}\n")


def write_boundaries_csv(path, grid: np.ndarray) -> None:
    """Write an (h, w, q+1) boundary grid, one pixel per row."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 3:
        raise InvalidParamsError("boundary grid must be (height, width, q+1)")
    q = arr.shape[2] - 1
    fields = ["schema_version", "pixel_row", "pixel_col"] + [f"t_{j}" for j in range(q + 1)]
    rows = []
    for r in range(arr.shape[0]):
        for c in range(arr.shape[1]):
            row = {"schema_version": SCHEMA_VERSION, "pixel_row": r, "pixel_col": c}
            row.update({f"t_{j}": repr(float(arr[r, c, j])) for j in range(q + 1)})
            rows.append(row)
    write_csv(path, rows, fields)


def read_boundaries_csv(path) -> np.ndarray:
    """Read a boundary grid written by :func:`write_boundaries_csv`: its
    boundary columns must be ``t_0`` to ``t_q`` in order, and every pixel
    must have exactly one row."""
    with open(path, newline="", errors="replace") as fh:  # bad bytes fail a check below
        reader = csv.DictReader(fh)
        t_cols = [f for f in reader.fieldnames or [] if f.startswith("t_")]
        if not t_cols:
            raise ParseError(f"{path}: no boundary columns found")
        for j, name in enumerate(t_cols):
            if name != f"t_{j}":
                raise ParseError(f"{path}: boundary column {name!r} where 't_{j}' belongs: "
                                 f"the columns must run t_0, t_1, ... t_q")
        entries = []
        for row in reader:
            try:
                entries.append(
                    (int(row["pixel_row"]), int(row["pixel_col"]),
                     [float(row[c]) for c in t_cols])
                )
            except (KeyError, ValueError) as exc:
                raise ParseError(f"{path}: bad row: {exc}") from None
    if not entries:
        raise ParseError(f"{path}: empty boundary file")
    filled = set()
    for r, c, vals in entries:
        if r < 0 or c < 0:
            raise ParseError(f"{path}: bad row: negative pixel index ({r}, {c})")
        if (r, c) in filled:
            raise ParseError(f"{path}: pixel ({r}, {c}) has more than one row")
        if not np.all(np.isfinite(vals)):
            raise ParseError(f"{path}: the row of pixel ({r}, {c}) holds a non-finite value")
        filled.add((r, c))
    h, w = (max(index) + 1 for index in zip(*filled))
    # rows fill distinct cells, so a grid with more cells than rows misses one
    # among its first len(entries) + 1; it is allocated only once it is whole
    if h * w > len(entries):
        r, c = next(divmod(i, w) for i in range(h * w) if divmod(i, w) not in filled)
        raise ParseError(f"{path}: boundary grid has missing pixels, the first ({r}, {c})")
    return np.array([vals for _r, _c, vals in sorted(entries)]).reshape(h, w, len(t_cols))
