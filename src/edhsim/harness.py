"""Monte-Carlo experiment orchestration.

Everything here is deterministic given the experiment's global seed: each
(pair, run, pixel) gets its own generator derived from stable integer keys,
so results do not depend on execution order, and every method within one run
consumes the identical photon stream (paired comparisons).

Every entry point (:func:`run_experiment`, :func:`sweep`,
:func:`scene_summaries`) samples its pixels through one block sampler,
:func:`_sampled_blocks`, in blocks of at most ``_BLOCK`` streams, and
``pedh`` steps a whole block in one pass over the cycles
(:func:`pedh_variants`); the other methods run stream by stream. The bound
keeps the streams held at once, and so the memory, small; results do not
depend on it.
"""

from __future__ import annotations

import csv
import re
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .binner import StepParams, check_fixed_step_size, run_fixed, run_optimized
from .errors import EdhsimError, InvalidParamsError, ParseError, SweepValueError, check_int
from .estimator import (
    RHO1_GRID_SIZE,
    bin_to_distance,
    ewh_peak,
    rho1,
    t0_hat,
    t1_hat,
)
# every pedh run here goes through pedh_variants; pedh stays importable as
# harness.pedh, where the benchmark's checks and spans (perfbench/) patch it
from .histogrammer import EdhBoundaries, EwHistogram, ewh, hedh, oedh, pedh, pedh_variants  # noqa: F401
from .metrics import boundary_rmse, check_metric_limits, distance_metrics
from .scene import PixelConfig, Scene, save_depth_map
from .transient import PhotonStream, SimConfig, build_transient, sample_stream, true_quantiles

SCHEMA_VERSION = 1

SWEEPABLE_PARAMS = ("k_pct", "gamma", "beta1", "beta2")

# seed-derivation contexts keep independent tools off each other's streams
_CTX_EXPERIMENT = 0
_CTX_FEATURES = 1
_CTX_SIMULATE = 2
_CTX_MEDIAN = 3

# pixels sampled and stepped together; a block holds this many streams at once
_BLOCK = 16

FEATURE_MAGIC = b"EDHF"
_FEATURE_HEADER = struct.Struct("<4sIII")


def derive_seed(global_seed: int, *key: int) -> np.random.SeedSequence:
    """Stable per-worker seed from the global seed plus integer key parts."""
    return np.random.SeedSequence((int(global_seed),) + tuple(int(k) for k in key))


def pipeline_stream_seed(global_seed: int, pixel_index: int) -> np.random.SeedSequence:
    """Seed for single-pass pipeline tools (simulate / edh / estimate).

    Shared across those tools so that, e.g., boundary sets written by one
    invocation correspond to the streams another invocation re-derives.
    """
    return derive_seed(global_seed, _CTX_SIMULATE, pixel_index)


# Method and estimator tables. Each entry looks its function up in this
# module when called, so a replacement installed here (a test spy, the
# benchmark's checking and timing wrappers) is what runs; a stored function
# reference would bypass it. A method maps a block of streams to one
# summary per stream: pedh steps the block in one bank, the others go
# stream by stream.
_EDH = {
    "oedh": lambda streams, q, step, fixed_step_size: [oedh(s, q) for s in streams],
    "pedh": lambda streams, q, step, fixed_step_size: [
        b for [b] in pedh_variants(streams, q, [step])],
    "hedh": lambda streams, q, step, fixed_step_size: [
        hedh(s, q, fixed_step_size) for s in streams],
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


def summarize_block(streams: Sequence[PhotonStream], method: str, q: int, step: StepParams,
                    fixed_step_size: float) -> list:
    """Run one method over a block of streams, one summary per stream:
    equi-depth boundaries for ``oedh``, ``pedh`` and ``hedh``, an N-bin
    equi-width histogram for ``ewhN``. Every boundary set must end at its
    stream's ``n_bins`` (:func:`check_span`)."""
    build = _EDH.get(method)
    if build is None:
        return [ewh(s, _ewh_bins(method)) for s in streams]
    summaries = build(streams, q, step, fixed_step_size)
    for stream, bounds in zip(streams, summaries):
        check_span(bounds, stream.n_bins)
    return summaries


def check_span(bounds: EdhBoundaries, n_bins: int) -> None:
    """Reject a boundary set that does not end at ``n_bins``: it does not
    span the time window, so no depth read off it can be trusted."""
    if bounds.span != n_bins:
        raise InvalidParamsError(f"boundary set ends at {bounds.span!r}, not at n_bins={n_bins}")


def _sampled_blocks(pixels: Sequence[PixelConfig], sim: SimConfig,
                    seeds: Sequence) -> Iterator[tuple[int, list, list[PhotonStream]]]:
    """Build each pixel's transient and sample its stream, the i-th from
    ``seeds[i]``; yields ``(start, transients, streams)`` for consecutive
    blocks of at most ``_BLOCK`` pixels, ``start`` being the index of the
    block's first pixel."""
    for start in range(0, len(pixels), _BLOCK):
        transients = [build_transient(pixel, sim) for pixel in pixels[start:start + _BLOCK]]
        yield start, transients, [sample_stream(t, sim.n_cycles, seed)
                                  for t, seed in zip(transients, seeds[start:start + _BLOCK])]


def scene_summaries(scene: Scene, sim: SimConfig, method: str, q: int, step: StepParams,
                    fixed_step_size: float, seeds: Sequence) -> Iterator[tuple[int, int, object]]:
    """Sample every scene pixel (the i-th, row-major, from ``seeds[i]``) and
    yield ``(row, col, summary)`` of ``method`` for each, in that order,
    stepping the pixels in blocks (see :func:`summarize_block`)."""
    cells = list(scene.iter_pixels())
    for start, _transients, streams in _sampled_blocks([p for _r, _c, p in cells], sim, seeds):
        summaries = summarize_block(streams, method, q, step, fixed_step_size)
        for (r, c, _pixel), summary in zip(cells[start:], summaries):
            yield r, c, summary


def estimate_bins(estimator: str, summary) -> float:
    """Time-of-flight position, in bins, that ``estimator`` reads off a
    summary made by :func:`summarize_block`."""
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
        check_fixed_step_size(self.fixed_step_size)
        check_metric_limits(self.inlier_thresholds, self.sim.z_max)
        if not self.pairs:
            raise InvalidParamsError("need at least one (phi_sig, phi_bkg) pair")
        if self.step.decay_freeze_cycle > self.sim.n_cycles:
            raise InvalidParamsError(
                f"decay_freeze_cycle={self.step.decay_freeze_cycle} exceeds n_cycles="
                f"{self.sim.n_cycles}; set step.decay_freeze_cycle to at most that"
            )
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))


def _experiment_pixels(cfg: ExperimentConfig, pair_idx: int, mc: int) -> tuple[list, list, list]:
    """The scene of run ``mc`` of pair ``pair_idx``, row-major: the
    (row, col) cells, their pixels and their stream seeds."""
    phi_sig, phi_bkg = cfg.pairs[pair_idx]
    depths = cfg.scene.depth_map.depths.astype(np.float64)
    n = cfg.scene.height * cfg.scene.width
    cells = [divmod(i, cfg.scene.width) for i in range(n)]
    return (cells, [PixelConfig(float(depths[rc]), phi_sig, phi_bkg) for rc in cells],
            [derive_seed(cfg.global_seed, _CTX_EXPERIMENT, pair_idx, mc, i) for i in range(n)])


@dataclass
class ExperimentResult:
    summary_rows: list
    run_rows: list
    failures: list
    summary_path: Optional[Path] = None
    runs_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full (pair x run x pixel x method x estimator) grid.

    Each (pair, run) samples its pixels in blocks (:func:`_sampled_blocks`)
    and runs every method over each block (:func:`summarize_block`); run
    rows come pixel-major, then in :func:`conditions` order. A method that
    raises stops for the rest of its pair: its conditions get error rows and
    its run rows of that pair are dropped, while the other methods keep
    theirs (``boundary_rmse_bins`` stays blank if the oracle failed); a
    boundary set that does not end at ``n_bins`` is such a raise. A pair
    whose streams cannot be sampled fails every condition. Each condition's
    distance metrics come from its kept run rows. Callers should treat a
    non-empty ``failures`` list as a nonzero exit.
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
            for mc in range(cfg.n_monte_carlo):
                cells, pixels, seeds = _experiment_pixels(cfg, pair_idx, mc)
                for start, _transients, streams in _sampled_blocks(pixels, cfg.sim, seeds):
                    # every method reads the identical streams; one that
                    # raises, in its summary or an estimate, joins ``errors``
                    done = {}
                    for m in (m for m in methods if m not in errors):
                        try:
                            summaries = summarize_block(streams, m, cfg.q, cfg.step,
                                                        cfg.fixed_step_size)
                            done[m] = summaries, {
                                e: [bin_to_distance(estimate_bins(e, s), cfg.sim) for s in summaries]
                                for mm, e in conds if mm == m}
                        except EdhsimError as exc:
                            errors[m] = exc
                    for i, stream in enumerate(streams):
                        (r, c), pixel = cells[start + i], pixels[start + i]
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
                                "z_est_m": done[m][1][e][i],
                                "stream_checksum": checksum,
                            })
                        if _ORACLE in done:
                            for m, acc in bnd_acc.items():
                                if m in done:
                                    acc.append(boundary_rmse(done[m][0][i], done[_ORACLE][0][i]))
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
        _write_csv(summary_path, summary_rows, _summary_fields(cfg))
        _write_csv(runs_path, run_rows, _RUN_FIELDS)
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
        row[f"inlier_{p:g}_pct"] = report.inlier_pct[float(p)]
    return row


def _summary_fields(cfg: ExperimentConfig) -> list[str]:
    fields = [
        "schema_version", "scene", "phi_sig", "phi_bkg", "method", "estimator",
        "n_runs", "n_samples", "rmse_cm", "mae_cm",
    ]
    fields += [f"inlier_{p:g}_pct" for p in cfg.inlier_thresholds]
    fields += ["boundary_rmse_bins", "status", "message"]
    return fields


_RUN_FIELDS = [
    "schema_version", "scene", "phi_sig", "phi_bkg", "mc_index", "pixel_row",
    "pixel_col", "method", "estimator", "z_true_m", "z_est_m", "stream_checksum",
]


def _write_csv(path: Path, rows: list, fieldnames: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# median-tracking comparison (fixed vs optimized stepping)


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
    ``bkg_levels`` or ``distances`` raise :class:`InvalidParamsError`.
    """
    if len(bkg_levels) == 0 or len(distances) == 0:
        raise InvalidParamsError("need at least one background level and one distance")
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
        fields = ["schema_version", "strategy"] + [f"bkg_{b:g}" for b in bkg_levels]
        rows = []
        for strat in ("fixed", "optimized"):
            row = {"schema_version": SCHEMA_VERSION, "strategy": strat}
            row.update({f"bkg_{b:g}": table[(strat, b)] for b in bkg_levels})
            rows.append(row)
        _write_csv(Path(out_path), rows, fields)
    return table


# ---------------------------------------------------------------------------
# hyperparameter sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Vary one stepping parameter over a value list, others held fixed."""

    param: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.param not in SWEEPABLE_PARAMS:
            raise SweepValueError(f"param must be one of {SWEEPABLE_PARAMS}, got {self.param!r}")
        if not self.values:
            raise SweepValueError("need at least one sweep value")


def sweep(spec: SweepSpec, cfg: ExperimentConfig, out_path: Optional[Path] = None) -> list:
    """Average boundary and distance error of the parallel histogrammer
    across the sweep values.

    Every sweep value sees the identical streams (seeds are derived exactly
    as in :func:`run_experiment`), so value-to-value differences are not
    sampling noise. Each block of pixels is stepped once: the pixels are the
    stream axis and the values the variant axis of one binner bank
    (:func:`pedh_variants`). Boundary RMSE is
    measured against the population quantiles of each transient; distance
    RMSE uses the narrowest-bin estimator against the scene truth. A
    boundary set that does not end at ``n_bins`` raises
    (:func:`check_span`).
    """
    step_variants = []
    for v in spec.values:
        try:
            step_variants.append(replace(cfg.step, **{spec.param: v}))
        except InvalidParamsError as exc:
            raise SweepValueError(f"{spec.param}={v}: {exc}") from None

    targets = np.arange(1, cfg.q, dtype=np.float64) / cfg.q

    est_acc = {v: [] for v in spec.values}
    truth = []
    bnd_sq = {v: [] for v in spec.values}
    for pair_idx in range(len(cfg.pairs)):
        for mc in range(cfg.n_monte_carlo):
            _cells, pixels, seeds = _experiment_pixels(cfg, pair_idx, mc)
            for start, transients, streams in _sampled_blocks(pixels, cfg.sim, seeds):
                per_stream = pedh_variants(streams, cfg.q, step_variants)
                for pixel, transient, results in zip(pixels[start:], transients, per_stream):
                    true_bounds = true_quantiles(transient, targets)
                    truth.append(pixel.z)
                    for value, bounds in zip(spec.values, results):
                        check_span(bounds, cfg.sim.n_bins)
                        est_acc[value].append(bin_to_distance(t0_hat(bounds), cfg.sim))
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
        _write_csv(
            Path(out_path), rows,
            ["schema_version", "param", "value", "n_runs", "boundary_rmse_bins", "distance_rmse_cm"],
        )
    return rows


# ---------------------------------------------------------------------------
# channelled binary container (density features, boundary grids)


def write_channel_grid(path, grid: np.ndarray) -> None:
    """Write an (h, w, channels) float32 grid: 16-byte header then payload.

    Header: magic ``EDHF``, u32 width, u32 height, u32 channels, all
    little-endian; payload is little-endian float32, pixel-major
    (row-major over pixels, channels contiguous per pixel).
    """
    arr = np.asarray(grid, dtype=np.float32)
    if arr.ndim != 3:
        raise InvalidParamsError("channel grid must be (height, width, channels)")
    h, w, c = arr.shape
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, w, h, c)
    Path(path).write_bytes(header + arr.astype("<f4").tobytes(order="C"))


def read_channel_grid(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _FEATURE_HEADER.size:
        raise ParseError(f"{path}: truncated header")
    magic, w, h, c = _FEATURE_HEADER.unpack_from(blob)
    if magic != FEATURE_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    expected = _FEATURE_HEADER.size + 4 * w * h * c
    if len(blob) != expected:
        raise ParseError(f"{path}: expected {expected} bytes, got {len(blob)}")
    return np.frombuffer(blob, dtype="<f4", offset=_FEATURE_HEADER.size).reshape(h, w, c)


def export_density_features(
    scene: Scene,
    sim: SimConfig,
    step: StepParams,
    q: int,
    path,
    global_seed: int = 0,
) -> Path:
    """Write per-pixel interpolated photon densities as a 1024-channel grid.

    Runs the parallel histogrammer on each pixel (using the scene's own
    photon levels, pixels stepped in blocks by :func:`scene_summaries`) and
    stores the interpolated density as float32 channels, plus a sidecar
    ``<path>.truth.csv`` with the ground-truth depths.
    """
    arr = np.empty((scene.height, scene.width, RHO1_GRID_SIZE), dtype=np.float32)
    seeds = [derive_seed(global_seed, _CTX_FEATURES, i) for i in range(scene.height * scene.width)]
    for r, c, bounds in scene_summaries(scene, sim, "pedh", q, step, 1.0, seeds):
        arr[r, c, :] = rho1(bounds).values
    path = Path(path)
    write_channel_grid(path, arr)
    save_depth_map(scene.depth_map, Path(str(path) + ".truth.csv"), "csv")
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
    _write_csv(Path(path), rows, fields)


def read_boundaries_csv(path) -> np.ndarray:
    """Read a boundary grid written by :func:`write_boundaries_csv`; every
    pixel must have exactly one row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        t_cols = sorted(
            (f for f in reader.fieldnames or [] if f.startswith("t_")),
            key=lambda s: int(s[2:]),
        )
        if not t_cols:
            raise ParseError(f"{path}: no boundary columns found")
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
    h = max(e[0] for e in entries) + 1
    w = max(e[1] for e in entries) + 1
    arr = np.empty((h, w, len(t_cols)))
    filled = np.zeros((h, w), dtype=bool)
    for r, c, vals in entries:
        if r < 0 or c < 0:
            raise ParseError(f"{path}: bad row: negative pixel index ({r}, {c})")
        if filled[r, c]:
            raise ParseError(f"{path}: pixel ({r}, {c}) has more than one row")
        if not np.all(np.isfinite(vals)):
            raise ParseError(f"{path}: the row of pixel ({r}, {c}) holds a non-finite value")
        arr[r, c, :] = vals
        filled[r, c] = True
    if not filled.all():
        r, c = np.argwhere(~filled)[0].tolist()
        raise ParseError(f"{path}: boundary grid has missing pixels, the first ({r}, {c})")
    return arr
