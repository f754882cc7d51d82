"""Evaluation metrics for distance maps and boundary sets.

Distance metrics are reported in centimeters. The p% inlier metric counts
pixels whose absolute error stays under a threshold; by default the
threshold is p% of the full unambiguous range (``inlier_mode="range"``), the
alternative ``"relative"`` mode uses p% of each pixel's true depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidParamsError, QuantileMismatchError, ShapeMismatchError
from .estimator import DistanceMap
from .histogrammer import EdhBoundaries
from .scene import DepthMap
from .transient import SimConfig

DEFAULT_Z_MAX = SimConfig().z_max

GridLike = Union[DistanceMap, DepthMap, np.ndarray]


@dataclass(frozen=True)
class MetricsReport:
    """Distance-accuracy numbers for one condition."""

    rmse_cm: float
    mae_cm: float
    inlier_pct: dict[float, float]
    n_pixels: int

    def format_table(self) -> str:
        lines = [
            f"{'pixels':>22}: {self.n_pixels}",
            f"{'RMSE (cm)':>22}: {self.rmse_cm:.4f}",
            f"{'MAE (cm)':>22}: {self.mae_cm:.4f}",
        ]
        for p in sorted(self.inlier_pct):
            lines.append(f"{f'{p:g}% inliers (%)':>22}: {self.inlier_pct[p]:.2f}")
        return "\n".join(lines)


def _as_grid(x: GridLike) -> np.ndarray:
    if isinstance(x, DistanceMap):
        return x.depths
    if isinstance(x, DepthMap):
        return x.depths
    return np.asarray(x)


def check_metric_limits(thresholds: Sequence[float], z_max: float) -> None:
    """Reject a ``z_max`` that is not finite and > 0, or an inlier threshold
    (a percentage) that is not finite and >= 0."""
    if not 0.0 < z_max < math.inf:
        raise InvalidParamsError(f"z_max must be finite and > 0, got {z_max!r}")
    for p in thresholds:
        if not 0.0 <= p < math.inf:
            raise InvalidParamsError(f"inlier thresholds must be finite and >= 0, got {p!r}")


def distance_metrics(
    est: GridLike,
    truth: GridLike,
    thresholds: Sequence[float] = (2.0, 10.0),
    z_max: float = DEFAULT_Z_MAX,
    inlier_mode: str = "range",
) -> MetricsReport:
    """RMSE, MAE and p% inlier percentages between estimate and truth.

    Raises:
        ShapeMismatchError: if the two grids differ in shape.
        InvalidParamsError: if :func:`check_metric_limits` rejects the limits.
    """
    est_arr = np.asarray(_as_grid(est), dtype=np.float64)
    truth_arr = np.asarray(_as_grid(truth), dtype=np.float64)
    if est_arr.shape != truth_arr.shape:
        raise ShapeMismatchError(f"estimate {est_arr.shape} vs truth {truth_arr.shape}")
    if inlier_mode not in ("range", "relative"):
        raise InvalidParamsError(f"inlier_mode must be 'range' or 'relative', got {inlier_mode!r}")
    check_metric_limits(thresholds, z_max)

    err_cm = (est_arr - truth_arr).ravel() * 100.0
    abs_err = np.abs(err_cm)
    rmse = float(np.sqrt(np.mean(err_cm**2)))
    mae = float(np.mean(abs_err))
    inliers = {}
    for p in thresholds:
        if inlier_mode == "range":
            thr_cm = (p / 100.0) * z_max * 100.0
            inliers[float(p)] = float(100.0 * np.mean(abs_err <= thr_cm))
        else:
            thr_cm = (p / 100.0) * truth_arr.ravel() * 100.0
            inliers[float(p)] = float(100.0 * np.mean(abs_err <= thr_cm))
    return MetricsReport(rmse, mae, inliers, n_pixels=est_arr.size)


def boundary_rmse(est: EdhBoundaries, oracle: EdhBoundaries) -> float:
    """Root-mean-square error over interior boundaries, in bins.

    Raises:
        QuantileMismatchError: if the two sets track different q.
    """
    if est.q != oracle.q:
        raise QuantileMismatchError(f"q mismatch: {est.q} vs {oracle.q}")
    diff = est.interior - oracle.interior
    if diff.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(diff**2)))
