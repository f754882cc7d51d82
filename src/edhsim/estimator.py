"""Distance estimation from boundary sets and histograms.

Equi-depth bin widths are inversely proportional to the local photon arrival
density, so their reciprocals estimate the transient up to scale. Two
density readings and three time-of-flight estimators:

* :func:`rho0` / :func:`t0_hat`  - piecewise-constant density; time of
  flight = midpoint of the narrowest bin.
* :func:`rho1` / :func:`t1_hat`  - the (midpoint, reciprocal width) knots
  linearly interpolated onto a fixed 1024-point grid; time of flight =
  grid argmax.
* :func:`ewh_peak`               - center of the fullest equi-width bin.

Estimators return time positions in bin units; :func:`bin_to_distance`
applies the single z = c*t/2 conversion. All ties break toward the smallest
index so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, check_real, frozen_array
from .histogrammer import EdhBoundaries, EwHistogram
from .transient import SPEED_OF_LIGHT, SimConfig

RHO1_GRID_SIZE = 1024


@dataclass(frozen=True)
class PiecewiseDensity:
    """Piecewise-constant density: values[j] on [edges[j], edges[j+1])."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = frozen_array(self, "edges", np.float64)
        v = frozen_array(self, "values", np.float64)
        if e.size != v.size + 1 or v.size == 0:
            raise InvalidParamsError("need len(edges) == len(values) + 1 >= 2")


@dataclass(frozen=True)
class DensityEstimate:
    """Interpolated photon density sampled on the fixed 1024-point grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = frozen_array(self, "grid", np.float64)
        v = frozen_array(self, "values", np.float64)
        if g.shape != (RHO1_GRID_SIZE,) or v.shape != (RHO1_GRID_SIZE,):
            raise InvalidParamsError(f"grid and values must have length {RHO1_GRID_SIZE}")
        if not np.all((0.0 <= v) & (v < np.inf)):
            raise InvalidParamsError("density values must be finite and >= 0")


def _merged_edges(bounds: EdhBoundaries) -> np.ndarray:
    # Coincident boundaries signal crossed/stuck CVs, not infinite density:
    # zero-width bins are merged into their neighbor before any reciprocal.
    edges = bounds.bounds
    keep = np.concatenate(([True], np.diff(edges) > 0.0))
    return edges[keep]


def rho0(bounds: EdhBoundaries) -> PiecewiseDensity:
    """Piecewise-constant local photon density: 1 / bin width per bin."""
    edges = _merged_edges(bounds)
    return PiecewiseDensity(edges, 1.0 / np.diff(edges))


def t0_hat(bounds: EdhBoundaries) -> float:
    """Time of flight as the midpoint of the narrowest equi-depth bin."""
    density = rho0(bounds)
    j = int(np.argmax(density.values))  # first max = smallest index on ties
    return float((density.edges[j] + density.edges[j + 1]) / 2.0)


def rho1(bounds: EdhBoundaries) -> DensityEstimate:
    """Linearly interpolated photon density on the fixed 1024-point grid.

    Knot ordinates are the reciprocal bin widths; knot abscissae are the bin
    midpoints. The density is held constant beyond the outermost knots.
    """
    density = rho0(bounds)
    xs = (density.edges[:-1] + density.edges[1:]) / 2.0
    grid = np.arange(RHO1_GRID_SIZE, dtype=np.float64) * (bounds.span / RHO1_GRID_SIZE)
    return DensityEstimate(grid, np.interp(grid, xs, density.values))


def t1_hat(density: DensityEstimate) -> float:
    """Time of flight as the grid position of the density maximum."""
    return float(density.grid[int(np.argmax(density.values))])


def ewh_peak(hist: EwHistogram) -> float:
    """Time of flight as the center of the fullest equi-width bin."""
    i = int(np.argmax(hist.counts))
    return (i + 0.5) * hist.bin_width


def bin_to_distance(t: float, cfg: SimConfig) -> float:
    """Convert a time-bin position to scene distance: z = c * (t * dt) / 2.

    Raises:
        InvalidParamsError: unless t is a real number in [0, n_bins].
    """
    check_real("bin position", t, 0, cfg.n_bins, "[]")
    return SPEED_OF_LIGHT * (t * cfg.dt) / 2.0
