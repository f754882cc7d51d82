"""Per-pixel transient model and photon-timestamp stream sampling.

The sensor model: a pulsed laser with repetition period ``rep_period`` emits a
Gaussian pulse; a co-located single-photon detector records photon arrival
times relative to the cycle start. Discretizing one period into ``n_bins``
intervals gives the transient distribution: the mean photon count per bin per
cycle, a Gaussian signal peak (centered at the round-trip time of flight)
sitting on a flat background floor.

Photon detections are Poisson: each cycle draws an independent realization
from the transient. Timestamps are kept as continuous bin positions in
``[0, n_bins)`` (integer bin plus sub-bin offset) so that downstream
comparisons against fractional control values never tie.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import kernel
from .errors import (DistanceExceedsRangeError, InvalidParamsError, check_int, check_real, check_type,
                     frozen_array, real_array)

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

SPEED_OF_LIGHT = 2.998e8  # m/s


@dataclass(frozen=True)
class SimConfig:
    """Global sensor constants.

    Attributes:
        n_bins: time bins per laser period (resolution of the transient).
        rep_period: laser repetition period in seconds.
        fwhm: laser pulse full width at half maximum in seconds.
        n_cycles: laser cycles per exposure.
        c: speed of light in m/s.
    """

    n_bins: int = 1024
    rep_period: float = 100e-9
    fwhm: float = 0.32e-9
    n_cycles: int = 5000
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        check_int("n_bins", self.n_bins, 2)
        check_int("n_cycles", self.n_cycles, 1)
        check_real("rep_period", self.rep_period, 0)
        check_real("fwhm", self.fwhm, 0, self.rep_period)
        check_real("c", self.c, 0)
        if not float(self.c) * float(self.rep_period) < math.inf:  # no numpy overflow warning
            raise InvalidParamsError(f"c * rep_period must be finite, got c={self.c!r}, "
                                     f"rep_period={self.rep_period!r}")

    @property
    def dt(self) -> float:
        """Width of one time bin in seconds."""
        return self.rep_period / self.n_bins

    @property
    def z_max(self) -> float:
        """Unambiguous distance range in meters (c * rep_period / 2)."""
        return self.c * self.rep_period / 2.0

    @property
    def pulse_sigma(self) -> float:
        """Gaussian pulse standard deviation in seconds."""
        return self.fwhm * _FWHM_TO_SIGMA


DEFAULT_Z_MAX = SimConfig().z_max


def check_levels(phi_sig, phi_bkg) -> None:
    """Reject levels that are not finite real numbers >= 0, or both zero."""
    check_real("phi_sig", phi_sig, 0, ends="[)")
    check_real("phi_bkg", phi_bkg, 0, ends="[)")
    if phi_sig == 0.0 and phi_bkg == 0.0:
        raise InvalidParamsError("phi_sig and phi_bkg cannot both be zero")


@dataclass(frozen=True)
class PixelConfig:
    """Per-pixel truth: distance plus mean photon totals per laser cycle.

    ``phi_sig`` and ``phi_bkg`` are per-cycle totals; the per-bin background
    level is ``phi_bkg / n_bins``.
    """

    z: float
    phi_sig: float
    phi_bkg: float

    def __post_init__(self):
        check_real("pixel distance z", self.z, 0)
        check_levels(self.phi_sig, self.phi_bkg)


@dataclass(frozen=True)
class Transient:
    """Mean photon counts per bin per laser cycle for one pixel."""

    values: np.ndarray
    config: SimConfig

    def __post_init__(self):
        vals = frozen_array(self, "values", np.float64)
        if vals.shape != (self.config.n_bins,):
            raise InvalidParamsError(
                f"transient must have shape ({self.config.n_bins},), got {vals.shape}"
            )
        if not np.all((0.0 <= vals) & (vals < np.inf)):
            raise InvalidParamsError("transient values must be finite and >= 0")


def build_transient(pixel: PixelConfig, cfg: SimConfig) -> Transient:
    """Build the per-bin mean photon counts for a pixel.

    Bin k receives ``phi_sig * integral of the unit-mass Gaussian over bin k``
    plus ``phi_bkg / n_bins``. The Gaussian is centered at the round-trip time
    of flight 2z/c; pulse mass falling outside the period is dropped, not
    wrapped.

    The Gaussian's CDF at each bin edge comes from the compiled kernel
    (``edh_ndtr``), bit for bit the value ``scipy.special.ndtr`` gives.

    Raises:
        DistanceExceedsRangeError: if 2z/c >= rep_period.
        InvalidParamsError: unless ``pixel`` is a :class:`PixelConfig` and
            ``cfg`` a :class:`SimConfig`.
        KernelBuildError: if the kernel is not built yet and cannot be.
    """
    check_type("pixel of build_transient", pixel, PixelConfig)
    check_type("config of build_transient", cfg, SimConfig)
    t_peak = 2.0 * pixel.z / cfg.c
    if t_peak >= cfg.rep_period:
        raise DistanceExceedsRangeError(
            f"round-trip time {t_peak:.3e} s >= period {cfg.rep_period:.3e} s "
            f"(z={pixel.z} m, z_max={cfg.z_max} m)"
        )
    edges = np.arange(cfg.n_bins + 1, dtype=np.float64) * cfg.dt
    pulse_cdf = (edges - t_peak) / cfg.pulse_sigma  # the CDF's arguments, replaced in place
    kernel.library().edh_ndtr(pulse_cdf, pulse_cdf.size, pulse_cdf)
    values = pixel.phi_sig * np.diff(pulse_cdf) + pixel.phi_bkg / cfg.n_bins
    return Transient(values, cfg)


def true_quantiles(transient: Transient, fracs: Sequence[float]) -> np.ndarray:
    """Population quantiles of the arrival-time distribution, in bin positions.

    The sampled arrival-time density is piecewise constant (uniform within
    each bin, proportional to the transient), so its CDF is piecewise linear
    with knots at integer bin edges; quantiles follow by exact inversion.
    """
    fr = real_array("quantile fractions", fracs)
    if not np.all((0.0 < fr) & (fr < 1.0)):
        raise InvalidParamsError("quantile fractions must lie in (0, 1)")
    cum = np.concatenate(([0.0], np.cumsum(transient.values)))
    total = cum[-1]
    if total <= 0.0:
        raise InvalidParamsError("transient has zero total flux")
    targets = fr * total
    idx = np.searchsorted(cum, targets, side="left")
    idx = np.clip(idx, 1, transient.config.n_bins)
    lo, hi = cum[idx - 1], cum[idx]
    width = hi - lo
    frac_in_bin = np.where(width > 0.0, (targets - lo) / np.where(width > 0.0, width, 1.0), 0.0)
    return (idx - 1) + frac_in_bin


@dataclass(frozen=True)
class PhotonStream:
    """Timestamps from an exposure of ``n_cycles`` laser cycles.

    ``timestamps`` is cycle-major and sorted ascending within each cycle;
    ``cycle_offsets[i]:cycle_offsets[i+1]`` slices out cycle ``i``. Positions
    are continuous in ``[0, n_bins)``.
    """

    timestamps: np.ndarray
    cycle_offsets: np.ndarray
    n_bins: int

    def __post_init__(self):
        check_int("n_bins", self.n_bins, 1)
        ts = frozen_array(self, "timestamps", np.float64)
        off = frozen_array(self, "cycle_offsets", np.int64)
        if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != ts.size:
            raise InvalidParamsError("cycle_offsets must run from 0 to len(timestamps)")
        if np.any(np.diff(off) < 0):
            raise InvalidParamsError("cycle_offsets must be non-decreasing")
        if ts.size:
            if not (ts.min() >= 0.0 and ts.max() < self.n_bins):  # also rejects NaN
                raise InvalidParamsError("timestamps must lie in [0, n_bins)")
            drops = np.diff(ts) < 0.0  # drops[i]: ts[i + 1] < ts[i]
            drops[off[(0 < off) & (off < ts.size)] - 1] = False  # allowed into a new cycle
            if drops.any():
                raise InvalidParamsError("timestamps must be sorted within each cycle")

    @classmethod
    def from_cycles(cls, cycles: Sequence[np.ndarray], n_bins: int) -> "PhotonStream":
        arrays = [real_array("each cycle", c) for c in cycles]
        flat = np.concatenate(arrays) if arrays else np.empty(0)
        offsets = np.concatenate(([0], np.cumsum([a.size for a in arrays], dtype=np.int64)))
        return cls(flat, offsets, n_bins)

    @property
    def n_cycles(self) -> int:
        return self.cycle_offsets.size - 1

    @property
    def total_photons(self) -> int:
        return int(self.timestamps.size)

    def cycle(self, i: int) -> np.ndarray:
        s, e = self.cycle_offsets[i], self.cycle_offsets[i + 1]
        return self.timestamps[s:e]

    def cycles(self) -> Iterator[np.ndarray]:
        for i in range(self.n_cycles):
            yield self.cycle(i)

    def pooled(self) -> np.ndarray:
        """All timestamps pooled across cycles, sorted ascending."""
        return np.sort(self.timestamps)

    def checksum(self) -> str:
        """Content hash; equal streams hash equal (used to assert pairing)."""
        h = hashlib.sha256()
        h.update(np.int64(self.n_bins).tobytes())
        h.update(self.cycle_offsets.tobytes())
        h.update(self.timestamps.tobytes())
        return h.hexdigest()


def sample_stream(transient: Transient, n_cycles: int, seed) -> PhotonStream:
    """Sample an exposure of ``n_cycles`` independent laser cycles.

    Each cycle's photon count is Poisson with the transient's total mean;
    each photon independently picks bin k with probability ``values[k] /
    total`` and lands at ``k + u``, u uniform in [0, 1). A zero-flux
    transient gives ``n_cycles`` empty cycles. Identical ``(transient,
    n_cycles, seed)`` always reproduces the identical stream.

    Draw order, from one PCG64 seeded with ``seed``: all ``n_cycles`` counts,
    then one bin uniform per photon (inverse CDF over the running sum of
    ``values``), then one jitter uniform per photon, photons numbered cycle
    by cycle. The compiled kernel (``edh_place_photons``) then places each
    photon exactly: its bin is a right-sided search of the draw times
    ``total`` over the knots, held to ``n_bins - 1``; its position, bin plus
    jitter, is held below ``n_bins`` and inserted into its cycle's ascending
    run. Tied positions are equal floats, so the stream matches a
    (cycle, position) lexicographic sort byte for byte.

    Raises:
        InvalidParamsError: unless ``transient`` is a :class:`Transient`.
        KernelBuildError: if the kernel is not built yet and cannot be.
    """
    check_type("transient of sample_stream", transient, Transient)
    n_cycles = check_int("n_cycles", n_cycles, 1)
    cfg = transient.config
    rng = np.random.default_rng(seed)
    cum = np.cumsum(transient.values)
    total = cum[-1]
    counts = rng.poisson(total, size=n_cycles) if total > 0.0 else np.zeros(n_cycles, np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    ub = rng.random(offsets[-1])
    uj = rng.random(offsets[-1])
    positions = np.empty(offsets[-1], dtype=np.float64)
    kernel.library().edh_place_photons(cum, cfg.n_bins, offsets, n_cycles, ub, uj,
                                       np.empty(cfg.n_bins, np.int64), positions)
    return PhotonStream(positions, offsets, cfg.n_bins)
