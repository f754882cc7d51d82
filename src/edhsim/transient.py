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
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import (
    DistanceExceedsRangeError,
    InvalidParamsError,
    ZeroBackgroundError,
    check_int,
)

if TYPE_CHECKING:
    from .scene import PixelConfig

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
        if not 0.0 < self.rep_period < math.inf:
            raise InvalidParamsError(f"rep_period must be finite and > 0, got {self.rep_period!r}")
        if not 0.0 < self.fwhm < self.rep_period:
            raise InvalidParamsError("fwhm must lie in (0, rep_period)")
        if not 0.0 < self.c < math.inf:
            raise InvalidParamsError(f"c must be finite and > 0, got {self.c!r}")

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


@dataclass(frozen=True)
class Transient:
    """Mean photon counts per bin per laser cycle for one pixel."""

    values: np.ndarray
    config: SimConfig

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.shape != (self.config.n_bins,):
            raise InvalidParamsError(
                f"transient must have shape ({self.config.n_bins},), got {vals.shape}"
            )
        if not np.all((0.0 <= vals) & (vals < np.inf)):
            raise InvalidParamsError("transient values must be finite and >= 0")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def total(self) -> float:
        """Mean photons per cycle (signal inside the period plus background)."""
        return float(self.values.sum())


def build_transient(pixel: "PixelConfig", cfg: SimConfig) -> Transient:
    """Build the per-bin mean photon counts for a pixel.

    Bin k receives ``phi_sig * integral of the unit-mass Gaussian over bin k``
    plus ``phi_bkg / n_bins``. The Gaussian is centered at the round-trip time
    of flight 2z/c; pulse mass falling outside the period is dropped, not
    wrapped.

    Raises:
        DistanceExceedsRangeError: if 2z/c >= rep_period.
    """
    t_peak = 2.0 * pixel.z / cfg.c
    if t_peak >= cfg.rep_period:
        raise DistanceExceedsRangeError(
            f"round-trip time {t_peak:.3e} s >= period {cfg.rep_period:.3e} s "
            f"(z={pixel.z} m, z_max={cfg.z_max} m)"
        )
    edges = np.arange(cfg.n_bins + 1, dtype=np.float64) * cfg.dt
    pulse_cdf = ndtr((edges - t_peak) / cfg.pulse_sigma)
    values = pixel.phi_sig * np.diff(pulse_cdf) + pixel.phi_bkg / cfg.n_bins
    return Transient(values, cfg)


def sbr(pixel: "PixelConfig") -> float:
    """Signal-to-background ratio: total signal over total background per cycle.

    Raises:
        ZeroBackgroundError: if the pixel has no background flux.
    """
    if pixel.phi_bkg <= 0.0:
        raise ZeroBackgroundError("SBR undefined for phi_bkg == 0")
    return pixel.phi_sig / pixel.phi_bkg


def true_quantiles(transient: Transient, fracs: Sequence[float]) -> np.ndarray:
    """Population quantiles of the arrival-time distribution, in bin positions.

    The sampled arrival-time density is piecewise constant (uniform within
    each bin, proportional to the transient), so its CDF is piecewise linear
    with knots at integer bin edges; quantiles follow by exact inversion.
    """
    fr = np.asarray(fracs, dtype=np.float64)
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
    seed: object = None

    def __post_init__(self):
        check_int("n_bins", self.n_bins, 1)
        ts = np.ascontiguousarray(np.asarray(self.timestamps, dtype=np.float64))
        off = np.ascontiguousarray(np.asarray(self.cycle_offsets, dtype=np.int64))
        if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != ts.size:
            raise InvalidParamsError("cycle_offsets must run from 0 to len(timestamps)")
        if np.any(np.diff(off) < 0):
            raise InvalidParamsError("cycle_offsets must be non-decreasing")
        if ts.size:
            if not (ts.min() >= 0.0 and ts.max() < self.n_bins):  # also rejects NaN
                raise InvalidParamsError("timestamps must lie in [0, n_bins)")
            dips = np.nonzero(np.diff(ts) < 0.0)[0]
            if dips.size and not np.isin(dips, off[1:-1] - 1).all():
                raise InvalidParamsError("timestamps must be sorted within each cycle")
        ts.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "cycle_offsets", off)

    @classmethod
    def from_cycles(cls, cycles: Sequence[np.ndarray], n_bins: int, seed=None) -> "PhotonStream":
        arrays = [np.asarray(c, dtype=np.float64) for c in cycles]
        flat = np.concatenate(arrays) if arrays else np.empty(0)
        offsets = np.concatenate(([0], np.cumsum([a.size for a in arrays], dtype=np.int64)))
        return cls(flat, offsets, n_bins, seed)

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


class StreamBlock:
    """Streams of one exposure length and bin count, stepped together.

    A :class:`~edhsim.binner.BinnerBank` with a stream axis walks the cycles
    of every stream in the block in one pass; the streams are kept as they
    are (no padding to a common photon count).

    Raises:
        InvalidParamsError: if the block is empty, holds something other
            than :class:`PhotonStream`, or mixes ``n_cycles`` or ``n_bins``.
    """

    def __init__(self, streams: Sequence[PhotonStream]):
        if isinstance(streams, PhotonStream) or not all(isinstance(s, PhotonStream) for s in streams):
            raise InvalidParamsError("a stream block is a sequence of PhotonStream")
        self.streams = tuple(streams)
        if not self.streams:
            raise InvalidParamsError("a stream block needs at least one stream")
        for name in ("n_cycles", "n_bins"):
            values = {getattr(s, name) for s in self.streams}
            if len(values) > 1:
                raise InvalidParamsError(f"streams in a block must share {name}, got {sorted(values)}")

    def __len__(self) -> int:
        return len(self.streams)

    @property
    def n_cycles(self) -> int:
        return self.streams[0].n_cycles

    @property
    def n_bins(self) -> int:
        return self.streams[0].n_bins


def sample_cycle(transient: Transient, rng: np.random.Generator) -> np.ndarray:
    """Sample one laser cycle: per-bin Poisson counts with sub-bin jitter.

    Each bin k draws ``Poisson(values[k])`` photons; every photon lands at
    ``k + u`` with u uniform in [0, 1). Returns sorted positions.
    """
    counts = rng.poisson(transient.values)
    bins = np.repeat(np.arange(transient.config.n_bins), counts)
    positions = bins + rng.random(bins.size)
    np.minimum(positions, np.nextafter(transient.config.n_bins, 0.0), out=positions)
    positions.sort()
    return positions


def sample_stream(transient: Transient, n_cycles: int, seed) -> PhotonStream:
    """Sample an exposure of ``n_cycles`` independent laser cycles.

    Same photon process as :func:`sample_cycle` (the per-cycle photon count is
    Poisson with the transient's total mean, and each photon's bin follows the
    normalized transient, independently, with uniform sub-bin jitter), drawn
    in bulk for speed. Identical ``(transient, n_cycles, seed)`` always
    reproduces the identical stream.
    """
    check_int("n_cycles", n_cycles, 1)
    cfg = transient.config
    rng = np.random.default_rng(seed)
    cum = np.cumsum(transient.values)
    total = cum[-1]
    counts = rng.poisson(total, size=n_cycles) if total > 0.0 else np.zeros(n_cycles, np.int64)
    n_total = int(counts.sum())
    if n_total:
        bins = np.searchsorted(cum, rng.random(n_total) * total, side="right")
        np.minimum(bins, cfg.n_bins - 1, out=bins)
        positions = bins + rng.random(n_total)
        np.minimum(positions, np.nextafter(cfg.n_bins, 0.0), out=positions)
        cycle_ids = np.repeat(np.arange(n_cycles), counts)
        order = np.lexsort((positions, cycle_ids))
        positions = positions[order]
    else:
        positions = np.empty(0, dtype=np.float64)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return PhotonStream(positions, offsets, cfg.n_bins, seed)
