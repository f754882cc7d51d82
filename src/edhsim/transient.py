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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .errors import InvalidParamsError, check_int, check_real, check_type, frozen_array, real_array

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

SPEED_OF_LIGHT = 2.998e8  # m/s
# the largest rep_period whose c * rep_period, and so z_max, is finite
REP_PERIOD_MAX = sys.float_info.max / SPEED_OF_LIGHT


@dataclass(frozen=True)
class SimConfig:
    """Global sensor constants.

    Attributes:
        n_bins: time bins per laser period (resolution of the transient).
        rep_period: laser repetition period in seconds.
        fwhm: laser pulse full width at half maximum in seconds.
        n_cycles: laser cycles per exposure.
    """

    n_bins: int = 1024
    rep_period: float = 100e-9
    fwhm: float = 0.32e-9
    n_cycles: int = 5000

    def __post_init__(self):
        check_int("n_bins", self.n_bins, 2)
        check_int("n_cycles", self.n_cycles, 1)
        check_real("rep_period", self.rep_period, 0, REP_PERIOD_MAX, "(]")
        check_real("fwhm", self.fwhm, 0, self.rep_period)

    @property
    def dt(self) -> float:
        """Width of one time bin in seconds."""
        return self.rep_period / self.n_bins

    @property
    def z_max(self) -> float:
        """Unambiguous distance range in meters (c * rep_period / 2)."""
        return SPEED_OF_LIGHT * self.rep_period / 2.0

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
        InvalidParamsError: if 2z/c >= rep_period, or unless ``pixel`` is a
            :class:`PixelConfig` and ``cfg`` a :class:`SimConfig`.
        KernelBuildError: if the kernel is not built yet and cannot be.
    """
    check_type("pixel of build_transient", pixel, PixelConfig)
    check_type("config of build_transient", cfg, SimConfig)
    t_peak = 2.0 * pixel.z / SPEED_OF_LIGHT
    if t_peak >= cfg.rep_period:
        raise InvalidParamsError(
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
        """The timestamps of cycle ``i``, an integer in ``[0, n_cycles)``."""
        if check_int("cycle index", i, 0) >= self.n_cycles:
            raise InvalidParamsError(f"cycle index must be < {self.n_cycles}, got {i!r}")
        s, e = self.cycle_offsets[i], self.cycle_offsets[i + 1]
        return self.timestamps[s:e]

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


# The largest Poisson mean numpy's Generator.poisson accepts, its own bound
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _pcg64(seed) -> tuple[np.random.PCG64, bool]:
    """The PCG64 that ``np.random.default_rng(seed)`` would draw from, and
    whether the caller holds it, so that its state must be written back."""
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator
    if isinstance(seed, np.random.BitGenerator):
        check_type("bit generator of sample_stream", seed, np.random.PCG64)
        return seed, True
    try:
        return np.random.PCG64(seed), False
    except (TypeError, ValueError) as e:
        raise InvalidParamsError(f"seed of sample_stream: {e}") from None


def sample_stream(transient: Transient, n_cycles: int, seed) -> PhotonStream:
    """Sample an exposure of ``n_cycles`` independent laser cycles.

    Each cycle's photon count is Poisson with the transient's total mean;
    each photon independently picks bin k with probability ``values[k] /
    total`` and lands at ``k + u``, u uniform in [0, 1). A zero-flux
    transient gives ``n_cycles`` empty cycles. Identical ``(transient,
    n_cycles, seed)`` always reproduces the identical stream.

    ``seed`` is anything ``np.random.default_rng`` takes: a seed, which
    seeds a new PCG64, or a ``Generator`` or ``BitGenerator`` on a PCG64,
    which is drawn from and left where numpy's own draws would leave it.

    Draw order, from that PCG64: all ``n_cycles`` counts, as
    ``Generator.poisson`` draws them, then one bin uniform per photon
    (inverse CDF over the running sum of ``values``), then one jitter
    uniform per photon, as two ``Generator.random`` calls give them, photons
    numbered cycle by cycle. numpy only seeds: the compiled kernel replays
    every draw bit for bit (``edh_poisson_offsets``, then
    ``edh_sample_photons``, which draws each photon's two uniforms from two
    copies of the state, the second jumped ahead past the bin uniforms).
    It places each photon exactly: its bin is a right-sided search of the
    draw times ``total`` over the knots, held to ``n_bins - 1``; its
    position, bin plus jitter, is held below ``n_bins`` and merged into its
    cycle's ascending run. Tied positions are equal floats, so the stream
    matches a (cycle, position) lexicographic sort byte for byte.

    The returned stream holds the kernel's own arrays, made read-only. They
    meet every rule :class:`PhotonStream` checks by construction, so its
    checks are not run on them again; a property test of the sampler runs
    them on its streams.

    Raises:
        InvalidParamsError: unless ``transient`` is a :class:`Transient`; if
            ``seed`` is not a seed numpy takes or a generator on a PCG64; if
            the total mean passes :data:`POISSON_LAM_MAX`, numpy's bound; or
            if the exposure's photon count would overflow int64 or its cycle
            offsets or timestamps would not fit in memory.
        KernelBuildError: if the kernel is not built yet and cannot be.
    """
    check_type("transient of sample_stream", transient, Transient)
    n_cycles = check_int("n_cycles", n_cycles, 1)
    cfg = transient.config
    knots = np.empty(cfg.n_bins + 1)  # the running sum, then the kernel's +inf sentinel
    with np.errstate(over="ignore"):  # a sum past the largest double is refused below
        np.cumsum(transient.values, out=knots[:-1])
    knots[-1] = np.inf
    total = knots[-2]
    if not total <= POISSON_LAM_MAX:
        raise InvalidParamsError(f"total photons per cycle {float(total)!r} exceeds numpy's "
                                 f"Poisson bound {POISSON_LAM_MAX!r}")
    bitgen, held = _pcg64(seed)
    lib = kernel.library()
    with bitgen.lock:  # held, as numpy holds it for its own draws
        pcg = bitgen.state  # the kernel takes the 128-bit state and increment as high, low words
        words = np.array([*divmod(pcg["state"]["state"], 2**64),
                          *divmod(pcg["state"]["inc"], 2**64)], np.uint64)
        try:
            offsets = np.empty(n_cycles + 1, np.int64)
        except (MemoryError, ValueError):  # ValueError: past numpy's largest array
            raise InvalidParamsError(f"the {n_cycles + 1} cycle offsets of {n_cycles} cycles do "
                                     f"not fit in memory") from None
        if lib.edh_poisson_offsets(total, n_cycles, words, offsets):
            raise InvalidParamsError(f"the photon count of {n_cycles} cycles at {float(total)!r} "
                                     f"photons per cycle overflows int64")
        try:
            positions = np.empty(offsets[-1], dtype=np.float64)
        except MemoryError:
            raise InvalidParamsError(f"the {offsets[-1]} photons of {n_cycles} cycles at "
                                     f"{float(total)!r} photons per cycle do not fit in memory"
                                     ) from None
        lib.edh_sample_photons(knots, cfg.n_bins, offsets, n_cycles, words,
                               np.empty(cfg.n_bins, np.int64), positions)
        if held:
            pcg["state"]["state"] = int(words[0]) << 64 | int(words[1])
            bitgen.state = pcg
    # The kernel's arrays meet every rule PhotonStream.__post_init__ checks,
    # so they are frozen as it would freeze them, not checked again.
    positions.setflags(write=False)
    offsets.setflags(write=False)
    stream = object.__new__(PhotonStream)
    stream.__dict__.update(timestamps=positions, cycle_offsets=offsets, n_bins=cfg.n_bins)
    return stream
