"""Histogram constructors over photon streams.

Four ways of summarizing an exposure:

* :func:`oedh`  - oracle equi-depth boundaries: exact empirical quantiles of
  the pooled timestamps. Needs the full photon history, so it is an accuracy
  reference, not a sensor design.
* :func:`pedh`  - proportional equi-depth boundaries: one optimized binner
  per interior quantile, all running in parallel over the full exposure
  under one step schedule.
* :func:`hedh`  - hierarchical equi-depth boundaries: a binary tree of
  fixed-stepping median binners run level by level, each level consuming its
  share of the cycles and refining within the intervals found so far; one
  kernel call runs every level, each on the fixed-step walk that also runs
  ``run_fixed``.
* :func:`ewh`   - a plain equi-width photon-count histogram, counted in one
  kernel pass.

Equi-depth boundary sets always carry the forced endpoints 0 and n_bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel
from .binner import BinnerBank, StepParams
from .errors import (
    BinCountError,
    EdhsimError,
    EmptyHistogramError,
    InvalidParamsError,
    PowerOfTwoError,
    TooFewPhotonsError,
    check_int,
    check_real,
    check_type,
    frozen_array,
)
from .transient import PhotonStream


@dataclass(frozen=True)
class EdhBoundaries:
    """Sorted equi-depth bin boundaries {t_0 .. t_q} with t_0=0, t_q=n_bins."""

    q: int
    bounds: np.ndarray

    def __post_init__(self):
        b = frozen_array(self, "bounds", np.float64)
        object.__setattr__(self, "q", check_int("q", self.q, 1))
        if b.shape != (self.q + 1,):
            raise InvalidParamsError(f"need q+1={self.q + 1} boundaries, got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise InvalidParamsError("boundaries must be finite")
        if b[0] != 0.0:
            raise InvalidParamsError("boundary set must start at 0")
        if np.any(np.diff(b) < 0.0):
            raise InvalidParamsError("boundaries must be non-decreasing")

    @property
    def interior(self) -> np.ndarray:
        return self.bounds[1:-1]

    @property
    def span(self) -> float:
        """Total covered range (equals n_bins)."""
        return float(self.bounds[-1])


@dataclass(frozen=True)
class EwHistogram:
    """Equi-width photon counts over ``bin_count`` >= 1 bins spanning [0, span]."""

    counts: np.ndarray
    span: float

    def __post_init__(self):
        c = frozen_array(self, "counts", None)
        if c.ndim != 1:
            raise InvalidParamsError("histogram counts must be 1-d")
        if c.size == 0:
            raise EmptyHistogramError("histogram has no bins")
        if not np.all((0 <= c) & (c < np.inf)):
            raise InvalidParamsError("histogram counts must be finite and >= 0")
        check_real("histogram span", self.span, 0)

    @property
    def bin_count(self) -> int:
        return self.counts.size

    @property
    def bin_width(self) -> float:
        return self.span / self.bin_count


def oedh(stream: PhotonStream, q: int) -> EdhBoundaries:
    """Exact empirical quantile boundaries from the pooled timestamps.

    Interior boundary j is the smallest pooled timestamp at which the
    empirical CDF reaches j/q, i.e. the order statistic of rank
    ``ceil(j*N/q)``. Endpoints are forced to 0 and n_bins.

    Raises:
        InvalidParamsError: if ``stream`` is not a :class:`PhotonStream`.
        TooFewPhotonsError: if the stream pooled fewer than q photons.
    """
    q = check_int("q", q, 1)
    check_type("stream of oedh", stream, PhotonStream)
    pooled = stream.pooled()
    n = pooled.size
    if n < q:
        raise TooFewPhotonsError(f"need >= {q} photons for {q} quantiles, stream has {n}")
    j = np.arange(1, q, dtype=np.int64)
    ranks = (j * n + q - 1) // q  # ceil(j*n/q) in integer arithmetic
    interior = pooled[ranks - 1]
    bounds = np.concatenate(([0.0], interior, [float(stream.n_bins)]))
    return EdhBoundaries(q, bounds)


def pedh(stream: PhotonStream, q: int, params: Optional[StepParams] = None) -> EdhBoundaries:
    """Parallel proportional equi-depth boundaries.

    Instantiates q-1 optimized binners with targets j/q under one
    :class:`BinnerBank` (default schedule when ``params`` is None), every one
    consuming every cycle of the stream. Final CVs can cross under noise
    since the binners are independent; the output is sorted to restore a
    valid boundary set.

    Raises:
        InvalidParamsError: if ``stream`` is not a :class:`PhotonStream`.
    """
    q = check_int("q", q, 2)
    check_type("stream of pedh", stream, PhotonStream)
    bank = BinnerBank(np.arange(1, q, dtype=np.float64) / q,
                      StepParams() if params is None else params, stream.n_bins)
    bounds = np.concatenate(([0.0], np.sort(bank.run(stream)), [float(stream.n_bins)]))
    return EdhBoundaries(q, bounds)


def hedh(stream: PhotonStream, q: int, fixed_step_size: float = 1.0) -> EdhBoundaries:
    """Hierarchical equi-depth boundaries from fixed-stepping median binners.

    log2(q) levels run sequentially, splitting the exposure's cycles as
    evenly as possible across levels. Level 1 runs one median binner over the
    full range; level l runs 2**(l-1) median binners, each confined to one
    interval delimited by the boundaries already found (photons outside the
    interval are invisible to that binner) and initialized at the interval
    midpoint. One kernel call, ``edh_hedh``, runs every level, each on the
    fixed-step walk at target 0.5 that :func:`~edhsim.binner.run_fixed`
    runs, and merges each level's CVs into the boundaries found so far.

    Raises:
        PowerOfTwoError: if q is not a power of two.
        InvalidParamsError: if ``stream`` is not a :class:`PhotonStream`, or
            unless ``fixed_step_size`` is finite and > 0.
    """
    q = check_int("q", q, 1)
    if q < 2 or q & (q - 1):
        raise PowerOfTwoError(f"hedh requires a power-of-two q, got {q}")
    check_type("stream of hedh", stream, PhotonStream)
    # an infinite step would turn a balanced or empty cycle into inf*0 = nan
    check_real("fixed_step_size", fixed_step_size, 0)
    n_levels = q.bit_length() - 1
    cuts = np.rint(np.arange(n_levels + 1) / n_levels * stream.n_cycles).astype(np.int64)
    bounds = np.empty(q + 1)
    bounds[0], bounds[-1] = 0.0, stream.n_bins
    if kernel.library().edh_hedh(stream.timestamps, stream.cycle_offsets, cuts, n_levels,
                                 float(stream.n_bins), float(fixed_step_size), np.empty(q // 2),
                                 bounds[1:-1]):
        raise EdhsimError("hedh met a photon in no interval (NaN or >= n_bins)")
    return EdhBoundaries(q, bounds)


def ewh(stream: PhotonStream, bin_count: int) -> EwHistogram:
    """Equi-width photon-count histogram over the pooled stream.

    A photon at t counts in bin ``t // width``, held to ``bin_count - 1``,
    for ``width = n_bins / bin_count``: the floor of the real quotient, as
    numpy's floor-divide gives it, found in one kernel pass
    (``edh_ewh_counts``). The counts are int64.

    Raises:
        InvalidParamsError: if ``stream`` is not a :class:`PhotonStream`.
        BinCountError: unless bin_count is an integer in [1, n_bins].
    """
    check_type("stream of ewh", stream, PhotonStream)
    if check_int("bin_count", bin_count, 1, BinCountError) > stream.n_bins:
        raise BinCountError(f"bin_count must be at most n_bins={stream.n_bins}, got {bin_count}")
    counts = np.zeros(bin_count, np.int64)
    kernel.library().edh_ewh_counts(stream.timestamps, stream.total_photons,
                                    stream.n_bins / bin_count, bin_count, counts)
    return EwHistogram(counts, float(stream.n_bins))
