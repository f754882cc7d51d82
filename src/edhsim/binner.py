"""Fixed-memory online quantile trackers ("binners").

A binner holds a single control value (CV): its running estimate of the time
position below which a target fraction of each cycle's photons arrive. Once
per laser cycle it counts how many photons fell before (early) and after
(late) the CV and nudges the CV accordingly. State per binner is a handful of
scalars no matter how many photons stream past, which is what makes the
design attractive for in-pixel hardware.

Two stepping strategies:

* fixed stepping (baseline): move by a constant step in the direction of the
  early/late imbalance.
* optimized stepping: the raw proportional step ``delta = target - early/(early+late)``
  is scaled by ``k_pct/100 * n_bins``, damped by a per-cycle decay
  ``gamma**n`` (held constant once n reaches ``decay_freeze_cycle``), and
  passed through two exponential smoothers (``beta1`` on the raw step,
  ``beta2`` on the applied step). Large early steps give fast convergence;
  the decay and smoothing let the CV settle instead of wandering. Per cycle,
  with ``delta`` taken as 0 on an empty cycle::

      delta_tilde = beta1 * delta_tilde_prev + (1 - beta1) * delta
      step        = beta2 * s_prev + (1 - beta2) * (k_pct/100) * n_bins
                    * gamma**min(n, decay_freeze_cycle) * delta_tilde
      cv          = clamp(cv + step, 0, n_bins)

Each rule is written once, in the compiled kernel (:mod:`edhsim.kernel`,
source ``kernel.c``), one C function per rule: the fixed-step walk, behind
:func:`run_fixed` (one binner over the full range) and every level of
``hedh`` (one binner per interval between edges), and the optimized bank
update, behind :class:`BinnerBank` (many binners over one stream under one
step schedule) and :func:`run_optimized` (a bank of one). The tests keep one
Python reference loop per rule and check the kernel against it bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .errors import EdhsimError, InvalidParamsError, check_int, check_real, check_type, real_array
from .transient import PhotonStream


@dataclass(frozen=True)
class StepParams:
    """Schedule constants for the optimized stepping strategy.

    Attributes:
        k_pct: step scaling factor as a percentage of n_bins.
        gamma: per-cycle temporal decay of the step scale.
        beta1: smoothing factor for the raw proportional step.
        beta2: smoothing factor for the applied step.
        decay_freeze_cycle: cycle index after which gamma**n is held constant,
            guarding against vanishing steps in long exposures.
    """

    k_pct: float = 3.0
    gamma: float = 0.99902
    beta1: float = 0.95
    beta2: float = 0.8
    decay_freeze_cycle: int = 4000

    def __post_init__(self):
        check_real("k_pct", self.k_pct, 0)
        check_real("gamma", self.gamma, 0, 1, "(]")
        check_real("beta1", self.beta1, 0, 1, "[)")
        check_real("beta2", self.beta2, 0, 1, "[)")
        # plain Python numbers: the bank's decay is float ** int, libm pow,
        # both in its table and in the kernel past the table's end, and
        # numpy's power can differ in the last bit
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "decay_freeze_cycle",
                           check_int("decay_freeze_cycle", self.decay_freeze_cycle, 0))


@dataclass(frozen=True)
class BinnerState:
    """One binner: control value plus the optimized-stepping memories.

    ``s_prev`` and ``delta_tilde_prev`` are the two smoother memories;
    ``n`` counts completed cycles. Footprint is O(1) scalars. A runner starts
    the CV at ``target_frac * n_bins``, the exact quantile of a flat (pure
    background) transient.
    """

    cv: float
    target_frac: float
    n_bins: int
    s_prev: float = 0.0
    delta_tilde_prev: float = 0.0
    n: int = 0

    def __post_init__(self):
        check_real("target_frac", self.target_frac, 0, 1)
        check_real("cv", self.cv, 0, self.n_bins, "[]")


def step_scale(params: StepParams, n_bins: int) -> float:
    """The optimized step's scale ``(k_pct/100) * n_bins``; must be finite."""
    scale = (params.k_pct / 100.0) * n_bins
    if not math.isfinite(scale):
        raise InvalidParamsError(f"step scale (k_pct/100)*n_bins overflows: k_pct={params.k_pct}")
    return scale


@functools.lru_cache(maxsize=16)
def _decay_table(gamma: float, n: int) -> np.ndarray:
    """``gamma**e`` for ``e`` in ``[0, n)``, read-only: the decay the
    kernel reads for every cycle up to the freeze, in place of one libm
    ``pow`` call each, the call that Python's ``float ** int`` makes."""
    table = np.fromiter((gamma ** e for e in range(n)), np.float64, n)
    table.flags.writeable = False
    return table


def _optimized_bank(stream: PhotonStream, n0: int, params: StepParams, n_bins: int,
                    targets: np.ndarray, cvs: np.ndarray, s: np.ndarray, dtil: np.ndarray) -> None:
    """Step optimized binners over every cycle of ``stream`` in one kernel
    call, starting at cycle ``n0`` of their decay schedule.

    Binner ``j`` tracks ``targets[j]`` under ``params``; ``cvs[j]``, ``s[j]``
    and ``dtil[j]`` hold its CV and smoother memories and are updated in place.
    The decay ``gamma**e`` comes from a cached table for ``e`` below both
    ``decay_freeze_cycle + 1`` and the stream's cycle count, and from the
    kernel's own ``pow`` call past it, so no table is longer than the
    stream, however far the freeze or the run's start ``n0``.
    """
    if not targets.size == cvs.size == s.size == dtil.size:
        raise InvalidParamsError(f"bank arrays of sizes {targets.size}, {cvs.size}, {s.size}, "
                                 f"{dtil.size} do not fit one another")
    p = params
    decay = _decay_table(p.gamma, min(p.decay_freeze_cycle + 1, stream.n_cycles))
    kernel.library().edh_optimized_bank(
        stream.timestamps, stream.cycle_offsets, stream.n_cycles, n0, p.beta1, p.beta2,
        (1.0 - p.beta2) * step_scale(p, n_bins), p.gamma, p.decay_freeze_cycle,
        decay, decay.size, targets.size, targets, float(n_bins), cvs, s, dtil)


def run_optimized(stream: PhotonStream, target_frac: float, params: StepParams) -> BinnerState:
    """Feed a whole photon stream through one optimized binner: a bank of
    one, stepped by the same kernel call as :class:`BinnerBank`."""
    check_type("stream of run_optimized", stream, PhotonStream)
    check_type("params of run_optimized", params, StepParams)
    check_real("target_frac", target_frac, 0, 1)
    target_frac = float(target_frac)  # a numpy float runs as its float64 value
    cv, s, dtil = np.array([target_frac * stream.n_bins]), np.zeros(1), np.zeros(1)
    _optimized_bank(stream, 0, params, stream.n_bins, np.array([target_frac]), cv, s, dtil)
    return BinnerState(float(cv[0]), target_frac, stream.n_bins, float(s[0]), float(dtil[0]),
                       stream.n_cycles)


_NO_EDGES = np.empty(0)


def run_fixed(stream: PhotonStream, target_frac: float, step_size: float) -> BinnerState:
    """Feed a whole photon stream through one fixed-stepping binner.

    On each cycle with n > 0 photons, ``early`` of them before the CV, the
    CV moves by ``step_size`` on the sign of ``target_frac - early/n``, held
    to ``[0, n_bins]``, and not at all on a balanced or empty cycle. The walk
    runs in the compiled kernel, whose same C function (``edh_fixed_walk``)
    runs each ``hedh`` level with one binner per interval between edges.
    """
    check_type("stream of run_fixed", stream, PhotonStream)
    check_real("target_frac", target_frac, 0, 1)
    # an infinite step would turn a balanced or empty cycle into inf*0 = nan
    check_real("fixed_step_size", step_size, 0)
    target_frac = float(target_frac)  # a numpy float runs as its float64 value
    cv = np.array([target_frac * stream.n_bins])  # the kernel steps it in place
    if kernel.library().edh_fixed_walk(stream.timestamps, stream.cycle_offsets, 0, stream.n_cycles,
                                       _NO_EDGES, 0, float(stream.n_bins), cv, target_frac,
                                       step_size):
        raise EdhsimError("fixed walk met a photon in no interval (NaN or >= n_bins)")
    return BinnerState(float(cv[0]), target_frac, stream.n_bins, n=stream.n_cycles)


class BinnerBank:
    """A bank of optimized binners updated together over one stream.

    Binner ``j`` tracks quantile ``targets[j]`` under the one step schedule
    ``params``. :meth:`run` hands a stream to one call of the compiled
    kernel, which walks the cycles and, on each, counts every binner's early
    photons and applies the optimized update. A bank of 8 or more binners
    steps every cycle by comparing each photon with a vector register of CVs
    at once, at the CPU's widest vector width; a smaller bank takes one
    binary search per binner and cycle. Both give the same count, so each
    binner reproduces :func:`run_optimized` bit-for-bit whatever the bank's
    size or order.
    Total state is four float64 arrays of one entry per binner plus a cycle
    counter; nothing scales with the photon count.
    """

    def __init__(self, targets: Sequence[float], params: StepParams, n_bins: int):
        targets = real_array("target fractions", targets).copy()
        if targets.ndim != 1 or targets.size == 0:
            raise InvalidParamsError("need at least one target quantile")
        if not np.all((0.0 < targets) & (targets < 1.0)):
            raise InvalidParamsError("target fractions must lie in (0, 1)")
        check_int("n_bins", n_bins, 1)
        check_type("params of a bank", params, StepParams)
        step_scale(params, n_bins)
        self.params = params
        self.n_bins = n_bins
        self.targets = targets
        self.cvs = self.targets * n_bins
        self.smoothed_step = np.zeros_like(self.cvs)
        self.smoothed_delta = np.zeros_like(self.cvs)
        self.n = 0

    def run(self, stream: PhotonStream) -> np.ndarray:
        """Consume every cycle of ``stream``; returns the final CVs, one per
        binner (the bank's own array, updated in place)."""
        check_type("stream of a bank", stream, PhotonStream)
        if stream.n_bins != self.n_bins:
            raise InvalidParamsError(
                f"stream has n_bins={stream.n_bins}, bank has n_bins={self.n_bins}")
        _optimized_bank(stream, self.n, self.params, self.n_bins, self.targets,
                        self.cvs, self.smoothed_step, self.smoothed_delta)
        self.n += stream.n_cycles
        return self.cvs
