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
source ``kernel.c``), one C function per rule: :func:`fixed_walk`, behind
:func:`run_fixed` and ``hedh``, and the optimized bank update, behind
:class:`BinnerBank` (many binners over one stream under one step schedule)
and :func:`run_optimized` (a bank of one). The tests keep one Python
reference loop per rule and check the kernel against it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
        # plain Python numbers: the kernel takes gamma**n from libm pow, as
        # float ** int does, and numpy's power can differ in the last bit
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "decay_freeze_cycle",
                           check_int("decay_freeze_cycle", self.decay_freeze_cycle, 0))


@dataclass(frozen=True)
class BinnerState:
    """One binner: control value plus the optimized-stepping memories.

    ``s_prev`` and ``delta_tilde_prev`` are the two smoother memories;
    ``n`` counts completed cycles. Footprint is O(1) scalars.
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

    @classmethod
    def initial(cls, target_frac: float, n_bins: int) -> "BinnerState":
        """Fresh state; the CV starts at target_frac * n_bins, the exact
        quantile of a flat (pure background) transient."""
        check_real("target_frac", target_frac, 0, 1)
        return cls(cv=target_frac * n_bins, target_frac=target_frac, n_bins=n_bins)


def step_scale(params: StepParams, n_bins: int) -> float:
    """The optimized step's scale ``(k_pct/100) * n_bins``; must be finite."""
    scale = (params.k_pct / 100.0) * n_bins
    if not math.isfinite(scale):
        raise InvalidParamsError(f"step scale (k_pct/100)*n_bins overflows: k_pct={params.k_pct}")
    return scale


def _optimized_bank(stream: PhotonStream, n0: int, params: StepParams, n_bins: int,
                    targets: np.ndarray, cvs: np.ndarray, s: np.ndarray, dtil: np.ndarray) -> None:
    """Step optimized binners over every cycle of ``stream`` in one kernel
    call, starting at cycle ``n0`` of their decay schedule.

    Binner ``j`` tracks ``targets[j]`` under ``params``; ``cvs[j]``, ``s[j]``
    and ``dtil[j]`` hold its CV and smoother memories and are updated in place.
    """
    if not targets.size == cvs.size == s.size == dtil.size:
        raise InvalidParamsError(f"bank arrays of sizes {targets.size}, {cvs.size}, {s.size}, "
                                 f"{dtil.size} do not fit one another")
    p = params
    kernel.library().edh_optimized_bank(
        stream.timestamps, stream.cycle_offsets, stream.n_cycles, n0, p.beta1, p.beta2,
        (1.0 - p.beta2) * step_scale(p, n_bins), p.gamma, p.decay_freeze_cycle,
        targets.size, targets, float(n_bins), cvs, s, dtil)


def run_optimized(stream: PhotonStream, target_frac: float, params: StepParams) -> BinnerState:
    """Feed a whole photon stream through one optimized binner: a bank of
    one, stepped by the same kernel call as :class:`BinnerBank`."""
    check_type("stream of run_optimized", stream, PhotonStream)
    check_type("params of run_optimized", params, StepParams)
    state = BinnerState.initial(target_frac, stream.n_bins)
    cv, s, dtil = np.array([state.cv]), np.zeros(1), np.zeros(1)
    _optimized_bank(stream, 0, params, stream.n_bins, np.array([target_frac]), cv, s, dtil)
    return replace(state, cv=float(cv[0]), s_prev=float(s[0]), delta_tilde_prev=float(dtil[0]),
                   n=stream.n_cycles)


def fixed_walk(stream: PhotonStream, c0: int, c1: int, edges: list[float], cvs: list[float],
               target_frac: float, step_size: float) -> list[float]:
    """Step fixed-stepping binners over cycles ``[c0, c1)`` of a stream and
    return their final CVs.

    Binner k starts at ``cvs[k]`` and is confined to the k-th interval
    between the sorted ``edges`` (0 and n_bins close the ends); photons
    outside it are invisible to it, and a photon on an edge belongs to the
    interval above. On each cycle with n > 0 photons in its interval,
    ``early`` of them before its CV, it moves by ``step_size`` on the sign of
    ``target_frac - early/n``, and not at all on a balanced cycle. With no
    edges this is one binner over the full range (:func:`run_fixed`);
    ``hedh`` runs one level of its tree per call.

    The walk is photon-driven and runs in the compiled kernel: within a
    cycle, each run of photons that lands in one interval updates that
    interval's binner only, so the cost grows with photons per cycle rather
    than with intervals.
    """
    check_type("stream of fixed_walk", stream, PhotonStream)
    # an infinite step would turn a balanced or empty cycle into inf*0 = nan
    check_real("fixed_step_size", step_size, 0)
    check_real("target_frac", target_frac, 0, 1)
    edges = real_array("walk edges", edges)
    out = real_array("walk CVs", cvs).copy()  # the kernel steps it in place
    if edges.ndim != 1 or out.shape != (edges.size + 1,):
        raise InvalidParamsError(f"need one CV per interval: {edges.size} edges, {out.size} CVs")
    if not (np.all(np.isfinite(edges)) and np.all(edges[1:] >= edges[:-1])):
        raise InvalidParamsError("walk edges must be finite and sorted")
    if not 0 <= c0 <= c1 <= stream.n_cycles:
        raise InvalidParamsError(f"cycles [{c0}, {c1}) do not lie in [0, {stream.n_cycles}]")
    if kernel.library().edh_fixed_walk(stream.timestamps, stream.cycle_offsets, c0, c1, edges,
                                       edges.size, float(stream.n_bins), out, target_frac,
                                       step_size):
        raise EdhsimError("fixed walk met a photon in no interval (NaN or >= n_bins)")
    return out.tolist()


def run_fixed(stream: PhotonStream, target_frac: float, step_size: float) -> BinnerState:
    """Feed a whole photon stream through one fixed-stepping binner: the
    one-interval case of :func:`fixed_walk`."""
    check_type("stream of run_fixed", stream, PhotonStream)
    state = BinnerState.initial(target_frac, stream.n_bins)
    [cv] = fixed_walk(stream, 0, stream.n_cycles, [], [state.cv], target_frac, step_size)
    return replace(state, cv=cv, n=stream.n_cycles)


class BinnerBank:
    """A bank of optimized binners updated together over one stream.

    Binner ``j`` tracks quantile ``targets[j]`` under the one step schedule
    ``params``. :meth:`run` hands a stream to one call of the compiled
    kernel, which walks the cycles and, on each, counts every binner's early
    photons and applies the optimized update. A bank of 8 or more binners
    counts a cycle of up to 32 photons by comparing each photon with a block
    of CVs at once; smaller banks and longer cycles take one binary search
    per binner. Both give the same count, so each binner reproduces
    :func:`run_optimized` bit-for-bit whatever the bank's size or order.
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
