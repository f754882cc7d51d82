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
  the decay and smoothing let the CV settle instead of wandering.

The scalar API (:class:`BinnerState`, :func:`optimized_step`,
:func:`fixed_step`) is the reference implementation. :class:`BinnerBank`
updates many binners per cycle with vectorized arithmetic and is kept
operation-for-operation identical to the scalar path, so the two agree
bit-for-bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParamsError
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
        clip: optional cap on |step| as a fraction of n_bins (None = off).
    """

    k_pct: float = 3.0
    gamma: float = 0.99902
    beta1: float = 0.95
    beta2: float = 0.8
    decay_freeze_cycle: int = 4000
    clip: Optional[float] = None

    def __post_init__(self):
        for name in ("k_pct", "gamma", "beta1", "beta2", "clip"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be finite, got {value}")
        if not self.k_pct > 0.0:
            raise InvalidParamsError("k_pct must be > 0")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidParamsError("gamma must lie in (0, 1]")
        if not 0.0 <= self.beta1 < 1.0:
            raise InvalidParamsError("beta1 must lie in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise InvalidParamsError("beta2 must lie in [0, 1)")
        if self.decay_freeze_cycle < 0:
            raise InvalidParamsError("decay_freeze_cycle must be >= 0")
        if self.clip is not None and not self.clip > 0.0:
            raise InvalidParamsError("clip must be > 0 when enabled")


@dataclass(frozen=True)
class CycleObservation:
    """Early/late photon counts for one laser cycle at the current CV."""

    early: int
    late: int

    def __post_init__(self):
        if self.early < 0 or self.late < 0:
            raise InvalidParamsError("photon counts cannot be negative")

    @property
    def total(self) -> int:
        return self.early + self.late


def observe(cv: float, cycle_timestamps) -> CycleObservation:
    """Split one cycle's sorted timestamps at the CV.

    Photons strictly before the CV count as early; a photon exactly at the CV
    counts as late (ties have measure zero for continuous timestamps, the
    fixed rule just keeps things deterministic).
    """
    ts = np.asarray(cycle_timestamps)
    early = int(np.searchsorted(ts, cv, side="left"))
    return CycleObservation(early=early, late=ts.size - early)


def delta(target_frac: float, obs: CycleObservation) -> float:
    """Raw proportional step: target fraction minus observed early fraction.

    Zero when the cycle is empty (no photons carry no information).
    Always lies in (-1, 1).
    """
    total = obs.early + obs.late
    if total == 0:
        return 0.0
    return target_frac - obs.early / total


@dataclass(frozen=True)
class BinnerState:
    """One binner: control value plus the optimized-stepping memories.

    ``s_prev`` and ``delta_tilde_prev`` are the two smoother memories;
    ``n`` counts completed cycles. Footprint is O(1) scalars.
    """

    cv: float
    target_frac: float
    params: StepParams
    n_bins: int
    s_prev: float = 0.0
    delta_tilde_prev: float = 0.0
    n: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_frac < 1.0:
            raise InvalidParamsError("target_frac must lie in (0, 1)")
        if not 0.0 <= self.cv <= self.n_bins:
            raise InvalidParamsError("cv must lie in [0, n_bins]")

    @classmethod
    def initial(
        cls,
        target_frac: float,
        params: StepParams,
        n_bins: int,
        cv: Optional[float] = None,
    ) -> "BinnerState":
        """Fresh state; by default the CV starts at target_frac * n_bins,
        the exact quantile of a flat (pure background) transient."""
        if cv is None:
            cv = target_frac * n_bins
        return cls(cv=cv, target_frac=target_frac, params=params, n_bins=n_bins)


def _step_scale(params: StepParams, n_bins: int) -> float:
    """The optimized step's scale ``(k_pct/100) * n_bins``; must be finite."""
    scale = (params.k_pct / 100.0) * n_bins
    if not math.isfinite(scale):
        raise InvalidParamsError(f"step scale (k_pct/100)*n_bins overflows: k_pct={params.k_pct}")
    return scale


def check_fixed_step_size(step_size: float) -> None:
    """Reject a fixed step that is not finite and > 0 (an infinite step
    turns a balanced or empty cycle into ``inf*0 = nan``)."""
    if not 0.0 < step_size < math.inf:
        raise InvalidParamsError("fixed_step_size must be finite and > 0")


def _decay(params: StepParams, n: int) -> float:
    return params.gamma ** min(n, params.decay_freeze_cycle)


def optimized_step(state: BinnerState, obs: CycleObservation) -> BinnerState:
    """Advance one cycle with the optimized stepping strategy.

    delta_tilde = beta1 * delta_tilde_prev + (1 - beta1) * delta
    step        = beta2 * s_prev + (1 - beta2) * (k_pct/100) * n_bins
                  * gamma**min(n, freeze) * delta_tilde
    cv          = clamp(cv + step, 0, n_bins)
    """
    p = state.params
    dn = delta(state.target_frac, obs)
    dtil = p.beta1 * state.delta_tilde_prev + (1.0 - p.beta1) * dn
    coef = ((1.0 - p.beta2) * ((p.k_pct / 100.0) * state.n_bins)) * _decay(p, state.n)
    s = p.beta2 * state.s_prev + coef * dtil
    if p.clip is not None:
        lim = p.clip * state.n_bins
        s = min(max(s, -lim), lim)
    cv = min(max(state.cv + s, 0.0), float(state.n_bins))
    return replace(state, cv=cv, s_prev=s, delta_tilde_prev=dtil, n=state.n + 1)


def fixed_step(state: BinnerState, obs: CycleObservation, step_size: float) -> BinnerState:
    """Advance one cycle with the constant-step baseline strategy.

    Moves by exactly ``step_size`` in the direction of the imbalance
    (no move on a balanced or empty cycle). Smoother memories are unused.
    """
    check_fixed_step_size(step_size)
    dn = delta(state.target_frac, obs)
    sign = (dn > 0.0) - (dn < 0.0)
    cv = min(max(state.cv + step_size * sign, 0.0), float(state.n_bins))
    return replace(state, cv=cv, n=state.n + 1)


def run_optimized(
    stream: PhotonStream,
    target_frac: float,
    params: StepParams,
    cv0: Optional[float] = None,
) -> BinnerState:
    """Feed a whole photon stream through one optimized binner.

    Equivalent to folding :func:`optimized_step` over the cycles, written as
    a tight loop (no per-cycle allocation) because single-binner exposures
    are the inner loop of Monte-Carlo sweeps.
    """
    state = BinnerState.initial(target_frac, params, stream.n_bins, cv=cv0)
    p = params
    ts = stream.timestamps.tolist()
    offsets = stream.cycle_offsets.tolist()
    n_bins_f = float(stream.n_bins)
    one_m_b1 = 1.0 - p.beta1
    coef_base = (1.0 - p.beta2) * _step_scale(p, stream.n_bins)
    lim = p.clip * stream.n_bins if p.clip is not None else None
    freeze = p.decay_freeze_cycle

    cv = state.cv
    s = state.s_prev
    dtil = state.delta_tilde_prev
    for n in range(stream.n_cycles):
        lo, hi = offsets[n], offsets[n + 1]
        total = hi - lo
        if total:
            early = bisect_left(ts, cv, lo, hi) - lo
            dn = target_frac - early / total
        else:
            dn = 0.0
        dtil = p.beta1 * dtil + one_m_b1 * dn
        coef = coef_base * (p.gamma ** min(n, freeze))
        s = p.beta2 * s + coef * dtil
        if lim is not None:
            s = min(max(s, -lim), lim)
        cv = min(max(cv + s, 0.0), n_bins_f)
    return replace(state, cv=cv, s_prev=s, delta_tilde_prev=dtil, n=stream.n_cycles)


def run_fixed(
    stream: PhotonStream,
    target_frac: float,
    step_size: float,
    cv0: Optional[float] = None,
) -> BinnerState:
    """Feed a whole photon stream through one fixed-stepping binner."""
    check_fixed_step_size(step_size)
    state = BinnerState.initial(target_frac, StepParams(), stream.n_bins, cv=cv0)
    ts = stream.timestamps.tolist()
    offsets = stream.cycle_offsets.tolist()
    n_bins_f = float(stream.n_bins)

    cv = state.cv
    for n in range(stream.n_cycles):
        lo, hi = offsets[n], offsets[n + 1]
        total = hi - lo
        if total:
            early = bisect_left(ts, cv, lo, hi) - lo
            dn = target_frac - early / total
        else:
            dn = 0.0
        sign = (dn > 0.0) - (dn < 0.0)
        cv = min(max(cv + step_size * sign, 0.0), n_bins_f)
    return replace(state, cv=cv, n=stream.n_cycles)


class BinnerBank:
    """A bank of optimized binners updated together, one per target quantile.

    Per-cycle arithmetic is elementwise over the bank and mirrors the scalar
    update exactly (same operations, same order), so a bank of one binner
    reproduces :func:`run_optimized` bit-for-bit. Total state is three
    float64 arrays of length ``len(targets)`` plus a cycle counter; nothing
    scales with the photon count.
    """

    def __init__(
        self,
        targets: Sequence[float],
        params: StepParams,
        n_bins: int,
        cvs0: Optional[np.ndarray] = None,
    ):
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 1 or targets.size == 0:
            raise InvalidParamsError("need at least one target quantile")
        if np.any(targets <= 0.0) or np.any(targets >= 1.0):
            raise InvalidParamsError("target fractions must lie in (0, 1)")
        self.targets = targets
        self.params = params
        self.n_bins = n_bins
        self.cvs = targets * n_bins if cvs0 is None else np.asarray(cvs0, np.float64).copy()
        if self.cvs.shape != targets.shape:
            raise InvalidParamsError("cvs0 must match targets in shape")
        self.smoothed_step = np.zeros_like(self.cvs)
        self.smoothed_delta = np.zeros_like(self.cvs)
        self.n = 0
        # precomputed update constants
        self._one_m_b1 = 1.0 - params.beta1
        self._coef_base = (1.0 - params.beta2) * _step_scale(params, n_bins)
        self._lim = params.clip * n_bins if params.clip is not None else None

    def step_cycle(self, cycle_timestamps: np.ndarray) -> None:
        """Observe one cycle (sorted timestamps) and update every binner."""
        p = self.params
        total = cycle_timestamps.size
        if total:
            early = np.searchsorted(cycle_timestamps, self.cvs, side="left")
            dn = self.targets - early / total
        else:
            dn = 0.0
        self.smoothed_delta = p.beta1 * self.smoothed_delta + self._one_m_b1 * dn
        coef = self._coef_base * _decay(p, self.n)
        self.smoothed_step = p.beta2 * self.smoothed_step + coef * self.smoothed_delta
        if self._lim is not None:
            np.clip(self.smoothed_step, -self._lim, self._lim, out=self.smoothed_step)
        self.cvs = np.clip(self.cvs + self.smoothed_step, 0.0, float(self.n_bins))
        self.n += 1

    def run(self, stream: PhotonStream) -> np.ndarray:
        """Consume every cycle of a stream; returns the final CVs."""
        for ts in stream.cycles():
            self.step_cycle(ts)
        return self.cvs
