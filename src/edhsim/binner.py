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

Where each rule lives: :func:`fixed_step` and :func:`optimized_step` advance
one binner by one cycle and serve as oracles. :func:`fixed_walk` is the one
fixed-step loop, behind :func:`run_fixed` and ``hedh``. :func:`run_optimized`
runs one optimized binner over a stream and :class:`BinnerBank` many at once,
vectorized over a block of streams (pixels) and several step schedules; both
are kept operation-for-operation identical to :func:`optimized_step`, so all
three agree bit-for-bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParamsError, check_int
from .transient import PhotonStream, StreamBlock


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
        if not 0.0 < self.k_pct < math.inf:
            raise InvalidParamsError(f"k_pct must be finite and > 0, got {self.k_pct!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidParamsError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not 0.0 <= self.beta1 < 1.0:
            raise InvalidParamsError(f"beta1 must lie in [0, 1), got {self.beta1!r}")
        if not 0.0 <= self.beta2 < 1.0:
            raise InvalidParamsError(f"beta2 must lie in [0, 1), got {self.beta2!r}")
        check_int("decay_freeze_cycle", self.decay_freeze_cycle, 0)
        if self.clip is not None and not 0.0 < self.clip < math.inf:
            raise InvalidParamsError(f"clip must be finite and > 0 when enabled, got {self.clip!r}")


@dataclass(frozen=True)
class CycleObservation:
    """Early/late photon counts for one laser cycle at the current CV."""

    early: int
    late: int

    def __post_init__(self):
        if self.early < 0 or self.late < 0:
            raise InvalidParamsError("photon counts cannot be negative")


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
    def initial(cls, target_frac: float, params: StepParams, n_bins: int) -> "BinnerState":
        """Fresh state; the CV starts at target_frac * n_bins, the exact
        quantile of a flat (pure background) transient."""
        return cls(cv=target_frac * n_bins, target_frac=target_frac, params=params, n_bins=n_bins)


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


def run_optimized(stream: PhotonStream, target_frac: float, params: StepParams) -> BinnerState:
    """Feed a whole photon stream through one optimized binner.

    Equivalent to folding :func:`optimized_step` over the cycles, written as
    a tight loop (no per-cycle allocation) because single-binner exposures
    are the inner loop of Monte-Carlo sweeps.
    """
    state = BinnerState.initial(target_frac, params, stream.n_bins)
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


def fixed_walk(stream: PhotonStream, c0: int, c1: int, edges: list[float], cvs: list[float],
               target_frac: float, step_size: float) -> list[float]:
    """Step fixed-stepping binners over cycles ``[c0, c1)`` of a stream and
    return their final CVs.

    Binner k starts at ``cvs[k]`` and is confined to the k-th interval
    between the sorted ``edges`` (0 and n_bins close the ends); photons
    outside it are invisible to it. On each cycle with n > 0 photons in its
    interval, ``early`` of them before its CV, it moves by ``step_size`` on
    the sign of ``target_frac - early/n`` (the rule of :func:`fixed_step`).
    With no edges this is one binner over the full range (:func:`run_fixed`);
    ``hedh`` runs one level of its tree per call.

    The walk is photon-driven: within a cycle, each run of photons that
    lands in one interval updates that interval's binner only, so the cost
    grows with photons per cycle rather than with intervals.
    """
    check_fixed_step_size(step_size)
    lo = [0.0] + edges
    hi = edges + [float(stream.n_bins)]
    cvs = list(cvs)
    offsets = stream.cycle_offsets[c0:c1 + 1]
    # these cycles' photons only: a whole-stream list (~32 B per photon) per
    # hedh level would sit beside every stream of the block the harness holds
    ts = stream.timestamps[offsets[0]:offsets[-1]].tolist()
    offsets = (offsets - offsets[0]).tolist()
    for j, end in zip(offsets, offsets[1:]):
        while j < end:
            # ts[j:top] is the run of this cycle's photons in interval k
            k = bisect_right(edges, ts[j])
            top = bisect_left(ts, hi[k], j, end)
            d = target_frac - (bisect_left(ts, cvs[k], j, top) - j) / (top - j)
            if d > 0.0:
                cvs[k] = min(cvs[k] + step_size, hi[k])
            elif d < 0.0:
                cvs[k] = max(cvs[k] - step_size, lo[k])
            j = top
    return cvs


def run_fixed(stream: PhotonStream, target_frac: float, step_size: float) -> BinnerState:
    """Feed a whole photon stream through one fixed-stepping binner: the
    one-interval case of :func:`fixed_walk`."""
    state = BinnerState.initial(target_frac, StepParams(), stream.n_bins)
    [cv] = fixed_walk(stream, 0, stream.n_cycles, [], [state.cv], target_frac, step_size)
    return replace(state, cv=cv, n=stream.n_cycles)


# cycles whose offsets one stream turns into a Python list at a time; a
# whole-stream list would hold ~36 B per cycle for every stream of a block
_OFFSET_CHUNK = 128


class BinnerBank:
    """A bank of optimized binners updated together.

    Binner ``(p, v, j)`` tracks quantile ``targets[j]`` of stream ``p`` of a
    :class:`~edhsim.transient.StreamBlock` under step schedule ("variant")
    ``v``. Each cycle, every stream's early counts come from one
    ``searchsorted`` over that stream's own cycle slice, written into the
    stream's part of one shared raw-step array; then all
    ``n_streams * V * len(targets)`` binners take one vectorized update.
    Streams are not padded to a common photon count: a ``+inf``-padded
    compare over (cycles, streams, photons) costs more than the per-stream
    searches it replaces, and most on a block of one. Per-cycle arithmetic
    is elementwise and mirrors the scalar update exactly (same operations,
    same order), so each binner reproduces :func:`run_optimized`
    bit-for-bit. Total state is four float64 arrays of one entry per binner
    (stream-major, then variant) plus a cycle counter; nothing scales with
    the photon count.

    The state is flat, and each per-variant constant is expanded to one
    entry per binner, because that is faster than shaping the state
    (streams, variants, targets) and broadcasting ``(V, 1)`` columns: such a
    bank gave the same bits, but ``pedh_variants`` over 10 streams of 5,000
    cycles at q = 32 took 476 ms against 373 ms with 5 schedules and 306 ms
    against 276 ms with 1 (best of 3, one core of a 2-vCPU Xeon VM).
    """

    def __init__(
        self,
        targets: Sequence[float],
        params: StepParams | Sequence[StepParams],
        n_bins: int,
        n_streams: int = 1,
    ):
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 1 or targets.size == 0:
            raise InvalidParamsError("need at least one target quantile")
        if not np.all((0.0 < targets) & (targets < 1.0)):
            raise InvalidParamsError("target fractions must lie in (0, 1)")
        check_int("n_bins", n_bins, 1)
        self.n_streams = check_int("n_streams", n_streams, 1)
        variants = (params,) if isinstance(params, StepParams) else tuple(params)
        if not variants:
            raise InvalidParamsError("need at least one step schedule")
        for p in variants:
            _step_scale(p, n_bins)
        self.variants = variants
        self.n_bins = n_bins
        self.targets = np.tile(targets, self.n_streams * len(variants))
        self.cvs = self.targets * n_bins
        self.smoothed_step = np.zeros_like(self.cvs)
        self.smoothed_delta = np.zeros_like(self.cvs)
        self.n = 0

    def step_cycle(self, cycle_timestamps: np.ndarray) -> None:
        """Observe one cycle (sorted timestamps) and update every binner of
        a one-stream bank."""
        self.run(PhotonStream.from_cycles([cycle_timestamps], self.n_bins))

    def run(self, block: PhotonStream | StreamBlock) -> np.ndarray:
        """Consume every cycle of a block (or of one stream, for a
        one-stream bank); returns the final CVs, one per binner,
        stream-major then variant (the bank's own array, updated in place).

        The per-variant schedule is expanded to one column entry per binner
        and the step coefficient is tabulated per cycle, up to the cycle
        where every variant's decay is frozen. These are locals of the
        update, so the bank's state stays its four arrays.
        """
        if isinstance(block, PhotonStream):
            block = StreamBlock([block])
        if block.n_bins != self.n_bins:
            raise InvalidParamsError(
                f"stream has n_bins={block.n_bins}, bank has n_bins={self.n_bins}")
        if len(block) != self.n_streams:
            raise InvalidParamsError(
                f"block has {len(block)} streams, bank has n_streams={self.n_streams}")
        variants, n0, n_cycles = self.variants, self.n, block.n_cycles
        per_stream = self.targets.size // self.n_streams
        variant = np.tile(np.repeat(np.arange(len(variants)), per_stream // len(variants)),
                          self.n_streams)

        def column(values):
            return np.array(values, dtype=np.float64)[variant]

        b1 = column([p.beta1 for p in variants])
        one_m_b1 = 1.0 - b1
        b2 = column([p.beta2 for p in variants])
        clip = None
        if any(p.clip is not None for p in variants):
            lim = column([p.clip * self.n_bins if p.clip is not None else math.inf for p in variants])
            clip = (-lim, lim)
        rows = max(1, min(n_cycles, max(p.decay_freeze_cycle for p in variants) - n0 + 1))
        coef = np.empty((rows, len(variants)))
        for v, p in enumerate(variants):
            base = (1.0 - p.beta2) * _step_scale(p, self.n_bins)
            coef[:, v] = [base * _decay(p, n0 + i) for i in range(rows)]

        cvs, s, dtil = self.cvs, self.smoothed_step, self.smoothed_delta
        dn = np.empty_like(cvs)
        # per stream: its timestamps and its views of the targets, CVs and raw steps
        lanes = [
            (stream.timestamps,) + tuple(a[p * per_stream:(p + 1) * per_stream]
                                         for a in (self.targets, cvs, dn))
            for p, stream in enumerate(block.streams)
        ]
        n_bins_f = float(self.n_bins)
        for c0 in range(0, n_cycles, _OFFSET_CHUNK):
            offsets = [st.cycle_offsets[c0:c0 + _OFFSET_CHUNK + 1].tolist() for st in block.streams]
            for k in range(len(offsets[0]) - 1):
                for (ts, targets, cv, d), off in zip(lanes, offsets):
                    lo, hi = off[k], off[k + 1]
                    if hi > lo:
                        np.subtract(targets, ts[lo:hi].searchsorted(cv) / (hi - lo), out=d)
                    else:
                        d.fill(0.0)
                np.add(b1 * dtil, one_m_b1 * dn, out=dtil)
                np.add(b2 * s, coef[min(c0 + k, rows - 1)][variant] * dtil, out=s)
                if clip is not None:
                    s.clip(*clip, out=s)
                (cvs + s).clip(0.0, n_bins_f, out=cvs)
        self.n += n_cycles
        return cvs
