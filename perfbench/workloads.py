"""The benchmark's workloads, their output checks and accuracy figures.

Each workload drives one public entry point of ``edhsim.harness`` in calls of
fixed size. Call ``i`` of a run with seed ``s`` uses the experiment seed
``global_seed(s, i)``, so the same seed always gives the same inputs, and a
call's outputs can be compared bit for bit with a digest recorded earlier.
Calls are kept to a few seconds, so a run's throughput is the median of many.

The harness functions are looked up on the module at every call (never
imported by name here), so the tracer's root spans see them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from statistics import fmean

import numpy as np

import edhsim.harness as harness
import edhsim.scene as scene_mod
from edhsim import ExperimentConfig, SimConfig, StepParams, SweepSpec, bin_to_distance

# edhsim's photon-level pairs (phi_sig, phi_bkg) per workload
MC_PAIRS = ((1.0, 1.0), (1.0, 2.0), (1.0, 5.0))
SWEEP_PAIRS = ((1.0, 1.0), (1.0, 5.0))
GAMMAS = (0.99, 0.999, 0.99902, 0.9999, 1.0)
GAMMA_REPORTED = 0.99902
MEDIAN_BKG = (0.5, 1.0, 2.0, 5.0)
Z_MIN, Z_MAX = 1.5, 13.5


def global_seed(seed: int, call: int) -> int:
    """Experiment seed of call ``call`` in a run started with ``seed``."""
    return (seed % 2**32) * 100_000 + call


@dataclass(frozen=True)
class Size:
    """How much work one run does. The defaults are the benchmark's sizes;
    the self-tests shrink them.

    Attributes:
        n_cycles: laser cycles per exposure.
        n_steps: staircase depths (pixels), and median-track distances.
        n_setup: set-up repetitions per run; their median is reported.
        calls: calls whose outputs give the accuracy metrics (None = the
            workload's default); a run makes at least this many.
        trace_calls: calls made once untraced and once traced in a traced
            run (None = the workload's default).
    """

    n_cycles: int = 5000
    n_steps: int = 10
    n_setup: int = 5
    calls: int | None = None
    trace_calls: int | None = None


class Checker:
    """Counts correctness checks and prints each one that fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def digest(rows) -> str:
    """SHA-256 of the canonical JSON form of a call's output values."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def install_checks(checker: Checker, patches) -> None:
    """Check every boundary set and binner state the harness gets back.

    Boundary sets must be finite, sorted and inside ``[0, n_bins]``; a
    binner's control value must be finite and inside ``[0, n_bins]``.
    """

    def bounds_checked(fn):
        @functools.wraps(fn)  # the tracer names spans after the wrapped function
        def checked(stream, q, *args, **kwargs):
            result = fn(stream, q, *args, **kwargs)
            b = result.bounds
            ok = (
                b.shape == (q + 1,)
                and bool(np.all(np.isfinite(b)))
                and bool(np.all(np.diff(b) >= 0.0))
                and b[0] >= 0.0
                and b[-1] <= stream.n_bins
            )
            checker.expect(ok, f"{fn.__name__} boundaries {b.tolist()}")
            return result

        return checked

    def cv_checked(fn):
        @functools.wraps(fn)
        def checked(stream, *args, **kwargs):
            state = fn(stream, *args, **kwargs)
            checker.expect(
                _finite(state.cv) and 0.0 <= state.cv <= stream.n_bins,
                f"{fn.__name__} control value {state.cv}",
            )
            return state

        return checked

    for attr in ("oedh", "pedh", "hedh"):
        patches.replace(harness, attr, bounds_checked(getattr(harness, attr)))
    for attr in ("run_fixed", "run_optimized"):
        patches.replace(harness, attr, cv_checked(getattr(harness, attr)))


class Workload:
    """One workload: set-up, a call of fixed size, checks and accuracy."""

    name = ""
    default_calls: int
    default_trace_calls: int

    def __init__(self, size: Size):
        self.size = size
        self.calls = size.calls or self.default_calls
        self.trace_calls = size.trace_calls or self.default_trace_calls
        self.sim = SimConfig(n_cycles=size.n_cycles)
        default = StepParams()
        self.step = replace(
            default, decay_freeze_cycle=min(default.decay_freeze_cycle, size.n_cycles)
        )

    def _staircase(self, n_steps: int):
        # photon levels come from the experiment's pairs, not from the scene
        return scene_mod.synth_scene(
            "staircase", n_steps=n_steps, z_min=Z_MIN, z_max=Z_MAX, phi_sig=1.0, phi_bkg=1.0
        )

    def record(self) -> dict:
        return {
            "n_cycles": self.size.n_cycles,
            "n_steps": self.size.n_steps,
            "n_setup": self.size.n_setup,
            "calls": self.calls,
            "trace_calls": self.trace_calls,
            "exposures_per_call": self.exposures_per_call,
        }


class _ExperimentWorkload(Workload):
    """A workload over the staircase scene, driven by an ExperimentConfig.

    Call ``i`` covers every pixel for one photon-level pair,
    ``pairs[i % len(pairs)]``; the accuracy calls are a whole number of
    rounds over the pairs.
    """

    pairs: tuple
    methods: tuple
    estimators: tuple

    def _config(self, scene, pairs, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            scene=scene, sim=self.sim, pairs=pairs, methods=self.methods,
            estimators=self.estimators, step=self.step, q=32, n_monte_carlo=1,
            global_seed=seed,
        )

    def build(self) -> None:
        self.scene = self._staircase(self.size.n_steps)
        self.warm_scene = self._staircase(1)
        self.exposures_per_call = self.size.n_steps

    def _run(self, cfg):
        """Call the workload's harness entry point."""
        raise NotImplementedError

    def warmup(self, seed: int) -> None:
        self._run(self._config(self.warm_scene, self.pairs[:1], seed))

    def call(self, seed: int, i: int):
        pair = self.pairs[i % len(self.pairs)]
        return self._run(self._config(self.scene, (pair,), global_seed(seed, i)))


class McGrid(_ExperimentWorkload):
    """``run_experiment``: oedh, pedh, hedh and ewh32 on every exposure."""

    name = "mc-grid"
    default_calls = 12
    default_trace_calls = 6
    pairs = MC_PAIRS
    methods = ("oedh", "pedh", "hedh", "ewh32")
    estimators = ("t0", "t1", "ewh_peak")

    def _run(self, cfg):
        return harness.run_experiment(cfg)

    def check(self, res, checker: Checker) -> None:
        checker.expect(not res.failures, f"run_experiment failures {res.failures}")
        checker.expect(
            all(r["status"] == "ok" for r in res.summary_rows), "summary row not ok"
        )
        exposures: dict = {}
        for r in res.run_rows:
            key = (r["phi_sig"], r["phi_bkg"], r["mc_index"], r["pixel_row"], r["pixel_col"])
            exposures.setdefault(key, []).append(r)
        checker.expect(
            len(exposures) == self.exposures_per_call,
            f"{len(exposures)} exposures in run rows, expected {self.exposures_per_call}",
        )
        for key, rows in exposures.items():
            checker.expect(
                len({r["stream_checksum"] for r in rows}) == 1,
                f"exposure {key}: methods saw different streams",
            )
            checker.expect(
                all(_finite(r["z_est_m"]) and 0.0 <= r["z_est_m"] <= self.sim.z_max
                    for r in rows),
                f"exposure {key}: depth outside [0, {self.sim.z_max}]",
            )

    def canonical(self, res) -> list:
        runs = [
            [r["phi_sig"], r["phi_bkg"], r["mc_index"], r["pixel_row"], r["pixel_col"],
             r["method"], r["estimator"], r["z_est_m"], r["stream_checksum"]]
            for r in res.run_rows
        ]
        summary = [
            [r["phi_sig"], r["phi_bkg"], r["method"], r["estimator"], r["rmse_cm"],
             r["mae_cm"], r["boundary_rmse_bins"]]
            for r in res.summary_rows
        ]
        return [runs, summary]

    def accuracy(self, results) -> dict:
        err_m = [
            r["z_est_m"] - r["z_true_m"]
            for res in results for r in res.run_rows
            if r["method"] == "pedh" and r["estimator"] == "t0"
        ]
        bnd = [
            r["boundary_rmse_bins"]
            for res in results for r in res.summary_rows
            if r["method"] == "pedh" and r["estimator"] == "t0"
        ]
        return {
            "depth_rmse_cm": 100.0 * math.sqrt(fmean(e * e for e in err_m)),
            "boundary_rmse_bins": fmean(bnd),
        }


class GammaSweep(_ExperimentWorkload):
    """``sweep`` over five gamma values: five pedh runs per exposure."""

    name = "gamma-sweep"
    default_calls = 6
    default_trace_calls = 2
    pairs = SWEEP_PAIRS
    methods = ("pedh",)
    estimators = ("t0",)
    spec = SweepSpec("gamma", GAMMAS)

    def _run(self, cfg):
        return harness.sweep(self.spec, cfg)

    def check(self, rows, checker: Checker) -> None:
        checker.expect(
            [r["value"] for r in rows] == list(GAMMAS), "sweep rows do not match the values"
        )
        for r in rows:
            checker.expect(
                r["n_runs"] == self.exposures_per_call
                and _finite(r["boundary_rmse_bins"], r["distance_rmse_cm"])
                and r["boundary_rmse_bins"] >= 0.0 and r["distance_rmse_cm"] >= 0.0,
                f"sweep row {r}",
            )

    def canonical(self, rows) -> list:
        return [[r["value"], r["n_runs"], r["boundary_rmse_bins"], r["distance_rmse_cm"]]
                for r in rows]

    def accuracy(self, results) -> dict:
        # every call has the same number of runs, so the mean of squares pools them
        rows = [r for rows in results for r in rows if r["value"] == GAMMA_REPORTED]
        return {
            "depth_rmse_cm": math.sqrt(fmean(r["distance_rmse_cm"] ** 2 for r in rows)),
            "boundary_rmse_bins": math.sqrt(fmean(r["boundary_rmse_bins"] ** 2 for r in rows)),
        }


class MedianTrack(Workload):
    """``median_tracking_experiment``: one run_fixed and one run_optimized
    median binner per exposure."""

    name = "median-track"
    default_calls = 36
    default_trace_calls = 16

    def build(self) -> None:
        self.distances = np.linspace(Z_MIN, Z_MAX, self.size.n_steps).tolist()
        self.exposures_per_call = len(MEDIAN_BKG) * len(self.distances)

    def _run(self, bkg, distances, seed: int) -> dict:
        return harness.median_tracking_experiment(
            bkg_levels=bkg, distances=distances, phi_sig=1.0, n_seeds=1,
            sim=self.sim, step=self.step, fixed_step_size=1.0, global_seed=seed,
        )

    def warmup(self, seed: int) -> None:
        self._run(MEDIAN_BKG[1:2], self.distances[:1], seed)

    def call(self, seed: int, i: int):
        return self._run(MEDIAN_BKG, self.distances, global_seed(seed, i))

    def check(self, table, checker: Checker) -> None:
        keys = {(s, b) for s in ("fixed", "optimized") for b in MEDIAN_BKG}
        checker.expect(set(table) == keys, f"median table keys {sorted(table)}")
        for key, v in table.items():
            checker.expect(_finite(v) and v >= 0.0, f"median rmse {key} = {v}")

    def canonical(self, table) -> list:
        return sorted([s, b, v] for (s, b), v in table.items())

    def accuracy(self, results) -> dict:
        def pooled(strategy):
            return fmean(
                math.sqrt(fmean(t[(strategy, b)] ** 2 for t in results)) for b in MEDIAN_BKG
            )

        cm_per_bin = 100.0 * bin_to_distance(1.0, self.sim)
        return {
            "depth_rmse_cm": cm_per_bin * pooled("fixed"),
            "boundary_rmse_bins": pooled("optimized"),
        }


WORKLOADS = {w.name: w for w in (McGrid, GammaSweep, MedianTrack)}
