"""The export list and the modules stay in step as names come and go."""

import importlib
import inspect
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import edhsim
from edhsim import binner
from edhsim.binner import BinnerBank, BinnerState, StepParams
from edhsim.errors import EdhsimError
from edhsim.harness import ExperimentConfig, SweepSpec, median_tracking_experiment
from edhsim.histogrammer import EwHistogram
from edhsim.metrics import distance_metrics
from edhsim.scene import DepthMap, PixelConfig, Scene, constant_scene
from edhsim.transient import PhotonStream, SimConfig

# (module, name) of removed names; a comment gives the replacement where one is needed
REMOVED = [
    ("estimator", "DistanceMap"),      # DistanceMap(d, e).depths -> d
    ("metrics", "GridLike"),           # distance_metrics takes arrays
    ("metrics", "_as_grid"),
    ("scene", "save_depth_map"),       # save_depth_map(m, p, f) -> save_grid(m.depths, p, f)
    ("scene", "DEFAULT_Z_LIMIT"),      # -> transient.DEFAULT_Z_MAX
    ("transient", "sample_cycle"),     # sample_cycle(tr, rng) -> sample_stream(tr, 1, rng).timestamps
    ("transient", "sbr"),              # sbr(p) -> p.phi_sig / p.phi_bkg
    ("transient", "StreamBlock"),      # one `pedh(s, q, step)` per stream
    ("histogrammer", "pedh_variants"), # [pedh(s, q, step) for step in steps]
    ("errors", "ZeroBackgroundError"),
    # the stepping rules run only in the compiled kernel; the tests keep one
    # Python reference loop per rule
    ("binner", "CycleObservation"),
    ("binner", "observe"),
    ("binner", "delta"),
    ("binner", "_decay"),              # _decay(p, n) -> p.gamma ** min(n, p.decay_freeze_cycle)
    ("binner", "optimized_step"),      # run_optimized over a one-cycle stream
    ("binner", "fixed_step"),          # run_fixed over a one-cycle stream
    ("binner", "BinnerBank.step_cycle"),  # bank.step_cycle(ts) -> bank.run(PhotonStream.from_cycles([ts], n_bins))
    ("estimator", "distance_to_bin"),  # distance_to_bin(z, cfg) -> 2 * z / cfg.c / cfg.dt
    ("transient", "Transient.total"),  # tr.total -> tr.values.sum()
    ("scene", "Scene.uniform"),        # Scene.uniform(d, s, b) -> Scene(d, s, b)
    ("scene", "Scene.pixel"),          # s.pixel(r, c) -> the (r, c) entry of s.iter_pixels()
    ("harness", "scene_summaries"),    # summarize(stream, ...) over pixel_streams(scene, sim, seeds)
    ("harness", "_experiment_pixels"), # pixel_streams(replace(scene, phi_sig=, phi_bkg=), sim, seeds)
]


def test_every_export_resolves_once():
    assert len(edhsim.__all__) == len(set(edhsim.__all__))
    for name in edhsim.__all__:
        assert hasattr(edhsim, name), name


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_are_gone(module, name):
    owner = importlib.import_module(f"edhsim.{module}")
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)
    assert not hasattr(edhsim, attr)
    assert name not in edhsim.__all__


def test_unread_fields_are_gone():
    assert "seed" not in {f.name for f in fields(PhotonStream)}
    assert "params" not in {f.name for f in fields(BinnerState)}
    assert "clip" not in {f.name for f in fields(StepParams)}


def test_bank_has_no_stream_axis():
    assert "n_streams" not in inspect.signature(BinnerBank).parameters


def test_bank_has_no_schedule_axis():
    assert not hasattr(BinnerBank([0.5], StepParams(), 8), "variants")


def test_import_loads_no_scipy():
    # the pulse CDF is computed in the kernel, so scipy is a test dependency
    # only; scipy.special alone took most of the import time when the
    # package imported it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import edhsim; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    src = str(Path(edhsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


_STREAM = PhotonStream.from_cycles([np.array([100.0, 700.0])], 1024)
_DEPTHS = DepthMap(np.full((1, 1), 5.0, dtype=np.float32))
_ONE = np.ones((1, 1))


def _median_track(**bad):
    args = dict(bkg_levels=[1.0], distances=[5.0], phi_sig=1.0, n_seeds=1,
                sim=SimConfig(n_cycles=10), step=StepParams())
    return median_tracking_experiment(**{**args, **bad})


# every real-valued public input, each fed one value through the real-number rule
REAL_INPUTS = {
    **{f"StepParams.{f}": (lambda v, f=f: StepParams(**{f: v}))
       for f in ("k_pct", "gamma", "beta1", "beta2")},
    **{f"SimConfig.{f}": (lambda v, f=f: SimConfig(**{f: v})) for f in ("rep_period", "fwhm", "c")},
    "PixelConfig.z": lambda v: PixelConfig(v, 1.0, 1.0),
    "PixelConfig.phi_sig": lambda v: PixelConfig(5.0, v, 1.0),
    "PixelConfig.phi_bkg": lambda v: PixelConfig(5.0, 1.0, v),
    "Scene.phi_sig": lambda v: Scene(_DEPTHS, v, 1.0),
    "Scene.phi_bkg": lambda v: Scene(_DEPTHS, 1.0, v),
    "EwHistogram.span": lambda v: EwHistogram(np.ones(4), v),
    "ExperimentConfig.fixed_step_size":
        lambda v: ExperimentConfig(constant_scene(1.0, 1.0), fixed_step_size=v),
    "ExperimentConfig.inlier_thresholds":
        lambda v: ExperimentConfig(constant_scene(1.0, 1.0), inlier_thresholds=(2.0, v)),
    "run_fixed.step_size": lambda v: binner.run_fixed(_STREAM, 0.5, v),
    "run_fixed.target_frac": lambda v: binner.run_fixed(_STREAM, v, 1.0),
    "run_optimized.target_frac": lambda v: binner.run_optimized(_STREAM, v, StepParams()),
    "fixed_walk.target_frac": lambda v: binner.fixed_walk(_STREAM, 0, 1, [], [512.0], v, 1.0),
    "BinnerState.target_frac": lambda v: BinnerState(512.0, v, 1024),
    "BinnerState.cv": lambda v: BinnerState(v, 0.5, 1024),
    "distance_metrics.z_max": lambda v: distance_metrics(_ONE, _ONE, z_max=v),
    "distance_metrics.thresholds": lambda v: distance_metrics(_ONE, _ONE, thresholds=(v,)),
    "bin_to_distance.t": lambda v: edhsim.bin_to_distance(v, SimConfig()),
    "SweepSpec.values": lambda v: SweepSpec("gamma", (v,)),
    "median_tracking_experiment.bkg_levels": lambda v: _median_track(bkg_levels=[v]),
    "median_tracking_experiment.distances": lambda v: _median_track(distances=[v]),
    "median_tracking_experiment.phi_sig": lambda v: _median_track(phi_sig=v),
}
NOT_FINITE_REALS = [True, "a", None, 1j, float("nan"), float("inf")]


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=repr)
@pytest.mark.parametrize("name", REAL_INPUTS)
def test_every_real_input_refuses_what_is_not_a_finite_real(name, value):
    with pytest.raises(EdhsimError, match="must be a real number in"):
        REAL_INPUTS[name](value)
