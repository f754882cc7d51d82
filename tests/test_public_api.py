"""The export list and the modules stay in step as names come and go."""

import importlib
import inspect
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import edhsim
from edhsim.binner import BinnerBank, BinnerState, StepParams
from edhsim.transient import PhotonStream

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
