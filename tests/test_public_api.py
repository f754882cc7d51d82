"""The export list and the modules stay in step as names come and go."""

import importlib
import inspect
from dataclasses import fields

import pytest

import edhsim
from edhsim.binner import BinnerBank, CycleObservation, StepParams
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
]


def test_every_export_resolves_once():
    assert len(edhsim.__all__) == len(set(edhsim.__all__))
    for name in edhsim.__all__:
        assert hasattr(edhsim, name), name


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"edhsim.{module}"), name)
    assert not hasattr(edhsim, name)
    assert name not in edhsim.__all__


def test_unread_fields_are_gone():
    assert "seed" not in {f.name for f in fields(PhotonStream)}
    assert not hasattr(CycleObservation, "total")


def test_bank_has_no_stream_axis():
    assert "n_streams" not in inspect.signature(BinnerBank).parameters


def test_bank_has_no_schedule_axis():
    assert not hasattr(BinnerBank([0.5], StepParams(), 8), "variants")
