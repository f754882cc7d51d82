"""The benchmark's own tests, at toy size.

    python3 -m pytest perfbench/selftest.py -q

They check that the printed metrics match BENCHMARK.json by name and unit,
that the deterministic metrics and work counts repeat exactly, and that a
perturbed output is caught by the correctness checks.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import run

run.import_package()

import edhsim.harness as harness  # noqa: E402
from edhsim import EdhBoundaries  # noqa: E402
from record_digests import record  # noqa: E402
from workloads import WORKLOADS, Size  # noqa: E402

TOY = Size(n_cycles=300, n_steps=2, n_setup=2, calls=6, trace_calls=2)
SEED = 7
SPEC = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())

# spans each workload must run, and spans it must bypass
HOT = {
    "mc-grid": (
        "binner.BinnerBank.run", "histogrammer.hedh", "histogrammer.pedh", "histogrammer.oedh",
        "histogrammer.ewh", "transient.sample_stream", "transient.build_transient",
        "transient.PhotonStream.checksum", "estimator.t0_hat", "estimator.rho1",
        "estimator.t1_hat", "estimator.ewh_peak", "metrics.boundary_rmse",
        "metrics.distance_metrics", "scene.synth_scene",
    ),
    "gamma-sweep": (
        "binner.BinnerBank.run", "histogrammer.pedh", "transient.sample_stream",
        "transient.true_quantiles", "estimator.t0_hat", "metrics.distance_metrics",
    ),
    "median-track": (
        "binner.run_fixed", "binner.run_optimized", "transient.sample_stream",
        "transient.build_transient", "transient.true_quantiles",
    ),
}
BYPASSED = {
    "mc-grid": ("binner.run_fixed", "binner.run_optimized"),
    "gamma-sweep": ("histogrammer.hedh", "histogrammer.oedh", "estimator.t1_hat"),
    "median-track": ("binner.BinnerBank.run", "histogrammer.pedh", "histogrammer.hedh"),
}


@pytest.fixture(autouse=True)
def _trace_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


def bench(capsys, workload, trace=0, digests=None) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, size=TOY, digests=digests) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metric_names_and_units_match_benchmark_json(capsys, workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
    calls = {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}
    assert all(calls[f"{span}.calls"] > 0 for span in HOT[workload])
    assert all(calls[f"{span}.calls"] == 0 for span in BYPASSED[workload])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_deterministic_metrics_and_counts_repeat(capsys, workload):
    deterministic = ("depth_rmse_cm", "boundary_rmse_bins")
    first, second = (bench(capsys, workload)["metrics"] for _ in range(2))
    assert {k: first[k] for k in deterministic} == {k: second[k] for k in deterministic}

    first, second = (bench(capsys, workload, trace=1)["metrics"] for _ in range(2))
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["binner.binner_cycles"]["value"] > 0
    assert first["transient.photons_sampled"]["value"] > 0


def _shifted_pedh(shift):
    real = harness.pedh

    def pedh(stream, q, params=None):
        b = real(stream, q, params).bounds.copy()
        b[q // 2] += shift
        return EdhBoundaries(q, np.sort(b))

    return pedh


@pytest.mark.parametrize("workload", ["mc-grid", "gamma-sweep"])
def test_shifted_boundary_fails_the_digest_check(capsys, monkeypatch, workload):
    digests = record([workload], TOY, [SEED])
    assert bench(capsys, workload, digests=digests)["failed"] == 0
    monkeypatch.setattr(harness, "pedh", _shifted_pedh(0.5))
    result = bench(capsys, workload, digests=digests)
    assert not result["correct"] and result["failed"] > 0


def test_boundary_past_n_bins_fails_the_range_check(capsys, monkeypatch):
    monkeypatch.setattr(harness, "pedh", _shifted_pedh(1e4))
    result = bench(capsys, "mc-grid", digests={})
    assert not result["correct"] and result["failed"] > 0


def _shifted_run_optimized(shift):
    real = harness.run_optimized

    def run_optimized(stream, *args, **kwargs):
        # the harness reads only .cv; BinnerState itself refuses a cv outside [0, n_bins]
        return SimpleNamespace(cv=real(stream, *args, **kwargs).cv + shift)

    return run_optimized


def test_shifted_control_value_fails_the_digest_check(capsys, monkeypatch):
    digests = record(["median-track"], TOY, [SEED])
    assert bench(capsys, "median-track", digests=digests)["failed"] == 0
    monkeypatch.setattr(harness, "run_optimized", _shifted_run_optimized(0.5))
    result = bench(capsys, "median-track", digests=digests)
    assert not result["correct"] and result["failed"] > 0


def test_control_value_past_n_bins_fails_the_range_check(capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_optimized", _shifted_run_optimized(1e4))
    result = bench(capsys, "median-track", digests={})
    assert not result["correct"] and result["failed"] > 0
