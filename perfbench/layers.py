"""The layers the traced run measures, and the per-layer metrics it prints.

Span names are ``<module>.<function>`` of the package's own modules; see
``spans.span_name``. Work counts are computed from the arguments and results
of the traced calls, so they repeat exactly for a given seed:

* ``transient.photons_sampled``: photons in the streams ``sample_stream``
  returned.
* ``binner.binner_cycles`` (computed): binner updates, i.e. binners times
  cycles. ``BinnerBank.run`` adds bank size x ``n_cycles`` (pedh: (q-1) x
  n_cycles); ``hedh`` adds, for each level, its intervals x its cycles, with
  the level cuts computed as ``hedh`` computes them; ``run_fixed`` and
  ``run_optimized`` add ``n_cycles``.
"""

from __future__ import annotations

import numpy as np

import edhsim.harness as harness
import edhsim.scene as scene_mod
from edhsim.binner import BinnerBank
from edhsim.transient import PhotonStream
from spans import Tracer

# names edhsim.harness looks up when it runs, patched in its namespace
HARNESS_CALLEES = (
    "build_transient", "sample_stream", "true_quantiles",
    "oedh", "pedh", "hedh", "ewh",
    "t0_hat", "rho1", "t1_hat", "ewh_peak",
    "boundary_rmse", "distance_metrics",
    "run_fixed", "run_optimized",
)
# the benchmark's entry points; their self time is the harness's own work
HARNESS_ROOTS = ("run_experiment", "sweep", "median_tracking_experiment")

LAYER_SPANS = (
    "binner.BinnerBank.run", "binner.run_optimized", "binner.run_fixed",
    "histogrammer.hedh", "histogrammer.pedh", "histogrammer.oedh", "histogrammer.ewh",
    "transient.sample_stream", "transient.build_transient", "transient.true_quantiles",
    "transient.PhotonStream.checksum",
    "estimator.t0_hat", "estimator.rho1", "estimator.t1_hat", "estimator.ewh_peak",
    "metrics.boundary_rmse", "metrics.distance_metrics",
    "scene.synth_scene",
)
# spans whose self time is spent stepping binners
STEPPING_SPANS = (
    "binner.BinnerBank.run", "binner.run_optimized", "binner.run_fixed", "histogrammer.hedh",
)

PER_LAYER_UNITS = {}
for _span in LAYER_SPANS:
    PER_LAYER_UNITS[f"{_span}.calls"] = "count"
    PER_LAYER_UNITS[f"{_span}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "binner.binner_cycles": "count",
    "binner.binner_cycles_per_s": "1/s",
    "transient.photons_sampled": "count",
    "transient.sample_stream.photons_per_s": "1/s",
    "harness.self_s": "s",
    "harness.self_frac": "ratio",
    "trace_overhead_frac": "ratio",
})


def trace_targets() -> list:
    return (
        [(harness, name) for name in HARNESS_CALLEES + HARNESS_ROOTS]
        + [(BinnerBank, "run"), (PhotonStream, "checksum"), (scene_mod, "synth_scene")]
    )


def _photons(args, kwargs, stream):
    return {"photons_sampled": stream.total_photons}


def _bank_cycles(args, kwargs, cvs):
    bank, stream = args
    return {"binner_cycles": bank.targets.size * stream.n_cycles}


def _hedh_cycles(args, kwargs, bounds):
    n_cycles = args[0].n_cycles
    levels = bounds.q.bit_length() - 1
    cuts = np.rint(np.arange(levels + 1) / levels * n_cycles).astype(np.int64)
    return {"binner_cycles": int(sum((1 << lv) * int(cuts[lv + 1] - cuts[lv])
                                     for lv in range(levels)))}


def _single_cycles(args, kwargs, state):
    return {"binner_cycles": args[0].n_cycles}


def make_tracer() -> Tracer:
    return Tracer(counters={
        "transient.sample_stream": _photons,
        "binner.BinnerBank.run": _bank_cycles,
        "histogrammer.hedh": _hedh_cycles,
        "binner.run_fixed": _single_cycles,
        "binner.run_optimized": _single_cycles,
    })


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    table = tracer.layer_table()
    values = {}
    for span in LAYER_SPANS:
        calls, self_s = table.get(span, (0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    cycles = tracer.counts["binner_cycles"]
    photons = tracer.counts["photons_sampled"]
    stepping_s = sum(values[f"{s}.self_s"] for s in STEPPING_SPANS)
    harness_s = sum(s for name, (_c, s) in table.items() if name.startswith("harness."))
    values.update({
        "binner.binner_cycles": cycles,
        "binner.binner_cycles_per_s": _ratio(cycles, stepping_s),
        "transient.photons_sampled": photons,
        "transient.sample_stream.photons_per_s":
            _ratio(photons, values["transient.sample_stream.self_s"]),
        "harness.self_s": harness_s,
        "harness.self_frac": _ratio(harness_s, tracer.root_seconds()),
        "trace_overhead_frac": overhead,
    })
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
