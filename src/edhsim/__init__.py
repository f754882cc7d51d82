"""Single-photon lidar simulation with streaming equi-depth histogram sketches.

The pipeline: build a per-pixel transient (Gaussian pulse on a flat
background), sample Poisson photon-timestamp streams cycle by cycle,
compress them online with fixed-memory quantile-tracking binners, and
reconstruct distances from the resulting equi-depth bin boundaries. The
harness benchmarks the streaming histogrammers against an exact quantile
oracle and conventional equi-width histograms.
"""

from .binner import (
    BinnerBank,
    BinnerState,
    CycleObservation,
    StepParams,
    delta,
    fixed_step,
    observe,
    optimized_step,
    run_fixed,
    run_optimized,
)
from .errors import EdhsimError
from .estimator import (
    DensityEstimate,
    DistanceMap,
    bin_to_distance,
    distance_to_bin,
    ewh_peak,
    rho0,
    rho1,
    t0_hat,
    t1_hat,
)
from .harness import (
    ExperimentConfig,
    SweepSpec,
    export_density_features,
    median_tracking_experiment,
    run_block_pipeline,
    run_experiment,
    run_pixel_pipeline,
    sweep,
)
from .histogrammer import EdhBoundaries, EwHistogram, ewh, hedh, oedh, pedh, pedh_variants
from .metrics import MetricsReport, boundary_rmse, distance_metrics
from .scene import (
    DepthMap,
    PixelConfig,
    Scene,
    load_depth_map,
    save_depth_map,
    synth_scene,
)
from .transient import (
    PhotonStream,
    SimConfig,
    StreamBlock,
    Transient,
    build_transient,
    sample_cycle,
    sample_stream,
    sbr,
    true_quantiles,
)

__version__ = "0.1.0"

__all__ = [
    "BinnerBank", "BinnerState", "CycleObservation", "StepParams",
    "delta", "fixed_step", "observe", "optimized_step", "run_fixed", "run_optimized",
    "EdhsimError",
    "DensityEstimate", "DistanceMap", "bin_to_distance", "distance_to_bin",
    "ewh_peak", "rho0", "rho1", "t0_hat", "t1_hat",
    "ExperimentConfig", "SweepSpec", "export_density_features",
    "median_tracking_experiment", "run_block_pipeline", "run_experiment", "run_pixel_pipeline",
    "sweep",
    "EdhBoundaries", "EwHistogram", "ewh", "hedh", "oedh", "pedh", "pedh_variants",
    "MetricsReport", "boundary_rmse", "distance_metrics",
    "DepthMap", "PixelConfig", "Scene", "load_depth_map", "save_depth_map", "synth_scene",
    "PhotonStream", "SimConfig", "StreamBlock", "Transient", "build_transient",
    "sample_cycle", "sample_stream", "sbr", "true_quantiles",
    "__version__",
]
