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
    StepParams,
    run_fixed,
    run_optimized,
)
from .errors import EdhsimError
from .estimator import (
    DensityEstimate,
    bin_to_distance,
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
    run_experiment,
    sweep,
)
from .histogrammer import EdhBoundaries, EwHistogram, ewh, hedh, oedh, pedh
from .metrics import MetricsReport, boundary_rmse, distance_metrics
from .scene import (
    DepthMap,
    PixelConfig,
    Scene,
    load_depth_map,
    synth_scene,
)
from .transient import (
    PhotonStream,
    SimConfig,
    Transient,
    build_transient,
    sample_stream,
    true_quantiles,
)

__version__ = "0.1.0"

__all__ = [
    "BinnerBank", "BinnerState", "StepParams", "run_fixed", "run_optimized",
    "EdhsimError",
    "DensityEstimate", "bin_to_distance",
    "ewh_peak", "rho0", "rho1", "t0_hat", "t1_hat",
    "ExperimentConfig", "SweepSpec", "export_density_features",
    "median_tracking_experiment", "run_experiment", "sweep",
    "EdhBoundaries", "EwHistogram", "ewh", "hedh", "oedh", "pedh",
    "MetricsReport", "boundary_rmse", "distance_metrics",
    "DepthMap", "PixelConfig", "Scene", "load_depth_map", "synth_scene",
    "PhotonStream", "SimConfig", "Transient", "build_transient",
    "sample_stream", "true_quantiles",
    "__version__",
]
