"""Every file the command line writes, pinned byte for byte.

The other tests check round trips and agreement between routes, which a
change that alters a seed, a number's text or a header on both sides would
pass. Here each subcommand runs on one small config and every file it
writes must hash to the digest recorded for it.
"""

import hashlib

import numpy as np

from edhsim.cli import main
from edhsim.scene import load_grid, read_raw

CONFIG = """\
sim.n_cycles = 300
step.decay_freeze_cycle = 250
scene.kind = staircase
scene.n_steps = 3
scene.z_min = 3.0
scene.z_max = 12.0
scene.phi_sig = 1.0
scene.phi_bkg = 2.0
experiment.pairs = 1.0:1.0, 1.0:2.0
experiment.methods = oedh, pedh, hedh, ewh32
experiment.estimators = t0, t1, ewh_peak
experiment.n_monte_carlo = 2
experiment.q = 8
experiment.seed = 3
"""

# run in this order in one directory; "golden.conf" holds CONFIG, and the
# truth of each evaluation is the sidecar export-features writes
COMMANDS = [
    ["simulate", "--config", "golden.conf", "--out", "streams"],
    ["edh", "--config", "golden.conf", "--method", "pedh", "--out", "pedh.csv"],
    ["edh", "--config", "golden.conf", "--method", "hedh", "--fixed-step-size", "2",
     "--out", "hedh.csv"],
    ["estimate", "--config", "golden.conf", "--estimator", "t0", "--bounds", "pedh.csv",
     "--out", "t0_bounds.bin"],
    ["estimate", "--config", "golden.conf", "--estimator", "t0", "--method", "pedh",
     "--out", "t0_fresh.csv"],
    ["estimate", "--config", "golden.conf", "--estimator", "t1", "--method", "oedh",
     "--out", "t1_fresh.bin"],
    ["estimate", "--config", "golden.conf", "--estimator", "ewh_peak", "--ewh-bins", "16",
     "--out", "ewh_peak.csv"],
    ["export-features", "--config", "golden.conf", "--out", "features.bin"],
    ["experiment", "--config", "golden.conf", "--out", "experiment"],
    ["sweep", "--config", "golden.conf", "--param", "gamma", "--values", "0.99,0.999",
     "--out", "sweep.csv"],
    ["evaluate", "--truth", "features.bin.truth.csv", "--est", "t0_bounds.bin",
     "--out", "metrics_raw.csv"],
    ["evaluate", "--truth", "features.bin.truth.csv", "--est", "t1_fresh.bin",
     "--out", "metrics_t1.csv"],
]

DIGESTS = {
    "ewh_peak.csv": "d3c014ba08e060ab910cc504caadf621a16d056e75483c19bda754511e5b0a68",
    "experiment/runs.csv": "f7708c2692f0360afbb2972b2e6819fa75ac70d440afa11138fa268cbae1418d",
    "experiment/summary.csv": "5029331e946710fd1fecef15ec2ccb127f95049958421e12915eb605aae220bb",
    "features.bin": "78fce93ed1d59fce7ff0d7761363276f72d0cbb581b01e652599103af354ab18",
    "features.bin.truth.csv": "d2bdedf818caf9e17ddd6873e8aff16ed9169c552434b14fa5313958c0d817b9",
    "hedh.csv": "d0856a078ef6e3892fd3dddb77a8f4ea39d9620b10cd214562a4a35e1c8d66c2",
    "metrics_raw.csv": "a5e9171cf8659e18c6178909b2aa0ff37fce02901c496b5f6549f839f8470ca0",
    "metrics_t1.csv": "9f855a725966bfd77b1057b0d94d4e940d93d7ddba1055ea81c398492f191556",
    "pedh.csv": "f7880e3f68f4967f0e995945f7a7e9f8f872498d436584e8d0aecbdfe85bc4da",
    "streams/stream_r0_c0.csv": "093f91b852eecd3edd1f38486df2a37e3b9e478bd57f7bc60a71b959298e7368",
    "streams/stream_r0_c1.csv": "ec9bb4af8ae6b0e55d6c9213014206488fa0992e3828060083572585e16cf7f6",
    "streams/stream_r0_c2.csv": "bd2995e1ed876655b75c664da54e3b9279e6fa209abfcc16ac7857c4f6fa38e8",
    "sweep.csv": "1242529a1b76c3d06256cf491dd5c399dc5d0c6039e5f808d9959e011b470fae",
    "t0_bounds.bin": "fe5664337db37af41b28570b6d588e8d7a31a52cfd971fee0ee4891eea8b7686",
    "t0_fresh.csv": "58eb45a392cb731067246c191b2b146583bb49d93e1cd757cfa2c7134c4798eb",
    "t1_fresh.bin": "eb9eb61a7b264996ba822bc51ba7f1c7ebdbb5e85c08aa5aaa4880b5751dd893",
}


def run_all(root):
    """Run every command in ``root``, the working directory; return
    ``{relative path: sha256}`` of every file written, the config excepted."""
    conf = root / "golden.conf"
    conf.write_text(CONFIG)
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p != conf}


def test_every_written_file_matches_its_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_all(tmp_path) == DIGESTS


def test_raw_and_csv_outputs_load_by_content(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_all(tmp_path)
    # the boundary route and the fresh route read the same pedh boundaries
    assert np.array_equal(load_grid(tmp_path / "t0_bounds.bin"), load_grid(tmp_path / "t0_fresh.csv"))
    assert load_grid(tmp_path / "t1_fresh.bin").shape == (1, 3)
    assert read_raw(tmp_path / "features.bin", 3).shape == (1, 3, 1024)
