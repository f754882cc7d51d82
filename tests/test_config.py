"""Config files: each key builds what setting the declared value directly builds."""

import numpy as np
import pytest

from edhsim.binner import StepParams
from edhsim.config import (
    KNOWN_KEYS,
    build_experiment_config,
    build_scene,
    build_sim_config,
    build_step_params,
    parse_config_file,
)
from edhsim.errors import InvalidParamsError, ParseError
from edhsim.harness import ExperimentConfig
from edhsim.scene import Scene, load_depth_map, save_grid, synth_scene
from edhsim.transient import SimConfig

# a short exposure keeps every experiment below small
SHORT = "sim.n_cycles = 300\nstep.decay_freeze_cycle = 250\n"


def conf_of(tmp_path, text):
    path = tmp_path / "exp.conf"
    path.write_text(text)
    return parse_config_file(path)


def assert_same_scene(a: Scene, b: Scene):
    assert a.label == b.label
    assert (a.phi_sig, a.phi_bkg) == (b.phi_sig, b.phi_bkg)
    assert np.array_equal(a.depth_map.depths, b.depth_map.depths)


def test_known_keys():
    assert KNOWN_KEYS == {
        "sim.n_bins", "sim.rep_period", "sim.fwhm", "sim.n_cycles",
        "step.k_pct", "step.gamma", "step.beta1", "step.beta2", "step.decay_freeze_cycle",
        "scene.kind", "scene.z", "scene.width", "scene.height", "scene.n_steps",
        "scene.z_min", "scene.z_max", "scene.z_left", "scene.z_right", "scene.step_width",
        "scene.phi_sig", "scene.phi_bkg", "scene.path",
        "experiment.pairs", "experiment.methods", "experiment.estimators",
        "experiment.n_monte_carlo", "experiment.seed", "experiment.out_dir", "experiment.q",
        "experiment.fixed_step_size", "experiment.inliers",
    }


def test_unset_keys_take_the_declared_defaults(tmp_path):
    conf = conf_of(tmp_path, "")
    assert build_sim_config(conf) == SimConfig()
    assert build_step_params(conf) == StepParams()
    cfg = build_experiment_config(conf)
    assert_same_scene(cfg.scene, synth_scene("constant", z=7.5, width=1, height=1,
                                             phi_sig=1.0, phi_bkg=1.0))
    assert cfg == ExperimentConfig(scene=cfg.scene)


def test_every_sim_key(tmp_path):
    conf = conf_of(tmp_path, "sim.n_bins = 512\nsim.rep_period = 5e-8\nsim.fwhm = 2e-10\n"
                             "sim.n_cycles = 400\n")
    assert build_sim_config(conf) == SimConfig(
        n_bins=512, rep_period=5e-8, fwhm=2e-10, n_cycles=400)


def test_every_step_key(tmp_path):
    conf = conf_of(tmp_path, "step.k_pct = 2.5\nstep.gamma = 0.999\nstep.beta1 = 0.9\n"
                             "step.beta2 = 0.7\nstep.decay_freeze_cycle = 100\n")
    assert build_step_params(conf) == StepParams(
        k_pct=2.5, gamma=0.999, beta1=0.9, beta2=0.7, decay_freeze_cycle=100)


@pytest.mark.parametrize("kind, text, params", [
    ("constant", "scene.z = 4.5\nscene.width = 3\nscene.height = 2\n",
     dict(z=4.5, width=3, height=2)),
    ("staircase", "scene.n_steps = 4\nscene.z_min = 2\nscene.z_max = 11\n"
                  "scene.step_width = 2\nscene.height = 3\n",
     dict(n_steps=4, z_min=2.0, z_max=11.0, step_width=2, height=3)),
    ("two_plane", "scene.z_left = 2\nscene.z_right = 8\nscene.width = 4\nscene.height = 2\n",
     dict(z_left=2.0, z_right=8.0, width=4, height=2)),
])
def test_every_scene_key(tmp_path, kind, text, params):
    conf = conf_of(tmp_path, f"scene.kind = {kind}\nscene.phi_sig = 0.5\nscene.phi_bkg = 2\n" + text)
    assert_same_scene(build_scene(conf), synth_scene(kind, phi_sig=0.5, phi_bkg=2.0, **params))


@pytest.mark.parametrize("kind, other_keys, params", [
    ("constant", "scene.n_steps = 3\n", dict(z=7.5, width=1, height=1)),
    ("staircase", "scene.z = 4\nscene.width = 5\n",
     dict(n_steps=10, z_min=1.5, z_max=13.5, step_width=1, height=1)),
    ("two_plane", "scene.z_min = 2\n", dict(z_left=3.0, z_right=12.0, width=2, height=1)),
])
def test_scene_defaults_per_kind(tmp_path, kind, other_keys, params):
    # keys of another kind are not read
    conf = conf_of(tmp_path, f"scene.kind = {kind}\n" + other_keys)
    assert_same_scene(build_scene(conf), synth_scene(kind, phi_sig=1.0, phi_bkg=1.0, **params))


def test_scene_from_file(tmp_path):
    depth = tmp_path / "room.raw"
    save_grid(np.array([[3.0, 4.0], [5.0, 6.0]]), depth)
    conf = conf_of(tmp_path, f"scene.kind = file\nscene.path = {depth}\n"
                             "scene.phi_sig = 0.5\nscene.phi_bkg = 3\n")
    expected = Scene(load_depth_map(depth), 0.5, 3.0, label="room")
    assert_same_scene(build_scene(conf), expected)


def test_scene_file_needs_a_path(tmp_path):
    with pytest.raises(ParseError, match="scene.kind = file requires scene.path"):
        build_scene(conf_of(tmp_path, "scene.kind = file\n"))


def test_unknown_scene_kind(tmp_path):
    with pytest.raises(ParseError, match="unknown scene.kind 'warp'"):
        build_scene(conf_of(tmp_path, "scene.kind = warp\n"))


def test_every_experiment_key(tmp_path):
    conf = conf_of(tmp_path, SHORT + (
        "experiment.pairs = 1:1, 0.5:2\nexperiment.methods = oedh, hedh, ewh8\n"
        "experiment.estimators = t0, ewh_peak\nexperiment.n_monte_carlo = 7\n"
        "experiment.seed = 11\nexperiment.out_dir = results\nexperiment.q = 8\n"
        "experiment.fixed_step_size = 0.5\nexperiment.inliers = 1, 5\n"))
    cfg = build_experiment_config(conf)
    assert cfg == ExperimentConfig(
        scene=cfg.scene, sim=SimConfig(n_cycles=300), pairs=((1.0, 1.0), (0.5, 2.0)),
        methods=("oedh", "hedh", "ewh8"), estimators=("t0", "ewh_peak"),
        step=StepParams(decay_freeze_cycle=250), q=8, fixed_step_size=0.5, n_monte_carlo=7,
        global_seed=11, out_dir="results", inlier_thresholds=(1.0, 5.0))


@pytest.mark.parametrize("line, message", [
    ("sim.n_bins = 1024.5", "sim.n_bins must be an integer, got '1024.5'"),
    ("sim.fwhm = wide", "sim.fwhm must be a number, got 'wide'"),
    ("step.decay_freeze_cycle = 1.5", "step.decay_freeze_cycle must be an integer, got '1.5'"),
    ("step.gamma = g", "step.gamma must be a number, got 'g'"),
    ("scene.width = two", "scene.width must be an integer, got 'two'"),
    ("scene.z = far", "scene.z must be a number, got 'far'"),
    ("scene.phi_bkg = lots", "scene.phi_bkg must be a number, got 'lots'"),
    ("experiment.q = 3.5", "experiment.q must be an integer, got '3.5'"),
    ("experiment.fixed_step_size = big", "experiment.fixed_step_size must be a number, got 'big'"),
    ("experiment.n_monte_carlo = many", "experiment.n_monte_carlo must be an integer, got 'many'"),
    ("experiment.inliers = 2, x", "each entry of experiment.inliers must be a number, got 'x'"),
])
def test_bad_values_are_named(tmp_path, line, message):
    with pytest.raises(ParseError) as exc:
        build_experiment_config(conf_of(tmp_path, SHORT + line + "\n"))
    assert str(exc.value) == message


def test_overflowing_c_times_rep_period_is_refused(tmp_path):
    # the setting is finite, but z_max = c * rep_period / 2 would be inf
    conf = conf_of(tmp_path, "sim.rep_period = 1e300\nsim.fwhm = 1e-9\n")
    with pytest.raises(InvalidParamsError, match=r"rep_period must be a real number in \(0, "
                                                 r"5\.99\d*e\+299\], got 1e\+300"):
        build_sim_config(conf)
