"""Flat key = value configuration files.

One ``key = value`` pair per line, ``#`` starts a comment, dotted keys group
settings (``sim.*`` sensor constants, ``step.*`` binner schedule, ``scene.*``
geometry and photon levels, ``experiment.*`` run setup). Unknown keys are
rejected so typos surface immediately. The ``EDH_SEED`` environment variable
overrides ``experiment.seed``.

Example::

    scene.kind = staircase
    scene.n_steps = 10
    scene.z_min = 1.5
    scene.z_max = 13.5
    experiment.pairs = 1.0:1.0, 1.0:2.0
    experiment.methods = oedh, pedh
    step.gamma = 0.99902
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from .binner import StepParams
from .errors import ParseError
from .harness import ExperimentConfig
from .scene import Scene, load_depth_map, synth_scene
from .transient import SimConfig

_SIM_KEYS = {"sim.n_bins", "sim.rep_period", "sim.fwhm", "sim.n_cycles", "sim.c"}
_STEP_KEYS = {
    "step.k_pct", "step.gamma", "step.beta1", "step.beta2",
    "step.decay_freeze_cycle", "step.clip",
}
_SCENE_KEYS = {
    "scene.kind", "scene.z", "scene.width", "scene.height", "scene.n_steps",
    "scene.z_min", "scene.z_max", "scene.z_left", "scene.z_right",
    "scene.step_width", "scene.phi_sig", "scene.phi_bkg",
    "scene.path", "scene.format",
}
_EXPERIMENT_KEYS = {
    "experiment.pairs", "experiment.methods", "experiment.estimators",
    "experiment.n_monte_carlo", "experiment.seed", "experiment.out_dir",
    "experiment.q", "experiment.fixed_step_size", "experiment.inliers",
}
KNOWN_KEYS = _SIM_KEYS | _STEP_KEYS | _SCENE_KEYS | _EXPERIMENT_KEYS


def parse_config_file(path) -> dict[str, str]:
    """Parse to a flat string->string map; later duplicates win."""
    conf: dict[str, str] = {}
    path = Path(path)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
        conf[key] = value
    return conf


def get_int(conf, key, default):
    try:
        return int(conf[key]) if key in conf else default
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {conf[key]!r}") from None


def get_float(conf, key, default):
    try:
        return float(conf[key]) if key in conf else default
    except ValueError:
        raise ParseError(f"{key} must be a number, got {conf[key]!r}") from None


def get_list(conf, key, default):
    if key not in conf:
        return default
    return tuple(tok.strip() for tok in conf[key].split(",") if tok.strip())


def build_sim_config(conf: dict) -> SimConfig:
    base = SimConfig()
    return SimConfig(
        n_bins=get_int(conf, "sim.n_bins", base.n_bins),
        rep_period=get_float(conf, "sim.rep_period", base.rep_period),
        fwhm=get_float(conf, "sim.fwhm", base.fwhm),
        n_cycles=get_int(conf, "sim.n_cycles", base.n_cycles),
        c=get_float(conf, "sim.c", base.c),
    )


def build_step_params(conf: dict) -> StepParams:
    base = StepParams()
    clip = base.clip
    if "step.clip" in conf:
        raw = conf["step.clip"].lower()
        clip = None if raw in ("", "none", "off") else get_float(conf, "step.clip", None)
    return StepParams(
        k_pct=get_float(conf, "step.k_pct", base.k_pct),
        gamma=get_float(conf, "step.gamma", base.gamma),
        beta1=get_float(conf, "step.beta1", base.beta1),
        beta2=get_float(conf, "step.beta2", base.beta2),
        decay_freeze_cycle=get_int(conf, "step.decay_freeze_cycle", base.decay_freeze_cycle),
        clip=clip,
    )


def build_scene(conf: dict, sim: Optional[SimConfig] = None) -> Scene:
    sim = sim or build_sim_config(conf)
    kind = conf.get("scene.kind", "constant")
    phi_sig = get_float(conf, "scene.phi_sig", 1.0)
    phi_bkg = get_float(conf, "scene.phi_bkg", 1.0)
    if kind == "file":
        if "scene.path" not in conf:
            raise ParseError("scene.kind = file requires scene.path")
        depth_map = load_depth_map(
            conf["scene.path"], conf.get("scene.format", "csv"), z_limit=sim.z_max
        )
        return Scene.uniform(depth_map, phi_sig, phi_bkg, label=Path(conf["scene.path"]).stem)
    common = {"phi_sig": phi_sig, "phi_bkg": phi_bkg, "z_limit": sim.z_max}
    if kind == "constant":
        return synth_scene(
            "constant",
            z=get_float(conf, "scene.z", 7.5),
            width=get_int(conf, "scene.width", 1),
            height=get_int(conf, "scene.height", 1),
            **common,
        )
    if kind == "staircase":
        return synth_scene(
            "staircase",
            n_steps=get_int(conf, "scene.n_steps", 10),
            z_min=get_float(conf, "scene.z_min", 1.5),
            z_max=get_float(conf, "scene.z_max", 13.5),
            step_width=get_int(conf, "scene.step_width", 1),
            height=get_int(conf, "scene.height", 1),
            **common,
        )
    if kind == "two_plane":
        return synth_scene(
            "two_plane",
            z_left=get_float(conf, "scene.z_left", 3.0),
            z_right=get_float(conf, "scene.z_right", 12.0),
            width=get_int(conf, "scene.width", 2),
            height=get_int(conf, "scene.height", 1),
            **common,
        )
    raise ParseError(f"unknown scene.kind {kind!r}")


def _parse_pairs(conf: dict) -> tuple[tuple[float, float], ...]:
    raw = get_list(conf, "experiment.pairs", ())
    if not raw:
        return ((1.0, 1.0),)
    pairs = []
    for tok in raw:
        if ":" not in tok:
            raise ParseError(f"experiment.pairs entries must be 'sig:bkg', got {tok!r}")
        sig, bkg = tok.split(":", 1)
        try:
            pairs.append((float(sig), float(bkg)))
        except ValueError:
            raise ParseError(f"bad photon pair {tok!r}") from None
    return tuple(pairs)


def resolve_seed(conf: dict, override: Optional[int] = None) -> int:
    """Seed precedence: explicit override > EDH_SEED env > config > 0."""
    if override is not None:
        return int(override)
    env = os.environ.get("EDH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"EDH_SEED must be an integer, got {env!r}") from None
    return get_int(conf, "experiment.seed", 0)


def build_experiment_config(
    conf: dict,
    out_dir=None,
    seed_override: Optional[int] = None,
) -> ExperimentConfig:
    sim = build_sim_config(conf)
    inliers = tuple(float(p) for p in get_list(conf, "experiment.inliers", ("2", "10")))
    out = out_dir if out_dir is not None else conf.get("experiment.out_dir")
    return ExperimentConfig(
        scene=build_scene(conf, sim),
        sim=sim,
        pairs=_parse_pairs(conf),
        methods=get_list(conf, "experiment.methods", ExperimentConfig.methods),
        estimators=get_list(conf, "experiment.estimators", ExperimentConfig.estimators),
        step=build_step_params(conf),
        q=get_int(conf, "experiment.q", 32),
        fixed_step_size=get_float(conf, "experiment.fixed_step_size", 1.0),
        n_monte_carlo=get_int(conf, "experiment.n_monte_carlo", 50),
        global_seed=resolve_seed(conf, seed_override),
        out_dir=Path(out) if out is not None else None,
        inlier_thresholds=inliers,
    )


def load_experiment_config(path, out_dir=None, seed_override=None) -> ExperimentConfig:
    return build_experiment_config(parse_config_file(path), out_dir, seed_override)
