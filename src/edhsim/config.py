"""Flat key = value configuration files.

One ``key = value`` pair per line, ``#`` starts a comment, dotted keys group
settings (``sim.*`` sensor constants, ``step.*`` binner schedule, ``scene.*``
geometry and photon levels, ``experiment.*`` run setup). Unknown keys are
rejected so typos surface immediately. A seed given to the loader (the CLI's
``--seed``) overrides ``experiment.seed``.

The keys and their defaults are read off the declarations they fill:
``sim.X`` is field ``X`` of :class:`~edhsim.transient.SimConfig`, ``step.X``
field ``X`` of :class:`~edhsim.binner.StepParams`, and ``scene.X`` parameter
``X`` of the scene kind's builder in :data:`~edhsim.scene.SCENE_BUILDERS`.
``scene.kind = file`` loads ``scene.path`` instead, as CSV or raw_f32 by the
file's own first bytes (:func:`~edhsim.scene.load_grid`).

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

import inspect
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .binner import StepParams
from .errors import ParseError
from .harness import ExperimentConfig
from .scene import SCENE_BUILDERS, Scene, load_depth_map, synth_scene
from .transient import SimConfig


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _builder_defaults(builder) -> dict:
    """A scene builder's settable parameters and their defaults: every one
    with a default except ``z_limit``, which comes from ``sim``."""
    return {name: p.default for name, p in inspect.signature(builder).parameters.items()
            if p.default is not p.empty and name != "z_limit"}


KNOWN_KEYS = (
    {f"sim.{name}" for name in _field_defaults(SimConfig)}
    | {f"step.{name}" for name in _field_defaults(StepParams)}
    | {f"scene.{name}" for b in SCENE_BUILDERS.values() for name in _builder_defaults(b)}
    | {"scene.kind", "scene.phi_sig", "scene.phi_bkg", "scene.path"}
    | {f"experiment.{name}" for name in (
        "pairs", "methods", "estimators", "n_monte_carlo", "seed", "out_dir", "q",
        "fixed_step_size", "inliers")}
)


def parse_config_file(path) -> dict[str, str]:
    """Parse to a flat string->string map; later duplicates win."""
    conf: dict[str, str] = {}
    path = Path(path)
    # an undecodable byte fails the line's check like any other bad text
    for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), start=1):
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


def _number(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{name} must be a number, got {text!r}") from None


def get_float(conf, key, default):
    return _number(key, conf[key]) if key in conf else default


def _entries(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def get_list(conf, key, default):
    return _entries(conf[key]) if key in conf else default


def parse_numbers(name: str, text: str) -> tuple[float, ...]:
    """The comma-separated numbers (empty entries skipped) of config key or
    CLI flag ``name``; the ParseError for an entry that is not one names it."""
    return tuple(_number(f"each entry of {name}", tok) for tok in _entries(text))


def _settings(conf: dict, prefix: str, defaults: dict) -> dict:
    """``{name: value}`` of ``prefix + name`` for every name in ``defaults``,
    each parsed by the type of its default (an int as an integer, a float as
    a number) or left at the default when unset."""
    return {name: (get_int if isinstance(default, int) else get_float)(conf, prefix + name, default)
            for name, default in defaults.items()}


def build_sim_config(conf: dict) -> SimConfig:
    return SimConfig(**_settings(conf, "sim.", _field_defaults(SimConfig)))


def build_step_params(conf: dict) -> StepParams:
    return StepParams(**_settings(conf, "step.", _field_defaults(StepParams)))


def build_scene(conf: dict, sim: Optional[SimConfig] = None) -> Scene:
    sim = sim or build_sim_config(conf)
    kind = conf.get("scene.kind", "constant")
    phi_sig = get_float(conf, "scene.phi_sig", 1.0)
    phi_bkg = get_float(conf, "scene.phi_bkg", 1.0)
    if kind == "file":
        if "scene.path" not in conf:
            raise ParseError("scene.kind = file requires scene.path")
        depth_map = load_depth_map(conf["scene.path"], z_limit=sim.z_max)
        return Scene(depth_map, phi_sig, phi_bkg, label=Path(conf["scene.path"]).stem)
    if kind not in SCENE_BUILDERS:
        raise ParseError(f"unknown scene.kind {kind!r}")
    params = _settings(conf, "scene.", _builder_defaults(SCENE_BUILDERS[kind]))
    return synth_scene(kind, phi_sig=phi_sig, phi_bkg=phi_bkg, z_limit=sim.z_max, **params)


def _parse_pairs(conf: dict) -> tuple[tuple[float, float], ...]:
    raw = get_list(conf, "experiment.pairs", ())
    if not raw:
        return ExperimentConfig.pairs
    pairs = []
    for tok in raw:
        if ":" not in tok:
            raise ParseError(f"experiment.pairs entries must be 'sig:bkg', got {tok!r}")
        pairs.append(tuple(_number(f"each side of the pair {tok!r}", x) for x in tok.split(":", 1)))
    return tuple(pairs)


def resolve_seed(conf: dict, override: Optional[int] = None) -> int:
    """Seed precedence: explicit override > ``experiment.seed`` > 0."""
    if override is not None:
        return int(override)
    return get_int(conf, "experiment.seed", ExperimentConfig.global_seed)


def build_experiment_config(
    conf: dict,
    out_dir=None,
    seed_override: Optional[int] = None,
) -> ExperimentConfig:
    sim = build_sim_config(conf)
    inliers = conf.get("experiment.inliers")
    out = out_dir if out_dir is not None else conf.get("experiment.out_dir")
    return ExperimentConfig(
        scene=build_scene(conf, sim),
        sim=sim,
        pairs=_parse_pairs(conf),
        methods=get_list(conf, "experiment.methods", ExperimentConfig.methods),
        estimators=get_list(conf, "experiment.estimators", ExperimentConfig.estimators),
        step=build_step_params(conf),
        q=get_int(conf, "experiment.q", ExperimentConfig.q),
        fixed_step_size=get_float(conf, "experiment.fixed_step_size",
                                  ExperimentConfig.fixed_step_size),
        n_monte_carlo=get_int(conf, "experiment.n_monte_carlo", ExperimentConfig.n_monte_carlo),
        global_seed=resolve_seed(conf, seed_override),
        out_dir=Path(out) if out is not None else None,
        inlier_thresholds=(ExperimentConfig.inlier_thresholds if inliers is None
                           else parse_numbers("experiment.inliers", inliers)),
    )


def load_experiment_config(path, out_dir=None, seed_override=None) -> ExperimentConfig:
    return build_experiment_config(parse_config_file(path), out_dir, seed_override)
