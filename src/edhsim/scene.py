"""Scenes: ground-truth depth maps seen at one photon level.

Grids travel in two formats:

* CSV: one image row per line, comma-separated meters, optional first line
  ``# width height``.
* raw_f32: a 16-byte header (4-byte magic, then u32 width, u32 height and
  u32 channels, all little-endian) followed by the little-endian float32
  values, row-major with each pixel's channels contiguous. A depth map
  (height, width) has magic ``EDHD`` and channels 0, which is read back as
  reserved and ignored; a channel grid (height, width, channels), as
  :func:`~edhsim.harness.export_density_features` writes, has magic ``EDHF``.

A file's format is read off the file: raw_f32 if it starts with ``EDHD``,
CSV otherwise (a CSV line that is not numeric is refused, so no CSV grid
starts so). It is written as CSV under a ``.csv`` name and as raw_f32 under
any other. Grids are stored as float32 so a save/load round trip through
either format is bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidParamsError, ParseError, check_int, check_real, frozen_array
from .transient import DEFAULT_Z_MAX, PixelConfig, check_levels

# raw_f32 magic by grid rank: depth map, channel grid
_RAW_MAGIC = {2: b"EDHD", 3: b"EDHF"}
_RAW_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class DepthMap:
    """Scene distances in meters, (height, width) float32 grid."""

    depths: np.ndarray

    def __post_init__(self):
        d = frozen_array(self, "depths", np.float32)
        if d.ndim != 2 or d.size == 0:
            raise InvalidParamsError("depth grid must be a non-empty 2-d array")
        check_depth_range(d, math.inf)

    @property
    def width(self) -> int:
        return self.depths.shape[1]

    @property
    def height(self) -> int:
        return self.depths.shape[0]


def check_depth_range(depths: np.ndarray, z_limit: float) -> None:
    """Reject depths that are not finite or lie outside (0, z_limit]."""
    arr = np.asarray(depths, dtype=np.float64)
    bad = ~(np.isfinite(arr) & (0.0 < arr) & (arr <= z_limit))
    if np.any(bad):
        raise InvalidParamsError(f"depth must be finite and in (0, {z_limit!r}] m, "
                                 f"got {float(arr[bad].flat[0])!r} m")


@dataclass(frozen=True)
class Scene:
    """A depth map seen at one photon level, the same at every pixel."""

    depth_map: DepthMap
    phi_sig: float
    phi_bkg: float
    label: str = "scene"

    def __post_init__(self):
        check_levels(self.phi_sig, self.phi_bkg)

    @property
    def width(self) -> int:
        return self.depth_map.width

    @property
    def height(self) -> int:
        return self.depth_map.height

    def iter_pixels(self) -> Iterator[tuple[int, int, PixelConfig]]:
        """``(row, col, pixel)`` of every pixel, row-major."""
        for (row, col), z in np.ndenumerate(self.depth_map.depths):
            yield row, col, PixelConfig(float(z), self.phi_sig, self.phi_bkg)


# ---------------------------------------------------------------------------
# grid I/O


def save_grid(grid: np.ndarray, path) -> None:
    """Write a float32 grid (no range validation; estimates may hold 0): as
    CSV if ``path`` ends in ``.csv``, as raw_f32 otherwise."""
    arr = np.asarray(grid, dtype=np.float32)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidParamsError("grid must be a non-empty 2-d array")
    if not str(path).endswith(".csv"):
        write_raw(path, arr)
        return
    lines = [f"# {arr.shape[1]} {arr.shape[0]}"]
    for row in arr:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_grid(path) -> np.ndarray:
    """Read a float32 grid without depth-range validation: raw_f32 if the
    file starts with ``EDHD``, CSV otherwise."""
    with open(path, "rb") as fh:
        raw = fh.read(4) == _RAW_MAGIC[2]
    return read_raw(path, 2) if raw else _parse_csv(Path(path))


def load_depth_map(path, *, z_limit: float = DEFAULT_Z_MAX) -> DepthMap:
    """Load and validate a depth map; depths must lie in (0, z_limit]."""
    grid = load_grid(path)
    check_depth_range(grid, z_limit)
    return DepthMap(grid)


def write_raw(path, grid: np.ndarray) -> None:
    """Write a 2-d depth map or a 3-d channel grid as raw_f32."""
    arr = np.asarray(grid, dtype="<f4")
    height, width, *channels = arr.shape
    header = _RAW_HEADER.pack(_RAW_MAGIC[arr.ndim], width, height, *(channels or [0]))
    Path(path).write_bytes(header + arr.tobytes(order="C"))


def read_raw(path, ndim: int) -> np.ndarray:
    """Read a raw_f32 grid of rank ``ndim``: a depth map (2) or a channel
    grid (3)."""
    blob = Path(path).read_bytes()
    if len(blob) < _RAW_HEADER.size:
        raise ParseError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, width, height, channels = _RAW_HEADER.unpack_from(blob)
    if magic != _RAW_MAGIC[ndim]:
        raise ParseError(f"{path}: bad magic {magic!r}, expected {_RAW_MAGIC[ndim]!r}")
    shape = (height, width, channels)[:ndim]
    expected = _RAW_HEADER.size + 4 * math.prod(shape)
    if len(blob) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for shape {shape}, got {len(blob)}")
    return np.frombuffer(blob, dtype="<f4", offset=_RAW_HEADER.size).reshape(shape).astype(np.float32)


def _parse_csv(path: Path) -> np.ndarray:
    rows: list[list[np.float32]] = []
    declared = None
    # an undecodable byte is not numeric, so it fails the value check below
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                if lineno == 1:
                    parts = text[1:].split()
                    if len(parts) != 2:
                        raise ParseError(f"{path}: line 1: header must be '# width height'")
                    try:
                        declared = (int(parts[0]), int(parts[1]))
                    except ValueError:
                        raise ParseError(f"{path}: line 1: bad header integers") from None
                continue
            try:
                row = [np.float32(float(tok)) for tok in text.split(",")]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric value") from None
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(rows[0])} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no depth rows found")
    grid = np.array(rows, dtype=np.float32)
    if declared is not None and declared != (grid.shape[1], grid.shape[0]):
        raise ParseError(
            f"{path}: header declares {declared[0]}x{declared[1]}, "
            f"file holds {grid.shape[1]}x{grid.shape[0]}"
        )
    return grid


# ---------------------------------------------------------------------------
# synthetic scenes


def constant_scene(
    phi_sig: float,
    phi_bkg: float,
    z: float = 7.5,
    width: int = 1,
    height: int = 1,
    z_limit: float = DEFAULT_Z_MAX,
) -> Scene:
    """All pixels at the same distance with the same photon levels."""
    check_int("width", width, 1)
    check_int("height", height, 1)
    check_real("z", z, -math.inf)  # then check_depth_range checks (0, z_limit]
    check_depth_range(np.array([z]), z_limit)
    grid = np.full((height, width), z, dtype=np.float32)
    return Scene(DepthMap(grid), phi_sig, phi_bkg, label=f"constant_{z:g}m")


def staircase_scene(
    phi_sig: float,
    phi_bkg: float,
    n_steps: int = 10,
    z_min: float = 1.5,
    z_max: float = 13.5,
    step_width: int = 1,
    height: int = 1,
    z_limit: float = DEFAULT_Z_MAX,
) -> Scene:
    """Distance staircase: ``n_steps`` depths linearly spaced on [z_min, z_max].

    Each step occupies ``step_width`` columns; the map has ``height`` rows.
    """
    for name, value in (("n_steps", n_steps), ("step_width", step_width), ("height", height)):
        check_int(name, value, 1)
    check_real("z_min", z_min, -math.inf)
    check_real("z_max", z_max, -math.inf)
    if not z_min <= z_max:
        raise InvalidParamsError("need z_min <= z_max")
    check_depth_range(np.array([z_min, z_max]), z_limit)
    steps = np.linspace(z_min, z_max, n_steps) if n_steps > 1 else np.array([z_min])
    row = np.repeat(steps, step_width)
    grid = np.tile(row, (height, 1)).astype(np.float32)
    return Scene(DepthMap(grid), phi_sig, phi_bkg, label=f"staircase{n_steps}")


def two_plane_scene(
    phi_sig: float,
    phi_bkg: float,
    z_left: float = 3.0,
    z_right: float = 12.0,
    width: int = 2,
    height: int = 1,
    z_limit: float = DEFAULT_Z_MAX,
) -> Scene:
    """Two fronto-parallel planes split at column width // 2."""
    check_int("width", width, 2)
    check_int("height", height, 1)
    check_real("z_left", z_left, -math.inf)
    check_real("z_right", z_right, -math.inf)
    check_depth_range(np.array([z_left, z_right]), z_limit)
    grid = np.empty((height, width), dtype=np.float32)
    split = width // 2
    grid[:, :split] = z_left
    grid[:, split:] = z_right
    return Scene(DepthMap(grid), phi_sig, phi_bkg, label="two_plane")


# scene kind -> builder; the config's scene.* keys are the builders' parameters
SCENE_BUILDERS = {
    "constant": constant_scene,
    "staircase": staircase_scene,
    "two_plane": two_plane_scene,
}


def synth_scene(kind: str, **params) -> Scene:
    """Dispatch on scene kind: one of :data:`SCENE_BUILDERS`."""
    if kind not in SCENE_BUILDERS:
        raise InvalidParamsError(
            f"unknown scene kind {kind!r}; choose from {sorted(SCENE_BUILDERS)}")
    try:
        return SCENE_BUILDERS[kind](**params)
    except TypeError as exc:
        raise InvalidParamsError(f"bad parameters for {kind!r} scene: {exc}") from None
