"""Scenes: ground-truth depth maps plus per-pixel photon levels.

Depth maps travel in two interchangeable formats:

* CSV: one image row per line, comma-separated meters, optional first line
  ``# width height``.
* raw_f32: 16-byte header (magic ``EDHD``, u32 width, u32 height, u32
  reserved zero, all little-endian) followed by width*height little-endian
  float32 meters, row-major.

Grids are stored as float32 so a save/load round trip through either format
is bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DepthOutOfRangeError, InvalidParamsError, ParseError, check_int
from .transient import SimConfig

DEFAULT_Z_LIMIT = SimConfig().z_max

RAW_MAGIC = b"EDHD"
_RAW_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class DepthMap:
    """Scene distances in meters, (height, width) float32 grid."""

    depths: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(np.asarray(self.depths, dtype=np.float32))
        if d.ndim != 2 or d.size == 0:
            raise InvalidParamsError("depth grid must be a non-empty 2-d array")
        check_depth_range(d, math.inf)
        d.setflags(write=False)
        object.__setattr__(self, "depths", d)

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
        raise DepthOutOfRangeError(float(arr[bad].flat[0]), z_limit)


@dataclass(frozen=True)
class PixelConfig:
    """Per-pixel truth: distance plus mean photon totals per laser cycle.

    ``phi_sig`` and ``phi_bkg`` are per-cycle totals; the per-bin background
    level is ``phi_bkg / n_bins``.
    """

    z: float
    phi_sig: float
    phi_bkg: float

    def __post_init__(self):
        if not 0.0 < self.z < math.inf:
            raise InvalidParamsError(f"pixel distance must be positive, got {self.z}")
        for name, v in (("phi_sig", self.phi_sig), ("phi_bkg", self.phi_bkg)):
            if not 0.0 <= v < math.inf:
                raise InvalidParamsError(f"{name} must be finite and >= 0, got {v}")
        if self.phi_sig == 0.0 and self.phi_bkg == 0.0:
            raise InvalidParamsError("phi_sig and phi_bkg cannot both be zero")


@dataclass(frozen=True)
class Scene:
    """A depth map with per-pixel photon levels (possibly uniform)."""

    depth_map: DepthMap
    phi_sig: np.ndarray
    phi_bkg: np.ndarray
    label: str = "scene"

    def __post_init__(self):
        shape = self.depth_map.depths.shape
        for name in ("phi_sig", "phi_bkg"):
            try:
                arr = np.broadcast_to(
                    np.asarray(getattr(self, name), dtype=np.float64), shape
                ).copy()
            except ValueError:
                raise InvalidParamsError(
                    f"{name} grid does not match the {shape[1]}x{shape[0]} depth map"
                ) from None
            if not np.all((0.0 <= arr) & (arr < np.inf)):
                raise InvalidParamsError(f"{name} grid must be finite and >= 0")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any((self.phi_sig == 0.0) & (self.phi_bkg == 0.0)):
            raise InvalidParamsError("some pixel has zero signal and zero background")

    @classmethod
    def uniform(
        cls, depth_map: DepthMap, phi_sig: float, phi_bkg: float, label: str = "scene"
    ) -> "Scene":
        return cls(depth_map, np.float64(phi_sig), np.float64(phi_bkg), label)

    @property
    def width(self) -> int:
        return self.depth_map.width

    @property
    def height(self) -> int:
        return self.depth_map.height

    def pixel(self, row: int, col: int) -> PixelConfig:
        return PixelConfig(
            z=float(self.depth_map.depths[row, col]),
            phi_sig=float(self.phi_sig[row, col]),
            phi_bkg=float(self.phi_bkg[row, col]),
        )

    def iter_pixels(self) -> Iterator[tuple[int, int, PixelConfig]]:
        for row in range(self.height):
            for col in range(self.width):
                yield row, col, self.pixel(row, col)


# ---------------------------------------------------------------------------
# depth-map I/O


def save_grid(grid: np.ndarray, path, fmt: str = "csv") -> None:
    """Write a float32 grid (no range validation; estimates may hold 0)."""
    arr = np.ascontiguousarray(np.asarray(grid, dtype=np.float32))
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidParamsError("grid must be a non-empty 2-d array")
    path = Path(path)
    if fmt == "csv":
        lines = [f"# {arr.shape[1]} {arr.shape[0]}"]
        for row in arr:
            lines.append(",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "raw_f32":
        header = _RAW_HEADER.pack(RAW_MAGIC, arr.shape[1], arr.shape[0], 0)
        path.write_bytes(header + arr.astype("<f4").tobytes(order="C"))
    else:
        raise InvalidParamsError(f"unknown depth-map format {fmt!r}")


def load_grid(path, fmt: str = "csv") -> np.ndarray:
    """Read a float32 grid without depth-range validation."""
    path = Path(path)
    if fmt == "csv":
        return _parse_csv(path)
    if fmt == "raw_f32":
        return _parse_raw(path)
    raise InvalidParamsError(f"unknown depth-map format {fmt!r}")


def save_depth_map(depth_map: DepthMap, path, fmt: str = "csv") -> None:
    save_grid(depth_map.depths, path, fmt)


def load_depth_map(path, fmt: str = "csv", z_limit: float = DEFAULT_Z_LIMIT) -> DepthMap:
    """Load and validate a depth map; depths must lie in (0, z_limit]."""
    grid = load_grid(path, fmt)
    check_depth_range(grid, z_limit)
    return DepthMap(grid)


def _parse_csv(path: Path) -> np.ndarray:
    rows: list[list[np.float32]] = []
    declared = None
    with open(path) as fh:
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


def _parse_raw(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if len(blob) < _RAW_HEADER.size:
        raise ParseError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, width, height, _reserved = _RAW_HEADER.unpack_from(blob)
    if magic != RAW_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    expected = _RAW_HEADER.size + 4 * width * height
    if len(blob) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for {width}x{height}, got {len(blob)}")
    grid = np.frombuffer(blob, dtype="<f4", offset=_RAW_HEADER.size)
    return grid.reshape(height, width).astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic scenes


def constant_scene(
    phi_sig: float,
    phi_bkg: float,
    z: float = 7.5,
    width: int = 1,
    height: int = 1,
    z_limit: float = DEFAULT_Z_LIMIT,
) -> Scene:
    """All pixels at the same distance with the same photon levels."""
    check_int("width", width, 1)
    check_int("height", height, 1)
    check_depth_range(np.array([z]), z_limit)
    grid = np.full((height, width), z, dtype=np.float32)
    return Scene.uniform(DepthMap(grid), phi_sig, phi_bkg, label=f"constant_{z:g}m")


def staircase_scene(
    phi_sig: float,
    phi_bkg: float,
    n_steps: int = 10,
    z_min: float = 1.5,
    z_max: float = 13.5,
    step_width: int = 1,
    height: int = 1,
    z_limit: float = DEFAULT_Z_LIMIT,
) -> Scene:
    """Distance staircase: ``n_steps`` depths linearly spaced on [z_min, z_max].

    Each step occupies ``step_width`` columns; the map has ``height`` rows.
    """
    for name, value in (("n_steps", n_steps), ("step_width", step_width), ("height", height)):
        check_int(name, value, 1)
    if not z_min <= z_max:
        raise InvalidParamsError("need z_min <= z_max")
    check_depth_range(np.array([z_min, z_max]), z_limit)
    steps = np.linspace(z_min, z_max, n_steps) if n_steps > 1 else np.array([z_min])
    row = np.repeat(steps, step_width)
    grid = np.tile(row, (height, 1)).astype(np.float32)
    return Scene.uniform(DepthMap(grid), phi_sig, phi_bkg, label=f"staircase{n_steps}")


def two_plane_scene(
    phi_sig: float,
    phi_bkg: float,
    z_left: float = 3.0,
    z_right: float = 12.0,
    width: int = 2,
    height: int = 1,
    z_limit: float = DEFAULT_Z_LIMIT,
) -> Scene:
    """Two fronto-parallel planes split at column width // 2."""
    check_int("width", width, 2)
    check_int("height", height, 1)
    check_depth_range(np.array([z_left, z_right]), z_limit)
    grid = np.empty((height, width), dtype=np.float32)
    split = width // 2
    grid[:, :split] = z_left
    grid[:, split:] = z_right
    return Scene.uniform(DepthMap(grid), phi_sig, phi_bkg, label="two_plane")


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
