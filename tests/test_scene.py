import numpy as np
import pytest

from edhsim.errors import DepthOutOfRangeError, InvalidParamsError, ParseError
from edhsim.scene import (
    DepthMap,
    PixelConfig,
    Scene,
    constant_scene,
    load_depth_map,
    load_grid,
    save_grid,
    synth_scene,
)
from edhsim.transient import DEFAULT_Z_MAX


class TestDepthMapCsv:
    def test_two_row_single_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("7.5\n7.5\n")
        m = load_depth_map(p, "csv")
        assert m.width == 1 and m.height == 2
        assert np.all(m.depths == np.float32(7.5))

    def test_negative_depth_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("-1.0\n")
        with pytest.raises(DepthOutOfRangeError):
            load_depth_map(p, "csv")

    def test_depth_beyond_range_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{DEFAULT_Z_MAX * 1.01}\n")
        with pytest.raises(DepthOutOfRangeError):
            load_depth_map(p, "csv")

    def test_header_roundtrip_and_mismatch(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# 2 1\n1.0,2.0\n")
        m = load_depth_map(p, "csv")
        assert m.width == 2 and m.height == 1
        p.write_text("# 3 1\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_depth_map(p, "csv")

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            load_depth_map(p, "csv")

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,abc\n")
        with pytest.raises(ParseError):
            load_depth_map(p, "csv")

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("\n")
        with pytest.raises(ParseError):
            load_depth_map(p, "csv")


class TestDepthMapRaw:
    def test_declared_shape_roundtrip(self, tmp_path):
        import struct

        p = tmp_path / "m.bin"
        values = [1.5, 4.5, 9.0, 13.5]
        p.write_bytes(
            struct.pack("<4sIII", b"EDHD", 2, 2, 0)
            + np.array(values, dtype="<f4").tobytes()
        )
        m = load_depth_map(p, "raw_f32")
        assert m.depths.shape == (2, 2)
        assert np.array_equal(m.depths.ravel(), np.array(values, dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(ParseError):
            load_depth_map(p, "raw_f32")

    def test_truncated_payload(self, tmp_path):
        import struct

        p = tmp_path / "m.bin"
        p.write_bytes(struct.pack("<4sIII", b"EDHD", 2, 2, 0) + b"\0" * 8)
        with pytest.raises(ParseError):
            load_depth_map(p, "raw_f32")


@pytest.mark.parametrize("fmt", ["csv", "raw_f32"])
def test_save_load_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(0)
    grid = rng.uniform(0.1, 14.9, size=(5, 7)).astype(np.float32)
    m = DepthMap(grid)
    p = tmp_path / ("m.csv" if fmt == "csv" else "m.bin")
    save_grid(m.depths, p, fmt)
    again = load_depth_map(p, fmt)
    assert np.array_equal(m.depths, again.depths)
    assert m.depths.dtype == again.depths.dtype


def test_load_grid_allows_zero(tmp_path):
    p = tmp_path / "est.csv"
    p.write_text("0.0,1.0\n")
    grid = load_grid(p, "csv")
    assert grid[0, 0] == 0.0


class TestSynthScenes:
    def test_constant(self):
        s = synth_scene("constant", z=7.5, width=4, height=4, phi_sig=1.0, phi_bkg=1.0)
        assert s.depth_map.depths.shape == (4, 4)
        assert np.all(s.depth_map.depths == np.float32(7.5))
        assert len(set(np.asarray(s.depth_map.depths).ravel().tolist())) == 1

    def test_staircase_matches_linspace(self):
        s = synth_scene(
            "staircase", n_steps=10, z_min=1.5, z_max=13.5, phi_sig=1.0, phi_bkg=1.0
        )
        expected = np.linspace(1.5, 13.5, 10).astype(np.float32)
        got = s.depth_map.depths[0]
        assert got[0] == np.float32(1.5) and got[-1] == np.float32(13.5)
        assert np.array_equal(got, expected)
        increments = np.diff(got.astype(np.float64))
        assert np.allclose(increments, increments[0], rtol=1e-5)

    def test_two_plane_split_at_half_width(self):
        s = synth_scene(
            "two_plane", z_left=3.0, z_right=12.0, width=6, height=2,
            phi_sig=1.0, phi_bkg=1.0,
        )
        assert np.all(s.depth_map.depths[:, :3] == np.float32(3.0))
        assert np.all(s.depth_map.depths[:, 3:] == np.float32(12.0))

    def test_deterministic(self):
        a = synth_scene("staircase", n_steps=5, z_min=2.0, z_max=9.0, phi_sig=0.5, phi_bkg=2.5)
        b = synth_scene("staircase", n_steps=5, z_min=2.0, z_max=9.0, phi_sig=0.5, phi_bkg=2.5)
        assert np.array_equal(a.depth_map.depths, b.depth_map.depths)
        assert (a.phi_sig, a.phi_bkg) == (b.phi_sig, b.phi_bkg)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            synth_scene("staircase", n_steps=0, z_min=1.0, z_max=2.0, phi_sig=1.0, phi_bkg=1.0)
        with pytest.raises(InvalidParamsError, match="width must be an integer >= 1, got 2.5"):
            constant_scene(1.0, 1.0, width=2.5)
        with pytest.raises(DepthOutOfRangeError):
            synth_scene("constant", z=99.0, width=1, height=1, phi_sig=1.0, phi_bkg=1.0)
        with pytest.raises(InvalidParamsError):
            synth_scene("spiral", z=1.0)


class TestPixelConfig:
    def test_valid(self):
        p = PixelConfig(7.5, 1.0, 0.5)
        assert p.phi_sig == 1.0

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidParamsError):
            PixelConfig(7.5, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParamsError):
            PixelConfig(7.5, -0.1, 1.0)

    @pytest.mark.parametrize("z", ["a", None, True, False, 0.0, -1.0, np.inf, np.nan])
    def test_distance_must_be_a_positive_finite_real(self, z):
        with pytest.raises(InvalidParamsError, match="pixel distance"):
            PixelConfig(z, 1.0, 1.0)

    @pytest.mark.parametrize("z", [3, np.float32(3.0), np.int64(3)])
    def test_numpy_and_integer_distances_accepted(self, z):
        assert PixelConfig(z, 1.0, 1.0).z == 3.0


def test_scene_pixel_lookup():
    s = synth_scene("two_plane", z_left=3.0, z_right=12.0, width=4, height=1,
                    phi_sig=0.5, phi_bkg=2.5)
    pixels = list(s.iter_pixels())
    assert [(r, c) for r, c, _p in pixels] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    r, c, p = pixels[3]
    assert p.z == pytest.approx(12.0)
    assert p.phi_sig == 0.5 and p.phi_bkg == 2.5


def test_iter_pixels_is_row_major_with_exact_depths():
    depths = np.array([[1.1, 2.2, 3.3], [4.4, 5.5, 6.6]], dtype=np.float32)
    s = Scene(DepthMap(depths), 0.5, 2.5)
    pixels = list(s.iter_pixels())
    assert [(r, c) for r, c, _p in pixels] == [(r, c) for r in range(2) for c in range(3)]
    # each depth is the float32 grid value widened to a Python float
    assert [p.z for _r, _c, p in pixels] == depths.astype(np.float64).ravel().tolist()
    assert all(type(p.z) is float for _r, _c, p in pixels)


BAD_LEVELS = [(-0.1, 1.0), (1.0, -0.1), (np.inf, 1.0), (1.0, np.nan), (0.0, 0.0),
              ("a", 1.0), (1.0, None), (True, 1.0), (1.0, False)]


@pytest.mark.parametrize("phi_sig, phi_bkg", BAD_LEVELS)
def test_bad_levels_rejected_by_scene_and_pixel(phi_sig, phi_bkg):
    dm = DepthMap(np.full((2, 2), 5.0, dtype=np.float32))
    with pytest.raises(InvalidParamsError, match="phi_sig|phi_bkg"):
        Scene(dm, phi_sig, phi_bkg)
    with pytest.raises(InvalidParamsError, match="phi_sig|phi_bkg"):
        PixelConfig(5.0, phi_sig, phi_bkg)
