import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edhsim.errors import InvalidParamsError
from edhsim.estimator import (
    RHO1_GRID_SIZE,
    bin_to_distance,
    ewh_peak,
    rho0,
    rho1,
    t0_hat,
    t1_hat,
)
from edhsim.histogrammer import EdhBoundaries, EwHistogram
from edhsim.transient import SPEED_OF_LIGHT, SimConfig

SIM = SimConfig()
B = SIM.n_bins


def bounds_of(*vals):
    return EdhBoundaries(len(vals) - 1, np.asarray(vals, dtype=np.float64))


@st.composite
def random_bounds(draw):
    # interior bounds on a quarter-bin lattice so widths stay well separated
    # from zero (degenerate-bin merging has its own dedicated tests)
    q = draw(st.integers(2, 24))
    interior = draw(
        st.lists(
            st.integers(2, 4 * B - 2), min_size=q - 1, max_size=q - 1, unique=True
        )
    )
    return bounds_of(0.0, *(v / 4.0 for v in sorted(interior)), float(B))


class TestRho0:
    def test_uniform_two_bins(self):
        d = rho0(bounds_of(0.0, 512.0, 1024.0))
        assert np.allclose(d.values, [1 / 512, 1 / 512])

    def test_hand_computed_reciprocals(self):
        d = rho0(bounds_of(0.0, 100.0, 510.0, 514.0, 1024.0))
        assert np.allclose(np.diff(d.edges), [100.0, 410.0, 4.0, 510.0])
        assert np.allclose(d.values, [1 / 100, 1 / 410, 1 / 4, 1 / 510])

    def test_degenerate_bin_merged(self):
        d = rho0(bounds_of(0.0, 5.0, 5.0, 10.0))
        assert np.array_equal(d.edges, [0.0, 5.0, 10.0])
        assert np.allclose(d.values, [0.2, 0.2])

    @given(random_bounds())
    @settings(max_examples=60)
    def test_mass_equals_q(self, bounds):
        d = rho0(bounds)
        mass = float(np.sum(np.diff(d.edges) * d.values))
        assert mass == pytest.approx(bounds.q, rel=1e-12)

    @given(random_bounds(), st.floats(0.25, 4.0))
    @settings(max_examples=40)
    def test_scale_covariance(self, bounds, scale):
        d0 = rho0(bounds)
        # exact width ties flip argmax under floating-point scaling; the
        # invariant concerns a well-defined (unique) narrowest bin
        top_two = np.sort(d0.values)[-2:]
        assume(top_two[0] < top_two[1] * (1.0 - 1e-9))
        scaled = EdhBoundaries(bounds.q, bounds.bounds * scale)
        d1 = rho0(scaled)
        assert np.allclose(d1.values, d0.values / scale, rtol=1e-9)
        assert np.argmax(d1.values) == np.argmax(d0.values)


class TestT0Hat:
    def test_narrowest_bin_midpoint(self):
        assert t0_hat(bounds_of(0.0, 100.0, 510.0, 514.0, 1024.0)) == 512.0

    def test_uniform_tie_picks_first(self):
        assert t0_hat(bounds_of(0.0, 256.0, 512.0, 768.0, 1024.0)) == 128.0

    def test_edge_bin(self):
        assert t0_hat(bounds_of(0.0, 1023.0, 1024.0)) == 1023.5

    @given(random_bounds())
    @settings(max_examples=60)
    def test_in_range(self, bounds):
        assert 0.0 <= t0_hat(bounds) <= B


class TestRho1:
    def test_uniform_is_flat(self):
        q = 8
        bounds = bounds_of(*(np.arange(q + 1) / q * B))
        density = rho1(bounds)
        assert np.allclose(density.values, q / B)

    def test_knots_and_linear_decay(self):
        bounds = bounds_of(0.0, 100.0, 510.0, 514.0, 1024.0)
        density = rho1(bounds)
        # knot abscissae are piece midpoints {50, 305, 512, 769}
        g = density.grid
        assert density.values[np.searchsorted(g, 512.0)] == pytest.approx(0.25)
        # hand interpolation between knots (512, 0.25) and (769, 1/510)
        t_query = 600.0
        expected = 0.25 + (1 / 510 - 0.25) * (t_query - 512.0) / (769.0 - 512.0)
        assert density.values[np.searchsorted(g, t_query)] == pytest.approx(expected, rel=1e-9)

    def test_constant_extrapolation(self):
        bounds = bounds_of(0.0, 100.0, 510.0, 514.0, 1024.0)
        density = rho1(bounds)
        assert density.values[0] == pytest.approx(1 / 100)
        assert density.values[-1] == pytest.approx(1 / 510)

    def test_grid_definition(self):
        bounds = bounds_of(0.0, 512.0, 1024.0)
        density = rho1(bounds)
        assert density.grid.size == RHO1_GRID_SIZE
        assert np.array_equal(density.grid, np.arange(RHO1_GRID_SIZE) * (B / RHO1_GRID_SIZE))

    def test_argmax_inside_narrowest_bin(self):
        bounds = bounds_of(0.0, 200.0, 400.0, 402.0, 600.0, 1024.0)
        density = rho1(bounds)
        # brute-force scan of the grid
        best = density.grid[int(np.argmax(density.values))]
        assert 400.0 <= best <= 402.0 or abs(best - 401.0) <= B / RHO1_GRID_SIZE

    @given(random_bounds())
    @settings(max_examples=40)
    def test_nonnegative(self, bounds):
        assert np.all(rho1(bounds).values >= 0.0)


class TestT1Hat:
    def test_constant_density_picks_grid_zero(self):
        bounds = bounds_of(0.0, 512.0, 1024.0)
        assert t1_hat(rho1(bounds)) == 0.0

    def test_unique_max_position(self):
        bounds = bounds_of(0.0, 100.0, 510.0, 514.0, 1024.0)
        density = rho1(bounds)
        idx = int(np.argmax(density.values))
        assert t1_hat(density) == idx * (B / RHO1_GRID_SIZE)

    @given(random_bounds())
    @settings(max_examples=40)
    def test_in_range(self, bounds):
        assert 0.0 <= t1_hat(rho1(bounds)) <= B


class TestEwhPeak:
    def test_max_bin_center(self):
        hist = EwHistogram(np.array([0, 5, 1, 0]), float(B))
        assert ewh_peak(hist) == 1.5 * (B / 4)

    def test_all_equal_tie(self):
        hist = EwHistogram(np.array([3, 3, 3, 3]), float(B))
        assert ewh_peak(hist) == 0.5 * (B / 4)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParamsError, match="histogram has no bins"):
            ewh_peak(EwHistogram(np.array([]), float(B)))

    def test_noiseless_32bin_quantization_bound(self):
        # expectation histogram of a noiseless pulse: worst-case distance
        # error over a dense sweep is half a coarse bin
        from edhsim.scene import PixelConfig
        from edhsim.transient import build_transient

        half_coarse_cm = (B / 64) * SIM.dt * SPEED_OF_LIGHT / 2 * 100
        worst = 0.0
        for z in np.linspace(7.0, 8.0, 120):
            tr = build_transient(PixelConfig(float(z), 1.0, 0.0), SIM)
            hist = EwHistogram(tr.values.reshape(32, 32).sum(axis=1), float(B))
            err_cm = abs(bin_to_distance(ewh_peak(hist), SIM) - z) * 100
            worst = max(worst, err_cm)
        assert worst <= half_coarse_cm + 1e-9


class TestBinDistance:
    def test_mid_range(self):
        # 512 bins * dt = 50 ns; z = c * 50 ns / 2
        assert bin_to_distance(512.0, SIM) == pytest.approx(SPEED_OF_LIGHT * 50e-9 / 2, rel=1e-12)

    def test_zero(self):
        assert bin_to_distance(0.0, SIM) == 0.0

    def test_full_range(self):
        assert bin_to_distance(float(B), SIM) == pytest.approx(SIM.z_max, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(InvalidParamsError, match="bin position must be a real number in"):
            bin_to_distance(-0.1, SIM)
        with pytest.raises(InvalidParamsError, match="bin position must be a real number in"):
            bin_to_distance(B + 0.1, SIM)

    def test_roundtrip_with_inverse(self):
        # the inverse of z = c * (t * dt) / 2
        for t in (0.0, 17.3, 512.34, 1024.0):
            assert 2.0 * bin_to_distance(t, SIM) / SPEED_OF_LIGHT / SIM.dt == pytest.approx(t, rel=1e-12)
