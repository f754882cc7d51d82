import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from edhsim.errors import (
    DistanceExceedsRangeError,
    InvalidParamsError,
    ZeroBackgroundError,
)
from edhsim.scene import PixelConfig
from edhsim.transient import (
    PhotonStream,
    SimConfig,
    build_transient,
    sample_cycle,
    sample_stream,
    sbr,
    true_quantiles,
)

SIM = SimConfig()


class TestSimConfig:
    def test_derived_quantities(self):
        assert SIM.dt == pytest.approx(100e-9 / 1024)
        assert SIM.z_max == pytest.approx(2.998e8 * 100e-9 / 2)
        # sigma in bins: fwhm / (2 sqrt(2 ln 2)) / dt
        sigma_bins = SIM.pulse_sigma / SIM.dt
        assert sigma_bins == pytest.approx(
            0.32e-9 / (2.0 * np.sqrt(2.0 * np.log(2.0))) / (100e-9 / 1024)
        )
        assert sigma_bins == pytest.approx(1.391, abs=1e-3)

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            SimConfig(n_bins=1)
        with pytest.raises(InvalidParamsError):
            SimConfig(fwhm=0.0)
        with pytest.raises(InvalidParamsError):
            SimConfig(fwhm=200e-9)
        with pytest.raises(InvalidParamsError):
            SimConfig(n_cycles=0)
        with pytest.raises(InvalidParamsError):
            SimConfig(c=np.inf)
        with pytest.raises(InvalidParamsError):
            SimConfig(rep_period=np.inf)

    @pytest.mark.parametrize(
        "kwargs", [dict(n_bins=1024.5), dict(n_bins=1024.0), dict(n_cycles=5000.5), dict(n_cycles="5000")]
    )
    def test_non_integer_sizes_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError):
            SimConfig(**kwargs)

    def test_numpy_integer_sizes_accepted(self):
        assert SimConfig(n_bins=np.int64(512), n_cycles=np.int32(100)).dt == pytest.approx(100e-9 / 512)


class TestBuildTransient:
    def test_peak_bin_location(self):
        # closed form: peak center at 2z/c in units of dt
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        center_bins = (2.0 * 7.5 / SIM.c) / SIM.dt
        assert center_bins == pytest.approx(512.34, abs=0.01)
        assert int(np.argmax(tr.values)) in (512, 513)

    def test_pure_background_is_flat(self):
        tr = build_transient(PixelConfig(7.5, 0.0, 1.0), SIM)
        assert np.allclose(tr.values, 1.0 / 1024, rtol=0, atol=0)

    def test_bins_match_quadrature_oracle(self):
        # independent oracle: numerically integrate the Gaussian over bins
        pix = PixelConfig(7.5, 2.0, 0.5)
        tr = build_transient(pix, SIM)
        t_peak = 2.0 * pix.z / SIM.c
        sigma = SIM.pulse_sigma
        for k in (510, 512, 513, 700):
            expected, _ = quad(
                lambda t: norm.pdf(t, loc=t_peak, scale=sigma),
                k * SIM.dt, (k + 1) * SIM.dt,
            )
            expected = pix.phi_sig * expected + pix.phi_bkg / SIM.n_bins
            assert tr.values[k] == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_neighbor_ratio_matches_gaussian(self):
        # pulse centered exactly at a bin center so neighbors are symmetric
        sigma_bins = SIM.pulse_sigma / SIM.dt
        z = 512.5 * SIM.dt * SIM.c / 2.0
        tr = build_transient(PixelConfig(z, 1.0, 0.0), SIM)
        peak = int(np.argmax(tr.values))
        assert peak == 512
        ratio = tr.values[peak + 1] / tr.values[peak]
        assert ratio == pytest.approx(np.exp(-1.0 / (2.0 * sigma_bins**2)), rel=0.02)

    def test_signal_mass_when_pulse_inside(self):
        tr = build_transient(PixelConfig(7.5, 3.0, 0.0), SIM)
        assert tr.total == pytest.approx(3.0, rel=1e-6)

    def test_signal_mass_truncated_near_range_edge(self):
        # pulse mass beyond the period is dropped, never wrapped
        z = SIM.z_max * 0.99999
        tr = build_transient(PixelConfig(z, 3.0, 0.0), SIM)
        assert tr.total <= 3.0
        assert tr.total < 3.0 * (1.0 - 1e-6)

    def test_total_decomposition(self):
        pix = PixelConfig(7.5, 1.5, 0.75)
        tr = build_transient(pix, SIM)
        t_peak = 2.0 * pix.z / SIM.c
        captured = norm.cdf(SIM.rep_period, loc=t_peak, scale=SIM.pulse_sigma) - norm.cdf(
            0.0, loc=t_peak, scale=SIM.pulse_sigma
        )
        assert tr.total == pytest.approx(pix.phi_sig * captured + pix.phi_bkg, rel=1e-9)

    def test_distance_exceeds_range(self):
        with pytest.raises(DistanceExceedsRangeError):
            build_transient(PixelConfig(SIM.z_max, 1.0, 1.0), SIM)


class TestSbr:
    @pytest.mark.parametrize(
        "sig,bkg,expected", [(1.0, 1.0, 1.0), (1.0, 10.0, 0.1), (0.5, 2.5, 0.2)]
    )
    def test_photon_pairs(self, sig, bkg, expected):
        assert sbr(PixelConfig(5.0, sig, bkg)) == pytest.approx(expected)

    def test_zero_background(self):
        with pytest.raises(ZeroBackgroundError):
            sbr(PixelConfig(5.0, 1.0, 0.0))


class TestSampleCycle:
    def test_zero_transient_gives_empty_cycles(self):
        tr = build_transient(PixelConfig(7.5, 0.0, 1.0), SIM)
        zero = type(tr)(np.zeros(SIM.n_bins), SIM)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_cycle(zero, rng).size == 0

    def test_poisson_mean(self):
        tr = build_transient(PixelConfig(7.5, 0.0, 1.0), SIM)
        rng = np.random.default_rng(1)
        n_cycles = 10_000
        total = sum(sample_cycle(tr, rng).size for _ in range(n_cycles))
        mean = total / n_cycles
        assert abs(mean - 1.0) <= 3.0 * np.sqrt(1.0 / n_cycles)

    def test_sorted_and_in_range(self):
        tr = build_transient(PixelConfig(7.5, 5.0, 5.0), SIM)
        rng = np.random.default_rng(2)
        ts = sample_cycle(tr, rng)
        assert np.all(np.diff(ts) >= 0)
        assert ts.min() >= 0.0 and ts.max() < SIM.n_bins


class TestSampleStream:
    def test_seed_determinism(self):
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        a = sample_stream(tr, 200, 42)
        b = sample_stream(tr, 200, 42)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.cycle_offsets, b.cycle_offsets)
        assert a.checksum() == b.checksum()
        c = sample_stream(tr, 200, 43)
        assert c.checksum() != a.checksum()

    def test_zero_cycles_rejected(self):
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        with pytest.raises(InvalidParamsError):
            sample_stream(tr, 0, 1)
        with pytest.raises(InvalidParamsError):
            SimConfig(n_cycles=0)

    def test_total_count_poisson(self):
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        stream = sample_stream(tr, 5000, 7)
        expected = tr.total * 5000
        assert abs(stream.total_photons - expected) <= 3.0 * np.sqrt(2.0 * 5000)

    def test_cycles_sorted_and_in_range(self):
        tr = build_transient(PixelConfig(3.3, 1.0, 2.0), SIM)
        stream = sample_stream(tr, 500, 3)
        for i in range(0, 500, 50):
            cyc = stream.cycle(i)
            assert np.all(np.diff(cyc) >= 0)
        assert stream.timestamps.min() >= 0.0
        assert stream.timestamps.max() < SIM.n_bins

    def test_per_bin_means_match_transient(self):
        # statistical oracle: empirical per-bin mean within 5 SE of the truth
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        n_cycles = 10_000
        stream = sample_stream(tr, n_cycles, 11)
        counts = np.bincount(stream.timestamps.astype(np.int64), minlength=SIM.n_bins)
        se = np.sqrt(tr.values / n_cycles)
        dev = np.abs(counts / n_cycles - tr.values)
        assert np.all(dev <= 5.0 * se)


class TestPhotonStream:
    def test_from_cycles(self):
        s = PhotonStream.from_cycles([np.array([1.0, 2.0]), np.array([]), np.array([0.5])], 1024)
        assert s.n_cycles == 3
        assert s.total_photons == 3
        assert np.array_equal(s.cycle(1), np.empty(0))
        assert np.array_equal(s.pooled(), np.array([0.5, 1.0, 2.0]))

    def test_unsorted_cycle_rejected(self):
        with pytest.raises(InvalidParamsError):
            PhotonStream.from_cycles([np.array([2.0, 1.0])], 1024)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParamsError):
            PhotonStream.from_cycles([np.array([1024.0])], 1024)

    def test_nan_timestamp_rejected(self):
        with pytest.raises(InvalidParamsError):
            PhotonStream.from_cycles([np.array([1.0, np.nan])], 1024)

    @pytest.mark.parametrize("n_bins", [8.5, True])
    def test_n_bins_must_be_an_integer(self, n_bins):
        with pytest.raises(InvalidParamsError, match="n_bins must be an integer >= 1"):
            PhotonStream.from_cycles([np.array([0.5])], n_bins)


class TestTrueQuantiles:
    def test_flat_background_quantiles(self):
        tr = build_transient(PixelConfig(7.5, 0.0, 1.0), SIM)
        q = true_quantiles(tr, [0.25, 0.5, 0.75])
        assert q == pytest.approx([256.0, 512.0, 768.0], rel=1e-12)

    def test_matches_dense_numeric_inversion(self):
        # oracle: invert a densely sampled piecewise-linear CDF
        tr = build_transient(PixelConfig(4.2, 1.0, 2.0), SIM)
        fine = 64
        pdf = np.repeat(tr.values / fine, fine)
        cdf = np.concatenate(([0.0], np.cumsum(pdf)))
        cdf /= cdf[-1]
        xs = np.linspace(0.0, SIM.n_bins, fine * SIM.n_bins + 1)
        for frac in (0.1, 0.5, 0.9):
            idx = np.searchsorted(cdf, frac, side="left")
            lo, hi = cdf[idx - 1], cdf[idx]
            oracle = xs[idx - 1] + (frac - lo) / (hi - lo) * (xs[idx] - xs[idx - 1])
            got = true_quantiles(tr, [frac])[0]
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_fraction_bounds(self):
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        with pytest.raises(InvalidParamsError):
            true_quantiles(tr, [0.0])
        with pytest.raises(InvalidParamsError):
            true_quantiles(tr, [1.0])
        with pytest.raises(InvalidParamsError):
            true_quantiles(tr, [np.nan])
