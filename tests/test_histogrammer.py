import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edhsim.binner import StepParams, run_fixed, run_optimized
from edhsim.errors import (
    BinCountError,
    EmptyHistogramError,
    InvalidParamsError,
    PowerOfTwoError,
    TooFewPhotonsError,
)
from edhsim.histogrammer import EdhBoundaries, EwHistogram, ewh, hedh, oedh, pedh
from edhsim.metrics import boundary_rmse
from edhsim.harness import ExperimentConfig
from edhsim.scene import PixelConfig, constant_scene
from edhsim.transient import PhotonStream, SimConfig, build_transient, sample_stream

SIM = SimConfig()
B = SIM.n_bins


def _stream_from(pixel, n_cycles=5000, seed=0):
    return sample_stream(build_transient(pixel, SIM), n_cycles, seed)


def reference_hedh(stream, q, fixed_step_size):
    """Independent oracle for hedh: every interval of a level is stepped on
    every cycle with vectorized counts, empty intervals moving by step*0."""
    n_levels = q.bit_length() - 1
    cum = np.concatenate(([0.0], np.cumsum(np.ones(n_levels)))) / n_levels
    cuts = np.rint(cum * stream.n_cycles).astype(np.int64)
    n_bins_f = float(stream.n_bins)
    interior = []
    for level in range(n_levels):
        edges = np.array(sorted([0.0] + interior + [n_bins_f]))
        lo, hi = edges[:-1], edges[1:]
        cvs = (lo + hi) / 2.0
        for i in range(cuts[level], cuts[level + 1]):
            ts = stream.cycle(i)
            at_lo = np.searchsorted(ts, lo, side="left")
            at_cv = np.searchsorted(ts, cvs, side="left")
            at_hi = np.searchsorted(ts, hi, side="left")
            early = at_cv - at_lo
            total = at_hi - at_lo
            frac = np.divide(
                early, total, out=np.zeros(early.shape, np.float64), where=total > 0
            )
            dn = np.where(total > 0, 0.5 - frac, 0.0)
            cvs = np.clip(cvs + fixed_step_size * np.sign(dn), lo, hi)
        interior.extend(cvs.tolist())
    return np.concatenate(([0.0], np.sort(interior), [n_bins_f]))


def brute_force_quantile_bounds(pooled_sorted, q, n_bins):
    """Independent oracle: scan for the first CDF crossing of each j/q."""
    n = len(pooled_sorted)
    interior = []
    for j in range(1, q):
        for i, t in enumerate(pooled_sorted):
            if (i + 1) * q >= j * n:  # (i+1)/n >= j/q in exact arithmetic
                interior.append(t)
                break
    return np.concatenate(([0.0], interior, [float(n_bins)]))


class TestEdhBoundaries:
    def test_validation(self):
        EdhBoundaries(2, np.array([0.0, 512.0, 1024.0]))
        with pytest.raises(InvalidParamsError):
            EdhBoundaries(2, np.array([1.0, 512.0, 1024.0]))  # must start at 0
        with pytest.raises(InvalidParamsError):
            EdhBoundaries(2, np.array([0.0, 700.0, 512.0]))  # decreasing
        with pytest.raises(InvalidParamsError):
            EdhBoundaries(3, np.array([0.0, 512.0, 1024.0]))  # wrong length

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParamsError):
            EdhBoundaries(2, np.array([0.0, bad, 1024.0]))
        with pytest.raises(InvalidParamsError):
            EdhBoundaries(2, np.array([0.0, 512.0, bad]))


class TestOedh:
    def test_four_point_hand_case(self):
        stream = PhotonStream.from_cycles([np.array([1.0, 2.0, 3.0, 4.0])], B)
        bounds = oedh(stream, 4)
        assert np.array_equal(bounds.bounds, [0.0, 1.0, 2.0, 3.0, float(B)])

    def test_uniform_grid(self):
        stream = PhotonStream.from_cycles([np.arange(B) + 0.5], B)
        bounds = oedh(stream, 4)
        assert bounds.interior == pytest.approx([B / 4, B / 2, 3 * B / 4], abs=1.0)

    def test_point_mass(self):
        stream = PhotonStream.from_cycles([np.full(50, 321.5)], B)
        bounds = oedh(stream, 8)
        assert np.all(bounds.interior == 321.5)

    def test_too_few_photons(self):
        stream = PhotonStream.from_cycles([np.array([1.0, 2.0])], B)
        with pytest.raises(TooFewPhotonsError):
            oedh(stream, 4)

    @given(
        n=st.integers(4, 300),
        q=st.sampled_from([2, 3, 4, 7, 16, 32]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80)
    def test_matches_brute_force(self, n, q, seed):
        if n < q:
            return
        rng = np.random.default_rng(seed)
        pooled = np.sort(rng.uniform(0, B, size=n))
        stream = PhotonStream.from_cycles([pooled], B)
        got = oedh(stream, q).bounds
        expected = brute_force_quantile_bounds(pooled, q, B)
        assert np.array_equal(got, expected)

    @given(n=st.integers(32, 400), seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_equal_depth_property(self, n, seed):
        # each equi-depth bin holds floor(n/q) or ceil(n/q) photons, counting
        # a photon that sits exactly on a boundary toward the bin it closes
        q = 16
        rng = np.random.default_rng(seed)
        pooled = np.sort(rng.uniform(0, B, size=n))
        bounds = oedh(PhotonStream.from_cycles([pooled], B), q).bounds
        lo, hi = np.floor(n / q), np.ceil(n / q)
        for j in range(1, q + 1):
            left, right = bounds[j - 1], bounds[j]
            count = np.sum((pooled > left) & (pooled <= right))
            if j == 1:
                count += np.sum(pooled == 0.0)
            assert lo <= count <= hi


class TestPedh:
    def test_zero_photon_stream_stays_at_init(self):
        stream = PhotonStream.from_cycles([np.array([])] * 100, B)
        bounds = pedh(stream, 8, StepParams(decay_freeze_cycle=50))
        assert np.array_equal(bounds.bounds, np.arange(9) / 8 * B)

    def test_close_to_oracle_on_same_stream(self):
        stream = _stream_from(PixelConfig(7.5, 1.0, 1.0), seed=3)
        rmse = boundary_rmse(pedh(stream, 32, StepParams()), oedh(stream, 32))
        assert rmse < 15.0

    def test_q2_equals_scalar_median_binner(self):
        stream = _stream_from(PixelConfig(7.5, 1.0, 1.0), n_cycles=2000, seed=4)
        p = StepParams(decay_freeze_cycle=1500)
        bounds = pedh(stream, 2, p)
        assert bounds.interior[0] == run_optimized(stream, 0.5, p).cv

    def test_output_sorted(self):
        for seed in range(5):
            stream = _stream_from(PixelConfig(2.0, 0.5, 5.0), n_cycles=1000, seed=seed)
            bounds = pedh(stream, 16, StepParams(decay_freeze_cycle=800))
            assert np.all(np.diff(bounds.bounds) >= 0)

    def test_state_is_constant_size(self):
        # bank state must not scale with the photon count
        from edhsim.binner import BinnerBank

        p = StepParams(decay_freeze_cycle=100)
        sparse = _stream_from(PixelConfig(7.5, 0.5, 0.5), n_cycles=200, seed=1)
        dense = _stream_from(PixelConfig(7.5, 20.0, 20.0), n_cycles=200, seed=1)

        def state_floats(bank):
            return sum(
                v.size for v in vars(bank).values() if isinstance(v, np.ndarray)
            )

        sizes = []
        for stream in (sparse, dense):
            bank = BinnerBank(np.arange(1, 32) / 32, p, B)
            bank.run(stream)
            sizes.append(state_floats(bank))
        assert sizes[0] == sizes[1]
        assert sizes[0] <= 4 * 31  # a few scalars per tracked quantile


class TestPedhVariants:
    """pedh under step schedules from the default to undecayed and unsmoothed."""

    STEPS = (
        StepParams(),
        StepParams(gamma=1.0),
        StepParams(k_pct=30.0, beta1=0.0, beta2=0.0, decay_freeze_cycle=0),
        StepParams(gamma=0.99, decay_freeze_cycle=50),
    )

    @given(
        cycles=st.lists(st.lists(st.floats(0.0, 15.99), max_size=5), min_size=1, max_size=60),
        q=st.integers(2, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_inside_range_and_end_at_n_bins(self, cycles, q):
        stream = PhotonStream.from_cycles([np.sort(c) for c in cycles], 16)
        for step in self.STEPS:
            b = pedh(stream, q, step).bounds
            assert b.shape == (q + 1,)
            assert b[0] == 0.0 and b[-1] == 16.0
            assert np.all((b >= 0.0) & (b <= 16.0)) and np.all(np.diff(b) >= 0.0)


class TestListRejected:
    def test_list_of_streams(self):
        # pedh steps one stream: [stream] is refused where it enters
        stream = PhotonStream.from_cycles([np.array([1.0])] * 3, B)
        with pytest.raises(InvalidParamsError, match="one PhotonStream, not list"):
            pedh([stream], 4)

    @pytest.mark.parametrize("method, arg", [(oedh, 4), (pedh, 4), (hedh, 4), (ewh, 32)],
                             ids=["oedh", "pedh", "hedh", "ewh"])
    @pytest.mark.parametrize("bad", ["list", "timestamps", "none"])
    def test_every_method_refuses_anything_but_one_stream(self, method, arg, bad):
        stream = PhotonStream.from_cycles([np.array([1.0, 5.0, 9.0, 300.0])] * 3, B)
        bad = {"list": [stream], "timestamps": stream.timestamps, "none": None}[bad]
        with pytest.raises(InvalidParamsError, match=f"stream of {method.__name__} must be one PhotonStream"):
            method(bad, arg)


class TestQMustBeInteger:
    STREAM = PhotonStream.from_cycles([np.array([1.0, 5.0, 9.0, 300.0])] * 4, B)

    @pytest.mark.parametrize("build", [
        lambda s, q: oedh(s, q),
        lambda s, q: pedh(s, q),
        lambda s, q: hedh(s, q),
        lambda s, q: ExperimentConfig(constant_scene(1.0, 1.0), q=q),
    ], ids=["oedh", "pedh", "hedh", "ExperimentConfig"])
    @pytest.mark.parametrize("q", [4.0, 2.5, "4", True])
    def test_non_integer_q_rejected(self, build, q):
        with pytest.raises(InvalidParamsError, match="q must be an integer"):
            build(self.STREAM, q)

    def test_numpy_integer_q_accepted(self):
        q = np.int64(4)
        assert oedh(self.STREAM, q).q == 4
        assert np.array_equal(pedh(self.STREAM, q).bounds, pedh(self.STREAM, 4).bounds)
        assert np.array_equal(hedh(self.STREAM, q).bounds, hedh(self.STREAM, 4).bounds)


class TestHedh:
    def test_q_must_be_power_of_two(self):
        stream = PhotonStream.from_cycles([np.array([1.0])], B)
        with pytest.raises(PowerOfTwoError):
            hedh(stream, 12)

    def test_q2_equals_single_fixed_median_binner(self):
        stream = _stream_from(PixelConfig(7.5, 1.0, 1.0), n_cycles=1000, seed=9)
        bounds = hedh(stream, 2, 1.0)
        assert bounds.interior[0] == run_fixed(stream, 0.5, 1.0).cv

    def test_zero_photon_stream_stays_at_midpoints(self):
        stream = PhotonStream.from_cycles([np.array([])] * 80, B)
        bounds = hedh(stream, 8, 1.0)
        assert np.array_equal(bounds.bounds, np.arange(9) / 8 * B)

    def test_worse_than_pedh_at_high_background(self):
        # paired streams; deterministic seeds
        p = StepParams()
        pedh_rmse, hedh_rmse = [], []
        for seed in range(15):
            stream = _stream_from(PixelConfig(7.5, 1.0, 5.0), seed=seed)
            oracle = oedh(stream, 32)
            pedh_rmse.append(boundary_rmse(pedh(stream, 32, p), oracle))
            hedh_rmse.append(boundary_rmse(hedh(stream, 32, 1.0), oracle))
        assert np.mean(hedh_rmse) > np.mean(pedh_rmse)

    @pytest.mark.parametrize("q", [2, 4, 8, 32])
    @pytest.mark.parametrize("bkg", [1.0, 2.0, 5.0])
    def test_matches_reference_on_sampled_streams(self, q, bkg):
        stream = _stream_from(PixelConfig(5.0, 1.0, bkg), seed=int(q * 10 + bkg))
        assert np.array_equal(hedh(stream, q, 1.0).bounds, reference_hedh(stream, q, 1.0))

    @given(
        data=st.data(),
        n_bins=st.sampled_from([4, 8, 16]),
        q=st.sampled_from([2, 4, 8, 16]),
        step=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.25, 3.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_tie_heavy_streams(self, data, n_bins, q, step):
        # half-integer timestamps land on CVs and edges, small n_bins make
        # CVs clamp onto each other (zero-width intervals), and empty cycles
        # are common
        half_steps = st.integers(0, 2 * n_bins - 1)
        cycle = st.lists(half_steps, max_size=6).map(lambda c: np.sort(c) / 2.0)
        cycles = data.draw(st.lists(cycle, min_size=1, max_size=60))
        stream = PhotonStream.from_cycles(cycles, n_bins)
        assert np.array_equal(hedh(stream, q, step).bounds, reference_hedh(stream, q, step))

    @pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan])
    def test_step_size_validated(self, step):
        stream = PhotonStream.from_cycles([np.array([1.0])], B)
        with pytest.raises(InvalidParamsError):
            hedh(stream, 4, step)

    def test_output_sorted_and_nested(self):
        stream = _stream_from(PixelConfig(5.0, 1.0, 2.0), n_cycles=2000, seed=11)
        bounds = hedh(stream, 16, 1.0)
        assert np.all(np.diff(bounds.bounds) >= 0)
        assert bounds.bounds[0] == 0.0 and bounds.bounds[-1] == B


class TestEwh:
    def test_single_photon(self):
        stream = PhotonStream.from_cycles([np.array([0.5])], B)
        hist = ewh(stream, 1024)
        assert hist.counts[0] == 1 and hist.counts.sum() == 1

    def test_counts_sum_to_total(self):
        stream = _stream_from(PixelConfig(7.5, 1.0, 1.0), n_cycles=500, seed=13)
        hist = ewh(stream, 32)
        assert hist.counts.sum() == stream.total_photons

    def test_uniform_multinomial(self):
        rng = np.random.default_rng(17)
        n = 64_000
        stream = PhotonStream.from_cycles([np.sort(rng.uniform(0, B, n))], B)
        hist = ewh(stream, 32)
        expected = n / 32
        sigma = np.sqrt(n * (1 / 32) * (31 / 32))
        assert np.all(np.abs(hist.counts - expected) <= 5 * sigma)

    def test_coarsening_consistency(self):
        stream = _stream_from(PixelConfig(7.5, 1.0, 1.0), n_cycles=500, seed=19)
        fine = ewh(stream, 1024)
        coarse = ewh(stream, 32)
        assert np.array_equal(coarse.counts, fine.counts.reshape(32, 32).sum(axis=1))

    @pytest.mark.parametrize("span", [0.0, -8.0, np.inf, np.nan])
    def test_span_must_be_finite_and_positive(self, span):
        # a zero span put every peak at 0 m, a negative one behind the sensor
        with pytest.raises(InvalidParamsError, match=r"span must be a real number in \(0, inf\)"):
            EwHistogram(np.array([0, 5, 1, 0]), span)

    @pytest.mark.parametrize("counts", [
        np.array([1j, 2j]), np.array([True, False]), np.array(["1", "2"]),
        np.array([1, None], dtype=object),
    ])
    def test_counts_must_be_integers_or_floats(self, counts):
        # numpy's comparisons accept bools and complex counts (and a str
        # array fails inside them), so the dtype is checked first
        with pytest.raises(InvalidParamsError, match="counts must be integers or floats"):
            EwHistogram(counts, 8.0)

    def test_no_bins_refused_when_built(self):
        # bin_width would divide by zero
        with pytest.raises(EmptyHistogramError, match="histogram has no bins"):
            EwHistogram(np.array([]), 1.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, np.float64])
    def test_integer_and_float_counts_accepted(self, dtype):
        hist = EwHistogram(np.array([0, 5, 1, 0], dtype=dtype), 8.0)
        assert hist.counts.dtype == dtype and not hist.counts.flags.writeable

    def test_bin_count_validation(self):
        stream = PhotonStream.from_cycles([np.array([1.0])], B)
        with pytest.raises(BinCountError):
            ewh(stream, 0)
        with pytest.raises(BinCountError):
            ewh(stream, B + 1)
        with pytest.raises(BinCountError):
            ewh(stream, True)


class TestEwhRefinement:
    def test_fine_histogram_at_least_as_accurate(self):
        from edhsim.estimator import bin_to_distance, ewh_peak

        center = 512.3415610406938
        z = 7.5
        errs = {32: [], 1024: []}
        for seed in range(30):
            stream = _stream_from(PixelConfig(z, 1.0, 1.0), seed=seed)
            for bins in (32, 1024):
                t = ewh_peak(ewh(stream, bins))
                errs[bins].append(abs(bin_to_distance(t, SIM) - z))
        assert np.mean(errs[1024]) <= np.mean(errs[32])


class TestOracleDominance:
    def test_oracle_distance_error_not_worse_than_pedh(self):
        from edhsim.estimator import t0_hat

        p = StepParams()
        errs_o, errs_p = [], []
        center = 512.3415610406938  # 7.5 m in bin units
        for seed in range(30):
            stream = _stream_from(PixelConfig(7.5, 1.0, 1.0), seed=seed)
            errs_o.append(abs(t0_hat(oedh(stream, 32)) - center))
            errs_p.append(abs(t0_hat(pedh(stream, 32, p)) - center))
        assert np.mean(errs_o) <= np.mean(errs_p)
