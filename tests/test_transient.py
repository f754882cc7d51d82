import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from edhsim import kernel
from edhsim.errors import DistanceExceedsRangeError, InvalidParamsError
from edhsim.harness import derive_seed
from edhsim.scene import PixelConfig
from edhsim.transient import (
    POISSON_LAM_MAX,
    REP_PERIOD_MAX,
    SPEED_OF_LIGHT,
    PhotonStream,
    SimConfig,
    Transient,
    build_transient,
    sample_stream,
    true_quantiles,
)

SIM = SimConfig()


def flat(total, n_bins=16):
    """A flat transient whose running sum ends exactly at ``total``."""
    tr = Transient(np.full(n_bins, total / n_bins), SimConfig(n_bins=n_bins))
    assert np.cumsum(tr.values)[-1] == total
    return tr


def reference_sample_stream(transient, n_cycles, seed):
    """Oracle for sample_stream: the same draws, with one binary search per
    photon for its bin and a (cycle, position) lexicographic sort."""
    cfg = transient.config
    rng = np.random.default_rng(seed)
    cum = np.cumsum(transient.values)
    total = cum[-1]
    counts = rng.poisson(total, size=n_cycles) if total > 0.0 else np.zeros(n_cycles, np.int64)
    n_total = int(counts.sum())
    if n_total:
        bins = np.searchsorted(cum, rng.random(n_total) * total, side="right")
        np.minimum(bins, cfg.n_bins - 1, out=bins)
        positions = bins + rng.random(n_total)
        np.minimum(positions, np.nextafter(cfg.n_bins, 0.0), out=positions)
        cycle_ids = np.repeat(np.arange(n_cycles), counts)
        positions = positions[np.lexsort((positions, cycle_ids))]
    else:
        positions = np.empty(0, dtype=np.float64)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return PhotonStream(positions, offsets, cfg.n_bins)


@st.composite
def transients(draw):
    """Transients whose CDFs have the awkward shapes: no flux at all, flat
    background only, a pulse with no background (long flat CDF stretches), a
    pulse against the end of the range, a pulse on background, and one 1.0
    bin among 1e-300 bins, which sends the kernel's knot-search hint far from
    the answer."""
    sim = SimConfig(n_bins=draw(st.sampled_from([2, 16, 1024])))
    kind = draw(st.sampled_from(["zero", "background", "pulse", "edge", "mixed", "spike"]))
    if kind == "zero":
        return Transient(np.zeros(sim.n_bins), sim)
    if kind == "spike":
        values = np.full(sim.n_bins, 1e-300)
        values[draw(st.integers(0, sim.n_bins - 1))] = 1.0
        return Transient(values, sim)
    flux = st.floats(0.01, 6.0)
    z = draw(st.floats(0.05, 0.95)) * sim.z_max
    if kind == "background":
        pixel = PixelConfig(z, 0.0, draw(flux))
    elif kind == "pulse":
        pixel = PixelConfig(z, draw(flux), 0.0)
    elif kind == "edge":
        pixel = PixelConfig(sim.z_max * (1.0 - draw(st.floats(1e-9, 1e-3))), draw(flux), 0.0)
    else:
        pixel = PixelConfig(z, draw(flux), draw(flux))
    return build_transient(pixel, sim)


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
            SimConfig(rep_period=np.inf)
        # finite, but c * rep_period overflows to inf
        for rep_period in (1e300, np.float64(1e300), 10**300):
            with pytest.raises(InvalidParamsError, match=r"rep_period must be a real number in"):
                SimConfig(rep_period=rep_period, fwhm=1e-9)

    def test_the_largest_rep_period_keeps_z_max_finite(self):
        # REP_PERIOD_MAX is the largest double whose product with c is finite
        assert math.isfinite(SimConfig(rep_period=REP_PERIOD_MAX).z_max)
        past = math.nextafter(REP_PERIOD_MAX, math.inf)
        assert SPEED_OF_LIGHT * past == math.inf
        with pytest.raises(InvalidParamsError, match="rep_period must be a real number in"):
            SimConfig(rep_period=past)

    @pytest.mark.parametrize(
        "kwargs", [dict(n_bins=1024.5), dict(n_bins=1024.0), dict(n_cycles=5000.5), dict(n_cycles="5000")]
    )
    def test_non_integer_sizes_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name", ["rep_period", "fwhm"])
    @pytest.mark.parametrize("value", ["a", None, True, False, 1e-9j])
    def test_float_fields_must_be_real(self, name, value):
        with pytest.raises(InvalidParamsError, match=f"{name} must be a real number"):
            SimConfig(**{name: value})

    def test_numpy_float_fields_accepted(self):
        cfg = SimConfig(rep_period=np.float64(100e-9), fwhm=np.float32(0.32e-9))
        assert cfg.z_max == pytest.approx(14.99)
        assert SimConfig(rep_period=np.int64(1), fwhm=1e-9).z_max == SPEED_OF_LIGHT / 2.0

    def test_numpy_integer_sizes_accepted(self):
        assert SimConfig(n_bins=np.int64(512), n_cycles=np.int32(100)).dt == pytest.approx(100e-9 / 512)


class TestBuildTransient:
    def test_peak_bin_location(self):
        # closed form: peak center at 2z/c in units of dt
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        center_bins = (2.0 * 7.5 / SPEED_OF_LIGHT) / SIM.dt
        assert center_bins == pytest.approx(512.34, abs=0.01)
        assert int(np.argmax(tr.values)) in (512, 513)

    def test_pure_background_is_flat(self):
        tr = build_transient(PixelConfig(7.5, 0.0, 1.0), SIM)
        assert np.allclose(tr.values, 1.0 / 1024, rtol=0, atol=0)

    def test_bins_match_quadrature_oracle(self):
        # independent oracle: numerically integrate the Gaussian over bins
        pix = PixelConfig(7.5, 2.0, 0.5)
        tr = build_transient(pix, SIM)
        t_peak = 2.0 * pix.z / SPEED_OF_LIGHT
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
        z = 512.5 * SIM.dt * SPEED_OF_LIGHT / 2.0
        tr = build_transient(PixelConfig(z, 1.0, 0.0), SIM)
        peak = int(np.argmax(tr.values))
        assert peak == 512
        ratio = tr.values[peak + 1] / tr.values[peak]
        assert ratio == pytest.approx(np.exp(-1.0 / (2.0 * sigma_bins**2)), rel=0.02)

    def test_signal_mass_when_pulse_inside(self):
        tr = build_transient(PixelConfig(7.5, 3.0, 0.0), SIM)
        assert tr.values.sum() == pytest.approx(3.0, rel=1e-6)

    def test_signal_mass_truncated_near_range_edge(self):
        # pulse mass beyond the period is dropped, never wrapped
        z = SIM.z_max * 0.99999
        tr = build_transient(PixelConfig(z, 3.0, 0.0), SIM)
        assert tr.values.sum() <= 3.0
        assert tr.values.sum() < 3.0 * (1.0 - 1e-6)

    def test_total_decomposition(self):
        pix = PixelConfig(7.5, 1.5, 0.75)
        tr = build_transient(pix, SIM)
        t_peak = 2.0 * pix.z / SPEED_OF_LIGHT
        captured = norm.cdf(SIM.rep_period, loc=t_peak, scale=SIM.pulse_sigma) - norm.cdf(
            0.0, loc=t_peak, scale=SIM.pulse_sigma
        )
        assert tr.values.sum() == pytest.approx(pix.phi_sig * captured + pix.phi_bkg, rel=1e-9)

    def test_distance_exceeds_range(self):
        with pytest.raises(DistanceExceedsRangeError):
            build_transient(PixelConfig(SIM.z_max, 1.0, 1.0), SIM)

    @pytest.mark.parametrize("z", [0.01, 1.0, 7.5, 14.98, SIM.z_max * (1.0 - 1e-9)])
    def test_equals_the_scipy_formula_bit_for_bit(self, z):
        pix = PixelConfig(z, 2.0, 0.5)
        edges = np.arange(SIM.n_bins + 1, dtype=np.float64) * SIM.dt
        pulse_cdf = ndtr((edges - 2.0 * z / SPEED_OF_LIGHT) / SIM.pulse_sigma)
        want = pix.phi_sig * np.diff(pulse_cdf) + pix.phi_bkg / SIM.n_bins
        assert build_transient(pix, SIM).values.tobytes() == want.tobytes()


def pulse_cdf_arguments(n_depths=3000):
    """Every argument build_transient passes to the normal CDF, for n_depths
    depths on (0.01 m, z_max) at the default SimConfig."""
    z = np.linspace(0.01, SIM.z_max, n_depths, endpoint=False)
    edges = np.arange(SIM.n_bins + 1, dtype=np.float64) * SIM.dt
    return ((edges - (2.0 * z / SPEED_OF_LIGHT)[:, None]) / SIM.pulse_sigma).ravel()


def branch_points():
    """|a| = 1, sqrt(2) and 8 sqrt(2), where ndtr switches from erf to erfc
    and erfc from 1 - erf to its two fits, with both signs and the next
    double either side: a * sqrt(1/2) lands exactly on 1 / sqrt(2), 1 and 8
    at a = 1 and at the double below each of the other two."""
    a = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0)])
    a = np.concatenate([a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)])
    return np.concatenate([a, -a])


PULSE_CDF_INPUTS = {
    "uniform-40": lambda: np.random.default_rng(1).uniform(-40.0, 40.0, 2_000_000),
    "uniform-1.5": lambda: np.random.default_rng(2).uniform(-1.5, 1.5, 2_000_000),
    "normal-3": lambda: np.random.default_rng(3).normal(0.0, 3.0, 2_000_000),
    "uniform-1e4": lambda: np.random.default_rng(4).uniform(-1e4, 1e4, 200_000),
    "special": lambda: np.array([0.0, -0.0, 1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0), 38.5, -38.5,
                                 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan]),
    "branch-points": branch_points,
    "build_transient": pulse_cdf_arguments,
}


class TestPulseCdf:
    """edh_ndtr, the kernel's port of Cephes ndtr, against scipy.special.ndtr
    (the same Cephes code): a scipy release that changes its ndtr, or a build
    that fuses multiply-adds on either side, fails here rather than moving
    every transient by an ulp."""

    @pytest.mark.parametrize("inputs", PULSE_CDF_INPUTS)
    def test_bit_identical_to_scipy(self, inputs):
        a = PULSE_CDF_INPUTS[inputs]()
        out = np.empty_like(a)
        kernel.library().edh_ndtr(a, a.size, out)
        want = ndtr(a)
        differ = out.view(np.int64) != want.view(np.int64)
        assert not differ.any(), (a[differ][:5], out[differ][:5], want[differ][:5])


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

    def test_zero_flux_gives_empty_cycles(self):
        stream = sample_stream(Transient(np.zeros(SIM.n_bins), SIM), 20, 0)
        assert stream.n_cycles == 20
        assert stream.total_photons == 0
        assert np.array_equal(stream.cycle_offsets, np.zeros(21))

    def test_zero_cycles_rejected(self):
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        with pytest.raises(InvalidParamsError):
            sample_stream(tr, 0, 1)
        with pytest.raises(InvalidParamsError):
            SimConfig(n_cycles=0)

    def test_total_count_poisson(self):
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        stream = sample_stream(tr, 5000, 7)
        expected = tr.values.sum() * 5000
        assert abs(stream.total_photons - expected) <= 3.0 * np.sqrt(2.0 * 5000)

    def test_cycles_sorted_and_in_range(self):
        tr = build_transient(PixelConfig(3.3, 1.0, 2.0), SIM)
        stream = sample_stream(tr, 500, 3)
        for i in range(0, 500, 50):
            cyc = stream.cycle(i)
            assert np.all(np.diff(cyc) >= 0)
        assert stream.timestamps.min() >= 0.0
        assert stream.timestamps.max() < SIM.n_bins

    def test_total_past_numpys_poisson_bound_refused(self):
        # numpy's own refusal of such a mean is a ValueError
        with pytest.raises(InvalidParamsError, match="Poisson bound"):
            sample_stream(build_transient(PixelConfig(7.5, 1e19, 1.0), SIM), 1, 0)
        with pytest.raises(InvalidParamsError, match="Poisson bound"):
            sample_stream(flat(np.nextafter(POISSON_LAM_MAX, np.inf)), 1, 0)
        big = np.full(SIM.n_bins, 1e306)  # the running sum overflows to inf
        with pytest.raises(InvalidParamsError, match="Poisson bound"):
            sample_stream(Transient(big, SIM), 1, 0)

    def test_photon_count_past_int64_refused(self):
        with pytest.raises(InvalidParamsError, match="overflows int64"):
            sample_stream(flat(POISSON_LAM_MAX), 2, 0)

    def test_photon_count_past_memory_refused(self):
        # about 8e16 photons fit int64 but not memory (640 PB of float64):
        # an EdhsimError naming the count, not numpy's bare MemoryError
        with pytest.raises(InvalidParamsError,
                           match=r"the \d+ photons of 5000 cycles .* do not fit in memory"):
            sample_stream(flat(16e12), 5000, 0)

    @pytest.mark.parametrize("n_cycles", [10**18, 2**62, 2**64])
    def test_cycle_count_past_memory_refused(self, n_cycles):
        # numpy refuses the offsets array (8 EB and up) without allocating it:
        # a MemoryError, or a ValueError past its largest array
        with pytest.raises(InvalidParamsError,
                           match=rf"the {n_cycles + 1} cycle offsets of {n_cycles} cycles do not "
                                 rf"fit in memory"):
            sample_stream(Transient(np.full(16, 1.0), SimConfig(n_bins=16)), n_cycles, 0)

    @pytest.mark.parametrize("make", [np.random.default_rng, np.random.PCG64], ids=["Generator", "PCG64"])
    def test_a_pcg64_generator_is_drawn_from_as_numpy_would(self, make):
        tr = build_transient(PixelConfig(7.5, 1.0, 2.0), SIM)
        ours, theirs = make(9), np.random.default_rng(9)
        theirs.integers(2**32, dtype=np.uint32)  # a buffered 32-bit half rides along
        ours_gen = ours if isinstance(ours, np.random.Generator) else np.random.Generator(ours)
        ours_gen.integers(2**32, dtype=np.uint32)
        for _ in range(2):
            got = sample_stream(tr, 300, ours)
            assert got.checksum() == reference_sample_stream(tr, 300, theirs).checksum()
        assert ours_gen.bit_generator.state == theirs.bit_generator.state
        sample_stream(Transient(np.zeros(SIM.n_bins), SIM), 5, ours)  # no draws, as numpy
        assert ours_gen.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64,
                                        np.random.PCG64DXSM])
    def test_other_bit_generators_refused(self, bitgen):
        tr = build_transient(PixelConfig(7.5, 1.0, 2.0), SIM)
        for seed in (bitgen(1), np.random.Generator(bitgen(1))):
            with pytest.raises(InvalidParamsError, match=f"must be one PCG64, not {bitgen.__name__}"):
                sample_stream(tr, 10, seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, "seed", [1, -2]], ids=repr)
    def test_seed_numpy_refuses_refused(self, seed):
        with pytest.raises(InvalidParamsError, match="seed of sample_stream"):
            sample_stream(build_transient(PixelConfig(7.5, 1.0, 2.0), SIM), 10, seed)

    def test_numpy_only_seeds(self, monkeypatch):
        # every draw is made in the kernel: no numpy Generator is built
        class NoGenerator:
            def __init__(self, *args, **kwargs):
                raise AssertionError("sample_stream built a numpy Generator")
        monkeypatch.setattr(np.random, "default_rng", NoGenerator)
        monkeypatch.setattr(np.random, "Generator", NoGenerator)
        tr = build_transient(PixelConfig(7.5, 1.0, 2.0), SIM)
        assert sample_stream(tr, 100, 3).total_photons > 0

    @given(tr=transients(), n_cycles=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_the_public_checks_accept_every_stream_unchanged(self, tr, n_cycles, seed):
        # sample_stream does not run PhotonStream's checks on the kernel's
        # arrays: each stream must pass them as it is, and be read-only
        got = sample_stream(tr, n_cycles, seed)
        for arr in (got.timestamps, got.cycle_offsets):  # before the checks freeze them
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        again = PhotonStream(got.timestamps, got.cycle_offsets, got.n_bins)
        assert again.timestamps is got.timestamps and again.cycle_offsets is got.cycle_offsets
        assert again.n_bins == got.n_bins and again.checksum() == got.checksum()

    def test_per_bin_means_match_transient(self):
        # statistical oracle: empirical per-bin mean within 5 SE of the truth
        tr = build_transient(PixelConfig(7.5, 1.0, 1.0), SIM)
        n_cycles = 10_000
        stream = sample_stream(tr, n_cycles, 11)
        counts = np.bincount(stream.timestamps.astype(np.int64), minlength=SIM.n_bins)
        se = np.sqrt(tr.values / n_cycles)
        dev = np.abs(counts / n_cycles - tr.values)
        assert np.all(dev <= 5.0 * se)


class TestSamplerOracle:
    @given(tr=transients(), n_cycles=st.integers(1, 70_000), seed=st.integers(0, 2**32 - 1))
    @example(tr=build_transient(PixelConfig(7.5, 1.0, 2.0), SIM), n_cycles=256, seed=0)
    @example(tr=build_transient(PixelConfig(7.5, 1.0, 2.0), SIM), n_cycles=257, seed=0)
    @example(tr=build_transient(PixelConfig(7.5, 0.05, 0.0), SIM), n_cycles=65_536, seed=1)
    @example(tr=build_transient(PixelConfig(7.5, 0.05, 0.0), SIM), n_cycles=65_537, seed=1)
    @example(tr=build_transient(PixelConfig(7.5, 0.05, 0.05), SIM), n_cycles=70_000, seed=2)
    @example(tr=build_transient(PixelConfig(7.5, 85.0, 171.0), SIM), n_cycles=40, seed=3)
    # the last total numpy counts by multiplication, the first by PTRS, and PTRS at about 100
    @example(tr=flat(np.nextafter(10.0, 0.0)), n_cycles=3000, seed=4)
    @example(tr=flat(10.0), n_cycles=3000, seed=4)
    @example(tr=build_transient(PixelConfig(7.5, 40.0, 60.0), SIM), n_cycles=500, seed=5)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_byte_for_byte(self, tr, n_cycles, seed):
        # about 256 photons per cycle mixes runs that the kernel sorts by
        # insertion with runs that it sorts with qsort
        got = sample_stream(tr, n_cycles, seed)
        want = reference_sample_stream(tr, n_cycles, seed)
        assert got.timestamps.tobytes() == want.timestamps.tobytes()
        assert got.cycle_offsets.tobytes() == want.cycle_offsets.tobytes()
        assert got.checksum() == want.checksum()

    def test_seeded_streams_match_reference(self):
        for bkg in (0.5, 1.0, 2.0, 5.0):
            tr = build_transient(PixelConfig(7.5, 1.0, bkg), SIM)
            for seed in range(5):
                assert sample_stream(tr, 5000, seed).checksum() == \
                    reference_sample_stream(tr, 5000, seed).checksum()


def kernel_counts(lam, n_cycles, seed):
    """``edh_poisson_offsets`` on the PCG64 that ``default_rng(seed)`` draws
    from: its return code, the counts and the PCG64 state it leaves."""
    pcg = np.random.PCG64(seed).state["state"]
    words = np.array([*divmod(pcg["state"], 2**64), *divmod(pcg["inc"], 2**64)], np.uint64)
    offsets = np.empty(n_cycles + 1, np.int64)
    code = kernel.library().edh_poisson_offsets(lam, n_cycles, words, offsets)
    return code, np.diff(offsets), {"state": int(words[0]) << 64 | int(words[1]), "inc": pcg["inc"]}


LOGGAM_A = [8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
            -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
            6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
            -1.39243221690590e+00]


def reference_loggam(x):
    """numpy's random_loggam, operation for operation, in Python floats
    (IEEE doubles, libm log)."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7.0 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = LOGGAM_A[9]
    for a in reversed(LOGGAM_A[:9]):
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


SEEDS = [0, 1, 2**32 - 1, (3, 20, 1, 0), derive_seed(7, 3, 1, 4)]


class TestKernelDraws:
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    @pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-3, np.nextafter(10.0, 0.0), 10.0, 45.0, 1e3,
                                     1e6, 1e12, np.nextafter(POISSON_LAM_MAX, 0.0)])
    def test_counts_match_numpy_poisson(self, lam, seed):
        # below 10 numpy multiplies uniforms, from 10 on it runs PTRS; the
        # state left must be where numpy's draws leave it
        for n_cycles in (1, 7, 5000):
            rng = np.random.default_rng(seed)
            want = rng.poisson(lam, n_cycles)
            code, got, state = kernel_counts(lam, n_cycles, seed)
            if sum(int(k) for k in want) > np.iinfo(np.int64).max:
                assert code != 0
                continue
            assert code == 0
            assert got.tobytes() == want.tobytes()
            assert state == rng.bit_generator.state["state"]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_product_equal_to_exp_minus_lam_ends_the_count(self, seed):
        # numpy counts a uniform while the running product stays strictly
        # above exp(-lam); pick lam so that the first uniform equals it
        u = np.random.default_rng(seed).random()
        down = up = -math.log(u)
        near = [down]
        for _ in range(8):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
            near += [down, up]
        lam = next(x for x in near if math.exp(-x) == u)
        assert np.random.default_rng(seed).poisson(lam, 1)[0] == 0
        assert kernel_counts(lam, 1, seed)[1].tolist() == [0]

    def test_loggam_equals_numpy_random_loggam(self):
        # densely below 12, where a change in the series' last bits shows in
        # some result's rounding; PTRS calls it at k + 1 for counts k >= 0
        x = np.concatenate([np.arange(1.0, 2_000.0), np.linspace(0.001, 12.0, 40_000),
                            [6.999999999999999, 7.0, 2.0**53, 2.0**53 + 2.0, 1e18, 9.2e18]])
        got = np.empty_like(x)
        kernel.library().edh_loggam(x, x.size, got)
        want = np.array([reference_loggam(v) for v in x])
        assert got.tobytes() == want.tobytes()
        assert np.allclose(got, [math.lgamma(v) for v in x], rtol=1e-13, atol=1e-13)


def place_photons_and_steps(values, ub, uj, counts=None):
    """Positions from the kernel's ``edh_place_photons`` for a transient of
    ``values``, and the knot-scan steps it took; photons go one per cycle
    unless ``counts`` says otherwise."""
    values = np.asarray(values, dtype=np.float64)
    ub, uj = np.asarray(ub, dtype=np.float64), np.asarray(uj, dtype=np.float64)
    counts = np.ones(ub.size, np.int64) if counts is None else np.asarray(counts)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    out = np.empty(ub.size)
    steps = kernel.library().edh_place_photons(
        np.append(np.cumsum(values), np.inf), values.size, offsets, counts.size, ub, uj,
        np.empty(values.size, np.int64), out)
    return out, steps


def place_photons(values, ub, uj, counts=None):
    return place_photons_and_steps(values, ub, uj, counts)[0]


# kernel.c's longest cycle it merges each photon into; longer ones it sorts with qsort
LONG_RUN = int(re.search(r"#define LONG_RUN (\d+)", kernel.SOURCE.read_text()).group(1))


def reference_place(values, ub, uj, counts):
    """``place_photons`` by numpy: a right-sided binary search, both clamps and
    a (cycle, position) lexicographic sort."""
    cum = np.cumsum(values)
    bins = np.minimum(np.searchsorted(cum, np.asarray(ub) * cum[-1], side="right"), len(cum) - 1)
    positions = np.minimum(bins + np.asarray(uj), np.nextafter(len(cum), 0.0))
    cycle_ids = np.repeat(np.arange(len(counts)), counts)
    return positions[np.lexsort((positions, cycle_ids))]


class TestKnotBins:
    # bins 0, 2, 5, 6 and 8 are empty (flat CDF stretches, at both ends too);
    # the total is 8, so a needle x = 8 * ub on a knot is exact
    VALUES = [0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 4.0, 0.0]
    KNOTS = np.cumsum(VALUES)

    @pytest.mark.parametrize("x", [
        [0.0], [1.0], [2.0, 2.0, 4.0], [0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 4.0],
        [7.2, 4.0, 2.0, 0.5, 0.0, 4.0, 1.0], [8.0 - 2.0**-50], [],
    ])
    def test_equals_right_sided_binary_search(self, x):
        got = place_photons(self.VALUES, np.array(x) / 8.0, np.zeros(len(x)))
        want = np.searchsorted(self.KNOTS, x, side="right")
        assert np.array_equal(got, want.astype(np.float64))

    def test_zero_draw_skips_leading_empty_bins(self):
        assert place_photons(self.VALUES, [0.0], [0.0]).tolist() == [1.0]
        assert place_photons([1.0, 1.0], [0.0], [0.0]).tolist() == [0.0]

    def test_draw_that_rounds_up_to_the_total_stays_in_the_last_bin(self):
        # with a subnormal total, 0.75 * total rounds to the total itself, so
        # the right-sided search returns n_bins; the last bin keeps it
        tiny = 2.0**-1074
        assert 0.75 * tiny == tiny
        assert place_photons([tiny, 0.0], [0.75], [0.5]).tolist() == [1.5]
        assert place_photons([0.0, 0.0, tiny, 0.0], [0.75], [0.0]).tolist() == [3.0]

    @pytest.mark.parametrize("n_bins", [2, 1024])
    def test_jitter_that_rounds_up_to_n_bins_stays_below_it(self, n_bins):
        values = np.zeros(n_bins)
        values[-1] = 1.0
        uj = 1.0 - 2.0**-53
        assert (n_bins - 1) + uj == n_bins
        got = place_photons(values, [0.5, 0.5], [uj, 0.25], counts=[2])
        assert got.tolist() == [n_bins - 0.75, np.nextafter(n_bins, 0.0)]

    def test_two_bins(self):
        got = place_photons([1.0, 3.0], [0.0, 0.2499, 0.25, 0.75, 0.9], [0.5] * 5)
        assert got.tolist() == [0.5, 0.5, 1.5, 1.5, 1.5]

    def test_hint_far_from_the_answer(self):
        # bucket 0's hint is knot 0, so a draw there scans up across 1,000
        # tiny knots to the one heavy bin
        values = np.full(1024, 1e-300)
        values[1000] = 1.0
        ub = [0.0, 1e-6, 0.5, 1.0 - 2.0**-53]
        assert place_photons(values, ub, [0.0] * 4).tolist() == [0.0] + [1000.0] * 3

    def test_each_cycle_sorted_on_its_own(self):
        # cycle 1's photons all lie below cycle 0's: none may cross the boundary
        got = place_photons(self.VALUES, [0.9, 0.5, 0.0, 0.125], [0.5, 0.25, 0.75, 0.0],
                            counts=[2, 0, 2])
        assert got.tolist() == [7.25, 7.5, 1.75, 3.0]

    @pytest.mark.parametrize("values", [
        np.full(1024, 2.0 / 1024), build_transient(PixelConfig(7.5, 1.0, 2.0), SIM).values])
    def test_the_hint_keeps_the_knot_scan_short(self, values):
        # a uniform draw passes under one knot on average from its bucket's
        # hint: none on a flat transient, about a third at 1:2; a hint table
        # of all zeros would scan about n_bins / 2, and one off by one about 1
        rng = np.random.default_rng(0)
        _, steps = place_photons_and_steps(values, rng.random(20_000), rng.random(20_000))
        assert 0.0 <= steps / 20_000 < 0.5

    @pytest.mark.parametrize("length", [1, 2, LONG_RUN - 1, LONG_RUN, LONG_RUN + 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_binary_search_at_every_run_length(self, length, seed):
        # cycles of one length on each side of the kernel's switch from
        # merging to qsort, with knots and draws from one small set of
        # dyadic values: ties between photons, with knots and against the
        # top clamp fill each run
        rng = np.random.default_rng(seed)
        values = np.append(rng.choice([0.0, 0.25, 1.0, 2.0], 7), 1.0)
        n = 3 * length
        ub = rng.choice([0.0, 0.125, 0.25, 0.5, 0.75, 0.9, 1.0 - 2.0**-53], n)
        uj = rng.choice([0.0, 0.5, 1.0 - 2.0**-53], n)
        ub[0] = uj[0] = 1.0 - 2.0**-53  # at least one photon meets the top clamp
        counts = [length, 0, length, length]
        got = place_photons(values, ub, uj, counts)
        assert got.tobytes() == reference_place(values, ub, uj, counts).tobytes()
        assert got.max() == np.nextafter(values.size, 0.0)

    @given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]), min_size=2, max_size=24),
           st.lists(st.tuples(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 0.9, 1.0 - 2.0**-53]),
                              st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53])), max_size=40),
           st.lists(st.integers(0, 40), max_size=8))
    @settings(max_examples=300)
    def test_equals_binary_search_with_ties(self, values, draws, cuts):
        # knots and draws from one small set of dyadic values, so ties with
        # knots, between photons and against the top clamp are common
        ub, uj = [u for u, _ in draws], [j for _, j in draws]
        counts = np.diff([0, *sorted(min(c, len(draws)) for c in cuts), len(draws)])
        got = place_photons(values, ub, uj, counts)
        assert got.tobytes() == reference_place(values, ub, uj, counts).tobytes()


class TestPhotonStream:
    def test_from_cycles(self):
        s = PhotonStream.from_cycles([np.array([1.0, 2.0]), np.array([]), np.array([0.5])], 1024)
        assert s.n_cycles == 3
        assert s.total_photons == 3
        assert np.array_equal(s.cycle(1), np.empty(0))
        assert np.array_equal(s.pooled(), np.array([0.5, 1.0, 2.0]))

    @pytest.mark.parametrize("i", [-1, 2, 2**70, 1.0, True, None])
    def test_cycle_index_outside_the_stream_refused(self, i):
        # a negative index would slice from the end, one past the last
        # would index past the offsets
        s = PhotonStream.from_cycles([np.array([1.0]), np.array([2.0])], 8)
        with pytest.raises(InvalidParamsError, match="cycle index must be"):
            s.cycle(i)
        assert s.cycle(np.int64(1)).tolist() == [2.0]

    def test_unsorted_cycle_rejected(self):
        with pytest.raises(InvalidParamsError):
            PhotonStream.from_cycles([np.array([2.0, 1.0])], 1024)

    @pytest.mark.parametrize("cycles", [
        [[], [], [3.0, 5.0], [1.0]],  # leading empty cycles: offsets of 0
        [[3.0, 5.0], [1.0], [], []],  # trailing empty cycles: offsets of len(timestamps)
        [[5.0], [], [1.0, 2.0], [0.5]],  # drops into new cycles, one past an empty cycle
    ])
    def test_drop_at_a_cycle_start_accepted(self, cycles):
        s = PhotonStream.from_cycles([np.array(c) for c in cycles], 1024)
        assert [s.cycle(i).tolist() for i in range(s.n_cycles)] == cycles

    @pytest.mark.parametrize("cycles", [
        [[], [1.0, 3.0, 2.0]],  # an offset of 0 must not excuse the last drop
        [[1.0], [3.0, 2.0], [], []],  # nor one of len(timestamps) the drop before it
        [[5.0], [1.0, 2.0, 1.5, 3.0], [0.5]],
    ])
    def test_drop_inside_a_cycle_rejected(self, cycles):
        with pytest.raises(InvalidParamsError, match="sorted within each cycle"):
            PhotonStream.from_cycles([np.array(c) for c in cycles], 1024)

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
