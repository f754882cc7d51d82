from bisect import bisect_left, bisect_right
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edhsim import kernel
from edhsim.binner import BinnerBank, StepParams, run_fixed, run_optimized
from edhsim.errors import InvalidParamsError
from edhsim.scene import PixelConfig
from edhsim.transient import (
    PhotonStream,
    SimConfig,
    build_transient,
    sample_stream,
    true_quantiles,
)
import edhsim.binner as binner

SIM = SimConfig()


def reference_run_optimized(stream, target_frac, params):
    """The optimized rule as a Python loop over one binner, the reference
    the kernel is checked against; returns ``(cv, s_prev, delta_tilde_prev)``."""
    p = params
    ts = stream.timestamps.tolist()
    offsets = stream.cycle_offsets.tolist()
    n_bins_f = float(stream.n_bins)
    coef_base = (1.0 - p.beta2) * ((p.k_pct / 100.0) * stream.n_bins)
    cv, s, dtil = target_frac * stream.n_bins, 0.0, 0.0
    for n in range(stream.n_cycles):
        lo, hi = offsets[n], offsets[n + 1]
        total = hi - lo
        dn = target_frac - (bisect_left(ts, cv, lo, hi) - lo) / total if total else 0.0
        dtil = p.beta1 * dtil + (1.0 - p.beta1) * dn
        s = p.beta2 * s + coef_base * (p.gamma ** min(n, p.decay_freeze_cycle)) * dtil
        cv = min(max(cv + s, 0.0), n_bins_f)
    return cv, s, dtil


def reference_fixed_walk(stream, c0, c1, edges, cvs, target_frac, step_size):
    """The fixed rule as a Python walk, the reference for the kernel walk
    behind ``run_fixed`` and ``hedh``, with ``bisect`` for every lookup."""
    lo, hi = [0.0] + edges, edges + [float(stream.n_bins)]
    cvs = list(cvs)
    ts = stream.timestamps.tolist()
    offsets = stream.cycle_offsets[c0:c1 + 1].tolist()
    for j, end in zip(offsets, offsets[1:]):
        while j < end:
            k = bisect_right(edges, ts[j])
            top = bisect_left(ts, hi[k], j, end)
            d = target_frac - (bisect_left(ts, cvs[k], j, top) - j) / (top - j)
            if d > 0.0:
                cvs[k] = min(cvs[k] + step_size, hi[k])
            elif d < 0.0:
                cvs[k] = max(cvs[k] - step_size, lo[k])
            j = top
    return cvs


def cycle_slice(stream, a, b):
    """Cycles ``[a, b)`` of a stream as a stream of their own."""
    return PhotonStream.from_cycles([stream.cycle(i) for i in range(a, b)], stream.n_bins)


# k_pct=100 with no smoothing and no decay: the applied step is n_bins times
# the raw step ``target - early/m`` (0 on an empty cycle), exactly so for a
# power-of-two n_bins
RAW = StepParams(k_pct=100.0, gamma=1.0, beta1=0.0, beta2=0.0)


def one_cycle(photons, n_bins=1024):
    return PhotonStream.from_cycles([np.sort(np.asarray(photons, np.float64))], n_bins)


def raw_step(photons, target, n_bins=1024, cv=None):
    """The kernel's raw step for one binner tracking ``target`` from ``cv``
    (default ``target * n_bins``) over one cycle of ``photons``."""
    bank = BinnerBank([target], RAW, n_bins)
    if cv is not None:
        bank.cvs[0] = cv
    bank.run(one_cycle(photons, n_bins))
    return bank.smoothed_step[0] / n_bins


class TestStepParams:
    def test_defaults(self):
        p = StepParams()
        assert (p.k_pct, p.gamma, p.beta1, p.beta2) == (3.0, 0.99902, 0.95, 0.8)
        assert p.decay_freeze_cycle == 4000
        assert [f.name for f in fields(p)] == ["k_pct", "gamma", "beta1", "beta2",
                                               "decay_freeze_cycle"]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(gamma=0.0), dict(gamma=1.1), dict(beta1=1.0), dict(beta2=-0.1),
         dict(k_pct=0.0), dict(decay_freeze_cycle=-1), dict(k_pct=-1.0),
         dict(decay_freeze_cycle=2.5), dict(decay_freeze_cycle=True)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParamsError):
            StepParams(**kwargs)

    @pytest.mark.parametrize("name", ["k_pct", "gamma", "beta1", "beta2"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(InvalidParamsError):
            StepParams(**{name: bad})

    def test_numpy_scalars_become_python_numbers(self):
        # gamma**n must be Python's float power (libm pow), not numpy's
        p = StepParams(k_pct=100.0, gamma=np.float64(0.99), beta1=0.0, beta2=0.0,
                       decay_freeze_cycle=np.int64(7))
        assert type(p.gamma) is float and type(p.decay_freeze_cycle) is int
        # nine empty cycles, then one photon above the CV: the step is 0.5 * 0.99**7
        stream = PhotonStream.from_cycles([np.array([])] * 9 + [np.array([0.75])], 1)
        assert 2.0 * run_optimized(stream, 0.5, p).s_prev == 0.99 ** 7

    def test_overflowing_step_scale_rejected(self):
        # (k_pct/100) * n_bins overflows to inf although k_pct itself is finite
        p = StepParams(k_pct=1e308)
        stream = PhotonStream.from_cycles([np.array([1.0])], 1024)
        with pytest.raises(InvalidParamsError):
            BinnerBank([0.5], p, 1024)
        with pytest.raises(InvalidParamsError):
            run_optimized(stream, 0.5, p)


class TestDelta:
    """The kernel's raw step ``target - early/m``."""

    def test_three_early_one_late(self):
        assert raw_step([100.0, 200.0, 300.0, 600.0], 0.5) == -0.25

    def test_balanced(self):
        assert raw_step([100.0, 200.0, 300.0, 400.0, 600.0, 700.0, 800.0, 900.0], 0.5) == 0.0

    def test_all_late(self):
        assert raw_step([300.0, 400.0, 500.0, 600.0], 0.25) == 0.25

    def test_empty_cycle(self):
        assert raw_step([], 0.5) == 0.0

    @given(
        target=st.floats(0.001, 0.999),
        early=st.integers(0, 1000),
        late=st.integers(0, 1000),
    )
    def test_magnitude_bounded(self, target, early, late):
        # early photons at 0, late ones on the CV (a tie counts late)
        d = raw_step([0.0] * early + [target * 1024] * late, target)
        assert d == (target - early / (early + late) if early + late else 0.0)
        assert abs(d) <= max(target, 1.0 - target) < 1.0


class TestObserve:
    """The kernel's early count: the photons strictly before the CV."""

    def test_split(self):
        assert raw_step([100.2, 600.7], 0.5) == 0.5 - 1 / 2

    def test_empty(self):
        assert raw_step([], 0.25, cv=100.0) == 0.0

    def test_cv_zero_all_late(self):
        assert raw_step([0.0, 5.0, 10.0], 0.5, cv=0.0) == 0.5 - 0 / 3

    def test_tie_counts_late(self):
        assert raw_step([5.0], 0.5, cv=5.0) == 0.5 - 0 / 1


class TestOptimizedStep:
    """One cycle of the optimized rule through ``run_optimized``."""

    def test_reduces_to_scaled_proportional_step(self):
        # with no smoothing and no decay the applied step is k/100 * B * delta
        p = StepParams(k_pct=1.0, gamma=1.0, beta1=0.0, beta2=0.0,
                       decay_freeze_cycle=0)
        s2 = run_optimized(one_cycle([100.0, 200.0, 300.0, 600.0]), 0.5, p)  # delta = -0.25
        assert s2.s_prev == pytest.approx(-2.56, abs=1e-12)
        assert s2.cv == pytest.approx(512.0 - 2.56, abs=1e-12)

    def test_fixed_point(self):
        s2 = run_optimized(one_cycle([100.0, 200.0, 600.0, 700.0]), 0.5, StepParams())  # delta = 0
        assert s2.cv == 512.0
        assert s2.s_prev == 0.0 and s2.delta_tilde_prev == 0.0
        assert s2.n == 1

    def test_default_params_single_step_trace(self):
        # hand-evaluated: dtil = 0.05*0.5 = 0.025,
        # step = 0.2 * (3/100*1024) * gamma^0 * 0.025 = 0.2*30.72*0.025 = 0.1536
        s2 = run_optimized(one_cycle([600.0, 700.0, 800.0, 900.0]), 0.5, StepParams())  # delta = +0.5
        assert s2.delta_tilde_prev == pytest.approx(0.025, abs=1e-15)
        assert s2.s_prev == pytest.approx(0.1536, abs=1e-12)
        assert s2.cv == pytest.approx(512.0 + 0.1536, abs=1e-12)

    def test_decay_frozen_after_freeze_cycle(self):
        p = StepParams(k_pct=100.0, beta1=0.0, beta2=0.0, decay_freeze_cycle=10)
        for n in (10, 11, 5000):
            # n empty cycles leave the CV at 0.5; one photon above it then
            # gives the step 0.5 * gamma**min(n, 10)
            stream = PhotonStream.from_cycles([np.array([])] * n + [np.array([0.75])], 1)
            assert 2.0 * run_optimized(stream, 0.5, p).s_prev == p.gamma ** 10

    @given(
        cv0=st.floats(0.0, 1024.0),
        target=st.floats(0.01, 0.99),
        cycles=st.lists(st.lists(st.floats(0.0, 1023.5), max_size=20), max_size=30),
    )
    @settings(max_examples=60)
    def test_cv_always_clamped(self, cv0, target, cycles):
        p = StepParams(k_pct=50.0, gamma=1.0, beta1=0.0, beta2=0.0, decay_freeze_cycle=0)
        bank = BinnerBank([target], p, 1024)
        bank.cvs[0] = cv0
        for ts in cycles:
            bank.run(one_cycle(ts))
            assert 0.0 <= bank.cvs[0] <= 1024.0


class TestFixedStep:
    """One cycle of the fixed rule through ``run_fixed``."""

    def test_moves_down_by_step(self):
        assert run_fixed(one_cycle([100.0, 200.0, 300.0, 600.0]), 0.5, 1.0).cv == 511.0

    def test_balanced_no_move(self):
        stream = one_cycle([100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0])
        assert run_fixed(stream, 0.5, 1.0).cv == 512.0

    def test_clamps_at_zero(self):
        assert run_fixed(one_cycle([0.0, 0.1, 0.2], n_bins=1), 0.3, 1.0).cv == 0.0

    def test_step_size_validated(self):
        with pytest.raises(InvalidParamsError):
            run_fixed(one_cycle([600.0]), 0.5, 0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_step_rejected(self, bad):
        # an infinite step turns the no-move of a balanced cycle into inf*0 = nan
        stream = one_cycle([300.0, 400.0, 600.0, 700.0])
        with pytest.raises(InvalidParamsError, match=r"fixed_step_size must be a real number in \(0, inf\)"):
            run_fixed(stream, 0.5, bad)

    @pytest.mark.parametrize("target", [0.0, 1.0, 2.0, -0.5, np.nan, True, "a"])
    def test_target_frac_must_lie_in_open_unit_interval(self, target):
        # checked before the CV starts at target * n_bins: unchecked, a
        # target of 2 would walk the CV up on every cycle
        with pytest.raises(InvalidParamsError, match=r"target_frac must be a real number in \(0, 1\)"):
            run_fixed(one_cycle([0.5]), target, 1.0)


def _stream(pixel=PixelConfig(7.5, 1.0, 1.0), n_cycles=400, seed=5):
    return sample_stream(build_transient(pixel, SIM), n_cycles, seed)


class TestRunners:
    def test_run_optimized_matches_stepwise_fold(self):
        stream = _stream()
        p = StepParams(decay_freeze_cycle=300)
        fast = run_optimized(stream, 0.3, p)
        assert (fast.cv, fast.s_prev, fast.delta_tilde_prev) == \
            reference_run_optimized(stream, 0.3, p)
        assert fast.n == stream.n_cycles

    @pytest.mark.parametrize("n_bins", [1000, 1024])
    def test_runners_take_a_float32_target_as_its_float64_value(self, n_bins):
        stream = sample_stream(build_transient(PixelConfig(7.5, 1.0, 1.0), SimConfig(n_bins=n_bins)),
                               50, 7)
        target = np.float32(0.3)
        # at 1,000 bins the float32 start CV target * n_bins rounds apart from the float64 one
        assert (float(target * n_bins) == float(target) * n_bins) == (n_bins == 1024)
        for got, want in [(run_fixed(stream, target, 1.0), run_fixed(stream, float(target), 1.0)),
                          (run_optimized(stream, target, StepParams()),
                           run_optimized(stream, float(target), StepParams()))]:
            assert got == want

    def test_run_fixed_matches_stepwise_fold(self):
        stream = _stream(seed=6)
        assert [run_fixed(stream, 0.5, 1.0).cv] == \
            reference_fixed_walk(stream, 0, stream.n_cycles, [], [512.0], 0.5, 1.0)

    @given(
        data=st.data(),
        n_bins=st.sampled_from([4, 8, 16]),
        target=st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1 / 3]),
                         st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        step=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.25, 3.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_fixed_matches_stepwise_fold_at_any_target(self, data, n_bins, target, step):
        # half-integer timestamps land on the CV, targets like 1/4 and 1/2
        # meet early/n exactly (no move), empty cycles are common, and a
        # stream may hold no photon at all
        half_steps = st.integers(0, 2 * n_bins - 1)
        cycle = st.lists(half_steps, max_size=6).map(lambda c: np.sort(c) / 2.0)
        cycles = data.draw(st.one_of(
            st.lists(cycle, min_size=1, max_size=60),
            st.integers(1, 5).map(lambda n: [np.array([])] * n),
        ))
        stream = PhotonStream.from_cycles(cycles, n_bins)
        fast = run_fixed(stream, target, step)
        assert [fast.cv] == reference_fixed_walk(stream, 0, len(cycles), [], [target * n_bins],
                                                 target, step)
        assert fast.n == len(cycles)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_run_fixed_rejects_bad_step_up_front(self, bad):
        # two cycles, the second empty: with step inf the old loop only failed
        # after the stream, on the nan CV
        stream = PhotonStream(np.array([100.0, 900.0]), np.array([0, 2, 2]), 1024)
        with pytest.raises(InvalidParamsError, match=r"fixed_step_size must be a real number in \(0, inf\)"):
            run_fixed(stream, 0.5, bad)

    def test_bank_matches_scalar_runs_bitwise(self):
        stream = _stream(seed=7)
        p = StepParams(decay_freeze_cycle=300)
        targets = np.arange(1, 8) / 8
        bank = BinnerBank(targets, p, stream.n_bins)
        bank.run(stream)
        for j, t in enumerate(targets):
            assert bank.cvs[j] == run_optimized(stream, float(t), p).cv


def _hand_stream(cycles, n_bins=16):
    return PhotonStream.from_cycles([np.sort(np.asarray(c, np.float64)) for c in cycles], n_bins)


step_params = st.builds(
    StepParams,
    k_pct=st.floats(0.5, 80.0),
    gamma=st.one_of(st.just(1.0), st.floats(0.9, 1.0)),
    beta1=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    beta2=st.floats(0.0, 0.99),
    decay_freeze_cycle=st.integers(0, 40),
)
# half-integer timestamps in [0, 16) so CVs land on photons; empty cycles common
half_photons = st.integers(0, 31).map(lambda k: k / 2.0)
hand_cycles = st.lists(st.lists(half_photons, max_size=6), min_size=1, max_size=40)
# the kernel steps a bank of 8 or more binners in its wide path, padded to
# a multiple of 8 binners, and searches a smaller one: sizes on both sides of
# the cutoff and of the padding, and cycles of up to 40 photons, odd and even
# (32 and 33 among them), so the wide path's photon pairs end with and
# without a tail
bank_sizes = st.sampled_from([1, 2, 3, 7, 8, 9, 63, 64, 65, 129])
cycle_sizes = st.one_of(st.integers(0, 6), st.sampled_from([32, 33]), st.integers(30, 40))
bank_cycles = st.lists(cycle_sizes.flatmap(
    lambda n: st.lists(half_photons, min_size=n, max_size=n)), min_size=1, max_size=40)


class TestBankVariants:
    """Banks under different step schedules, one bank per schedule."""

    def test_step_cycle_matches_run(self):
        # a bank run one cycle at a time ends where one run over the stream does
        stream = _stream(seed=9)
        for step in (StepParams(decay_freeze_cycle=100), StepParams(gamma=1.0)):
            stepped = BinnerBank(np.arange(1, 8) / 8, step, stream.n_bins)
            for i in range(stream.n_cycles):
                stepped.run(PhotonStream.from_cycles([stream.cycle(i)], stream.n_bins))
            ran = BinnerBank(np.arange(1, 8) / 8, step, stream.n_bins)
            ran.run(stream)
            assert np.array_equal(stepped.cvs, ran.cvs)
            assert stepped.n == ran.n == stream.n_cycles


class TestBankStreams:
    @pytest.mark.parametrize("split", [1, 7, 512])
    def test_split_run_equals_one_run(self, split):
        # a bank resumed at cycle `split` (its decay schedule goes on from
        # there) ends where one run over all 1,100 cycles does
        stream = _stream(PixelConfig(9.0, 1.0, 2.0), n_cycles=1100, seed=1)
        for step in (StepParams(decay_freeze_cycle=700), StepParams(gamma=1.0)):
            banks = [BinnerBank([0.25, 0.5], step, SIM.n_bins) for _ in range(2)]
            banks[0].run(stream)
            for a, b in ((0, split), (split, 1100)):
                banks[1].run(cycle_slice(stream, a, b))
            assert banks[0].n == banks[1].n == 1100
            for name in ("cvs", "smoothed_step", "smoothed_delta"):
                assert np.array_equal(getattr(banks[0], name), getattr(banks[1], name))
            assert banks[1].cvs.tolist() == [run_optimized(stream, t, step).cv for t in (0.25, 0.5)]

    def test_state_is_four_arrays_per_binner(self):
        # the state does not grow with the runs or the photons a bank sees
        for gamma in (0.99, 1.0):
            bank = BinnerBank(np.arange(1, 32) / 32, StepParams(gamma=gamma), 1024)
            for pixel in (PixelConfig(7.5, 1.0, 1.0), PixelConfig(7.5, 5.0, 5.0)):
                bank.run(_stream(pixel, n_cycles=50))
                arrays = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
                assert sum(a.size for a in arrays) == 4 * 31


class TestKernelExactness:
    """The compiled kernel against the reference loop of each rule, bit for
    bit."""

    @given(
        cycles=st.one_of(bank_cycles, st.integers(1, 40).map(lambda n: [[]] * n)),
        params=step_params,
        targets=bank_sizes.flatmap(lambda n: st.lists(
            st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.9]), min_size=n, max_size=n)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bank_equals_reference_loop_and_fold(self, cycles, params, targets, data):
        # empty cycles and photon-less streams, cycles of up to 40 photons,
        # banks of 1 to 129 binners, gamma = 1, decays frozen before the
        # last cycle, and a run resumed at a drawn cycle
        stream = _hand_stream(cycles)
        split = data.draw(st.integers(0, stream.n_cycles))
        bank = BinnerBank(targets, params, 16)
        for a, b in ((0, split), (split, stream.n_cycles)):
            if b > a:
                bank.run(cycle_slice(stream, a, b))
        assert bank.n == stream.n_cycles
        refs = {t: reference_run_optimized(stream, t, params) for t in set(targets)}
        for j, t in enumerate(targets):
            assert (bank.cvs[j], bank.smoothed_step[j], bank.smoothed_delta[j]) == refs[t]

    @pytest.mark.parametrize("pixel", [PixelConfig(7.5, 1.0, 1.0), PixelConfig(7.5, 1.0, 5.0),
                                       PixelConfig(7.5, 15.0, 30.0)], ids=["1:1", "1:5", "15:30"])
    def test_binner_result_does_not_depend_on_its_bank(self, pixel):
        # a binner ends where it ends alone, whatever the bank's size (on
        # either side of the kernel's cutoff) or its place in the bank; at
        # 15:30 the wide path steps cycles of about 45 photons
        stream = _stream(pixel, n_cycles=600, seed=11)
        p = StepParams(decay_freeze_cycle=300)
        alone = {}
        for size in (1, 7, 8, 9, 64, 65, 129):
            for targets in (np.arange(1, size + 1) / (size + 1), np.arange(size, 0, -1) / (size + 1)):
                bank = BinnerBank(targets, p, stream.n_bins)
                bank.run(stream)
                for j, t in enumerate(targets.tolist()):
                    if t not in alone:
                        one = run_optimized(stream, t, p)
                        alone[t] = (one.cv, one.s_prev, one.delta_tilde_prev)
                    got = (bank.cvs[j], bank.smoothed_step[j], bank.smoothed_delta[j])
                    assert got == alone[t], (size, j, t)

    @given(cycles=st.one_of(hand_cycles, st.integers(1, 40).map(lambda n: [[]] * n)),
           params=step_params, target=st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_run_optimized_equals_reference_loop_and_fold(self, cycles, params, target):
        stream = _hand_stream(cycles)
        fast = run_optimized(stream, target, params)
        got = (fast.cv, fast.s_prev, fast.delta_tilde_prev)
        assert got == reference_run_optimized(stream, target, params)
        assert fast.n == stream.n_cycles

    @given(gamma=st.one_of(st.just(1.0), st.floats(0.5, 1.0)), freeze=st.integers(0, 60))
    @example(gamma=0.99902, freeze=4000)
    @example(gamma=np.nextafter(1.0, 0.0), freeze=10)
    @settings(max_examples=100, deadline=None)
    def test_kernel_decay_is_python_pow(self, gamma, freeze):
        # one photon above the CV, beta1 = beta2 = 0 and a step base of 1:
        # the step is 0.5 * gamma**min(n, freeze), exactly
        p = StepParams(k_pct=100.0, gamma=gamma, beta1=0.0, beta2=0.0, decay_freeze_cycle=freeze)
        stream = PhotonStream.from_cycles([np.array([0.75])], 1)
        for n in range(freeze + 3):
            cv, s, dtil = np.array([0.5]), np.zeros(1), np.zeros(1)
            binner._optimized_bank(stream, n, p, 1, np.array([0.5]), cv, s, dtil)
            assert 2.0 * s[0] == p.gamma ** min(n, freeze)

    @given(
        data=st.data(),
        n_bins=st.sampled_from([4, 8, 16]),
        target=st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1 / 3]),
                         st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        step=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]), st.floats(0.25, 3.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_walk_equals_reference_walk(self, data, n_bins, target, step):
        # half-integer photons, edges and CVs: photons land exactly on edges
        # and on CVs, edges may repeat or sit at 0 and n_bins, and the walk
        # may start and end at any cycle
        half = st.integers(0, 2 * n_bins).map(lambda k: k / 2.0)
        edges = sorted(data.draw(st.lists(half, max_size=4)))
        bounds = list(zip([0.0] + edges, edges + [float(n_bins)]))
        cvs = [min(max(data.draw(half), lo), hi) for lo, hi in bounds]
        cycle = st.lists(st.integers(0, 2 * n_bins - 1), max_size=6).map(lambda c: np.sort(c) / 2.0)
        stream = PhotonStream.from_cycles(data.draw(st.lists(cycle, min_size=1, max_size=40)), n_bins)
        c0 = data.draw(st.integers(0, stream.n_cycles))
        c1 = data.draw(st.integers(c0, stream.n_cycles))
        # the kernel's walk, as edh_hedh runs it on each level
        out = np.array(cvs, np.float64)
        assert kernel.library().edh_fixed_walk(
            stream.timestamps, stream.cycle_offsets, c0, c1, np.array(edges, np.float64),
            len(edges), float(n_bins), out, target, step) == 0
        assert out.tolist() == reference_fixed_walk(stream, c0, c1, edges, cvs, target, step)

    def test_bank_arrays_must_fit_the_bank(self):
        bank = BinnerBank([0.25, 0.5], StepParams(), 8)
        bank.cvs = np.zeros(1)
        with pytest.raises(InvalidParamsError, match="do not fit"):
            bank.run(PhotonStream.from_cycles([np.array([1.0])], 8))


class TestDecayTable:
    """The bank reads gamma**e from a cached table up to its end and takes
    libm pow past it; each binner matches the reference loop bit for bit."""

    TARGETS = np.arange(1, 10) / 10  # a bank wide enough for the wide path

    def assert_bank_is_reference(self, bank, stream):
        assert bank.n == stream.n_cycles
        for j, t in enumerate(self.TARGETS.tolist()):
            got = (bank.cvs[j], bank.smoothed_step[j], bank.smoothed_delta[j])
            assert got == reference_run_optimized(stream, t, bank.params), t

    def run_bank(self, stream, params, splits=()):
        bank = BinnerBank(self.TARGETS, params, stream.n_bins)
        bounds = [0, *splits, stream.n_cycles]
        for a, b in zip(bounds, bounds[1:]):
            bank.run(cycle_slice(stream, a, b))
        return bank

    @pytest.mark.parametrize("freeze", [0, 1, 399], ids=["0", "1", "last cycle"])
    def test_freeze_at_the_ends_of_the_stream(self, freeze):
        stream = _stream(n_cycles=400)
        p = StepParams(gamma=0.99, decay_freeze_cycle=freeze)
        self.assert_bank_is_reference(self.run_bank(stream, p), stream)

    def test_a_far_freeze_allocates_no_more_than_the_stream(self, monkeypatch):
        # nor does a resumed run: its table is as long as its own stream
        lengths = []

        def spy(gamma, n):
            lengths.append(n)
            return real(gamma, n)

        real = binner._decay_table
        monkeypatch.setattr(binner, "_decay_table", spy)
        stream = _stream(n_cycles=400)
        p = StepParams(gamma=0.99, decay_freeze_cycle=10**12)
        self.assert_bank_is_reference(self.run_bank(stream, p, splits=(300,)), stream)
        assert lengths == [300, 100]

    def test_a_second_run_crosses_the_first_runs_table(self):
        # the first run's table ends at cycle 250 and the second run's, of
        # 150 entries, before the run's first cycle: from cycle 250 to its
        # freeze at 300 the second run takes every decay from pow
        stream = _stream(n_cycles=400)
        p = StepParams(gamma=0.99, decay_freeze_cycle=300)
        self.assert_bank_is_reference(self.run_bank(stream, p, splits=(250,)), stream)

    @pytest.mark.parametrize("n_decay", [0, 1, 150, 301, 1000])
    def test_any_table_length_gives_the_same_bits(self, n_decay):
        # the kernel takes pow(gamma, e) for every e at or past the table's end
        stream = _stream(n_cycles=400)
        p = StepParams(gamma=0.99, decay_freeze_cycle=300)
        full = self.run_bank(stream, p)
        decay = np.array([p.gamma ** e for e in range(n_decay)])
        cvs, s, dtil = self.TARGETS * stream.n_bins, np.zeros(9), np.zeros(9)
        kernel.library().edh_optimized_bank(
            stream.timestamps, stream.cycle_offsets, stream.n_cycles, 0, p.beta1, p.beta2,
            (1.0 - p.beta2) * binner.step_scale(p, stream.n_bins), p.gamma,
            p.decay_freeze_cycle, decay, decay.size, 9, self.TARGETS, float(stream.n_bins),
            cvs, s, dtil)
        for got, want in ((cvs, full.cvs), (s, full.smoothed_step), (dtil, full.smoothed_delta)):
            assert got.tobytes() == want.tobytes()

    def test_gamma_one(self):
        stream = _stream(n_cycles=400)
        p = StepParams(gamma=1.0, decay_freeze_cycle=10**6)
        assert binner._decay_table(1.0, 400).tolist() == [1.0] * 400
        self.assert_bank_is_reference(self.run_bank(stream, p, splits=(100,)), stream)

    def test_a_decay_that_underflows_through_subnormals_to_zero(self):
        # 0.5**1074 is the least subnormal and 0.5**1075 rounds to 0: the
        # steps shrink to nothing within the stream, as the reference's do
        stream = _stream(n_cycles=1100)
        p = StepParams(k_pct=50.0, gamma=0.5, decay_freeze_cycle=2000)
        table = binner._decay_table(0.5, 1100)
        assert table[1022] == np.finfo(np.float64).tiny and 0.0 < table[1023] < table[1022]
        assert table[1074] == 5e-324 and table[1075] == 0.0 and not table.flags.writeable
        self.assert_bank_is_reference(self.run_bank(stream, p), stream)


class TestBankValidation:
    def test_run_refuses_anything_but_one_stream(self):
        stream = PhotonStream.from_cycles([np.array([1.0])], 8)
        bank = BinnerBank([0.5], StepParams(), 8)
        for bad in ([stream], (stream, stream), stream.timestamps):
            with pytest.raises(InvalidParamsError, match="one PhotonStream"):
                bank.run(bad)
        assert bank.n == 0

    @pytest.mark.parametrize("n_bins", [0, -4, 8.5, True])
    def test_n_bins_must_be_positive_integer(self, n_bins):
        with pytest.raises(InvalidParamsError, match="n_bins must be an integer >= 1"):
            BinnerBank([0.5], StepParams(), n_bins)

    @pytest.mark.parametrize("targets", [[np.nan, 0.5], [0.5, np.nan]])
    def test_targets_must_lie_in_open_unit_interval(self, targets):
        with pytest.raises(InvalidParamsError, match=r"target fractions must lie in \(0, 1\)"):
            BinnerBank(targets, StepParams(), 8)

    def test_stream_n_bins_must_match(self):
        bank = BinnerBank([0.5], StepParams(), 8)
        with pytest.raises(InvalidParamsError, match="n_bins"):
            bank.run(PhotonStream.from_cycles([np.array([1.0, 12.0])], 16))

    @pytest.mark.parametrize("steps", [[], [StepParams()], (StepParams(), StepParams(gamma=1.0))])
    def test_schedule_sequence_refused(self, steps):
        # a bank runs one schedule; sweep one bank per schedule instead
        with pytest.raises(InvalidParamsError, match="one StepParams, not"):
            BinnerBank([0.5], steps, 8)


class TestConvergence:
    def test_monotone_self_correction_on_point_mass(self):
        # basic proportional stepping (no smoothing): the same single
        # timestamp every cycle pulls the CV in, and whenever the pending
        # step is smaller than the remaining gap the gap cannot grow
        target_pos = 700.0
        cycle = one_cycle([target_pos])
        p = StepParams(k_pct=3.0, gamma=0.999, beta1=0.0, beta2=0.0,
                       decay_freeze_cycle=2500)
        bank = BinnerBank([0.5], p, 1024)
        gaps, steps = [], []
        for _ in range(3000):
            prev_gap = abs(bank.cvs[0] - target_pos)
            bank.run(cycle)
            gaps.append(abs(bank.cvs[0] - target_pos))
            steps.append(abs(bank.smoothed_step[0]))
            if steps[-1] < prev_gap:
                assert gaps[-1] <= prev_gap + 1e-9
        assert gaps[-1] < 2.0  # settled near the mass

    def test_smoothed_defaults_converge_on_point_mass(self):
        # the smoothed schedule may overshoot transiently (step momentum)
        # but still settles close to the mass by the end of the exposure
        target_pos = 700.0
        stream = PhotonStream.from_cycles([np.array([target_pos])] * 5000, 1024)
        assert abs(run_optimized(stream, 0.5, StepParams()).cv - target_pos) < 5.0

    def test_median_tracking_lands_in_band(self):
        # 100 seeded runs on a known distribution: >= 95 land near the median
        pixel = PixelConfig(7.5, 1.0, 1.0)
        transient = build_transient(pixel, SIM)
        median = float(true_quantiles(transient, [0.5])[0])
        p = StepParams()
        hits = 0
        for seed in range(100):
            stream = sample_stream(transient, SIM.n_cycles, seed)
            cv = run_optimized(stream, 0.5, p).cv
            if abs(cv - median) <= 15.0:
                hits += 1
        assert hits >= 95
