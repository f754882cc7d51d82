import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edhsim.binner import (
    BinnerBank,
    BinnerState,
    CycleObservation,
    StepParams,
    delta,
    fixed_step,
    observe,
    optimized_step,
    run_fixed,
    run_optimized,
)
from edhsim.errors import InvalidParamsError
from edhsim.scene import PixelConfig
from edhsim.transient import (
    PhotonStream,
    SimConfig,
    StreamBlock,
    build_transient,
    sample_stream,
    true_quantiles,
)
import edhsim.binner as binner

SIM = SimConfig()


class TestStepParams:
    def test_defaults(self):
        p = StepParams()
        assert (p.k_pct, p.gamma, p.beta1, p.beta2) == (3.0, 0.99902, 0.95, 0.8)
        assert p.decay_freeze_cycle == 4000
        assert p.clip is None

    @pytest.mark.parametrize(
        "kwargs",
        [dict(gamma=0.0), dict(gamma=1.1), dict(beta1=1.0), dict(beta2=-0.1),
         dict(k_pct=0.0), dict(decay_freeze_cycle=-1), dict(clip=0.0),
         dict(decay_freeze_cycle=2.5), dict(decay_freeze_cycle=True)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParamsError):
            StepParams(**kwargs)

    @pytest.mark.parametrize("name", ["k_pct", "gamma", "beta1", "beta2", "clip"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(InvalidParamsError):
            StepParams(**{name: bad})

    def test_overflowing_step_scale_rejected(self):
        # (k_pct/100) * n_bins overflows to inf although k_pct itself is finite
        p = StepParams(k_pct=1e308)
        stream = PhotonStream.from_cycles([np.array([1.0])], 1024)
        with pytest.raises(InvalidParamsError):
            BinnerBank([0.5], p, 1024)
        with pytest.raises(InvalidParamsError):
            run_optimized(stream, 0.5, p)


class TestDelta:
    def test_three_early_one_late(self):
        assert delta(0.5, CycleObservation(3, 1)) == pytest.approx(-0.25)

    def test_balanced(self):
        assert delta(0.5, CycleObservation(4, 4)) == 0.0

    def test_all_late(self):
        assert delta(0.25, CycleObservation(0, 4)) == pytest.approx(0.25)

    def test_empty_cycle(self):
        assert delta(0.5, CycleObservation(0, 0)) == 0.0

    @given(
        target=st.floats(0.001, 0.999),
        early=st.integers(0, 1000),
        late=st.integers(0, 1000),
    )
    def test_magnitude_bounded(self, target, early, late):
        d = delta(target, CycleObservation(early, late))
        assert abs(d) <= max(target, 1.0 - target) < 1.0


class TestObserve:
    def test_split(self):
        obs = observe(512.0, np.array([100.2, 600.7]))
        assert (obs.early, obs.late) == (1, 1)

    def test_empty(self):
        obs = observe(512.0, np.array([]))
        assert (obs.early, obs.late) == (0, 0)

    def test_cv_zero_all_late(self):
        obs = observe(0.0, np.array([0.0, 5.0, 10.0]))
        assert (obs.early, obs.late) == (0, 3)

    def test_tie_counts_late(self):
        obs = observe(5.0, np.array([5.0]))
        assert (obs.early, obs.late) == (0, 1)


class TestOptimizedStep:
    def test_reduces_to_scaled_proportional_step(self):
        # with no smoothing and no decay the applied step is k/100 * B * delta
        p = StepParams(k_pct=1.0, gamma=1.0, beta1=0.0, beta2=0.0,
                       decay_freeze_cycle=0)
        s = BinnerState.initial(0.5, p, 1024)
        s2 = optimized_step(s, CycleObservation(3, 1))  # delta = -0.25
        assert s2.s_prev == pytest.approx(-2.56, abs=1e-12)
        assert s2.cv == pytest.approx(512.0 - 2.56, abs=1e-12)

    def test_fixed_point(self):
        p = StepParams()
        s = BinnerState.initial(0.5, p, 1024)
        s2 = optimized_step(s, CycleObservation(2, 2))  # delta = 0
        assert s2.cv == s.cv
        assert s2.s_prev == 0.0 and s2.delta_tilde_prev == 0.0
        assert s2.n == 1

    def test_default_params_single_step_trace(self):
        # hand-evaluated: dtil = 0.05*0.5 = 0.025,
        # step = 0.2 * (3/100*1024) * gamma^0 * 0.025 = 0.2*30.72*0.025 = 0.1536
        p = StepParams()
        s = BinnerState.initial(0.5, p, 1024)
        s2 = optimized_step(s, CycleObservation(0, 4))  # delta = +0.5
        assert s2.delta_tilde_prev == pytest.approx(0.025, abs=1e-15)
        assert s2.s_prev == pytest.approx(0.1536, abs=1e-12)
        assert s2.cv == pytest.approx(512.0 + 0.1536, abs=1e-12)

    def test_clip_caps_step(self):
        p = StepParams(k_pct=30.0, gamma=1.0, beta1=0.0, beta2=0.0,
                       decay_freeze_cycle=0, clip=0.02)
        s = BinnerState.initial(0.5, p, 1024)
        s2 = optimized_step(s, CycleObservation(0, 10))  # raw step would be 153.6
        assert abs(s2.s_prev) <= 0.02 * 1024 + 1e-12
        assert s2.s_prev == pytest.approx(0.02 * 1024)

    def test_decay_frozen_after_freeze_cycle(self):
        p = StepParams(decay_freeze_cycle=10)
        from edhsim.binner import _decay

        assert _decay(p, 10) == p.gamma**10
        assert _decay(p, 11) == p.gamma**10
        assert _decay(p, 5000) == p.gamma**10

    @given(
        cv0=st.floats(0.0, 1024.0),
        target=st.floats(0.01, 0.99),
        seq=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30),
    )
    @settings(max_examples=60)
    def test_cv_always_clamped(self, cv0, target, seq):
        p = StepParams(k_pct=50.0, gamma=1.0, beta1=0.0, beta2=0.0, decay_freeze_cycle=0)
        s = BinnerState(cv=cv0, target_frac=target, params=p, n_bins=1024)
        for early, late in seq:
            s = optimized_step(s, CycleObservation(early, late))
            assert 0.0 <= s.cv <= 1024.0


class TestFixedStep:
    def test_moves_down_by_step(self):
        s = BinnerState.initial(0.5, StepParams(), 1024)
        s2 = fixed_step(s, CycleObservation(3, 1), 1.0)
        assert s2.cv == s.cv - 1.0

    def test_balanced_no_move(self):
        s = BinnerState.initial(0.5, StepParams(), 1024)
        s2 = fixed_step(s, CycleObservation(5, 5), 1.0)
        assert s2.cv == s.cv

    def test_clamps_at_zero(self):
        s = BinnerState(cv=0.3, target_frac=0.5, params=StepParams(), n_bins=1024)
        s2 = fixed_step(s, CycleObservation(3, 0), 1.0)
        assert s2.cv == 0.0

    def test_step_size_validated(self):
        s = BinnerState.initial(0.5, StepParams(), 1024)
        with pytest.raises(InvalidParamsError):
            fixed_step(s, CycleObservation(1, 0), 0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_step_rejected(self, bad):
        # an infinite step turns the no-move of a balanced cycle into inf*0 = nan
        s = BinnerState.initial(0.5, StepParams(), 1024)
        with pytest.raises(InvalidParamsError, match="finite"):
            fixed_step(s, CycleObservation(5, 5), bad)


def _stream(pixel=PixelConfig(7.5, 1.0, 1.0), n_cycles=400, seed=5):
    return sample_stream(build_transient(pixel, SIM), n_cycles, seed)


class TestRunners:
    def test_run_optimized_matches_stepwise_fold(self):
        stream = _stream()
        p = StepParams(decay_freeze_cycle=300)
        state = BinnerState.initial(0.3, p, stream.n_bins)
        for ts in stream.cycles():
            state = optimized_step(state, observe(state.cv, ts))
        fast = run_optimized(stream, 0.3, p)
        assert fast.cv == state.cv
        assert fast.s_prev == state.s_prev
        assert fast.delta_tilde_prev == state.delta_tilde_prev
        assert fast.n == state.n

    def test_run_fixed_matches_stepwise_fold(self):
        stream = _stream(seed=6)
        state = BinnerState.initial(0.5, StepParams(), stream.n_bins)
        for ts in stream.cycles():
            state = fixed_step(state, observe(state.cv, ts), 1.0)
        fast = run_fixed(stream, 0.5, 1.0)
        assert fast.cv == state.cv

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
        state = BinnerState.initial(target, StepParams(), n_bins)
        for ts in stream.cycles():
            state = fixed_step(state, observe(state.cv, ts), step)
        fast = run_fixed(stream, target, step)
        assert fast.cv == state.cv
        assert fast.n == state.n == len(cycles)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_run_fixed_rejects_bad_step_up_front(self, bad):
        # two cycles, the second empty: with step inf the old loop only failed
        # after the stream, on the nan CV
        stream = PhotonStream(np.array([100.0, 900.0]), np.array([0, 2, 2]), 1024)
        with pytest.raises(InvalidParamsError, match="fixed_step_size must be finite and > 0"):
            run_fixed(stream, 0.5, bad)

    def test_bank_matches_scalar_runs_bitwise(self):
        stream = _stream(seed=7)
        p = StepParams(decay_freeze_cycle=300)
        targets = np.arange(1, 8) / 8
        bank = BinnerBank(targets, p, stream.n_bins)
        bank.run(stream)
        for j, t in enumerate(targets):
            assert bank.cvs[j] == run_optimized(stream, float(t), p).cv

    def test_bank_with_clip_matches_scalar(self):
        stream = _stream(seed=8)
        p = StepParams(clip=0.02, decay_freeze_cycle=300)
        bank = BinnerBank(np.array([0.5]), p, stream.n_bins)
        bank.run(stream)
        assert bank.cvs[0] == run_optimized(stream, 0.5, p).cv


def _hand_stream(cycles, n_bins=16):
    return PhotonStream.from_cycles([np.sort(np.asarray(c, np.float64)) for c in cycles], n_bins)


step_params = st.builds(
    StepParams,
    k_pct=st.floats(0.5, 80.0),
    gamma=st.one_of(st.just(1.0), st.floats(0.9, 1.0)),
    beta1=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    beta2=st.floats(0.0, 0.99),
    decay_freeze_cycle=st.integers(0, 40),
    clip=st.one_of(st.none(), st.floats(0.01, 0.5)),
)
# half-integer timestamps in [0, 16) so CVs land on photons; empty cycles common
hand_cycles = st.lists(
    st.lists(st.integers(0, 31).map(lambda k: k / 2.0), max_size=6), min_size=1, max_size=40,
)


class TestBankVariants:
    @given(
        cycles=st.one_of(hand_cycles, st.integers(1, 40).map(lambda n: [[]] * n)),
        variants=st.lists(step_params, min_size=1, max_size=4),
        targets=st.lists(st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.9]), min_size=1, max_size=4),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_variants_equal_separate_banks_bitwise(self, cycles, variants, targets, order):
        # V variants in one bank step exactly as V one-variant banks, and as
        # the scalar reference; permuting the variants permutes the outputs
        stream = _hand_stream(cycles)
        k = len(targets)

        def state(bank):
            return [a.reshape(-1, k) for a in (bank.cvs, bank.smoothed_step, bank.smoothed_delta)]

        bank = BinnerBank(targets, variants, stream.n_bins)
        bank.run(stream)
        assert bank.targets.size == len(variants) * k
        together = state(bank)
        for v, p in enumerate(variants):
            alone = BinnerBank(targets, p, stream.n_bins)
            alone.run(stream)
            for a, b in zip(together, state(alone)):
                assert np.array_equal(a[v], b[0])
            for j, t in enumerate(targets):
                ref = run_optimized(stream, t, p)
                assert (together[0][v, j], together[1][v, j], together[2][v, j]) == (
                    ref.cv, ref.s_prev, ref.delta_tilde_prev)

        perm = list(range(len(variants)))
        order.shuffle(perm)
        shuffled = BinnerBank(targets, [variants[i] for i in perm], stream.n_bins)
        shuffled.run(stream)
        for a, b in zip(state(shuffled), together):
            assert np.array_equal(a, b[perm])

    def test_step_cycle_matches_run(self):
        stream = _stream(seed=9)
        steps = [StepParams(decay_freeze_cycle=100), StepParams(gamma=1.0, clip=0.01)]
        stepped = BinnerBank(np.arange(1, 8) / 8, steps, stream.n_bins)
        for ts in stream.cycles():
            stepped.step_cycle(ts)
        ran = BinnerBank(np.arange(1, 8) / 8, steps, stream.n_bins)
        ran.run(stream)
        assert np.array_equal(stepped.cvs, ran.cvs)
        assert stepped.n == ran.n == stream.n_cycles

    def test_state_is_four_arrays_per_binner(self):
        bank = BinnerBank(np.arange(1, 32) / 32, [StepParams(gamma=g) for g in (0.99, 1.0)], 1024)
        bank.run(_stream(n_cycles=50))
        arrays = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
        assert sum(a.size for a in arrays) == 4 * 2 * 31


@st.composite
def stream_blocks(draw):
    """1-5 hand-built streams sharing n_cycles: unequal photon counts, empty
    cycles common, and whole zero-photon streams."""
    n_cycles = draw(st.integers(1, 30))
    cycle = st.lists(st.integers(0, 31).map(lambda k: k / 2.0), max_size=6)
    stream = st.one_of(st.lists(cycle, min_size=n_cycles, max_size=n_cycles),
                       st.just([[]] * n_cycles))
    return [_hand_stream(c) for c in draw(st.lists(stream, min_size=1, max_size=5))]


class TestBankStreams:
    @given(
        streams=stream_blocks(),
        variants=st.lists(step_params, min_size=1, max_size=3),
        targets=st.lists(st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.9]), min_size=1, max_size=3),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_streams_equal_separate_banks_bitwise(self, streams, variants, targets, order):
        # a P-stream bank steps exactly as P one-stream banks, and as the
        # scalar reference; permuting the streams permutes the outputs
        shape = (len(streams), len(variants), len(targets))

        def state(bank):
            return [a.reshape(-1, *shape[1:]) for a in (bank.cvs, bank.smoothed_step, bank.smoothed_delta)]

        bank = BinnerBank(targets, variants, 16, n_streams=len(streams))
        bank.run(StreamBlock(streams))
        assert bank.targets.size == np.prod(shape)
        together = state(bank)
        for p, stream in enumerate(streams):
            alone = BinnerBank(targets, variants, 16)
            alone.run(stream)
            for a, b in zip(together, state(alone)):
                assert np.array_equal(a[p], b[0])
            for v, params in enumerate(variants):
                for j, t in enumerate(targets):
                    ref = run_optimized(stream, t, params)
                    assert (together[0][p, v, j], together[1][p, v, j], together[2][p, v, j]) == (
                        ref.cv, ref.s_prev, ref.delta_tilde_prev)

        perm = list(range(len(streams)))
        order.shuffle(perm)
        shuffled = BinnerBank(targets, variants, 16, n_streams=len(streams))
        shuffled.run(StreamBlock([streams[i] for i in perm]))
        for a, b in zip(state(shuffled), together):
            assert np.array_equal(a, b[perm])

    @pytest.mark.parametrize("chunk", [1, 7, 512])
    def test_offset_chunks_do_not_change_results(self, monkeypatch, chunk):
        # 1,100 cycles cross the offset-list chunk boundaries of every size
        monkeypatch.setattr(binner, "_OFFSET_CHUNK", chunk)
        streams = [_stream(PixelConfig(z, 1.0, 2.0), n_cycles=1100, seed=s)
                   for s, z in enumerate((3.0, 9.0))]
        steps = [StepParams(decay_freeze_cycle=700), StepParams(gamma=1.0, clip=0.01)]
        bank = BinnerBank([0.25, 0.5], steps, SIM.n_bins, n_streams=2)
        cvs = bank.run(StreamBlock(streams)).reshape(2, 2, 2)
        for p, stream in enumerate(streams):
            for v, step in enumerate(steps):
                assert [cvs[p, v, j] for j in range(2)] == [
                    run_optimized(stream, t, step).cv for t in (0.25, 0.5)]

    def test_state_is_four_arrays_per_binner(self):
        streams = [_stream(n_cycles=50, seed=s) for s in range(3)]
        bank = BinnerBank(np.arange(1, 32) / 32, [StepParams(gamma=g) for g in (0.99, 1.0)],
                          1024, n_streams=3)
        bank.run(StreamBlock(streams))
        arrays = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
        assert sum(a.size for a in arrays) == 4 * 3 * 2 * 31


class TestBankValidation:
    @pytest.mark.parametrize("n_streams", [0, -1, 2.0, True])
    def test_n_streams_must_be_positive_integer(self, n_streams):
        with pytest.raises(InvalidParamsError, match="n_streams must be an integer >= 1"):
            BinnerBank([0.5], StepParams(), 8, n_streams=n_streams)

    def test_block_size_must_match_bank(self):
        stream = PhotonStream.from_cycles([np.array([1.0])], 8)
        bank = BinnerBank([0.5], StepParams(), 8, n_streams=2)
        with pytest.raises(InvalidParamsError, match="n_streams=2"):
            bank.run(stream)
        with pytest.raises(InvalidParamsError, match="n_streams=2"):
            bank.run(StreamBlock([stream] * 3))

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

    def test_empty_variant_list(self):
        with pytest.raises(InvalidParamsError, match="at least one step schedule"):
            BinnerBank([0.5], [], 8)


class TestConvergence:
    def test_monotone_self_correction_on_point_mass(self):
        # basic proportional stepping (no smoothing): the same single
        # timestamp every cycle pulls the CV in, and whenever the pending
        # step is smaller than the remaining gap the gap cannot grow
        target_pos = 700.0
        cycles = [np.array([target_pos])] * 3000
        stream = PhotonStream.from_cycles(cycles, 1024)
        p = StepParams(k_pct=3.0, gamma=0.999, beta1=0.0, beta2=0.0,
                       decay_freeze_cycle=2500)
        state = BinnerState.initial(0.5, p, 1024)
        gaps, steps = [], []
        for ts in stream.cycles():
            prev_gap = abs(state.cv - target_pos)
            state = optimized_step(state, observe(state.cv, ts))
            gaps.append(abs(state.cv - target_pos))
            steps.append(abs(state.s_prev))
            if steps[-1] < prev_gap:
                assert gaps[-1] <= prev_gap + 1e-9
        assert gaps[-1] < 2.0  # settled near the mass

    def test_smoothed_defaults_converge_on_point_mass(self):
        # the smoothed schedule may overshoot transiently (step momentum)
        # but still settles close to the mass by the end of the exposure
        target_pos = 700.0
        stream = PhotonStream.from_cycles([np.array([target_pos])] * 5000, 1024)
        state = BinnerState.initial(0.5, StepParams(), 1024)
        for ts in stream.cycles():
            state = optimized_step(state, observe(state.cv, ts))
        assert abs(state.cv - target_pos) < 5.0

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
