import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edhsim.errors import InvalidParamsError, QuantileMismatchError, ShapeMismatchError
from edhsim.histogrammer import EdhBoundaries
from edhsim.metrics import DEFAULT_Z_MAX, boundary_rmse, distance_metrics


class TestDistanceMetrics:
    def test_identity(self):
        truth = np.array([[1.0, 5.0], [10.0, 14.0]])
        report = distance_metrics(truth.copy(), truth)
        assert report.rmse_cm == 0.0 and report.mae_cm == 0.0
        assert all(v == 100.0 for v in report.inlier_pct.values())
        assert report.n_pixels == 4

    @pytest.mark.parametrize("bad", [
        dict(z_max=np.nan), dict(z_max=np.inf), dict(z_max=0.0), dict(z_max=-1.0),
        dict(thresholds=(2.0, np.nan)), dict(thresholds=(np.inf,)), dict(thresholds=(-1.0,)),
    ])
    def test_metric_limits_validated(self, bad):
        truth = np.array([[1.0, 5.0]])
        with pytest.raises(InvalidParamsError):
            distance_metrics(truth.copy(), truth, **bad)

    def test_single_pixel_ten_cm_error(self):
        report = distance_metrics(np.array([[10.1]]), np.array([[10.0]]))
        assert report.mae_cm == pytest.approx(10.0)
        assert report.rmse_cm == pytest.approx(10.0)
        # 2% of the range is ~30 cm, so a 10 cm error is an inlier
        assert report.inlier_pct[2.0] == 100.0

    def test_two_pixel_rmse_exceeds_mae(self):
        report = distance_metrics(np.array([[1.0, 5.0]]), np.array([[1.0, 3.0]]))
        assert report.mae_cm == pytest.approx(100.0)
        assert report.rmse_cm == pytest.approx(100.0 * np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            distance_metrics(np.ones((2, 2)), np.ones((2, 3)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.uniform(1, 14, size=16)
        est = truth + rng.normal(0, 0.2, size=16)
        perm = rng.permutation(16)
        a = distance_metrics(est.reshape(4, 4), truth.reshape(4, 4))
        b = distance_metrics(est[perm].reshape(4, 4), truth[perm].reshape(4, 4))
        assert a.rmse_cm == pytest.approx(b.rmse_cm)
        assert a.mae_cm == pytest.approx(b.mae_cm)
        assert a.inlier_pct == b.inlier_pct

    def test_relative_mode(self):
        # 50 cm error: under 10% of a 10 m depth, over 10% of a 1 m depth
        report = distance_metrics(
            np.array([[10.5, 1.5]]), np.array([[10.0, 1.0]]),
            thresholds=(10.0,), inlier_mode="relative",
        )
        assert report.inlier_pct[10.0] == pytest.approx(50.0)

    @given(
        errs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
    )
    @settings(max_examples=60)
    def test_rmse_at_least_mae(self, errs):
        truth = np.full(len(errs), 7.0)
        est = truth + np.asarray(errs)
        report = distance_metrics(est.reshape(1, -1), truth.reshape(1, -1))
        assert report.rmse_cm >= report.mae_cm - 1e-9

    @given(
        errs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
        ps=st.lists(st.floats(0.1, 40.0), min_size=2, max_size=6, unique=True),
    )
    @settings(max_examples=60)
    def test_inliers_monotone_in_threshold(self, errs, ps):
        truth = np.full(len(errs), 7.0)
        est = truth + np.asarray(errs)
        report = distance_metrics(est.reshape(1, -1), truth.reshape(1, -1), thresholds=ps)
        ordered = [report.inlier_pct[p] for p in sorted(report.inlier_pct)]
        assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))


class TestBoundaryRmse:
    def test_identical(self):
        b = EdhBoundaries(4, np.array([0.0, 10.0, 20.0, 30.0, 1024.0]))
        assert boundary_rmse(b, b) == 0.0

    def test_constant_offset(self):
        a = EdhBoundaries(4, np.array([0.0, 10.0, 20.0, 30.0, 1024.0]))
        b = EdhBoundaries(4, np.array([0.0, 12.0, 22.0, 32.0, 1024.0]))
        assert boundary_rmse(a, b) == pytest.approx(2.0)

    def test_hand_computed(self):
        a = EdhBoundaries(4, np.array([0.0, 256.0, 512.0, 768.0, 1024.0]))
        b = EdhBoundaries(4, np.array([0.0, 260.0, 512.0, 772.0, 1024.0]))
        # interior diffs {-4, 0, -4}: sqrt((16 + 0 + 16) / 3)
        assert boundary_rmse(a, b) == pytest.approx(np.sqrt(32.0 / 3.0))
        assert boundary_rmse(a, b) == pytest.approx(3.266, abs=1e-3)

    def test_q_mismatch(self):
        a = EdhBoundaries(2, np.array([0.0, 512.0, 1024.0]))
        b = EdhBoundaries(4, np.array([0.0, 256.0, 512.0, 768.0, 1024.0]))
        with pytest.raises(QuantileMismatchError):
            boundary_rmse(a, b)


def test_default_z_max_matches_config():
    assert DEFAULT_Z_MAX == pytest.approx(2.998e8 * 100e-9 / 2)


def test_accepts_dataclass_grids():
    from edhsim.estimator import DistanceMap
    from edhsim.scene import DepthMap

    truth = DepthMap(np.array([[5.0, 10.0]], dtype=np.float32))
    est = DistanceMap(np.array([[5.05, 10.0]]), estimator="t0")
    report = distance_metrics(est, truth)
    assert report.mae_cm == pytest.approx(2.5, abs=1e-4)
