"""Tests for Liouville Monte Carlo correlation functions."""
import numpy as np
import pytest

from anosovlab.correlation import (
    CorrelationSeries,
    correlation_series,
    mean_zero,
    observable_mean,
)
from anosovlab.errors import ConfigError, HorizonError
from anosovlab.flow import evaluate_observable, sample_liouville
from anosovlab.model import ObservableSpec, build_model
from anosovlab.surface import octagon_area


class TestCorrelationSeries:
    def test_times_grid(self):
        s = CorrelationSeries.from_values(0.5, [1.0, 2.0, 3.0])
        assert np.array_equal(s.times, [0.0, 0.5, 1.0])
        assert len(s) == 3
        assert np.array_equal(s.stderr, np.zeros(3))

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            CorrelationSeries.from_values(0.0, [1.0, 2.0])

    def test_rejects_short_series(self):
        with pytest.raises(ConfigError):
            CorrelationSeries.from_values(0.1, [1.0])

    def test_rejects_stderr_shape_mismatch(self):
        with pytest.raises(ConfigError):
            CorrelationSeries(dt=0.1, values=np.ones(4), stderr=np.ones(3))


class TestObservableMean:
    def test_constant_and_expansion_exact(self, exact_model):
        spec = ObservableSpec(c_const=2.0, c_u_half=3.0)
        mean, err = observable_mean(exact_model, spec)
        # u = 1 on the exact model, so the u/2 term contributes c_u_half/2.
        assert mean == 2.0 + 1.5
        assert err == 0.0

    def test_harmonics_average_out(self, exact_model):
        spec = ObservableSpec(c_const=1.0, c_cos=5.0, c_sin=-3.0)
        mean, _ = observable_mean(exact_model, spec)
        assert mean == 1.0

    def test_bump_matches_quadrature(self, exact_model):
        spec = ObservableSpec(c_bump=1.0)
        mean, _ = observable_mean(exact_model, spec)
        direct = octagon_area(
            lambda z: evaluate_observable(exact_model, spec, z),
            n_ang=96, n_rad=96,
        ) / exact_model.area
        assert mean == pytest.approx(direct, rel=1e-12)

    def test_mean_zero_shift(self, exact_model):
        spec = ObservableSpec(c_const=0.3, c_bump=1.0, c_cos=0.5)
        shifted = mean_zero(exact_model, spec)
        mean, _ = observable_mean(exact_model, shifted)
        assert abs(mean) < 1e-12
        # only the constant coefficient moves
        assert shifted.c_bump == spec.c_bump
        assert shifted.c_cos == spec.c_cos

    def test_mean_zero_monte_carlo(self, exact_model):
        spec = mean_zero(exact_model, ObservableSpec(c_bump=1.0))
        rng = np.random.default_rng(3)
        z, th = sample_liouville(exact_model, 200000, rng)
        vals = evaluate_observable(exact_model, spec, z, th)
        stderr = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean()) < 5.0 * stderr


class TestCorrelationSeriesEstimator:
    def test_constant_observables_give_volume_product(self, exact_model):
        u = ObservableSpec(c_const=2.0)
        v = ObservableSpec(c_const=-1.5)
        series = correlation_series(exact_model, u, v, dt=0.5, n_lags=8,
                                    n_samples=500, seed=1)
        vol = 2.0 * np.pi * exact_model.area
        assert series.volume == pytest.approx(vol, rel=1e-12)
        assert np.allclose(series.values, vol * (-3.0), rtol=1e-12)
        assert np.all(series.stderr < 1e-9 * vol)
        assert series.n_samples == 500

    def test_zero_lag_matches_phase_average(self, exact_model):
        # C(0) = Vol <u v>; for u = v = cos the fibre average of cos^2 is 1/2
        u = ObservableSpec(c_cos=1.0)
        series = correlation_series(exact_model, u, u, dt=0.25, n_lags=4,
                                    n_samples=40000, seed=2)
        vol = series.volume
        assert series.values[0] == pytest.approx(
            0.5 * vol, abs=6.0 * series.stderr[0]
        )
        assert series.stderr[0] < 0.01 * vol

    def test_mixing_decay(self, exact_model):
        spec = mean_zero(exact_model, ObservableSpec(c_bump=1.0))
        series = correlation_series(exact_model, spec, spec, dt=0.5,
                                    n_lags=17, n_samples=30000, seed=4)
        c0 = series.values[0]
        assert c0 > 0.0
        assert abs(series.values[-1]) < 0.2 * c0

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_an_empty_sample(self, exact_model, n_samples):
        spec = ObservableSpec(c_bump=1.0)
        with pytest.raises(ConfigError, match="n_samples"):
            correlation_series(exact_model, spec, spec, dt=0.25, n_lags=4,
                               n_samples=n_samples)

    def test_deterministic_for_fixed_seed(self, exact_model):
        spec = ObservableSpec(c_cos=1.0, c_bump=0.5)
        a = correlation_series(exact_model, spec, spec, dt=0.5, n_lags=5,
                               n_samples=2000, seed=9)
        b = correlation_series(exact_model, spec, spec, dt=0.5, n_lags=5,
                               n_samples=2000, seed=9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)

    def test_chunking_agrees_statistically(self, exact_model):
        # chunked draws consume the RNG stream in a different order, so the
        # two estimates are independent samples of the same quantity
        spec = ObservableSpec(c_cos=1.0)
        a = correlation_series(exact_model, spec, spec, dt=0.5, n_lags=5,
                               n_samples=20000, seed=9, chunk=20000)
        b = correlation_series(exact_model, spec, spec, dt=0.5, n_lags=5,
                               n_samples=20000, seed=9, chunk=4096)
        gap = np.abs(a.values - b.values)
        tol = 6.0 * np.hypot(a.stderr, b.stderr)
        assert np.all(gap < tol)

    def test_forward_route_on_stationary_expansion(self):
        # epsilon = 0 keeps curvature at -1, so after burn-in the expansion
        # rate is exactly 1 and the forward-route product is constant.
        model = build_model(model="conformal_perturbation", epsilon=0.0,
                            step=0.01, riccati_burn=5.0, horizon=100.0)
        spec = ObservableSpec(c_u_half=2.0)
        series = correlation_series(model, spec, spec, dt=0.1, n_lags=6,
                                    n_samples=200, seed=5)
        assert np.allclose(series.values, series.volume, atol=1e-6)

    def test_backends_agree_at_zero_perturbation(self, exact_model):
        flat = build_model(model="conformal_perturbation", epsilon=0.0,
                           step=0.01, horizon=100.0)
        spec = ObservableSpec(c_cos=1.0)
        kw = dict(dt=0.5, n_lags=5, n_samples=8000, seed=11)
        a = correlation_series(exact_model, spec, spec, **kw)
        b = correlation_series(flat, spec, spec, **kw)
        # the flat sampler consumes the RNG through its rejection loop, so
        # the draws differ and the comparison is statistical
        gap = np.abs(a.values - b.values)
        assert np.all(gap < 6.0 * np.hypot(a.stderr, b.stderr))

    def test_lag_grid_beyond_horizon(self, exact_model):
        spec = ObservableSpec(c_const=1.0)
        with pytest.raises(HorizonError):
            correlation_series(exact_model, spec, spec, dt=10.0, n_lags=100,
                               n_samples=10)

    def test_rejects_incommensurate_dt(self, perturbed_model):
        spec = ObservableSpec(c_const=1.0)
        with pytest.raises(ConfigError):
            correlation_series(perturbed_model, spec, spec, dt=0.015,
                               n_lags=4, n_samples=10)

    def test_rejects_tiny_lag_grid(self, exact_model):
        spec = ObservableSpec(c_const=1.0)
        with pytest.raises(ConfigError):
            correlation_series(exact_model, spec, spec, dt=0.1, n_lags=1,
                               n_samples=10)
