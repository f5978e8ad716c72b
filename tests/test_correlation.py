"""Tests for Liouville Monte Carlo correlation functions."""
import hashlib

import numpy as np
import pytest

from anosovlab import correlation
from anosovlab.birkhoff import space_average
from anosovlab.correlation import (
    CorrelationSeries,
    _lag_means,
    correlation_series,
    mean_zero,
    mean_zero_all,
    orbit_plan,
)
from anosovlab.errors import ConfigError, HorizonError
from anosovlab.flow import evaluate_observable, make_ensemble, sample_liouville
from anosovlab.model import ObservableSpec, build_model
from anosovlab.surface import octagon_area


class TestCorrelationSeries:
    def test_times_grid(self):
        s = CorrelationSeries(dt=0.5, values=[1.0, 2.0, 3.0], stderr=[0, 0, 0])
        assert np.array_equal(s.times, [0.0, 0.5, 1.0])
        assert len(s) == 3
        assert s.stderr.dtype == float
        assert np.array_equal(s.stderr, np.zeros(3))

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            CorrelationSeries(dt=0.0, values=[1.0, 2.0], stderr=[0.0, 0.0])

    def test_rejects_short_series(self):
        with pytest.raises(ConfigError):
            CorrelationSeries(dt=0.1, values=[1.0], stderr=[0.0])

    def test_rejects_stderr_shape_mismatch(self):
        with pytest.raises(ConfigError):
            CorrelationSeries(dt=0.1, values=np.ones(4), stderr=np.ones(3))


class TestObservableMean:
    def test_constant_and_expansion_exact(self, exact_model):
        spec = ObservableSpec(c_const=2.0, c_u_half=3.0)
        mean, err = space_average(exact_model, spec)
        # u = 1 on the exact model, so the u/2 term contributes c_u_half/2.
        assert mean == 2.0 + 1.5
        assert err == 0.0

    def test_harmonics_average_out(self, exact_model):
        spec = ObservableSpec(c_const=1.0, c_cos=5.0, c_sin=-3.0)
        mean, _ = space_average(exact_model, spec)
        assert mean == 1.0

    def test_bump_matches_quadrature(self, exact_model):
        spec = ObservableSpec(c_bump=1.0)
        mean, _ = space_average(exact_model, spec)
        direct = octagon_area(
            lambda z: evaluate_observable(exact_model, spec, z),
            n_ang=96, n_rad=96,
        ) / exact_model.area
        assert mean == pytest.approx(direct, rel=1e-12)

    def test_mean_zero_shift(self, exact_model):
        spec = ObservableSpec(c_const=0.3, c_bump=1.0, c_cos=0.5)
        shifted = mean_zero(exact_model, spec)
        mean, _ = space_average(exact_model, shifted)
        assert abs(mean) < 1e-12
        # only the constant coefficient moves
        assert shifted.c_bump == spec.c_bump
        assert shifted.c_cos == spec.c_cos

    def test_mean_zero_all_matches_each_average(self, exact_model):
        # bit for bit each spec's own space_average shift, with <u> shared
        perturbed = build_model(model="conformal_perturbation", epsilon=0.05,
                                step=0.02, riccati_burn=2.0)
        specs = [ObservableSpec(c_u_half=1.0, c_bump=1.0),
                 ObservableSpec(c_cos=1.0, c_u_half=-0.5, c_const=0.25)]
        for model in (exact_model, perturbed):
            shifted = mean_zero_all(model, specs)
            assert [s.c_const for s in shifted] == [
                s.c_const - space_average(model, s)[0] for s in specs]

    @pytest.mark.parametrize("dt", [0.015, 1e-10])
    def test_dt_must_be_a_multiple_of_the_step(self, perturbed_model, dt):
        # a positive dt is never taken as zero steps
        with pytest.raises(ConfigError, match="^dt = %g is not a nonnegative "
                           "multiple of the step 0.01$" % dt):
            correlation_series(perturbed_model, ObservableSpec(c_bump=1.0),
                               ObservableSpec(c_bump=1.0), dt=dt, n_lags=4,
                               n_samples=10)

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

    def test_chunking_agrees_statistically(self, exact_model, monkeypatch):
        # every seed is drawn before the first block of orbits, so blocks of
        # 1000 and of 300 orbits (24-point orbits) regroup the same sums
        spec = ObservableSpec(c_cos=1.0)
        kw = dict(dt=0.5, n_lags=5, n_samples=20000, seed=9)
        assert orbit_plan(5, 20000)[2] == 24
        monkeypatch.setattr(correlation, "POINTS_HELD", 24 * 1000)
        a = correlation_series(exact_model, spec, spec, **kw)
        monkeypatch.setattr(correlation, "POINTS_HELD", 24 * 300)
        b = correlation_series(exact_model, spec, spec, **kw)
        gap = np.abs(a.values - b.values)
        assert np.all(gap < 6.0 * np.hypot(a.stderr, b.stderr))
        assert np.allclose(a.values, b.values, rtol=0.0, atol=1e-12 * a.volume)
        assert np.allclose(a.stderr, b.stderr, rtol=1e-9)

    def test_exact_stream_digest(self, exact_model):
        # Pins the bits of the exact-backend stream: 600 orbits of 585 grid
        # points, sampled LAGS_PER_REDUCTION = 4 lags per reduce_matrices
        # call, each lag one jump from the last reduced state.  Recorded when
        # that batching was introduced (x86-64 with AVX-512, numpy 2.4).
        spec = mean_zero(exact_model, ObservableSpec(c_bump=1.0))
        series = correlation_series(exact_model, spec, spec, dt=0.2,
                                    n_lags=300, n_samples=12000, seed=11)
        digest = hashlib.sha256()
        digest.update(series.values.tobytes())
        digest.update(series.stderr.tobytes())
        assert digest.hexdigest() == (
            "27df31d45b1393f00b609de826a4ed81acb20b367a7b0d19b9dff3e4a5bbf58c")

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

    def test_horizon_covers_the_orbit_span(self, exact_model):
        # lags span 299.5 of the horizon 500, but each orbit runs
        # (600 + 19 * 30 - 1) * 0.5 = 584.5 time units
        spec = ObservableSpec(c_const=1.0)
        with pytest.raises(HorizonError, match=r"299\.5.*584\.5.*500"):
            correlation_series(exact_model, spec, spec, dt=0.5, n_lags=600,
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


def _per_start_reference(model, u, v, dt, n_lags, n_samples, seed):
    """The per-start estimator the time average replaced: each Liouville
    point flows back through every lag and serves once per lag."""
    z, th = sample_liouville(model, n_samples, np.random.default_rng(seed))
    ens = make_ensemble(model, z, th)
    u0 = evaluate_observable(model, u, *ens.states())
    w = np.empty((n_lags, n_samples))
    for lag in range(n_lags):
        if lag > 0:
            ens.advance(-dt)
        w[lag] = u0 * evaluate_observable(model, v, *ens.states())
    vol = 2.0 * np.pi * model.area
    return vol * w.mean(axis=1), vol * w.std(axis=1, ddof=1) / np.sqrt(n_samples)


class TestTimeAveragedEstimator:
    """The FFT lag sums, the batch-means stderr, and the per-start reference."""

    def test_fft_lag_means_match_direct_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 37, 3))
        n_lags = 11
        n_starts = 37 - n_lags + 1
        for x, y in ((a, b), (a, a)):
            direct = np.array([[sum(x[i + m, k] * y[i, k]
                                    for i in range(n_starts))
                                for k in range(3)] for m in range(n_lags)])
            assert np.allclose(_lag_means(x, y, n_lags), direct / n_starts,
                               rtol=0.0, atol=1e-12)

    @pytest.fixture
    def bump(self, exact_model):
        # the benchmark's correlation observable
        return mean_zero(exact_model,
                         ObservableSpec(c_bump=1.0, bump_sigma=0.6))

    def test_stderr_is_calibrated(self, exact_model, bump):
        # criterion 7's noise floor is built from stderr, so it must match
        # the spread over independent seeds, lag by lag
        runs = [correlation_series(exact_model, bump, bump, dt=0.2,
                                   n_lags=500, n_samples=2000, seed=seed)
                for seed in range(16)]
        values = np.array([r.values for r in runs])
        stderr = np.array([r.stderr for r in runs])
        z = (values - values.mean(axis=0)) / stderr
        assert 0.85 <= z.std() <= 1.15

    @pytest.mark.parametrize("seed", [1, 4242])
    def test_agrees_with_per_start_reference(self, exact_model, bump, seed):
        kw = dict(dt=0.2, n_lags=500, n_samples=4000, seed=seed)
        series = correlation_series(exact_model, bump, bump, **kw)
        ref, ref_err = _per_start_reference(exact_model, bump, bump, **kw)
        gap = np.abs(series.values - ref)
        assert np.all(gap < 6.0 * np.hypot(series.stderr, ref_err))
