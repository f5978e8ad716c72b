"""Extremal Birkhoff averages, window extrapolation, and space averages."""
import numpy as np
import pytest

from anosovlab.birkhoff import (
    MEAN_ORBITS,
    MEAN_TIME,
    BandEdges,
    SamplingPlan,
    _fit_limit,
    band_edges_upto,
    space_average,
    window_averages,
)
from anosovlab.errors import AnosovLabError, ConfigError, HorizonError
from anosovlab.flow import make_ensemble, sample_liouville
from anosovlab.fuchsian import to_halfplane
from anosovlab.model import ObservableSpec, PotentialSpec, build_model
from anosovlab.surface import octagon_area

FAST_PLAN = SamplingPlan(n_orbits=40, windows=(30.0, 60.0), word_length=4,
                         seed=3)


def test_plan_validation(exact_model):
    SamplingPlan().validate(exact_model)
    with pytest.raises(ConfigError):
        SamplingPlan(n_orbits=0).validate(exact_model)
    with pytest.raises(ConfigError):
        SamplingPlan(seed_rule="axes").validate(exact_model)
    with pytest.raises(ConfigError):
        SamplingPlan(windows=(50.0,)).validate(exact_model)
    with pytest.raises(ConfigError):
        SamplingPlan(windows=(60.0, 50.0)).validate(exact_model)
    with pytest.raises(ConfigError):
        # first window inside the burn-in
        SamplingPlan(windows=(10.0, 50.0)).validate(exact_model)
    with pytest.raises(ConfigError):
        SamplingPlan(windows=(50.0, 1e4)).validate(exact_model)


def test_fit_limit():
    # constant data must come back bit-exact, no fit noise
    assert _fit_limit((50.0, 100.0, 200.0), (-0.5, -0.5, -0.5)) == -0.5
    # and a + b/T data must return a
    T = np.array([50.0, 100.0, 200.0])
    vals = 1.25 + 3.0 / T
    assert _fit_limit(T, vals) == pytest.approx(1.25, abs=1e-12)


def test_band_edges_inverted_raise():
    with pytest.raises(AnosovLabError):
        BandEdges(k=0, gamma_minus=0.5, gamma_plus=-0.5, horizon=100.0,
                  n_orbits=10, extrapolation_error=0.0)


def test_window_averages_bookkeeping(exact_model):
    avgs = window_averages(exact_model, PotentialSpec(), FAST_PLAN)
    n = FAST_PLAN.n_orbits + 35  # 35 word classes at length 4
    assert avgs.avg_damping.shape == (2, n)
    assert avgs.avg_u.shape == (2, n)
    assert avgs.n_random == FAST_PLAN.n_orbits
    np.testing.assert_array_equal(avgs.combined(0), avgs.avg_damping)
    np.testing.assert_array_equal(
        avgs.combined(2), avgs.avg_damping - 2.0 * avgs.avg_u
    )


def test_exact_edges_are_closed_form(exact_model):
    # V = 0: every orbit averages D = -u/2 = -1/2 exactly, all k shifts by -k
    edges = band_edges_upto(exact_model, PotentialSpec(), 2, FAST_PLAN)
    for k, e in enumerate(edges):
        assert e.k == k
        assert e.gamma_minus == -0.5 - k
        assert e.gamma_plus == -0.5 - k
        assert e.extrapolation_error == 0.0
        assert e.converged
        assert e.gamma_plus_random == -0.5 - k
        assert e.gamma_plus_words == -0.5 - k


@pytest.mark.parametrize("potential", [
    PotentialSpec(c0=0.1),
    PotentialSpec(c0=0.1, c2=0.3),
    PotentialSpec(c0=-0.37, c1=2.0, c2=0.7),
])
def test_exact_edges_are_correctly_rounded(exact_model, potential):
    # D - k u is the same constant on every orbit, so the edges are the
    # closed form itself, not an average that rounds differently
    edges = band_edges_upto(exact_model, potential, 2, FAST_PLAN)
    for k, e in enumerate(edges):
        want = potential.c0 + 0.5 * (potential.c2 - 1.0) - k
        assert e.gamma_minus == want
        assert e.gamma_plus == want
        assert e.extrapolation_error == 0.0


def test_orbit_averages_at_zero_epsilon():
    # the midpoint backend at epsilon = 0 runs every orbit and must land on
    # the constant-curvature closed form -1/2 - k
    model = build_model(model="conformal_perturbation", epsilon=0.0,
                        step=0.01, riccati_burn=5.0)
    plan = SamplingPlan(n_orbits=20, windows=(10.0, 20.0), word_length=4,
                        max_closed=8, seed=3)
    edges = band_edges_upto(model, PotentialSpec(), 2, plan)
    assert edges[0].n_orbits == 28
    for k, e in enumerate(edges):
        assert e.gamma_minus == pytest.approx(-0.5 - k, abs=1e-12)
        assert e.gamma_plus == pytest.approx(-0.5 - k, abs=1e-12)


def test_negative_band_index_raises(exact_model):
    with pytest.raises(ConfigError):
        band_edges_upto(exact_model, PotentialSpec(), -1, FAST_PLAN)


def test_unstable_jacobian_potential_centers_band_zero(exact_model):
    # V = u/2 cancels the damping: band 0 sits on the imaginary axis
    e = band_edges_upto(exact_model, PotentialSpec(c2=1.0), 0, FAST_PLAN)[0]
    assert e.gamma_minus == 0.0
    assert e.gamma_plus == 0.0


def test_constant_potential_shifts_edges(exact_model):
    e = band_edges_upto(exact_model, PotentialSpec(c0=0.75), 0, FAST_PLAN)[0]
    assert e.gamma_plus == pytest.approx(0.25, abs=1e-14)


def test_seed_rule_source_columns(exact_model):
    e = band_edges_upto(exact_model, PotentialSpec(), 0,
                        SamplingPlan(n_orbits=20, windows=(30.0, 60.0),
                                     seed_rule="liouville"))[0]
    assert np.isnan(e.gamma_plus_words)
    assert e.gamma_plus_random == -0.5
    e = band_edges_upto(exact_model, PotentialSpec(), 0,
                        SamplingPlan(n_orbits=20, windows=(30.0, 60.0),
                                     seed_rule="words", word_length=4))[0]
    assert np.isnan(e.gamma_plus_random)
    assert e.n_orbits == 35


def test_perturbed_edges_straddle_the_mean(perturbed_model):
    plan = SamplingPlan(n_orbits=40, windows=(25.0, 35.0), word_length=4, seed=3)
    e = band_edges_upto(perturbed_model, PotentialSpec(), 0, plan)[0]
    assert -0.65 < e.gamma_minus < e.gamma_plus < -0.35
    assert e.gamma_minus < -0.5 < e.gamma_plus + 0.02


def test_space_average_constant(exact_model):
    mean, err = space_average(exact_model, ObservableSpec(c_const=3.0))
    assert mean == 3.0
    assert err == 0.0


def test_space_average_bump_matches_quadrature(exact_model):
    spec = ObservableSpec(c_bump=1.0)
    mean, err = space_average(exact_model, spec, seed=5)
    center = to_halfplane(spec.bump_center)

    def w(z):
        d = exact_model.domain.quotient_dist(z, center)
        return np.exp(-0.5 * (d / spec.bump_sigma) ** 2)

    want = octagon_area(weight=w, n_ang=96, n_rad=96) / (4.0 * np.pi)
    assert mean == pytest.approx(want, rel=1e-12)
    assert err == 0.0


def test_space_average_expansion_rate(perturbed_model):
    mean, err = space_average(perturbed_model, ObservableSpec(c_u_half=2.0),
                              seed=6)
    assert err < 0.02
    assert mean == pytest.approx(1.0, abs=0.08)


def test_space_average_expansion_rate_gauss_bonnet(perturbed_model):
    # The volume is invariant and du/dt = -K - u^2, so <u^2> = -<K>, which
    # is 4 pi / area by Gauss-Bonnet in genus 2.  A step loop over the
    # estimator's own seed and orbits gives its <u> and the u^2 averages.
    model, seed = perturbed_model, 17
    z, th = sample_liouville(model, MEAN_ORBITS, np.random.default_rng(seed))
    ens = make_ensemble(model, z, th).burn_in()
    n_steps = round(MEAN_TIME / model.step)
    s1 = s2 = 0.0
    for _ in range(n_steps):
        _, _, u = ens.step()
        s1, s2 = s1 + u, s2 + u * u
    T = n_steps * model.step
    avg_u, avg_u2 = s1 * model.step / T, s2 * model.step / T
    mean, err = space_average(model, ObservableSpec(c_u_half=2.0), seed=seed)
    assert mean == pytest.approx(avg_u.mean(), abs=1e-12)
    assert err == pytest.approx(avg_u.std(ddof=1) / np.sqrt(MEAN_ORBITS),
                                rel=1e-9)
    stderr_u2 = avg_u2.std(ddof=1) / np.sqrt(MEAN_ORBITS)
    assert abs(avg_u2.mean() - 4.0 * np.pi / model.area) <= 4.0 * stderr_u2


def test_space_average_refuses_a_short_horizon():
    # the u mean needs MEAN_TIME after the burn-in; a shorter horizon is
    # refused, not truncated
    model = build_model(model="conformal_perturbation", epsilon=0.05,
                        step=0.01, riccati_burn=2.0, horizon=0.5 * MEAN_TIME)
    with pytest.raises(HorizonError, match="horizon"):
        space_average(model, ObservableSpec(c_u_half=1.0))
