"""Extremal Birkhoff averages, window extrapolation, and space averages."""
import numpy as np
import pytest

from anosovlab.birkhoff import (
    BandEdges,
    SamplingPlan,
    _fit_limit,
    band_edges_upto,
    space_average,
    window_averages,
)
from anosovlab.errors import AnosovLabError, ConfigError
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
    mean, err = space_average(exact_model, ObservableSpec(c_const=3.0), 100)
    assert mean == 3.0
    assert err == 0.0


def test_space_average_bump_matches_quadrature(exact_model):
    spec = ObservableSpec(c_bump=1.0)
    mean, err = space_average(exact_model, spec, 20000, seed=5)
    center = to_halfplane(spec.bump_center)

    def w(z):
        d = exact_model.domain.quotient_dist(z, center)
        return np.exp(-0.5 * (d / spec.bump_sigma) ** 2)

    want = octagon_area(weight=w) / (4.0 * np.pi)
    assert abs(mean - want) < 4.0 * err


def test_space_average_expansion_rate(perturbed_model):
    mean, err = space_average(perturbed_model, ObservableSpec(c_u_half=2.0),
                              400, seed=6)
    assert err < 0.02
    assert mean == pytest.approx(1.0, abs=0.08)
