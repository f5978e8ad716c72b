"""Both flow backends, the Riccati rate, and the hyperbolicity certificates."""
import dataclasses
import hashlib

import numpy as np
import pytest

from anosovlab.errors import (
    ConfigError,
    HorizonError,
    RiccatiBlowupError,
    StepSizeError,
)
from anosovlab.flow import (
    ENERGY_DRIFT,
    AnosovReport,
    ExactEnsemble,
    MidpointEnsemble,
    _ks_uniform,
    dual_seeds,
    evaluate_observable,
    liouville_ks,
    make_ensemble,
    sample_liouville,
    verify_anosov,
)
from anosovlab.model import ObservableSpec, build_model


def _angles_close(a, b, atol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    np.testing.assert_allclose(np.exp(1j * a), np.exp(1j * b), atol=atol)


def test_exact_flow_closed_form(exact_model):
    # the upward geodesic through i stays on the imaginary axis: z(t) = i e^t
    ens = ExactEnsemble(
        exact_model, np.array([1j]), np.array([np.pi / 2])
    )
    ens.advance(1.0)
    z, th, u = ens.states()
    assert z[0] == pytest.approx(1j * np.e, rel=1e-12)
    _angles_close(th, [np.pi / 2], 1e-12)
    assert u[0] == 1.0


def test_exact_flow_group_law(exact_model):
    rng = np.random.default_rng(60)
    z, th = sample_liouville(exact_model, 30, rng)
    one = ExactEnsemble(exact_model, z, th)
    one.advance(1.3)
    one.advance(2.4)
    two = ExactEnsemble(exact_model, z, th)
    two.advance(3.7)
    z1, th1, _ = one.states()
    z2, th2, _ = two.states()
    for j in range(len(z1)):
        assert exact_model.domain.quotient_dist(z1[j : j + 1], z2[j])[0] < 1e-10
    _angles_close(th1, th2, 1e-9)


def test_exact_flow_inverse(exact_model):
    rng = np.random.default_rng(61)
    z, th = sample_liouville(exact_model, 20, rng)
    ens = ExactEnsemble(exact_model, z, th)
    ens.advance(4.0)
    ens.advance(-4.0)
    z1, th1, _ = ens.states()
    np.testing.assert_allclose(z1, z, atol=1e-10)
    _angles_close(th1, th, 1e-10)


def test_time_reversal_exact(exact_model, flow_map):
    # reversing direction conjugates forward and backward flow
    rng = np.random.default_rng(62)
    z, th = sample_liouville(exact_model, 15, rng)
    fwd_z, fwd_th = flow_map(exact_model, z, np.mod(th + np.pi, 2 * np.pi), 2.0)
    bwd_z, bwd_th = flow_map(exact_model, z, th, -2.0)
    np.testing.assert_allclose(fwd_z, bwd_z, atol=1e-9)
    _angles_close(fwd_th, bwd_th + np.pi, 1e-9)


def test_midpoint_matches_exact_backend(exact_model, unperturbed_model):
    # epsilon = 0 runs through the Hamiltonian path must shadow the matrix flow
    rng = np.random.default_rng(63)
    z, th = sample_liouville(exact_model, 20, rng)
    mid = MidpointEnsemble(dataclasses.replace(unperturbed_model, step=0.01), z, th)
    mid.advance(3.0)
    ex = ExactEnsemble(exact_model, z, th)
    ex.advance(3.0)
    zm, thm, um = mid.states()
    ze, the, _ = ex.states()
    for j in range(len(zm)):
        # shadowing error of the scheme grows like h^2 e^t
        assert exact_model.domain.quotient_dist(zm[j : j + 1], ze[j])[0] < 5e-4
    np.testing.assert_allclose(um, 1.0, atol=1e-12)


def _energy(ens):
    """H = e^{-2 psi} y^2 |xi|^2 / 2 at a midpoint ensemble's states."""
    y = ens.z.imag
    s = (ens.xi * np.conj(ens.xi)).real
    return 0.5 * np.exp(-2.0 * ens.model.psi(ens.z)) * y * y * s


def test_energy_conservation(perturbed_model):
    rng = np.random.default_rng(64)
    z, th = sample_liouville(perturbed_model, 30, rng)
    ens = MidpointEnsemble(perturbed_model, z, theta_h=th)
    devs = []
    for _ in range(4):
        ens.advance(5.0)
        devs.append(np.max(np.abs(_energy(ens) - 0.5)))
    # symplectic midpoint: bounded energy error, no secular growth
    assert max(devs) < 1e-4
    assert devs[-1] < 3.0 * max(devs[0], 1e-9)


def test_riccati_stationary_at_epsilon_zero(unperturbed_model):
    z = np.array([0.1 + 1.0j, -0.3 + 0.8j])
    th = np.array([0.4, 2.2])
    model = dataclasses.replace(unperturbed_model, step=0.01)
    ens = MidpointEnsemble(model, z, th)
    ens.advance(5.0)
    np.testing.assert_array_equal(ens.u, 1.0)  # exact fixed point of the scheme
    ens2 = MidpointEnsemble(model, z, th)
    ens2.u = np.array([2.0, 0.3])
    ens2.burn_in()
    np.testing.assert_allclose(ens2.u, 1.0, atol=1e-9)


def test_riccati_invariant_window(perturbed_model):
    rng = np.random.default_rng(65)
    z, th = sample_liouville(perturbed_model, 50, rng)
    ens = MidpointEnsemble(perturbed_model, z, theta_h=th)
    ens.burn_in()
    ens.advance(30.0)
    k_min, k_max = perturbed_model.curvature_range
    lo, hi = np.sqrt(-k_max), np.sqrt(-k_min)
    assert np.all(ens.u >= lo - 1e-6)
    assert np.all(ens.u <= hi + 1e-6)


def test_riccati_blowup_raises(unperturbed_model):
    # u below the unstable branch runs away in finite time
    ens = MidpointEnsemble(dataclasses.replace(unperturbed_model, step=0.01),
                           np.array([1j]), np.array([0.0]))
    ens.u = np.array([-5.0])
    with pytest.raises(RiccatiBlowupError):
        ens.advance(2.0)


def test_riccati_residual_fine(perturbed_fine, curvature):
    # recorded u must satisfy du/dt = -K - u^2 against a high-order stencil
    rng = np.random.default_rng(66)
    z, th = sample_liouville(perturbed_fine, 8, rng)
    ens = MidpointEnsemble(perturbed_fine, z, theta_h=th)
    ens.burn_in()
    us, zs = [], []
    for _ in range(round(1.0 / ens.h)):
        ens.step()
        us.append(ens.u.copy())
        zs.append(ens.z.copy())
    u = np.stack(us)
    zz = np.stack(zs)
    h = ens.h
    du = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    k = curvature(perturbed_fine, zz[2:-2])
    resid = np.abs(du + k + u[2:-2] ** 2)
    assert resid.max() < 1e-6


def test_advance_integrals_are_additive(perturbed_model):
    spec = ObservableSpec(c_u_half=2.0)
    rng = np.random.default_rng(67)

    # the same midpoint samples enter both sums, so any difference is pure
    # floating-point regrouping
    z, th = sample_liouville(perturbed_model, 10, rng)
    split = MidpointEnsemble(perturbed_model, z, theta_h=th)
    part = split.advance(1.0, observables=[spec]) + split.advance(
        2.0, observables=[spec]
    )
    whole = MidpointEnsemble(perturbed_model, z, theta_h=th)
    total = whole.advance(3.0, observables=[spec])
    np.testing.assert_allclose(part, total, rtol=1e-13)


@pytest.mark.parametrize("fixture", ["exact_model", "perturbed_model"])
def test_ensemble_contract(fixture, request):
    # both backends, built by make_ensemble, answer the same calls
    model = request.getfixturevalue(fixture)
    if model.is_exact:
        model = build_model(model="constant_curvature", step=0.25)
    else:
        model = dataclasses.replace(model, riccati_burn=1.0)
    z, th = sample_liouville(model, 10, np.random.default_rng(67))
    ens = make_ensemble(model, z, th)
    assert ens.burn_in() is ens
    ens.advance(0.5)
    zs, ths, us = ens.states()
    assert zs.shape == ths.shape == us.shape == (10,)
    if model.is_exact:
        # one signed jump, integrating nothing
        np.testing.assert_array_equal(us, 1.0)
        assert ens.advance(-0.5) is None
    else:
        # integrals at the scheme's midpoints, additive over advances; the
        # backend steps forwards only
        spec = ObservableSpec(c_u_half=2.0, c_cos=0.5)
        split = make_ensemble(model, z, th).burn_in()
        fresh = make_ensemble(model, z, th).burn_in()
        part = split.advance(1.0, [spec]) + split.advance(2.0, [spec])
        total = fresh.advance(3.0, [spec])
        assert total.shape == (1, 10)
        np.testing.assert_allclose(part, total, rtol=1e-13)
        assert ens.advance(0.5).shape == (0, 10)
        with pytest.raises(ConfigError):
            ens.advance(-0.5)

    # sample(dt, k): the states at dt, ..., k dt at once, ending at k dt
    dt, k = 4 * model.step, 3
    batch = make_ensemble(model, z, th).burn_in()
    steps = make_ensemble(model, z, th).burn_in()
    got = batch.sample(dt, k)
    assert [x.shape for x in got] == [(k, 10)] * 3
    ref = []
    for _ in range(k):
        steps.advance(dt)
        ref.append(steps.states())
    ref = [np.stack(r) for r in zip(*ref)]
    if model.is_exact:
        # one jump per lag instead of a chain of jumps: equal up to roundoff
        for m in range(k):
            for j in range(10):
                assert model.domain.quotient_dist(
                    got[0][m, j:j + 1], ref[0][m, j])[0] < 1e-9
        np.testing.assert_array_equal(got[2], 1.0)
    else:
        for x, r in zip(got, ref):
            np.testing.assert_array_equal(x, r)
        for x, r in zip(batch.states(), steps.states()):
            np.testing.assert_array_equal(x, r)
    with pytest.raises(ConfigError):
        batch.sample(dt, 0)
    with pytest.raises(HorizonError):
        batch.sample(dt, int(model.horizon / dt) + 1)


def test_reduction_cap_raises(exact_model):
    # one jump of 2000 Liouville points: T = 60 needs fewer than MAX_ROUNDS
    # reduction sweeps, T = 100 leaves points outside after the cap
    z, th = sample_liouville(exact_model, 2000, np.random.default_rng(68))
    ExactEnsemble(exact_model, z, th).advance(60.0)
    with pytest.raises(StepSizeError):
        ExactEnsemble(exact_model, z, th).advance(100.0)


def test_guards(exact_model, perturbed_model, unperturbed_model, flow_map):
    # a refused call leaves every state array as it was
    z, th = np.array([1j, 0.2 + 0.9j]), np.array([0.0, 1.0])
    ex = ExactEnsemble(exact_model, z, th)
    ex.advance(0.7)
    g = ex.g.copy()
    with pytest.raises(HorizonError):
        ex.advance(1e4)
    np.testing.assert_array_equal(ex.g, g)

    ens = MidpointEnsemble(perturbed_model, z, th)
    ens.advance(2 * ens.h)  # off the seed, where u is no longer 1
    state = [ens.z.copy(), ens.xi.copy(), ens.u.copy()]
    for T, error in ((1e4, HorizonError),
                     (0.015, ConfigError),  # not a multiple of the step
                     (-ens.h, ConfigError)):  # forward only
        with pytest.raises(error):
            ens.advance(T)
        for a, b in zip((ens.z, ens.xi, ens.u), state):
            np.testing.assert_array_equal(a, b)
    # so does a step refused for a runaway rate (u below the unstable branch)
    ens = MidpointEnsemble(dataclasses.replace(unperturbed_model, step=0.01), z, th)
    ens.u = np.full(2, -5.0)
    steps = 0
    with pytest.raises(RiccatiBlowupError):
        while True:
            state = [ens.z.copy(), ens.xi.copy(), ens.u.copy()]
            ens.step()
            steps += 1
    assert steps > 0
    for a, b in zip((ens.z, ens.xi, ens.u), state):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ConfigError):
        flow_map(perturbed_model, z, th, -1.0)
    with pytest.raises(ConfigError):
        ExactEnsemble(perturbed_model, z, th)
    with pytest.raises(ConfigError):  # and the midpoint backend the reverse
        MidpointEnsemble(exact_model, z, th)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_rate_is_refused(unperturbed_model, bad):
    # a NaN rate fails every comparison; the blow-up test must still refuse
    # the step and leave the ensemble as it was
    ens = MidpointEnsemble(unperturbed_model, np.array([1j, 0.2 + 0.9j]),
                           np.array([0.0, 1.0]))
    ens.u = np.array([1.0, bad])
    state = [ens.z.copy(), ens.xi.copy(), ens.u.copy()]
    with pytest.raises(RiccatiBlowupError):
        ens.step()
    for a, b in zip((ens.z, ens.xi, ens.u), state):
        np.testing.assert_array_equal(a, b)


def test_evaluate_observable_guards_and_values(exact_model, perturbed_model):
    z = np.array([1j])
    with pytest.raises(ValueError):
        evaluate_observable(perturbed_model, ObservableSpec(c_u_half=1.0), z)
    with pytest.raises(ValueError):
        evaluate_observable(exact_model, ObservableSpec(c_cos=1.0), z)
    # the exact model has no shape; the term must not evaluate to zero
    with pytest.raises(ConfigError, match="shape"):
        evaluate_observable(exact_model, ObservableSpec(c_shape=1.0), z)
    # no default rate stands in for a missing u, on either model
    with pytest.raises(ValueError):
        evaluate_observable(exact_model, ObservableSpec(c_u_half=2.0), z)
    out = evaluate_observable(exact_model, ObservableSpec(c_u_half=2.0), z,
                              u=np.ones(1))
    assert out[0] == 1.0

    spec = ObservableSpec(c_bump=1.0)
    from anosovlab.fuchsian import to_halfplane

    center = to_halfplane(spec.bump_center)
    out = evaluate_observable(exact_model, spec, np.array([center]))
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_angle_harmonics_identity(exact_model):
    rng = np.random.default_rng(68)
    z, th = sample_liouville(exact_model, 40, rng)
    c = evaluate_observable(exact_model, ObservableSpec(c_cos=1.0), z, th)
    s = evaluate_observable(exact_model, ObservableSpec(c_sin=1.0), z, th)
    np.testing.assert_allclose(c * c + s * s, 1.0, atol=1e-12)


def test_sample_liouville_inside_domain(perturbed_model, in_polygon):
    rng = np.random.default_rng(69)
    z, th = sample_liouville(perturbed_model, 500, rng)
    assert in_polygon(perturbed_model.domain, z, tol=1e-9).all()
    assert np.all((0 <= th) & (th < 2 * np.pi))


def test_dual_seeds_counts(exact_model):
    rng = np.random.default_rng(70)
    z, th = dual_seeds(exact_model, 25, rng, word_length=4)
    # 25 volume seeds plus the 35 distinct trace classes through length 4
    assert len(z) == 25 + 35
    assert len(th) == len(z)


@pytest.mark.parametrize("settings, key", [
    ({"word_length": 0}, "word_length"),
    ({"word_length": -2}, "word_length"),
    ({"max_closed": -5}, "max_closed"),
])
def test_dual_seeds_refuses_nonsense_word_settings(exact_model, settings, key):
    # no word length below 1 or negative cap stands in for a valid one
    with pytest.raises(ConfigError, match=key):
        dual_seeds(exact_model, 5, np.random.default_rng(4), **settings)


def test_exact_advance_is_one_lag_sample(exact_model):
    # advance(T) is sample(T, 1)'s check and jump: the same matrices, bit for
    # bit, and the same refusal of a span beyond the horizon, g untouched
    z, th = sample_liouville(exact_model, 40, np.random.default_rng(71))
    one, lag = ExactEnsemble(exact_model, z, th), ExactEnsemble(exact_model, z, th)
    for T in (2.5, -1.75, 6.0):
        one.advance(T)
        lag.sample(T, 1)
        np.testing.assert_array_equal(one.g, lag.g)
    g = one.g.copy()
    too_far = 1.5 * exact_model.horizon
    with pytest.raises(HorizonError):
        one.advance(too_far)
    with pytest.raises(HorizonError):
        lag.sample(too_far, 1)
    np.testing.assert_array_equal(one.g, g)
    np.testing.assert_array_equal(lag.g, g)


def test_make_ensemble_dispatch(exact_model, perturbed_model):
    z, th = np.array([1j]), np.array([0.2])
    assert isinstance(make_ensemble(exact_model, z, th), ExactEnsemble)
    assert isinstance(make_ensemble(perturbed_model, z, th), MidpointEnsemble)


def test_verify_anosov_exact():
    model = build_model(model="constant_curvature", step=0.02)
    report = verify_anosov(model, n_samples=10, t_check=10.0)
    assert report.passed
    assert report.lambda_forward == pytest.approx(1.0, abs=1e-9)
    assert report.lambda_backward == pytest.approx(1.0, abs=1e-9)
    assert report.riccati_bounds == (1.0, 1.0)


def test_verify_anosov_exact_is_closed_form(exact_model):
    # u = 1 on every orbit at constant curvature: no ensemble is run, the
    # seed set is still drawn and counted
    report = verify_anosov(exact_model, n_samples=7, t_check=5.0, seed=4,
                           word_length=4)
    for name in ("lambda_forward", "lambda_backward", "lambda_min",
                 "riccati_low", "riccati_high"):
        assert getattr(report, name) == 1.0, name
    # the exact flow keeps H = 1/2
    assert report.energy_error == 0.0
    assert report.energy_bound == ENERGY_DRIFT * exact_model.step ** 2
    z, _ = dual_seeds(exact_model, 7, np.random.default_rng(4), word_length=4)
    assert report.n_samples == len(z)
    assert report.passed
    with pytest.raises(HorizonError):
        verify_anosov(exact_model, n_samples=2, t_check=1e6, word_length=2)


def test_verify_anosov_perturbed(perturbed_model):
    report = verify_anosov(perturbed_model, n_samples=10, t_check=10.0)
    assert report.passed
    assert 0.85 < report.lambda_min <= 1.1
    lo, hi = report.riccati_bounds
    assert lo < hi  # genuinely pinched


def test_energy_certificate_fails_a_broken_integrator(monkeypatch):
    # One fixed-point pass turns the implicit midpoint rule into explicit
    # Euler, whose energy drifts by O(step) per unit time instead of staying
    # within O(step^2); the same run with four passes stays inside the bound.
    model = build_model(model="conformal_perturbation", epsilon=0.05,
                        step=0.05, riccati_burn=5.0)
    kwargs = dict(n_samples=10, t_check=5.0, seed=1, word_length=4)
    report = verify_anosov(model, **kwargs)
    assert report.passed
    assert report.energy_error < report.energy_bound
    monkeypatch.setattr(MidpointEnsemble, "n_iter", 1)
    broken = verify_anosov(model, **kwargs)
    assert broken.energy_error > broken.energy_bound
    assert not broken.passed


@pytest.mark.parametrize("kwargs, setting", [
    (dict(t_check=0.0), "verify_time"),
    (dict(t_check=-1.0), "verify_time"),
    (dict(t_check=float("nan")), "verify_time"),
    (dict(n_samples=-1), "verify_samples"),
])
def test_verify_anosov_rejects_bad_inputs(exact_model, perturbed_model,
                                          monkeypatch, kwargs, setting):
    # refused by name before any seed is drawn, on either model kind
    def no_seeds(*args, **kw):
        raise AssertionError("seeds drawn for a refused input")

    monkeypatch.setattr("anosovlab.flow.sample_liouville", no_seeds)
    for model in (exact_model, perturbed_model):
        with pytest.raises(ConfigError, match=setting):
            verify_anosov(model, **dict(dict(n_samples=2, t_check=1.0), **kwargs))


def test_liouville_ks(exact_model, perturbed_model):
    out = liouville_ks(exact_model, n=4000, t=5.0)
    assert set(out) == {"radial", "fibre_angle", "position_angle"}
    assert max(out.values()) < 0.04
    with pytest.raises(ConfigError):
        liouville_ks(perturbed_model)
    for n in (0, -3):
        with pytest.raises(ConfigError, match="ks_samples"):
            liouville_ks(exact_model, n=n)


def test_ks_statistic_matches_scipy():
    # Reference: the scipy.stats.kstest call liouville_ks used to make.
    from scipy import stats

    rng = np.random.default_rng(71)
    samples = [rng.uniform(size=n) for n in (1, 2, 17, 1000)] + [
        np.array([0.0, 0.5, 1.0]),
        np.concatenate([rng.uniform(size=50), [0.0, 0.5, 1.0, 0.5, 0.0]]),
        rng.uniform(-0.01, 1.01, 400),  # outside [0, 1] the CDF clips
        rng.beta(2.0, 5.0, 300),
    ]
    for x in samples:
        assert _ks_uniform(x) == stats.kstest(x, "uniform").statistic


def test_verify_anosov_matches_per_direction_runs(perturbed_model):
    # Both directions share one ensemble; each half must evolve exactly as a
    # separate ensemble of the same seeds would.  A short burn-in keeps it cheap.
    model = dataclasses.replace(perturbed_model, riccati_burn=2.0)
    n, t_check, seed = 6, 2.0, 5
    report = verify_anosov(model, n_samples=n, t_check=t_check, seed=seed,
                           word_length=4)
    z, th = dual_seeds(model, n, np.random.default_rng(seed), word_length=4)
    rates, extremes, energy_errors = [], [], []
    for direction in (0.0, np.pi):
        ens = MidpointEnsemble(model, z, theta_h=np.mod(th + direction, 2.0 * np.pi))
        ens.burn_in()
        total = ens.advance(t_check, observables=[ObservableSpec(c_u_half=2.0)])[0]
        rates.append(float(np.min(total) / t_check))
        extremes.append((float(ens.u.min()), float(ens.u.max())))
        energy_errors.append(float(np.max(np.abs(_energy(ens) - 0.5))))
    k_min, k_max = model.curvature_range
    expected = AnosovReport(
        lambda_forward=rates[0],
        lambda_backward=rates[1],
        lambda_min=min(rates),
        riccati_low=min(e[0] for e in extremes),
        riccati_high=max(e[1] for e in extremes),
        riccati_bounds=(float(np.sqrt(-k_max)), float(np.sqrt(-k_min))),
        energy_error=max(energy_errors),
        energy_bound=ENERGY_DRIFT * model.step ** 2,
        n_samples=len(z),
        t_check=t_check,
    )
    for field in dataclasses.fields(AnosovReport):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name


def test_perturbed_steps_digest(perturbed_model):
    # Pins the bits of 200 perturbed midpoint steps, each point summing only
    # its sector's list of bump centres, looked up once per step.  Recorded
    # on x86-64 with AVX-512 and numpy 2.4; another libm or SIMD path may
    # round transcendental functions differently.
    rng = np.random.default_rng(72)
    z, th = sample_liouville(perturbed_model, 24, rng)
    ens = MidpointEnsemble(perturbed_model, z, th)
    for _ in range(200):
        ens.step()
    digest = hashlib.sha256()
    for a in (ens.z, ens.xi, ens.u):
        digest.update(a.tobytes())
    assert digest.hexdigest() == (
        "b3c619129c518160d442a3b80adb4a612cea1285e94909dea2c24416db3b7f49")


def test_pack_without_laplacian_is_bit_identical(perturbed_model):
    shape = perturbed_model.shape
    rng = np.random.default_rng(73)
    z, _ = sample_liouville(perturbed_model, 50, rng)
    # on a centre and next to one, where d / sinh d takes its series branch
    c = shape.centers[0]
    z = np.concatenate([z, [c, c + 1e-8, c + 1e-3j]])
    full = shape.pack(z)
    val, gx, gy, lap = shape.pack(z, laplacian=False)
    assert lap is None
    for a, b in zip(full[:3], (val, gx, gy)):
        np.testing.assert_array_equal(a, b)
    # so is the force, which applies epsilon to the pack
    ens = MidpointEnsemble(perturbed_model, z, np.zeros(len(z)))
    centers = shape.sector_centers(z)
    force = ens._force(ens.z, ens.xi, False, centers)
    assert force[2] is None
    for a, b in zip(ens._force(ens.z, ens.xi, True, centers)[:2], force[:2]):
        np.testing.assert_array_equal(a, b)
