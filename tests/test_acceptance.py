"""Acceptance suite: the quantitative contract of the laboratory.

One test per criterion.  Each prints a single verdict line with the
measured numbers and its runtime before asserting, so the log always
carries the evidence for the verdict.
"""
import copy
import time

import numpy as np
import pytest

from anosovlab.birkhoff import SamplingPlan, band_edges_upto
from anosovlab.catalog import (
    resonances_from_laplacian,
    synthetic_weyl_spectrum,
)
from anosovlab.cli import main
from anosovlab.correlation import (
    CorrelationSeries,
    correlation_series,
    mean_zero,
)
from anosovlab.flow import (
    ExactEnsemble,
    MidpointEnsemble,
    evaluate_observable,
    liouville_ks,
    sample_liouville,
    verify_anosov,
)
from anosovlab.inversion import harmonic_inversion
from anosovlab.model import ObservableSpec, PotentialSpec, build_model
from anosovlab.stats import concentration, weyl_count


def _verdict(n, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    print("criterion %d: %s  (%s; %.1fs of %gs budget)"
          % (n, "PASS" if ok else "FAIL", detail, elapsed, budget))
    assert ok, "criterion %d: %s (%.1fs of %gs)" % (n, detail, elapsed, budget)


EXACT_PLAN = SamplingPlan(n_orbits=200, seed_rule="both",
                          windows=(30.0, 60.0, 120.0), word_length=4,
                          max_closed=64, seed=11)


def test_criterion_1_flat_band_edges(exact_model):
    # V = 0: every band-k edge pair must sit on -1/2 - k within 1e-3
    t0 = time.perf_counter()
    edges = band_edges_upto(exact_model, PotentialSpec(), 3, EXACT_PLAN)
    dev = max(
        max(abs(e.gamma_plus + 0.5 + e.k), abs(e.gamma_minus + 0.5 + e.k))
        for e in edges
    )
    _verdict(1, dev <= 1e-3,
             "V=0 edges vs -1/2-k for k<=3, max deviation %.2e (tol 1e-3)"
             % dev, time.perf_counter() - t0, 60.0)


def test_criterion_2_cancelling_potential(exact_model):
    # V = u/2 cancels the damping, so both edges of band 0 vanish
    t0 = time.perf_counter()
    edge = band_edges_upto(exact_model, PotentialSpec(c2=1.0), 0, EXACT_PLAN)[0]
    dev = max(abs(edge.gamma_plus), abs(edge.gamma_minus))
    _verdict(2, dev <= 1e-3,
             "V=u/2 edges vs 0, max deviation %.2e (tol 1e-3)" % dev,
             time.perf_counter() - t0, 60.0)


def test_criterion_3_edge_below_expansion_bound(exact_model):
    # gamma_0^+ <= -lambda/2 + 1e-3 for the unperturbed and perturbed flows
    t0 = time.perf_counter()
    fast_exact = build_model(model="constant_curvature", step=0.01)
    rep0 = verify_anosov(fast_exact, n_samples=40, t_check=20.0, seed=2,
                         word_length=4)
    edge0 = band_edges_upto(exact_model, PotentialSpec(), 0, EXACT_PLAN)[0]
    slack0 = edge0.gamma_plus - (-0.5 * rep0.lambda_min)

    perturbed = build_model(model="conformal_perturbation", epsilon=0.05,
                            step=0.005, riccati_burn=20.0, horizon=60.0)
    rep1 = verify_anosov(perturbed, n_samples=60, t_check=30.0, seed=2,
                         word_length=4)
    plan = SamplingPlan(n_orbits=120, seed_rule="both", windows=(25.0, 40.0),
                        word_length=4, max_closed=48, seed=2)
    edge1 = band_edges_upto(perturbed, PotentialSpec(), 0, plan)[0]
    slack1 = edge1.gamma_plus - (-0.5 * rep1.lambda_min)

    _verdict(3, slack0 <= 1e-3 and slack1 <= 1e-3,
             "gamma_0^+ + lambda/2: %.2e at eps=0, %.2e at eps=0.05 "
             "(tol 1e-3)" % (slack0, slack1),
             time.perf_counter() - t0, 120.0)


def test_criterion_4_analytic_catalog(band_entries):
    # 500 eigenvalues: exact band lines, and Im^2 + 1/4 returns each mu
    t0 = time.perf_counter()
    spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=500.2,
                                       jitter=0.3, seed=8)
    assert len(spectrum.eigenvalues) == 501  # mu_0 = 0 plus 500 levels
    catalog = resonances_from_laplacian(spectrum, k_max=3)
    oscillatory = np.array(
        [mu for mu in spectrum.eigenvalues if mu >= 0.25]
    )
    worst_line = 0.0
    worst_mu = 0.0
    for k in range(4):
        band = band_entries(catalog, k)
        res, ims = band.re, band.im
        worst_line = max(worst_line, np.abs(res + 0.5 + k).max())
        # entries come in conjugate pairs following the eigenvalue order
        mu_back = ims[0::2] ** 2 + 0.25
        worst_mu = max(worst_mu, np.abs(mu_back - oscillatory).max())
    _verdict(4, worst_line == 0.0 and worst_mu <= 1e-12,
             "line offset %.1e (exact), mu reconstruction %.2e (tol 1e-12)"
             % (worst_line, worst_mu), time.perf_counter() - t0, 1.0)


def test_criterion_5_weyl_counting():
    # window counts (b, b+1] grow linearly over b in [10, 60]
    t0 = time.perf_counter()
    spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=3800.0)
    catalog = resonances_from_laplacian(spectrum, k_max=0)
    report = weyl_count(catalog, k=0, b=10.0, eps_exponent=0.0, b_max=60.0)
    ok = (not report.fit_omitted) and abs(report.slope - 1.0) <= 0.1
    _verdict(5, ok,
             "log-log slope %.3f over b in [10, 60] (tol 1.0 +- 0.1)"
             % (report.slope if report.slope is not None else float("nan")),
             time.perf_counter() - t0, 1.0)


def _mode_series(zs, amps, dt, n, noise=0.0, seed=0):
    t = dt * np.arange(n)
    values = np.zeros(n)
    for z, a in zip(zs, amps):
        values = values + (a * np.exp(z * t)).real
    stderr = np.zeros(n)
    if noise > 0.0:
        scale = noise * np.abs(values).max()
        rng = np.random.default_rng(seed)
        values = values + scale * rng.standard_normal(n)
        stderr = np.full(n, scale)
    return CorrelationSeries(dt=dt, values=values, stderr=stderr)


def _match_worst(found, target):
    target = list(target)
    worst = 0.0
    for z in found:
        j = int(np.argmin([abs(z - w) for w in target]))
        worst = max(worst, abs(z - target.pop(j)))
    return worst


def test_criterion_6_synthetic_inversion():
    # six conjugate-paired modes: exact recovery clean, 1e-2 under 1% noise
    t0 = time.perf_counter()
    zs = [-0.10 + 1.0j, -0.10 - 1.0j, -0.10 + 3.0j, -0.10 - 3.0j,
          -0.10 + 5.0j, -0.10 - 5.0j]
    amps = [1.0] * 6
    clean = _mode_series(zs, amps, dt=0.05, n=2000)
    modes = harmonic_inversion(clean, max_modes=6, sv_threshold=1e-2)
    err_clean = _match_worst(modes.z, zs)

    err_noisy = 0.0
    for seed in (0, 1, 2):
        noisy = _mode_series(zs, amps, dt=0.05, n=2000, noise=0.01,
                             seed=seed)
        modes = harmonic_inversion(noisy, max_modes=6, sv_threshold=1e-2)
        err_noisy = max(err_noisy, _match_worst(modes.z, zs))

    _verdict(6, err_clean < 1e-6 and err_noisy < 1e-2,
             "mode error %.2e clean (tol 1e-6), %.2e at 1%% noise (tol 1e-2)"
             % (err_clean, err_noisy), time.perf_counter() - t0, 10.0)


def test_criterion_7_resonances_from_correlations(exact_model):
    # 10^6-sample correlation of a mean-zero bump over a lag span of 100:
    # significant inverted modes stay below gamma_0^+ + 0.1 and the leading
    # mode lands in the window [-0.65, -0.35] around the first band
    t0 = time.perf_counter()
    gamma_plus = band_edges_upto(
        exact_model, PotentialSpec(), 0,
        SamplingPlan(n_orbits=8, windows=(30.0, 60.0), word_length=4,
                     max_closed=8, seed=1),
    )[0].gamma_plus

    obs = mean_zero(exact_model, ObservableSpec(c_bump=1.0, bump_sigma=0.6))
    series = correlation_series(exact_model, obs, obs, dt=0.2, n_lags=500,
                                n_samples=1_000_000, seed=5)
    modes = harmonic_inversion(series, max_modes=4, sv_threshold=1e-3)
    floor = 5.0 * float(np.median(series.stderr))
    sig = modes.significant(floor)

    ok = len(sig.z) > 0
    if ok:
        lead = sig.z[int(np.argmax(np.abs(sig.amplitude)))]
        max_re = float(np.max(sig.z.real))
        ok = max_re <= gamma_plus + 0.1 and -0.65 <= lead.real <= -0.35
        detail = ("max Re %.3f vs bound %.3f, leading mode %.3f%+.3fi "
                  "in [-0.65, -0.35], %d significant of %d"
                  % (max_re, gamma_plus + 0.1, lead.real, lead.imag,
                     len(sig.z), len(modes.z)))
    else:
        detail = "no mode above the noise floor %.2e" % floor
    _verdict(7, ok, detail, time.perf_counter() - t0, 600.0)


def test_criterion_8_concentration():
    # exact catalog: zero distance to Re z = -1/2; a 1/log decay catalog
    # must yield a strictly decreasing statistic
    t0 = time.perf_counter()
    spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=200.0)
    catalog = resonances_from_laplacian(spectrum, k_max=1)
    exact_rep = concentration(catalog, d_mean=-0.5, b_max=13.0)
    exact_stats = [s for s in exact_rep.statistic if s is not None]
    exact_zero = bool(exact_stats) and all(s == 0.0 for s in exact_stats)

    from anosovlab.catalog import ResonanceList
    ims = np.geomspace(1.0, 1.0e4, 500)
    decay = ResonanceList(re=-0.5 + 1.0 / np.log(2.0 + ims), im=ims,
                          band=np.zeros(500, dtype=int),
                          provenance=np.full(500, "analytic"))
    decay_rep = concentration(decay, d_mean=-0.5, b_max=1.0e4)
    stats = [s for s in decay_rep.statistic if s is not None]
    decreasing = all(b < a for a, b in zip(stats, stats[1:]))

    _verdict(8, exact_zero and decay_rep.nonincreasing and decreasing,
             "exact catalog statistic %s; 1/log catalog drops %.3f -> %.3f "
             "monotonically" % (max(exact_stats), stats[0], stats[-1]),
             time.perf_counter() - t0, 1.0)


def test_criterion_9_invariant_suite(exact_model, perturbed_fine, tmp_path,
                                     flow_map, conjugation_defect, curvature,
                                     catalog_z):
    t0 = time.perf_counter()
    checks = {}

    # One perturbed burn-in serves the Riccati check (columns :8, seed 66)
    # and the cocycle check (columns 8:, seed 67): each point evolves alone,
    # so every column keeps the bits of its own ensemble.
    z66, th66 = sample_liouville(perturbed_fine, 8, np.random.default_rng(66))
    z67, th67 = sample_liouville(perturbed_fine, 16, np.random.default_rng(67))
    burned = MidpointEnsemble(perturbed_fine, np.concatenate([z66, z67]),
                              theta=np.concatenate([th66, th67]))
    burned.burn_in()

    # Riccati residual on perturbed orbits against a 4th-order stencil
    ens = copy.deepcopy(burned)
    us, zs = [], []
    for _ in range(round(1.0 / ens.h)):
        ens.step()
        us.append(ens.u[:8].copy())
        zs.append(ens.z[:8].copy())
    u = np.stack(us)
    zz = np.stack(zs)
    du = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * ens.h)
    resid = np.abs(du + curvature(perturbed_fine, zz[2:-2]) + u[2:-2] ** 2)
    checks["riccati"] = (float(resid.max()), 1e-6)

    # cocycle additivity of advance integrals on both backends
    spec = ObservableSpec(c_u_half=2.0, c_bump=1.0)
    worst = 0.0
    for model in (exact_model, perturbed_fine):
        if model.is_exact:
            z, th = sample_liouville(model, 16, np.random.default_rng(67))
            one = ExactEnsemble(model, z, th)
            two = ExactEnsemble(model, z, th)
            h = model.step

            def integral(ens, T):
                zs, us = ens.sample(h, round(T / h))
                return h * evaluate_observable(model, spec, zs, u=us).sum(axis=0)

            total = integral(one, 3.0)
            parts = integral(two, 1.25) + integral(two, 1.75)
        else:
            one, two = copy.deepcopy(burned), copy.deepcopy(burned)
            total = one.advance(1.0, observables=[spec])[0][8:]
            parts = (two.advance(0.5, observables=[spec])[0]
                     + two.advance(0.5, observables=[spec])[0])[8:]
        worst = max(worst, float(np.abs(total - parts).max()))
    checks["cocycle"] = (worst, 1e-6)

    # volume preservation: pushforward marginals after t = 7
    ks = liouville_ks(exact_model, n=15000, t=7.0, seed=3)
    checks["volume"] = (max(ks.values()), 0.02)

    # group law of the exact flow and of midpoint continuation
    rng = np.random.default_rng(68)
    z, th = sample_liouville(exact_model, 64, rng)
    one_z, _ = flow_map(exact_model, z, th, 3.7)
    mid_z, mid_th = flow_map(exact_model, z, th, 1.4)
    two_z, _ = flow_map(exact_model, mid_z, mid_th, 2.3)
    gap = max(
        float(exact_model.domain.quotient_dist(one_z[j:j + 1], two_z[j])[0])
        for j in range(len(z))
    )
    checks["group law"] = (gap, 1e-8)
    za, tha = sample_liouville(perturbed_fine, 4, np.random.default_rng(69))
    cont_a = MidpointEnsemble(perturbed_fine, za, theta=tha)
    cont_b = MidpointEnsemble(perturbed_fine, za, theta=tha)
    cont_a.advance(0.3)
    cont_a.advance(0.2)
    cont_b.advance(0.5)
    sa, ta, ua = cont_a.states()
    sb, tb, ub = cont_b.states()
    assert np.array_equal(sa, sb) and np.array_equal(ua, ub)

    # every resonance output is closed under conjugation
    spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=60.0,
                                       jitter=0.2, seed=4)
    catalog = resonances_from_laplacian(spectrum, k_max=2, n_max=3)
    series = _mode_series([-0.2 + 1.5j, -0.2 - 1.5j], [1.0, 1.0],
                          dt=0.1, n=400)
    modes = harmonic_inversion(series, max_modes=4, sv_threshold=1e-3)
    conj = max(conjugation_defect(catalog_z(catalog)), conjugation_defect(modes.z))
    checks["conjugation"] = (conj, 1e-15)

    # byte-identical artifacts for a fixed (config, seed) pair
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
n_orbits = 30
windows = 30, 60
word_length = 4
max_closed = 30
mu_max = 60
weyl_b = 5
concentration_b_max = 7
verify_samples = 10
verify_time = 10
ks_samples = 2000
step = 0.02
riccati_burn = 5
n_samples = 2000
""")
    blobs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["reproduce-fig2", "--config", str(cfg), "--seed", "3",
                     "--quiet", "--out", str(out)]) == 0
        blobs.append(b"".join(
            p.read_bytes() for p in sorted(out.iterdir())
        ))
    checks["determinism"] = (float(blobs[0] != blobs[1]), 1.0)

    bad = {k: v for k, (v, tol) in checks.items() if not v < tol}
    detail = ", ".join(
        "%s %.2e" % (k, v) if k != "determinism"
        else "byte-identical %s" % (v == 0.0)
        for k, (v, _) in checks.items()
    )
    _verdict(9, not bad, detail, time.perf_counter() - t0, 300.0)
