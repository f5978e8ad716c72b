"""Matrix-pencil mode extraction."""
import hashlib

import numpy as np
import pytest

from anosovlab.correlation import CorrelationSeries, correlation_series, mean_zero
from anosovlab.errors import InversionError
from anosovlab.inversion import _pinv, harmonic_inversion
from anosovlab.model import ObservableSpec


def _series(zs, amps, dt, n, noise=0.0, seed=0):
    t = np.arange(n) * dt
    c = np.real(np.exp(np.outer(t, zs)) @ np.asarray(amps, dtype=complex))
    err = np.zeros(n)
    if noise:
        rng = np.random.default_rng(seed)
        scale = noise * np.max(np.abs(c))
        c = c + rng.normal(0.0, scale, n)
        err = np.full(n, scale)
    return CorrelationSeries(dt=dt, values=c, stderr=err)


def _reconstruct(modes, t):
    return np.exp(np.outer(t, modes.z)) @ modes.amplitude


def _match(got, want):
    """Greedy nearest pairing; returns the worst distance."""
    got = list(got)
    worst = 0.0
    for w in want:
        j = int(np.argmin(np.abs(np.array(got) - w)))
        worst = max(worst, abs(got.pop(j) - w))
    return worst


def test_two_mode_exact_recovery(conjugation_defect):
    zs = [-0.3 + 2.0j, -0.3 - 2.0j]
    series = _series(zs, [1.0, 1.0], 0.05, 400)
    modes = harmonic_inversion(series, max_modes=4)
    assert len(modes) == 2
    assert _match(modes.z, zs) < 1e-10
    np.testing.assert_allclose(np.abs(modes.amplitude), 1.0, atol=1e-9)
    assert modes.residual < 1e-10
    assert conjugation_defect(modes.z) < 1e-10


def test_real_decay_plus_oscillation():
    zs = [-0.1, -0.5 + 3.0j, -0.5 - 3.0j]
    series = _series(zs, [2.0, 0.7, 0.7], 0.1, 300)
    modes = harmonic_inversion(series, max_modes=6)
    assert _match(modes.z, zs) < 1e-8
    # sorted by Re descending
    assert np.all(np.diff(modes.z.real) <= 1e-12)


def test_reconstruction_matches_series():
    zs = [-0.2 + 1.0j, -0.2 - 1.0j, -0.8]
    series = _series(zs, [1.0, 1.0, 0.5], 0.05, 500)
    modes = harmonic_inversion(series, max_modes=8)
    recon = _reconstruct(modes, series.times).real
    np.testing.assert_allclose(recon, series.values, atol=1e-9)


def test_noise_robustness_with_relaxed_gate():
    # slow decay keeps the whole window informative; measured worst error
    # over 40 seeds is 2.9e-3
    zs = np.array([-0.10 + 1.0j, -0.10 - 1.0j, -0.10 + 3.0j, -0.10 - 3.0j,
                   -0.10 + 5.0j, -0.10 - 5.0j])
    amps = [1.0] * 6
    worst = []
    for seed in range(5):
        series = _series(zs, amps, 0.05, 2000, noise=0.01, seed=seed)
        modes = harmonic_inversion(series, max_modes=6, sv_threshold=1e-2)
        worst.append(_match(modes.z, zs))
    assert max(worst) < 1e-2


def test_zero_series_gives_empty_modeset():
    series = CorrelationSeries(dt=0.1, values=np.zeros(100),
                               stderr=np.zeros(100))
    modes = harmonic_inversion(series, max_modes=3)
    assert len(modes) == 0
    assert modes.residual == 0.0
    np.testing.assert_array_equal(_reconstruct(modes, [0.0, 1.0]), 0.0)


def test_rank_gate_drops_weak_modes():
    # second pair sits below the raised threshold
    zs = [-0.2 + 1.0j, -0.2 - 1.0j, -0.3 + 5.0j, -0.3 - 5.0j]
    series = _series(zs, [1.0, 1.0, 1e-6, 1e-6], 0.05, 600)
    modes = harmonic_inversion(series, max_modes=8, sv_threshold=1e-3)
    assert len(modes) == 2
    # dropping the weak pair leaves a truncation bias of its relative size
    assert _match(modes.z, zs[:2]) < 1e-6


def test_guards():
    series = _series([-0.5], [1.0], 0.1, 30)
    with pytest.raises(InversionError):
        harmonic_inversion(series, max_modes=0)
    with pytest.raises(InversionError):
        harmonic_inversion(series, max_modes=3, sv_threshold=1.5)
    with pytest.raises(InversionError):
        harmonic_inversion(series, max_modes=10)  # needs 4x the length


def test_nyquist_warning():
    dt = 0.1
    im = 0.999 * np.pi / dt
    series = _series([-0.2 + 1j * im, -0.2 - 1j * im], [1.0, 1.0], dt, 200)
    with pytest.warns(RuntimeWarning, match="Nyquist"):
        harmonic_inversion(series, max_modes=4)


def test_significant_filters_by_amplitude():
    zs = [-0.2 + 1.0j, -0.2 - 1.0j, -0.9]
    series = _series(zs, [1.0, 1.0, 1e-4], 0.05, 400)
    modes = harmonic_inversion(series, max_modes=6)
    kept = modes.significant(1e-2)
    assert len(kept) == 2
    assert np.all(np.abs(kept.amplitude) > 1e-2)
    assert _match(kept.z, zs[:2]) < 1e-4


def test_window_length_sets_noise_resolution():
    # two close slow modes under relative noise: a long window separates
    # them, a short one cannot
    zs = [-0.02 + 1.0j, -0.02 - 1.0j, -0.02 + 1.1j, -0.02 - 1.1j]
    amps = [1.0, 1.0, 1.0, 1.0]
    long_s = _series(zs, amps, 0.1, 2000, noise=1e-3, seed=1)
    short_s = _series(zs, amps, 0.1, 200, noise=1e-3, seed=1)
    err_long = _match(harmonic_inversion(long_s, max_modes=4).z, zs)
    err_short = _match(harmonic_inversion(short_s, max_modes=4).z, zs)
    assert err_long < 1e-4
    assert err_short > 1e-4


@pytest.fixture(scope="module")
def stream_series(exact_model):
    """The exact-backend series whose bits test_exact_stream_digest pins."""
    spec = mean_zero(exact_model, ObservableSpec(c_bump=1.0))
    return correlation_series(exact_model, spec, spec, dt=0.2, n_lags=300,
                              n_samples=12000, seed=11)


def test_exact_stream_modes_digest(stream_series):
    # Pins the bits of the matrix pencil and the amplitude solve, recorded
    # with the stream test_exact_stream_digest pins (x86-64 with AVX-512,
    # numpy 2.4); test_numpy_pencil_matches_scipy_linalg checks the same
    # series against scipy.linalg.
    modes = harmonic_inversion(stream_series, max_modes=4, sv_threshold=1e-3)
    digest = hashlib.sha256()
    for part in (modes.z, modes.amplitude, modes.singular_values,
                 np.float64(modes.residual)):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == (
        "e9f486761a5bb04297c55aa1d34c5800d722d740a1746a02e7cea36816c9f0cf")


def _series_inputs(stream_series):
    """Correlation-shaped inputs: the pinned stream series, a 500-lag decaying
    oscillation under noise, and white noise."""
    rng = np.random.default_rng(12)
    t = 0.2 * np.arange(500)
    yield stream_series.values
    yield np.exp(-0.5 * t) * np.cos(1.9 * t) + 1e-3 * rng.standard_normal(500)
    yield rng.standard_normal(257)


def test_numpy_pencil_matches_scipy_linalg(stream_series):
    # Reference: the scipy.linalg calls harmonic_inversion used to make.
    from numpy.lib.stride_tricks import sliding_window_view
    from scipy.linalg import hankel, lstsq, pinv

    for c in _series_inputs(stream_series):
        for rows in (len(c) // 2, 100, 37):
            Y = sliding_window_view(c, len(c) - rows + 1)
            assert np.array_equal(Y, hankel(c[:rows], c[rows - 1:]))
            U = np.linalg.svd(Y, full_matrices=False)[0]
            for rank in (2, 4, 8):
                assert np.array_equal(_pinv(U[:-1, :rank]), pinv(U[:-1, :rank]))
                z = np.log(np.linalg.eigvals(
                    _pinv(U[:-1, :rank]) @ U[1:, :rank])) / 0.2
                vand = np.exp(np.outer(0.2 * np.arange(len(c)), z))
                ours = np.linalg.lstsq(vand, c.astype(complex), rcond=None)[0]
                assert np.array_equal(ours, lstsq(vand, c.astype(complex))[0])
    rng = np.random.default_rng(13)
    for shape in ((9, 6), (40, 3), (5, 5), (3, 8)):
        a = rng.standard_normal(shape)
        a[:, -1] = a[:, 0]  # rank deficient: the cutoff drops a direction
        assert np.array_equal(_pinv(a), pinv(a))
        a = a + 1j * rng.standard_normal(shape)
        assert np.array_equal(_pinv(a), pinv(a))
