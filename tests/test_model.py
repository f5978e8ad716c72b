"""Model construction, validation certificates, and observables."""
import tracemalloc

import numpy as np
import pytest

from anosovlab.errors import ConfigError, ModelValidationError
from anosovlab.flow import sample_liouville
from anosovlab.model import (
    MODEL_DEFAULTS,
    ObservableSpec,
    PotentialSpec,
    build_model,
    damping_observable,
)
from anosovlab.surface import octagon_area, sample_octagon_positions


def test_build_rejects_bad_options():
    with pytest.raises(ConfigError):
        build_model(model="flat_torus")
    with pytest.raises(ConfigError):
        build_model(wrong_key=1.0)
    with pytest.raises(ConfigError):
        build_model(step=0.0)
    with pytest.raises(ConfigError):
        build_model(step=0.7)
    with pytest.raises(ConfigError):
        build_model(horizon=-1.0)
    with pytest.raises(ConfigError):
        build_model(riccati_burn=-2.0)


def test_exact_model_closed_forms(exact_model):
    assert exact_model.is_exact
    assert exact_model.epsilon == 0.0
    assert exact_model.area == pytest.approx(4.0 * np.pi, rel=1e-15)
    z = np.array([1j, 0.3 + 0.9j])
    np.testing.assert_array_equal(exact_model.psi(z), 0.0)
    np.testing.assert_array_equal(exact_model.curvature(z), -1.0)
    np.testing.assert_array_equal(exact_model.conformal_weight(z), 1.0)
    assert exact_model.invariance_defect == 0.0
    assert exact_model.curvature_range == (-1.0, -1.0)
    assert exact_model.weight_sup == 1.0


def test_perturbed_model_certificates(perturbed_model):
    m = perturbed_model
    assert not m.is_exact
    assert m.epsilon == 0.05
    assert 0.0 < m.invariance_defect < MODEL_DEFAULTS["invariance_tol"]
    k_min, k_max = m.curvature_range
    assert -1.2 < k_min < k_max < -0.1  # pinched negative curvature
    # weighted area recomputed independently from the quadrature
    area = octagon_area(weight=m.conformal_weight)
    assert m.area == pytest.approx(area, rel=1e-12)
    assert abs(m.area - 4.0 * np.pi) < 0.5


def test_perturbed_certificates_are_pinned(perturbed_fine):
    # the default perturbed config; blocked grid scans keep every bit
    m = perturbed_fine
    assert m.invariance_defect == 7.799499143293496e-13
    assert m.curvature_range == (-1.0885777833626473, -0.16619462780252858)
    assert m.area == 12.648569070987396
    assert m.weight_sup == 1.1107106103557052


def test_perturbed_construction_and_sampling_memory():
    # construction scans its grids in blocks, and sampling reads the stored
    # bound instead of scanning an 18 433-point grid per call
    tracemalloc.start()
    try:
        m = build_model(model="conformal_perturbation")
        build_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sample_liouville(m, 64, np.random.default_rng(0))
        sample_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak <= 16e6
    assert sample_peak < 1e6


def test_psi_pack_matches_shape(perturbed_model):
    m = perturbed_model
    rng = np.random.default_rng(50)
    z = sample_octagon_positions(20, rng)
    val, gx, gy, lap = m.psi_pack(z)
    sval, sgx, sgy, slap = m.shape.pack(z)
    np.testing.assert_allclose(val, m.epsilon * sval, rtol=1e-14)
    np.testing.assert_allclose(gx, m.epsilon * sgx, rtol=1e-14)
    np.testing.assert_allclose(gy, m.epsilon * sgy, rtol=1e-14)
    np.testing.assert_allclose(lap, m.epsilon * slap, rtol=1e-14)
    np.testing.assert_allclose(m.psi(z), m.epsilon * m.shape.value(z), rtol=1e-14)


def test_curvature_formula_by_finite_differences(perturbed_model):
    m = perturbed_model
    rng = np.random.default_rng(51)
    z = sample_octagon_positions(15, rng)
    h = 1e-4
    psi0 = m.psi(z)
    flat_lap = (
        m.psi(z + h) + m.psi(z - h) + m.psi(z + 1j * h) + m.psi(z - 1j * h)
        - 4.0 * psi0
    ) / (h * h)
    k_fd = np.exp(-2.0 * psi0) * (-1.0 - z.imag**2 * flat_lap)
    np.testing.assert_allclose(m.curvature(z), k_fd, atol=1e-4)


def test_validation_rejects_strong_perturbations():
    # curvature certificate: some grid point reaches K >= 0
    with pytest.raises(ModelValidationError):
        build_model(model="conformal_perturbation", epsilon=0.5)


def test_validation_rejects_tight_invariance_tolerance():
    with pytest.raises(ModelValidationError):
        build_model(
            model="conformal_perturbation", epsilon=0.05, invariance_tol=1e-16
        )


def test_damping_observable_coefficients(exact_model):
    # D = V - u/2 with V = c0 + c1 psi + c2 u/2
    spec = damping_observable(exact_model, PotentialSpec())
    assert (spec.c_const, spec.c_shape, spec.c_u_half) == (0.0, 0.0, -1.0)
    spec = damping_observable(exact_model, PotentialSpec(c0=2.0, c2=1.0))
    assert (spec.c_const, spec.c_u_half) == (2.0, 0.0)


def test_damping_observable_scales_shape(perturbed_model):
    spec = damping_observable(perturbed_model, PotentialSpec(c1=3.0))
    assert spec.c_shape == pytest.approx(3.0 * perturbed_model.epsilon)


def test_observable_needs_u():
    assert ObservableSpec(c_u_half=1.0).needs_u
    assert not ObservableSpec(c_bump=1.0).needs_u
