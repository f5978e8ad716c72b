"""Shared model fixtures.

Session scope keeps the expensive parts (orbit-sum shape construction,
curvature scans) out of individual test bodies.  Models are immutable, so
sharing is safe.

BLAS and OpenMP run one thread each, as in CI and the benchmark, unless the
environment says otherwise; the variables must be set before numpy loads.
"""
import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from anosovlab.flow import make_ensemble  # noqa: E402
from anosovlab.fuchsian import cosh_dist_hp, mobius  # noqa: E402
from anosovlab.model import build_model  # noqa: E402


@pytest.fixture(scope="session")
def in_polygon():
    """in_polygon(domain, z, tol): whether each point is at least as close to
    i as to every neighbouring centre, up to tol in cosh distance."""
    def check(domain, z, tol=1e-12):
        z = np.asarray(z, dtype=complex)
        cj = cosh_dist_hp(z[..., None], mobius(domain.neighbors, 1j))
        return cj.min(axis=-1) - cosh_dist_hp(z, 1j) >= -tol
    return check


@pytest.fixture(scope="session")
def conjugation_defect():
    """conjugation_defect(z): the largest distance from the conjugate of an
    entry of z to its nearest entry; 0 when z is closed under conjugation."""
    def defect(z):
        z = np.asarray(z, dtype=complex)
        if len(z) == 0:
            return 0.0
        return float(np.abs(np.conj(z)[:, None] - z[None, :]).min(axis=1).max())
    return defect


@pytest.fixture(scope="session")
def flow_map():
    """flow_map(model, z, theta_h, t): the states advanced by t, reduced, as
    (z, theta_h) with theta_h in [0, 2 pi); t may be negative at constant
    curvature only."""
    def advance(model, z, theta_h, t):
        ens = make_ensemble(model, np.atleast_1d(np.asarray(z, dtype=complex)),
                            np.atleast_1d(np.asarray(theta_h, dtype=float)))
        ens.advance(t)
        zz, th, _ = ens.states()
        return zz, np.mod(th, 2.0 * np.pi)
    return advance


@pytest.fixture(scope="session")
def exact_model():
    return build_model(model="constant_curvature")


@pytest.fixture(scope="session")
def perturbed_model():
    # coarse step: cheap orbits for statistics-level tests
    return build_model(model="conformal_perturbation", epsilon=0.05, step=0.01)


@pytest.fixture(scope="session")
def perturbed_fine():
    # step fine enough for finite-difference residuals to resolve the scheme
    return build_model(model="conformal_perturbation", epsilon=0.05, step=1e-3)
