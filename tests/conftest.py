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

import pytest  # noqa: E402

from anosovlab.model import build_model


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
