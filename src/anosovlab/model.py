"""Flow models: the surface, the metric, and validated construction.

A model bundles the co-compact group, its Dirichlet polygon, and the
conformal factor e^{2 psi} with psi = epsilon * shape.  Two kinds exist:

* ``constant_curvature``: epsilon = 0.  Orbits are matrix products, the
  unstable expansion rate is identically 1, and everything downstream has
  closed forms to test against.
* ``conformal_perturbation``: orbits come from a symplectic integrator and
  expansion rates from a Riccati equation; at epsilon = 0 this is the constant
  metric on the integrator's path, which the tests compare to the closed forms.

Construction validates the model rather than trusting it: the truncated
shape must be group-periodic to INVARIANCE_TOL, and the Gauss curvature
e^{-2 psi} (-1 - Delta_hyp psi) must be negative on a polygon-covering grid,
which also rejects perturbation strengths too large for the flow to stay
Anosov by this certificate.  Construction also fixes ``weight_sup``, the
bound on e^{2 psi} that Liouville sampling rejects against, once per model.
Every grid scan runs through ``surface.blockwise``, so the working memory of
construction is set by the block size, not by the grids.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, ModelValidationError
from .fuchsian import DirichletDomain, bolza_generators
from .surface import (
    SECTOR_MARGIN,
    PerturbationShape,
    blockwise,
    octagon_area,
    octagon_grid,
)

MODEL_KINDS = ("constant_curvature", "conformal_perturbation")

MODEL_DEFAULTS = {
    "model": "constant_curvature",
    "epsilon": 0.05,
    "step": 1e-3,
    "riccati_burn": 20.0,
    "horizon": 500.0,
}

# Bound on the certified periodisation defect of psi; not a setting, since a
# certificate whose bound a configuration can loosen certifies nothing.
INVARIANCE_TOL = 1e-8


@dataclass(frozen=True)
class PotentialSpec:
    """Damping potential V = c0 + c1 * psi + c2 * u/2.

    u is the unstable expansion rate along the orbit; c2 lets potentials
    interpolate between the plain transfer operator (V = 0) and the
    unstable-Jacobian weight (c2 = 1), whose first band sits on the
    imaginary axis.
    """

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0


@dataclass(frozen=True)
class ObservableSpec:
    """Linear combination of the observables the laboratory knows how to evaluate.

    value = c_const
          + c_shape * shape(z)
          + c_u_half * u/2
          + c_bump * exp(-d_M(z, bump_center)^2 / (2 bump_sigma^2))

    A bump needs a finite bump_sigma > 0 and |bump_center| < 1.
    """

    c_const: float = 0.0
    c_shape: float = 0.0
    c_u_half: float = 0.0
    c_bump: float = 0.0
    bump_center: complex = 0.35 + 0.1j  # disk coordinates
    bump_sigma: float = 0.6

    def __post_init__(self):
        # written so that NaN fails both checks
        if not 0.0 < self.bump_sigma < np.inf:
            raise ConfigError("bump_sigma must be finite and positive, got %r"
                              % self.bump_sigma)
        if not abs(self.bump_center) < 1.0:
            raise ConfigError("bump_center must lie in the open unit disk, "
                              "got %r" % (self.bump_center,))

    @property
    def needs_u(self) -> bool:
        return self.c_u_half != 0.0


def damping_observable(model: "FlowModel", potential: PotentialSpec) -> ObservableSpec:
    """The damping function D = V - u/2 as an observable along orbits."""
    return ObservableSpec(
        c_const=potential.c0,
        c_shape=potential.c1 * model.epsilon,
        c_u_half=potential.c2 - 1.0,
    )


@dataclass(frozen=True)
class FlowModel:
    """A validated model with its construction certificates.

    ``weight_sup`` bounds the conformal weight e^{2 psi} on the polygon for
    rejection sampling: 1.0 on the exact model, else computed once by
    ``build_model`` (see ``_weight_sup``), so each sampling call reads it
    instead of scanning a grid.
    """

    kind: str
    generators: np.ndarray
    domain: DirichletDomain
    epsilon: float
    shape: Optional[PerturbationShape]
    step: float
    riccati_burn: float
    horizon: float
    area: float
    invariance_defect: float
    curvature_range: Tuple[float, float]
    weight_sup: float

    @property
    def is_exact(self) -> bool:
        return self.kind == "constant_curvature"

    def psi(self, z):
        if self.is_exact:
            return np.zeros(np.shape(z))
        return self.epsilon * self.shape.value(z)

    def conformal_weight(self, z):
        return np.exp(2.0 * self.psi(z))


def _curvature(shape, epsilon, z):
    val, _, _, lap = shape.pack(z)
    return np.exp(-2.0 * epsilon * val) * (-1.0 - epsilon * lap)


def _weight_sup(shape, epsilon):
    """Safe upper bound for e^{2 psi} on the polygon, for rejection sampling.

    Grid maximum plus a margin generous against the grid spacing (the shape
    varies on the scale of SHAPE_SIGMA), capped by the trivial bound that every
    bump is at most 1.  An over-estimate only costs acceptance rate; an
    under-estimate makes ``sample_octagon_positions`` raise.
    """
    grid_max = float(blockwise(shape.value, octagon_grid(384, 48)).max())
    bound = abs(epsilon) * min(grid_max + 0.05, float(shape.n_centers))
    return float(np.exp(2.0 * bound))


def build_model(config: Optional[Mapping] = None, **overrides) -> FlowModel:
    """Construct and validate a model from the keys of MODEL_DEFAULTS; any
    other key, such as a setting of the fixed shape, raises ConfigError."""
    cfg = dict(MODEL_DEFAULTS)
    for src in (config or {}, overrides):
        for key, val in src.items():
            if key not in MODEL_DEFAULTS:
                raise ConfigError("unknown model option %r" % key)
            cfg[key] = val

    kind = cfg["model"]
    if kind not in MODEL_KINDS:
        raise ConfigError(
            "model must be one of %s, got %r" % ("/".join(MODEL_KINDS), kind)
        )
    step = float(cfg["step"])
    if not 0.0 < step <= 0.5:
        raise ConfigError("step must lie in (0, 0.5]")
    burn = float(cfg["riccati_burn"])
    if burn < 0.0:
        raise ConfigError("riccati_burn must be nonnegative")
    horizon = float(cfg["horizon"])
    if horizon <= 0.0:
        raise ConfigError("horizon must be positive")

    generators = bolza_generators()
    domain = DirichletDomain(generators)

    if kind == "constant_curvature":
        return FlowModel(
            kind=kind,
            generators=generators,
            domain=domain,
            epsilon=0.0,
            shape=None,
            step=step,
            riccati_burn=burn,
            horizon=horizon,
            area=4.0 * np.pi,
            invariance_defect=0.0,
            curvature_range=(-1.0, -1.0),
            weight_sup=1.0,
        )

    epsilon = float(cfg["epsilon"])
    shape = PerturbationShape(generators)
    # Total certified defect of psi across side pairings: truncation tail of
    # the orbit sum plus (twice) what the runtime sector lists can drop on
    # the polygon widened by the margin a step may move.
    gap = shape.pruning_gap(octagon_grid(margin=SECTOR_MARGIN))
    defect = (shape.invariance_defect(generators) + 2.0 * gap) * abs(epsilon)
    if defect > INVARIANCE_TOL:
        raise ModelValidationError(
            "conformal factor is not group-periodic: defect %.3e exceeds %.3e"
            % (defect, INVARIANCE_TOL)
        )

    k_scan = blockwise(lambda z: _curvature(shape, epsilon, z), octagon_grid())
    k_min, k_max = float(k_scan.min()), float(k_scan.max())
    if k_max >= 0.0:
        raise ModelValidationError(
            "curvature reaches %.3e >= 0 at epsilon = %g; the Anosov "
            "certificate fails, reduce epsilon" % (k_max, epsilon)
        )

    area = octagon_area(weight=lambda z: np.exp(2.0 * epsilon * shape.value(z)))
    return FlowModel(
        kind=kind,
        generators=generators,
        domain=domain,
        epsilon=epsilon,
        shape=shape,
        step=step,
        riccati_burn=burn,
        horizon=horizon,
        area=float(area),
        invariance_defect=float(defect),
        curvature_range=(k_min, k_max),
        weight_sup=_weight_sup(shape, epsilon),
    )
