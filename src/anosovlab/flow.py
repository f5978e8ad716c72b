"""Time evolution, unstable expansion rates, and flow-level certificates.

Two interchangeable backends move ensembles of unit (co)tangent vectors;
``make_ensemble`` picks one by model kind, and callers use only the contract
the two share (``advance``, ``burn_in``, ``states``):

* ``ExactEnsemble`` (constant curvature only): states are unit-determinant
  matrices, the flow is right multiplication by diag(e^{t/2}, e^{-t/2}),
  and the unstable expansion rate is identically 1.
* ``MidpointEnsemble`` (any conformal factor): states are half-plane
  positions z and covectors xi of the Hamiltonian H = e^{-2 psi} y^2 |xi|^2/2
  on the level H = 1/2, advanced by the implicit midpoint rule with a fixed
  iteration count, so runs are bit-reproducible.  The unstable rate u rides
  along through the Riccati equation du/dt = -K - u^2, whose attracting
  solution is reached by a forward burn-in; u is never integrated backwards
  in time, because the unstable solution repels in that direction.  Averages
  of the past orbit are obtained instead as forward averages from a shifted
  start, which is the same quantity by the change of variables
  s -> t - s along the orbit.

All Birkhoff-type integrals use the integrator's own midpoints (one sample
per step), so an integral over [0, T1 + T2] equals the sum of the integrals
over consecutive advances, exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, HorizonError, RiccatiBlowupError, StepSizeError
from .fuchsian import (
    axis_seed,
    closed_geodesic_elements,
    halfplane_to_disk_angle,
    halfplane_to_matrix,
    matrix_angle_hp,
    matrix_base_point,
    to_halfplane,
)
from .model import FlowModel, ObservableSpec
from .surface import octagon_grid, sample_octagon_positions

_RICCATI_CAP = 50.0


def _psi_sup(model: FlowModel) -> float:
    """Safe upper bound for e^{2 psi} on the polygon, for rejection sampling.

    Grid maximum plus a margin generous against the grid spacing (the shape
    varies on the scale of its sigma), capped by the trivial bound that every
    bump is at most 1.  An over-estimate only costs acceptance rate; an
    under-estimate makes ``sample_octagon_positions`` raise.
    """
    if model.is_exact:
        return 1.0
    grid_max = float(model.shape.value(octagon_grid(384, 48)).max())
    bound = abs(model.epsilon) * min(grid_max + 0.05, float(model.shape.n_centers))
    return float(np.exp(2.0 * bound))


def sample_liouville(model: FlowModel, n: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """Positions and half-plane angles distributed by the invariant volume.

    The invariant volume of the geodesic flow of e^{2 psi} g_hyp factors as
    (weighted area) x (uniform fibre angle); positions come from rejection
    against hyperbolic area with weight e^{2 psi}.
    """
    if model.is_exact:
        z = sample_octagon_positions(n, rng)
    else:
        z = sample_octagon_positions(
            n, rng, weight=model.conformal_weight, weight_sup=_psi_sup(model)
        )
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return z, theta


def _step_count(model: FlowModel, T: float, h: float) -> int:
    """Number of steps h making up T, or the error a run over T would raise."""
    if abs(T) > model.horizon:
        raise HorizonError("|T| = %g exceeds the configured horizon %g"
                           % (abs(T), model.horizon))
    n_steps = int(round(T / h))
    if n_steps < 0 or abs(n_steps * h - T) > 1e-9 * max(1.0, abs(T)):
        raise ConfigError("T must be a nonnegative multiple of the step")
    return n_steps


def _shape(model: FlowModel):
    """The perturbation shape, which the shape observable term needs."""
    if model.shape is None:
        raise ConfigError("the shape observable term needs a perturbed model")
    return model.shape


def evaluate_observable(model: FlowModel, spec: ObservableSpec, z,
                        theta_h=None, u=None):
    """Evaluate an observable at reduced half-plane states."""
    z = np.asarray(z, dtype=complex)
    val = np.full(z.shape, spec.c_const, dtype=float)
    if spec.c_shape != 0.0:
        val += spec.c_shape * _shape(model).value(z)
    if spec.c_u_half != 0.0:
        if u is None:
            if not model.is_exact:
                raise ValueError("observable needs u but none was supplied")
            u = 1.0
        val += spec.c_u_half * 0.5 * np.asarray(u)
    if spec.c_cos != 0.0 or spec.c_sin != 0.0:
        if theta_h is None:
            raise ValueError("observable needs an angle but none was supplied")
        th_d = halfplane_to_disk_angle(z, theta_h)
        val += spec.c_cos * np.cos(th_d) + spec.c_sin * np.sin(th_d)
    if spec.c_bump != 0.0:
        center = to_halfplane(complex(spec.bump_center))
        d = model.domain.quotient_dist(z, center)
        val += spec.c_bump * np.exp(-0.5 * (d / spec.bump_sigma) ** 2)
    return val


class ExactEnsemble:
    """Matrix ensemble under the homogeneous flow (constant curvature)."""

    def __init__(self, model: FlowModel, matrices: np.ndarray):
        if not model.is_exact:
            raise ConfigError("exact backend requires a constant-curvature model")
        self.model = model
        self.g = np.array(matrices, dtype=float)
        if self.g.ndim == 2:
            self.g = self.g[None]
        self.t = 0.0

    @classmethod
    def from_states(cls, model, z, theta_h):
        g = halfplane_to_matrix(z, theta_h)
        ens = cls(model, g)
        model.domain.reduce_matrices(ens.g)
        return ens

    @property
    def n(self) -> int:
        return len(self.g)

    def states(self):
        """(z, theta_h, u) of the current ensemble, reduced."""
        z = matrix_base_point(self.g)
        return z, matrix_angle_hp(self.g), np.ones(len(self.g))

    def advance(self, T: float, observables: Sequence[ObservableSpec] = ()):
        """One exact jump by T; with observables, T is a nonnegative multiple
        of the model step, and each step samples them once, at its midpoint."""
        if observables:
            h = self.model.step
            totals = np.zeros((len(observables), self.n))
            for _ in range(_step_count(self.model, T, h)):
                self.advance(0.5 * h)
                z, th, u = self.states()
                for i, spec in enumerate(observables):
                    totals[i] += evaluate_observable(self.model, spec, z, th, u)
                self.advance(0.5 * h)
            return totals * h
        if abs(T) > self.model.horizon:
            raise HorizonError("|T| = %g exceeds the configured horizon %g"
                               % (abs(T), self.model.horizon))
        e = np.exp(0.5 * T)
        self.g[..., 0] *= e
        self.g[..., 1] /= e
        self.model.domain.reduce_matrices(self.g)
        det = (self.g[..., 0, 0] * self.g[..., 1, 1]
               - self.g[..., 0, 1] * self.g[..., 1, 0])
        self.g /= np.sqrt(det)[..., None, None]
        self.t += T
        return np.zeros((0, self.n))

    def burn_in(self):
        """u = 1 is already the unstable solution; nothing to relax."""
        return self


class MidpointEnsemble:
    """Hamiltonian ensemble advanced by the implicit midpoint rule.

    Works for any model kind; with epsilon = 0 it must agree with the exact
    backend, which the tests exploit.  State arrays: positions ``z``
    (complex), covectors ``xi`` (complex, xi_x + i xi_y), unstable rates
    ``u``.
    """

    n_iter = 4  # fixed-point iterations per step; fixed for reproducibility

    def __init__(self, model: FlowModel, z, theta_h, h: Optional[float] = None):
        self.model = model
        self.h = float(model.step if h is None else h)
        if not 0.0 < abs(self.h) <= 0.5:
            raise ConfigError("step magnitude must lie in (0, 0.5]")
        self.z = np.array(z, dtype=complex)
        psi = model.psi(self.z)
        self.xi = (np.exp(psi) / self.z.imag) * np.exp(
            1j * np.asarray(theta_h, dtype=float)
        )
        self.u = np.ones(self.z.shape)
        self.t = 0.0

    @property
    def n(self) -> int:
        return len(self.z)

    def states(self):
        """(z, theta_h, u); a reverse ensemble (h < 0) never transports u."""
        return self.z, np.angle(self.xi), self.u if self.h > 0.0 else None

    def energy(self):
        psi = self.model.psi(self.z)
        y = self.z.imag
        s = (self.xi * np.conj(self.xi)).real
        return 0.5 * np.exp(-2.0 * psi) * y * y * s

    def _force(self, z, xi, curvature, centers):
        """Hamiltonian vector field at (z, xi), plus the Gauss curvature there
        when asked (None otherwise); the shape sums over ``centers``."""
        psi, px, py, lap = self.model.psi_pack(z, curvature, centers)
        y = z.imag
        e2 = np.exp(-2.0 * psi)
        s = (xi * np.conj(xi)).real
        vz = e2 * y * y * xi
        vxi = e2 * y * s * (y * px + 1j * (y * py - 1.0))
        curv = e2 * (-1.0 - lap) if curvature else None
        return vz, vxi, curv

    def step(self):
        """One implicit midpoint step; returns the midpoint (z, theta, u)."""
        h = self.h
        z0, xi0 = self.z, self.xi
        mz, mxi = z0, xi0
        # No iterate moves further than the step from the reduced start
        # point, so the sector lists looked up there serve every pass.
        shape = self.model.shape
        centers = None if shape is None else shape.sector_centers(z0)
        for i in range(self.n_iter):
            # The Riccati update reads the curvature of the last force
            # evaluation only, and backward steps never read it.
            last = i == self.n_iter - 1 and h > 0.0
            vz, vxi, curv = self._force(mz, mxi, last, centers)
            mz = z0 + 0.5 * h * vz
            mxi = xi0 + 0.5 * h * vxi
        self.z = 2.0 * mz - z0
        self.xi = 2.0 * mxi - xi0
        if h > 0.0:
            # Riccati du/dt = -K - u^2 by the same midpoint rule; the
            # midpoint value solves a quadratic, so no iteration is needed.
            # The unstable solution repels backwards in time, so negative
            # steps transport positions only and leave u untouched.
            a = 0.5 * h
            disc = 1.0 + 4.0 * a * (self.u - a * curv)
            umid = (np.sqrt(np.maximum(disc, 0.0)) - 1.0) / (2.0 * a)
            self.u = 2.0 * umid - self.u
            if np.any(~np.isfinite(self.u)) or np.any(np.abs(self.u) > _RICCATI_CAP):
                raise RiccatiBlowupError(
                    "unstable rate left [-%g, %g]; the model is not safely "
                    "hyperbolic at this step size" % (_RICCATI_CAP, _RICCATI_CAP)
                )
        else:
            umid = None
        self.z, self.xi, rounds = self.model.domain.reduce_points(self.z, self.xi)
        if rounds >= 16:
            raise StepSizeError(
                "a single integration step left the reachable neighbourhood "
                "of the fundamental polygon; reduce the step size"
            )
        self.t += h
        return mz, np.angle(mxi), umid

    def advance(self, T: float, observables: Sequence[ObservableSpec] = (),
                record=None):
        """Advance by T, integrating observables at the scheme's midpoints.

        Returns an array (len(observables), n) of integrals over this
        advance.  ``record(ensemble)`` runs after every step when given.
        """
        n_steps = _step_count(self.model, T, self.h)
        totals = np.zeros((len(observables), self.n))
        for _ in range(n_steps):
            mz, mth, mu = self.step()
            if observables:
                for i, spec in enumerate(observables):
                    totals[i] += evaluate_observable(
                        self.model, spec, mz, mth, mu
                    )
            if record is not None:
                record(self)
        return totals * self.h

    def burn_in(self):
        """Relax the Riccati variable onto the unstable solution.

        Shifts the ensemble forward by the burn-in time; by invariance of the
        sampling measure the shifted ensemble is an equally valid sample.
        """
        self.advance(self.model.riccati_burn)
        return self


def make_ensemble(model: FlowModel, z, theta_h, reverse: bool = False):
    """The backend for the model kind, seeded at (z, theta); a reverse one
    steps back in time, and ``advance`` then takes negative T."""
    if model.is_exact:
        return ExactEnsemble.from_states(model, z, theta_h)
    return MidpointEnsemble(model, z, theta_h=theta_h,
                            h=-model.step if reverse else None)


def flow_map(model: FlowModel, z, theta_h, t: float):
    """Advance states by a signed time t and return (z, theta_h), reduced."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    theta_h = np.atleast_1d(np.asarray(theta_h, dtype=float))
    ens = make_ensemble(model, z, theta_h, reverse=t < 0)
    ens.advance(t)
    zz, th, _ = ens.states()
    return zz, np.mod(th, 2.0 * np.pi)


def dual_seeds(model: FlowModel, n_random: int, rng, word_length: int = 6,
               max_closed: int = 128) -> Tuple[np.ndarray, np.ndarray]:
    """Volume-random seeds plus points on short closed orbits.

    Closed-orbit seeds are axis points of group elements up to the given
    word length (distinct traces only); ``max_closed = 0`` skips the word
    enumeration.  For perturbed metrics the same points are used; they are
    no longer exactly periodic there, but they still probe the recurrent set
    that extremises Birkhoff averages.
    """
    z_r, th_r = sample_liouville(model, n_random, rng)
    if max_closed <= 0:
        return z_r, th_r
    g = np.stack([axis_seed(m)[0] for m, _ in closed_geodesic_elements(
        model.generators, word_length, limit=max_closed)])
    model.domain.reduce_matrices(g)
    return (np.concatenate([z_r, matrix_base_point(g)]),
            np.concatenate([th_r, matrix_angle_hp(g)]))


@dataclass(frozen=True)
class AnosovReport:
    lambda_forward: float
    lambda_backward: float
    lambda_min: float
    riccati_low: float
    riccati_high: float
    riccati_bounds: Tuple[float, float]
    contact_alpha_error: float
    contact_nondegeneracy: float
    n_samples: int
    t_check: float

    @property
    def passed(self) -> bool:
        lo, hi = self.riccati_bounds
        return (self.lambda_min > 0.0
                and lo - 1e-6 <= self.riccati_low
                and self.riccati_high <= hi + 1e-6
                and self.contact_alpha_error < 1e-6
                and self.contact_nondegeneracy > 0.5)


def contact_check(model: FlowModel, n: int = 64, seed: int = 1,
                  delta: float = 1e-5):
    """Evaluate the contact pairing alpha(X) = xi . dH/dxi by differences.

    On the unit level set this equals 2H = 1; the nondegeneracy scalar of
    the contact form along the flow is the same quantity, so one number
    feeds both checks.
    """
    rng = np.random.default_rng(seed)
    z, th = sample_liouville(model, n, rng)
    psi = model.psi(z)
    xi = (np.exp(psi) / z.imag) * np.exp(1j * th)

    def ham(xi_val):
        s = (xi_val * np.conj(xi_val)).real
        return 0.5 * np.exp(-2.0 * psi) * z.imag ** 2 * s

    hx = (ham(xi + delta) - ham(xi - delta)) / (2.0 * delta)
    hy = (ham(xi + 1j * delta) - ham(xi - 1j * delta)) / (2.0 * delta)
    alpha_x = xi.real * hx + xi.imag * hy
    return float(np.max(np.abs(alpha_x - 1.0))), float(np.min(np.abs(alpha_x)))


def verify_anosov(model: FlowModel, n_samples: int = 200, t_check: float = 60.0,
                  seed: int = 0, word_length: int = 6) -> AnosovReport:
    """Measure uniform expansion along and against the flow.

    The expansion bound is the worst forward average of the unstable rate u
    over a dual ensemble (volume-random plus short closed orbits); the
    backward bound repeats this for the reversed flow.  Riccati values after
    burn-in must lie in [sqrt(-K_max), sqrt(-K_min)], the invariant window
    of du/dt = -K - u^2 for pinched negative curvature.

    At constant curvature K = -1 the unstable solution is u = 1 on every
    orbit, so the rates and Riccati extremes are 1 in closed form; the seeds
    are still drawn, and t_check still validated, exactly as for a run.
    """
    rng = np.random.default_rng(seed)
    z, th = dual_seeds(model, n_samples, rng, word_length=word_length)
    k_min, k_max = model.curvature_range
    bounds = (float(np.sqrt(-k_max)), float(np.sqrt(-k_min)))

    if model.is_exact:
        _step_count(model, t_check, model.step)
        rates, extremes = [1.0, 1.0], [(1.0, 1.0)]
    else:
        # Both directions run as one ensemble: every operation of a step
        # acts point by point, so each half evolves exactly as it would alone.
        theta = [np.mod(th + direction, 2.0 * np.pi)
                 for direction in (0.0, np.pi)]
        ens = make_ensemble(model, np.concatenate([z, z]),
                            np.concatenate(theta)).burn_in()
        spec = ObservableSpec(c_u_half=2.0)  # integrand u
        total = ens.advance(t_check, observables=[spec])[0]
        u = ens.states()[2]
        halves = (slice(None, len(z)), slice(len(z), None))
        rates = [float(np.min(total[half]) / t_check) for half in halves]
        extremes = [(float(u[half].min()), float(u[half].max()))
                    for half in halves]

    alpha_err, nondeg = contact_check(model)
    return AnosovReport(
        lambda_forward=rates[0],
        lambda_backward=rates[1],
        lambda_min=min(rates),
        riccati_low=min(e[0] for e in extremes),
        riccati_high=max(e[1] for e in extremes),
        riccati_bounds=bounds,
        contact_alpha_error=alpha_err,
        contact_nondegeneracy=nondeg,
        n_samples=len(z),
        t_check=t_check,
    )


def liouville_ks(model: FlowModel, n: int = 15000, t: float = 7.0, seed: int = 3):
    """Kolmogorov-Smirnov distances testing invariance of the volume.

    Constant curvature only: flows an exact-volume sample and compares the
    pushforward against the exact marginals (conditional radial quantile,
    fibre angle, angular position).
    """
    from scipy import stats

    from .fuchsian import matrix_to_disk
    from .surface import octagon_angle_cdf, radial_quantile

    if not model.is_exact:
        raise ConfigError("the volume test has exact marginals only at epsilon 0")
    rng = np.random.default_rng(seed)
    z, th = sample_liouville(model, n, rng)
    ens = ExactEnsemble.from_states(model, z, th)
    ens.advance(t)
    w, th_d = matrix_to_disk(ens.g)
    phi_grid, cdf = octagon_angle_cdf()
    out = {
        "radial": float(stats.kstest(radial_quantile(w), "uniform").statistic),
        "fibre_angle": float(stats.kstest(th_d / (2.0 * np.pi), "uniform").statistic),
        "position_angle": float(stats.kstest(
            np.interp(np.mod(np.angle(w), 2.0 * np.pi), phi_grid, cdf), "uniform"
        ).statistic),
    }
    return out
