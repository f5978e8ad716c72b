"""Time evolution, unstable expansion rates, and flow-level certificates.

Two interchangeable backends move ensembles of unit (co)tangent vectors
forwards in time.  Both are built from half-plane positions and angles,
``make_ensemble`` picks one by model kind, and callers use only the contract
the two share: ``advance`` moves either (integrating observables on the
midpoint backend only), ``burn_in``, ``states``, and ``sample(dt, k)``, the
states at k equally spaced times in one batch.  Every state triple
(z, theta, u) carries the unstable rate u.

* ``ExactEnsemble`` (constant curvature only): states are unit-determinant
  matrices, the flow is right multiplication by diag(e^{t/2}, e^{-t/2}),
  ``advance(T)`` is ``sample(T, 1)``'s jump by a signed time, states
  unformed, and u is identically 1, so orbit integrals are closed forms.
* ``MidpointEnsemble`` (perturbed models only): states are half-plane
  positions z and covectors xi of the Hamiltonian H = e^{-2 psi} y^2 |xi|^2/2
  on the level H = 1/2, advanced by the implicit midpoint rule at the model
  step with a fixed iteration count, so runs are bit-reproducible.  u rides
  along through the Riccati equation du/dt = -K - u^2, whose attracting
  solution is reached by a forward burn-in; it repels backwards in time, so
  this backend only steps forwards.  Past averages are forward averages from
  a shifted start (s -> t - s along the orbit), and the backward flow is the
  forward flow of the reversed covector.  ``advance`` integrates observables
  at the scheme's own midpoints (one sample per step), so an integral over
  [0, T1 + T2] equals the sum over consecutive advances, exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigError, HorizonError, RiccatiBlowupError, StepSizeError
from .fuchsian import (
    axis_seed,
    closed_geodesic_elements,
    halfplane_to_disk_angle,
    halfplane_to_matrix,
    matrix_angle_hp,
    matrix_base_point,
    to_disk,
    to_halfplane,
)
from .model import FlowModel, ObservableSpec
from .surface import octagon_angle_cdf, radial_quantile, sample_octagon_positions

_RICCATI_CAP = 50.0
# |H - 1/2| / step^2 reads 0.2-1.3 on verify runs of up to 80 time units,
# and about 100 when the midpoint step takes one fixed-point pass, not four
ENERGY_DRIFT = 16.0


def sample_liouville(model: FlowModel, n: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """Positions and half-plane angles distributed by the invariant volume.

    The invariant volume of the geodesic flow of e^{2 psi} g_hyp factors as
    (weighted area) x (uniform fibre angle); positions come from rejection
    against hyperbolic area with weight e^{2 psi}, thinned by the bound
    ``model.weight_sup`` that model construction fixed.
    """
    if model.is_exact:
        z = sample_octagon_positions(n, rng)
    else:
        z = sample_octagon_positions(
            n, rng, weight=model.conformal_weight, weight_sup=model.weight_sup
        )
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return z, theta


def _step_count(model: FlowModel, T: float, h: float, name: str = "T") -> int:
    """Steps h making up T (the setting `name`), or the error a run would raise."""
    if abs(T) > model.horizon:
        raise HorizonError("|T| = %g exceeds the configured horizon %g"
                           % (abs(T), model.horizon))
    n_steps = int(round(T / h))
    if (n_steps < 0 or (T != 0 and n_steps == 0)
            or abs(n_steps * h - T) > 1e-9 * max(1.0, abs(T))):
        raise ConfigError("%s = %g is not a nonnegative multiple of the step %g"
                          % (name, T, h))
    return n_steps


def _check_lags(model: FlowModel, dt: float, k: int) -> None:
    """The error ``sample(dt, k)`` raises, if any."""
    if k < 1:
        raise ConfigError("sample needs at least one lag, got k = %r" % (k,))
    if abs(k * dt) > model.horizon:
        raise HorizonError("|k dt| = %g exceeds the configured horizon %g"
                           % (abs(k * dt), model.horizon))


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
            raise ValueError("observable needs u but none was supplied")
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

    def __init__(self, model: FlowModel, z, theta_h):
        if not model.is_exact:
            raise ConfigError("exact backend requires a constant-curvature model")
        self.model = model
        self.g = halfplane_to_matrix(z, theta_h)
        model.domain.reduce_matrices(self.g)

    @property
    def n(self) -> int:
        return len(self.g)

    def states(self):
        """(z, theta_h, u) of the current ensemble, reduced."""
        z = matrix_base_point(self.g)
        return z, matrix_angle_hp(self.g), np.ones(len(self.g))

    def advance(self, T: float) -> None:
        """``sample(T, 1)``'s check and jump by the signed time T, no states."""
        _check_lags(self.model, T, 1)
        self.g = self._jumped(np.array([T]))[0]

    def sample(self, dt: float, k: int):
        """States (z, theta_h, u), each (k, n), at dt, 2 dt, ..., k dt from
        now; the ensemble is left at k dt.  Each lag is one jump from the
        current matrices, and all k n jumps share one reduction call."""
        _check_lags(self.model, dt, k)
        g = self._jumped(dt * np.arange(1, k + 1))
        self.g = g[-1].copy()
        return matrix_base_point(g), matrix_angle_hp(g), np.ones(g.shape[:2])

    def _jumped(self, times):
        """The current matrices flowed by each of ``times``, reduced into the
        polygon and renormalised to unit determinant, shape (k, n, 2, 2)."""
        e = np.exp(0.5 * times)[:, None, None]
        g = np.empty(times.shape + self.g.shape)
        g[..., 0] = self.g[..., 0] * e
        g[..., 1] = self.g[..., 1] / e
        flat = g.reshape(-1, 2, 2)
        self.model.domain.reduce_matrices(flat)
        det = flat[:, 0, 0] * flat[:, 1, 1] - flat[:, 0, 1] * flat[:, 1, 0]
        flat /= np.sqrt(det)[:, None, None]
        return g

    def burn_in(self):
        """u = 1 is already the unstable solution; nothing to relax."""
        return self


class MidpointEnsemble:
    """Hamiltonian ensemble advanced by the implicit midpoint rule.

    Perturbed models only; one built with epsilon = 0 must agree with the
    exact backend, which the tests exploit.  State arrays: positions ``z``
    (complex), covectors ``xi`` (complex, xi_x + i xi_y), unstable rates
    ``u``.
    """

    n_iter = 4  # fixed-point iterations per step; fixed for reproducibility

    def __init__(self, model: FlowModel, z, theta_h):
        if model.is_exact:
            raise ConfigError("midpoint backend requires a perturbed model")
        self.model = model
        self.h = model.step
        self.z = np.array(z, dtype=complex)
        psi = model.psi(self.z)
        self.xi = (np.exp(psi) / self.z.imag) * np.exp(
            1j * np.asarray(theta_h, dtype=float)
        )
        self.u = np.ones(self.z.shape)

    @property
    def n(self) -> int:
        return len(self.z)

    def states(self):
        """(z, theta_h, u) of the current ensemble, reduced."""
        return self.z, np.angle(self.xi), self.u

    def _force(self, z, xi, curvature, centers):
        """Hamiltonian vector field at (z, xi), plus the Gauss curvature there
        when asked (None otherwise), for psi = epsilon * (shape over centers)."""
        e = self.model.epsilon
        val, gx, gy, lap = self.model.shape.pack(z, curvature, centers)
        y = z.imag
        e2 = np.exp(-2.0 * (e * val))
        s = (xi * np.conj(xi)).real
        vz = e2 * y * y * xi
        vxi = e2 * y * s * (y * (e * gx) + 1j * (y * (e * gy) - 1.0))
        curv = e2 * (-1.0 - e * lap) if curvature else None
        return vz, vxi, curv

    def step(self):
        """One implicit midpoint step; returns the midpoint (z, theta, u)."""
        h = self.h
        z0, xi0 = self.z, self.xi
        mz, mxi = z0, xi0
        # No iterate moves further than the step from the reduced start
        # point, so the sector lists looked up there serve every pass.
        centers = self.model.shape.sector_centers(z0)
        for i in range(self.n_iter):
            # The Riccati update reads the curvature of the last force
            # evaluation only.
            last = i == self.n_iter - 1
            vz, vxi, curv = self._force(mz, mxi, last, centers)
            mz = z0 + 0.5 * h * vz
            mxi = xi0 + 0.5 * h * vxi
        # Riccati du/dt = -K - u^2 by the same midpoint rule; the midpoint
        # value solves a quadratic, so no iteration is needed.
        a = 0.5 * h
        disc = 1.0 + 4.0 * a * (self.u - a * curv)
        umid = (np.sqrt(np.maximum(disc, 0.0)) - 1.0) / (2.0 * a)
        u = 2.0 * umid - self.u
        if not np.all(np.abs(u) <= _RICCATI_CAP):  # NaN fails too
            raise RiccatiBlowupError(
                "unstable rate left [-%g, %g]; the model is not safely "
                "hyperbolic at this step size" % (_RICCATI_CAP, _RICCATI_CAP)
            )
        z, xi, rounds = self.model.domain.reduce_points(2.0 * mz - z0,
                                                        2.0 * mxi - xi0)
        if rounds >= 16:
            raise StepSizeError(
                "a single integration step left the reachable neighbourhood "
                "of the fundamental polygon; reduce the step size"
            )
        # a refused step leaves the ensemble as it was
        self.z, self.xi, self.u = z, xi, u
        return mz, np.angle(mxi), umid

    def advance(self, T: float, observables: Sequence[ObservableSpec] = ()):
        """Advance by T, integrating observables at the scheme's midpoints.

        Returns an array (len(observables), n) of integrals over this advance.
        """
        n_steps = _step_count(self.model, T, self.h)
        totals = np.zeros((len(observables), self.n))
        for _ in range(n_steps):
            mz, mth, mu = self.step()
            for i, spec in enumerate(observables):
                totals[i] += evaluate_observable(self.model, spec, mz, mth, mu)
        return totals * self.h

    def sample(self, dt: float, k: int):
        """States (z, theta_h, u), each (k, n), after each of k advances by
        dt; the same bits as k calls of ``advance`` and ``states``."""
        _check_lags(self.model, dt, k)
        rows = []
        for _ in range(k):
            self.advance(dt)
            rows.append(self.states())
        z, th, u = zip(*rows)
        return np.stack(z), np.stack(th), np.stack(u)

    def burn_in(self):
        """Relax the Riccati variable onto the unstable solution.

        Shifts the ensemble forward by the burn-in time; by invariance of the
        sampling measure the shifted ensemble is an equally valid sample.
        """
        self.advance(self.model.riccati_burn)
        return self


def make_ensemble(model: FlowModel, z, theta_h):
    """The backend for the model kind, seeded at (z, theta)."""
    return (ExactEnsemble if model.is_exact else MidpointEnsemble)(model, z, theta_h)


def dual_seeds(model: FlowModel, n_random: int, rng, word_length: int = 6,
               max_closed: int = 128) -> Tuple[np.ndarray, np.ndarray]:
    """Volume-random seeds plus points on short closed orbits.

    Closed-orbit seeds are axis points of group elements up to the given
    word length (distinct traces only); ``max_closed = 0`` skips the word
    enumeration.  For perturbed metrics the same points are used; they are
    no longer exactly periodic there, but they still probe the recurrent set
    that extremises Birkhoff averages.
    """
    if word_length < 1:
        raise ConfigError("word_length must be at least 1, got %r" % (word_length,))
    if max_closed < 0:
        raise ConfigError("max_closed must be nonnegative, got %r" % (max_closed,))
    z_r, th_r = sample_liouville(model, n_random, rng)
    if max_closed == 0:
        return z_r, th_r
    mats, _ = closed_geodesic_elements(model.generators, word_length,
                                       limit=max_closed)
    g = axis_seed(mats)[0]
    model.domain.reduce_matrices(g)
    return (np.concatenate([z_r, matrix_base_point(g)]),
            np.concatenate([th_r, matrix_angle_hp(g)]))


@dataclass(frozen=True)
class AnosovReport:
    """What ``verify_anosov`` measured; ``passed`` needs every check to hold."""
    lambda_forward: float
    lambda_backward: float
    lambda_min: float
    riccati_low: float
    riccati_high: float
    riccati_bounds: Tuple[float, float]
    energy_error: float
    energy_bound: float
    n_samples: int
    t_check: float

    @property
    def passed(self) -> bool:
        lo, hi = self.riccati_bounds
        return (self.lambda_min > 0.0
                and lo - 1e-6 <= self.riccati_low
                and self.riccati_high <= hi + 1e-6
                and self.energy_error <= self.energy_bound)


def verify_anosov(model: FlowModel, n_samples: int = 200, t_check: float = 60.0,
                  seed: int = 0, word_length: int = 6) -> AnosovReport:
    """Measure uniform expansion along and against the flow.

    The expansion bound is the worst forward average of the unstable rate u
    over a dual ensemble (volume-random plus short closed orbits); the
    backward bound repeats this for the reversed flow.  Riccati values after
    burn-in must lie in [sqrt(-K_max), sqrt(-K_min)], the invariant window
    of du/dt = -K - u^2 for pinched negative curvature, and the energy of
    the final states must have drifted by at most ENERGY_DRIFT step^2.

    At constant curvature K = -1 the unstable solution is u = 1 on every
    orbit and the exact flow keeps H = 1/2, so the rates, Riccati extremes
    and energy error are closed forms; the seeds are still drawn, and
    t_check still validated, exactly as for a run.
    """
    if not t_check > 0:
        raise ConfigError("verify_time must be positive, got %r" % (t_check,))
    if n_samples < 0:
        raise ConfigError("verify_samples must be nonnegative, got %r" % (n_samples,))
    _step_count(model, t_check, model.step, "verify_time")
    rng = np.random.default_rng(seed)
    z, th = dual_seeds(model, n_samples, rng, word_length=word_length)
    k_min, k_max = model.curvature_range
    bounds = (float(np.sqrt(-k_max)), float(np.sqrt(-k_min)))

    if model.is_exact:
        rates, extremes, energy_error = [1.0, 1.0], [(1.0, 1.0)], 0.0
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
        y, s = ens.z.imag, (ens.xi * np.conj(ens.xi)).real
        energy = 0.5 * np.exp(-2.0 * model.psi(ens.z)) * y * y * s
        energy_error = float(np.max(np.abs(energy - 0.5)))

    return AnosovReport(
        lambda_forward=rates[0],
        lambda_backward=rates[1],
        lambda_min=min(rates),
        riccati_low=min(e[0] for e in extremes),
        riccati_high=max(e[1] for e in extremes),
        riccati_bounds=bounds,
        energy_error=energy_error,
        energy_bound=ENERGY_DRIFT * model.step ** 2,
        n_samples=len(z),
        t_check=t_check,
    )


def liouville_ks(model: FlowModel, n: int = 15000, t: float = 7.0, seed: int = 3):
    """Kolmogorov-Smirnov distances testing invariance of the volume.

    Constant curvature only: flows an exact-volume sample and compares the
    pushforward against the exact marginals (conditional radial quantile,
    fibre angle, angular position).
    """
    if not model.is_exact:
        raise ConfigError("the volume test has exact marginals only at epsilon 0")
    if n < 1:
        raise ConfigError("ks_samples must be at least 1, got %r" % (n,))
    rng = np.random.default_rng(seed)
    z, th = sample_liouville(model, n, rng)
    ens = make_ensemble(model, z, th)
    ens.advance(t)
    z, th, _ = ens.states()
    w, th_d = to_disk(z), halfplane_to_disk_angle(z, th)
    phi_grid, cdf = octagon_angle_cdf()
    return {
        "radial": _ks_uniform(radial_quantile(w)),
        "fibre_angle": _ks_uniform(th_d / (2.0 * np.pi)),
        "position_angle": _ks_uniform(
            np.interp(np.mod(np.angle(w), 2.0 * np.pi), phi_grid, cdf)),
    }


def _ks_uniform(x) -> float:
    """Kolmogorov-Smirnov distance of a sample from Uniform(0, 1): the larger
    of max(i/n - F(x_(i))) and max(F(x_(i)) - (i-1)/n) over the sorted
    sample, with F the uniform CDF (scipy.stats.kstest's arithmetic)."""
    f = np.clip(np.sort(x), 0.0, 1.0)
    n = len(f)
    return float(max(np.max(np.arange(1.0, n + 1) / n - f),
                     np.max(f - np.arange(0.0, n) / n)))
