"""Dynamical correlation functions by time-averaged Liouville Monte Carlo.

C_{u,v}(t) = int_M u (v o phi_{-t}) dx.  The volume is flow-invariant, so
C(t_m) = Vol(M) E[u(phi_{s + t_m} p) v(phi_s p)] for every shift s, and
every point of one forward orbit serves as a start point.  N Liouville
seeds p_k start N independent orbits sampled on the grid j dt, j < L; for
each lag m the orbit's mean over the start points i <= L - n_lags comes
from one zero-padded real FFT cross-correlation, and the standard error is
the batch-means error across the N orbits (Flyvbjerg and Petersen, J. Chem.
Phys. 91, 461 (1989)).  The orbits only run forwards, after a burn-in when
u or v needs the expansion rate, so a perturbed model's cocycle is never
integrated backwards.

Each orbit is sampled LAGS_PER_REDUCTION grid points per ``sample`` call.
At constant curvature every point of such a batch is one exact jump from
the batch's reduced start, and the whole batch is reduced into the polygon
in one call; the midpoint backend steps through the batch point by point.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .birkhoff import space_average
from .errors import ConfigError, HorizonError
from .flow import _step_count, evaluate_observable, make_ensemble, sample_liouville
from .model import FlowModel, ObservableSpec


@dataclass(frozen=True)
class CorrelationSeries:
    """Sampled correlation values on the grid t_m = m dt."""

    dt: float
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int = 0
    volume: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=float))
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ConfigError("a correlation series needs at least two points")
        if self.stderr.shape != self.values.shape:
            raise ConfigError("stderr must match values in shape")

    def __len__(self):
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.values))


def mean_zero(model: FlowModel, spec: ObservableSpec) -> ObservableSpec:
    """The spec shifted to volume average zero: ``mean_zero_all`` of one."""
    return mean_zero_all(model, [spec])[0]


def mean_zero_all(model: FlowModel, specs) -> list:
    """Each spec with c_const shifted by its volume average, bit for bit
    ``birkhoff.space_average``'s at its default seed, so each average vanishes
    up to that estimate's error.  That average adds the u term, c_u_half/2
    times <u>, last, so one <u> (an orbit ensemble if perturbed) serves all."""
    rate = None
    out = []
    for spec in specs:
        m, _ = space_average(model, dataclasses.replace(spec, c_u_half=0.0))
        if spec.needs_u:
            if rate is None:
                rate, _ = space_average(model, ObservableSpec(c_u_half=2.0))
            m += 0.5 * spec.c_u_half * rate
        out.append(dataclasses.replace(spec, c_const=spec.c_const - m))
    return out


# Grid points per ``sample`` call (module docstring); 4 ran faster than 6 or 8.
LAGS_PER_REDUCTION = 4
# Orbit grid points held at once; the orbits stream in blocks of this size.
POINTS_HELD = 1_000_000


def orbit_plan(n_lags: int, n_samples: int) -> Tuple[int, int, int]:
    """(n_orbits, stride s, orbit length L): each orbit counts 20 start points
    s = ceil(n_lags / 20) grid steps apart, and the points between them too."""
    stride = -(-n_lags // 20)
    return max(2, -(-n_samples // 20)), stride, n_lags + 19 * stride


def correlation_series(model: FlowModel, u: ObservableSpec, v: ObservableSpec,
                       dt: float = 0.05, n_lags: int = 4000,
                       n_samples: int = 100000,
                       seed: int = 23) -> CorrelationSeries:
    """Monte Carlo estimate of C_{u,v} on the lag grid m dt, m < n_lags.

    ``n_samples`` counts Liouville start points per lag, 20 to an orbit (see
    ``orbit_plan``).
    """
    if n_lags < 2:
        raise ConfigError("n_lags must be at least 2")
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    if not dt > 0:
        raise ConfigError("dt must be positive")
    n_orbits, _, length = orbit_plan(n_lags, n_samples)
    if dt * (length - 1) > model.horizon:
        raise HorizonError(
            "lag grid spans %g time units and its orbits %g, beyond the horizon "
            "%g" % (dt * (n_lags - 1), dt * (length - 1), model.horizon))
    if not model.is_exact:
        _step_count(model, dt, model.step, "dt")
    vol = 2.0 * np.pi * model.area
    z, th = sample_liouville(model, n_orbits, np.random.default_rng(seed))
    chunk = max(2, POINTS_HELD // length)
    # lag means shifted by the first orbit's keep the variance's digits; FFTs
    # over 64 kB of samples at a time keep their temporaries off the peak RSS
    group = max(1, 8_192 // length)
    s1 = s2 = ref = None
    for lo in range(0, n_orbits, chunk):
        ens = make_ensemble(model, z[lo:lo + chunk], th[lo:lo + chunk])
        if u.needs_u or v.needs_u:
            ens.burn_in()
        a = np.empty((length, ens.n))
        b = a if u == v else np.empty_like(a)
        # grid point 0, then blocks of LAGS_PER_REDUCTION grid points
        edges = [0, *range(1, length, LAGS_PER_REDUCTION), length]
        for lo, hi in zip(edges, edges[1:]):
            states = ens.sample(dt, hi - lo) if lo else ens.states()
            a[lo:hi] = evaluate_observable(model, u, *states)
            if b is not a:
                b[lo:hi] = evaluate_observable(model, v, *states)
        for k in range(0, ens.n, group):
            means = _lag_means(a[:, k:k + group], b[:, k:k + group], n_lags)
            if ref is None:
                ref, s1, s2 = means[:, :1], 0.0, 0.0
            s1 = s1 + (means - ref).sum(axis=1)
            s2 = s2 + np.square(means - ref).sum(axis=1)

    mean = s1 / n_orbits
    var = np.maximum(s2 / n_orbits - mean ** 2, 0.0)
    return CorrelationSeries(dt=dt, values=vol * (ref[:, 0] + mean),
                             stderr=vol * np.sqrt(var / (n_orbits - 1)),
                             n_samples=n_samples, volume=vol)


def _lag_means(a: np.ndarray, b: np.ndarray, n_lags: int) -> np.ndarray:
    """Per-orbit (column) means of a[i + m] b[i] over i <= L - n_lags, for
    m < n_lags; b cut to those start points and zero-padded back to L keeps
    the circular cross-correlation of length L from wrapping."""
    n_starts = len(a) - n_lags + 1
    fa = np.fft.rfft(a, axis=0)
    fb = np.fft.rfft(b[:n_starts], n=len(a), axis=0)
    return np.fft.irfft(fa * np.conj(fb), n=len(a), axis=0)[:n_lags] / n_starts
