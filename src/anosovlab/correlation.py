"""Dynamical correlation functions by Liouville Monte Carlo.

C_{u,v}(t) = int_M u (v o phi_{-t}) dx is estimated as

    C(t_m) ~= (Vol(M)/n) sum_i u(p_i) v(phi_{-t_m} p_i),

with p_i sampled from the invariant probability measure.  Because the
measure is flow-invariant, the whole lag grid reuses one trajectory per
sample: the backward orbit of p_i visits exactly the points phi_{-t_m} p_i,
so the estimator streams over backward grid steps with O(1) memory per lag.
When v involves the expansion rate on a perturbed model (whose cocycle must
never be integrated backwards) the orbit is instead run forwards from a
burn-in and u is read off at the far end.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, HorizonError
from .flow import _shape, evaluate_observable, make_ensemble, sample_liouville
from .model import FlowModel, ObservableSpec


@dataclass(frozen=True)
class CorrelationSeries:
    """Sampled correlation values on the grid t_m = m dt."""

    dt: float
    values: np.ndarray
    stderr: np.ndarray
    u: Optional[ObservableSpec] = None
    v: Optional[ObservableSpec] = None
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

    @classmethod
    def from_values(cls, dt: float, values, stderr=None) -> "CorrelationSeries":
        values = np.asarray(values, dtype=float)
        if stderr is None:
            stderr = np.zeros_like(values)
        return cls(dt=dt, values=values, stderr=stderr)


def observable_mean(model: FlowModel, spec: ObservableSpec,
                    n_mc: int = 200000, seed: int = 17,
                    n_quad: int = 96) -> Tuple[float, float]:
    """Volume average of an observable; returns (mean, stderr).

    Position-dependent terms are integrated by quadrature over the polygon
    (fibre angle integrates out: the harmonics vanish, the rest is constant
    on fibres), which leaves Monte Carlo only for the expansion-rate term on
    perturbed models.
    """
    from .birkhoff import space_average
    from .surface import octagon_area

    mean = spec.c_const
    err = 0.0
    area = model.area
    if spec.c_shape != 0.0:
        num = octagon_area(
            lambda z: model.conformal_weight(z) * _shape(model).value(z),
            n_ang=n_quad, n_rad=n_quad,
        )
        mean += spec.c_shape * num / area
    if spec.c_bump != 0.0:
        bump_only = ObservableSpec(c_bump=spec.c_bump,
                                   bump_center=spec.bump_center,
                                   bump_sigma=spec.bump_sigma)
        num = octagon_area(
            lambda z: model.conformal_weight(z)
            * evaluate_observable(model, bump_only, z),
            n_ang=n_quad, n_rad=n_quad,
        )
        mean += num / area
    if spec.c_u_half != 0.0:
        if model.is_exact:
            mean += 0.5 * spec.c_u_half
        else:
            u_mean, u_err = space_average(
                model, ObservableSpec(c_u_half=1.0), n_mc, seed=seed
            )
            mean += spec.c_u_half * u_mean
            err = abs(spec.c_u_half) * u_err
    return float(mean), float(err)


def mean_zero(model: FlowModel, spec: ObservableSpec, **kwargs) -> ObservableSpec:
    """Shift c_const so the volume average vanishes."""
    m, _ = observable_mean(model, spec, **kwargs)
    return dataclasses.replace(spec, c_const=spec.c_const - m)


def _chunk_size(n_lags: int) -> int:
    return max(1, int(8_000_000 // max(n_lags, 1)))


def correlation_series(model: FlowModel, u: ObservableSpec, v: ObservableSpec,
                       dt: float = 0.05, n_lags: int = 4000,
                       n_samples: int = 100000, seed: int = 23,
                       chunk: Optional[int] = None) -> CorrelationSeries:
    """Monte Carlo estimate of C_{u,v} on the lag grid m dt, m < n_lags.

    One trajectory per sample covers every lag; per-lag standard errors come
    from the running first and second moments across samples.
    """
    if n_lags < 2:
        raise ConfigError("n_lags must be at least 2")
    if n_samples < 1:
        raise ConfigError("n_samples must be at least 1")
    if not dt > 0:
        raise ConfigError("dt must be positive")
    span = dt * (n_lags - 1)
    if span > model.horizon:
        raise HorizonError(
            "lag grid spans %.3g time units, beyond the horizon %.3g"
            % (span, model.horizon)
        )
    if not model.is_exact:
        n_sub = round(dt / model.step)
        if n_sub < 1 or abs(n_sub * model.step - dt) > 1e-9:
            raise ConfigError("dt must be a positive multiple of the model step")
    vol = 2.0 * np.pi * model.area
    rng = np.random.default_rng(seed)
    chunk = int(chunk or _chunk_size(n_lags))
    s1 = np.zeros(n_lags)
    s2 = np.zeros(n_lags)
    backward_ok = model.is_exact or not (u.needs_u or v.needs_u)

    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        z, th = sample_liouville(model, m, rng)
        if backward_ok:
            _accumulate_backward(model, u, v, z, th, dt, n_lags, s1, s2)
        else:
            _accumulate_forward(model, u, v, z, th, dt, n_lags, s1, s2)
        done += m

    mean = s1 / n_samples
    var = np.maximum(s2 / n_samples - mean ** 2, 0.0)
    stderr = np.sqrt(var / max(n_samples - 1, 1))
    return CorrelationSeries(
        dt=dt,
        values=vol * mean,
        stderr=vol * stderr,
        u=u,
        v=v,
        n_samples=n_samples,
        volume=vol,
    )


def _accumulate_backward(model, u, v, z, th, dt, n_lags, s1, s2) -> None:
    """Stream lags along the backward orbit of each sample point."""
    ens = make_ensemble(model, z, th, reverse=True)
    u0 = evaluate_observable(model, u, *ens.states())
    for lag in range(n_lags):
        if lag > 0:
            ens.advance(-dt)
        w = u0 * evaluate_observable(model, v, *ens.states())
        s1[lag] += w.sum()
        s2[lag] += np.square(w).sum()


def _accumulate_forward(model, u, v, z, th, dt, n_lags, s1, s2) -> None:
    """Forward route storing v along the orbit; needed when v uses u."""
    ens = make_ensemble(model, z, th).burn_in()
    vals = np.empty((n_lags, len(z)))
    for j in range(n_lags):
        if j > 0:
            ens.advance(dt)
        zz, tth, uval = ens.states()
        vals[j] = evaluate_observable(model, v, zz, tth, uval)
    u_end = evaluate_observable(model, u, zz, tth, uval)
    for lag in range(n_lags):
        w = u_end * vals[n_lags - 1 - lag]
        s1[lag] += w.sum()
        s2[lag] += np.square(w).sum()
