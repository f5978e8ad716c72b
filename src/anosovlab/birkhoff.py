"""Band edges as extremal time averages of damping minus expansion.

The k-th band edges are the limits of the extremes over phase space of

    M_k(x, T) = (1/T) * ( int_0^T D - k * int_0^T u ),

with D = V - u/2 the damping function and u the unstable expansion rate;
for surfaces the minimal and maximal unstable norms coincide, so one scalar
integrand covers both edges.  The extremes are sampled over a dual ensemble
(volume-random seeds plus short closed orbits, which realise Birkhoff
extremes well in hyperbolic systems), the averages are taken over an
increasing ladder of windows, and the T -> infinity limit is read off a
least-squares fit of a + b/T, the leading finite-time correction for Hoelder
observables.  The spread between the two largest windows is reported as the
extrapolation error and results are flagged, not rejected, when it exceeds
EXTRAPOLATION_TOL.

Averages of the past orbit, as in (1/t) int_0^t f(phi_{-s} x) ds, equal
forward averages started from the shifted point phi_{-t}(x); ensemble
extremes are therefore sampled forward only.

``space_average`` is the one volume average <f>_M: the <D> of the line the
first band concentrates on, and the mean-zero shift of correlation runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import AnosovLabError, ConfigError
from .flow import (MAX_CLOSED, WORD_LENGTH, check_word_seeding, dual_seeds,
                   evaluate_observable, make_ensemble, sample_liouville)
from .model import FlowModel, ObservableSpec, PotentialSpec, damping_observable
from .surface import octagon_area

_U_OBSERVABLE = ObservableSpec(c_u_half=2.0)  # integrand u itself
# Largest extrapolation error at which BandEdges.converged holds.
EXTRAPOLATION_TOL = 1e-3


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample orbit ensembles for extremal averages.

    The seeding fields are checked when the plan is built, whatever the seed
    rule; the windows, which depend on the model, by ``validate``.  No plan
    sets the edges' convergence flag: it reads EXTRAPOLATION_TOL.
    """

    n_orbits: int = 10000
    seed_rule: str = "both"  # liouville | words | both
    windows: Tuple[float, ...] = (50.0, 100.0, 200.0)
    word_length: int = WORD_LENGTH
    max_closed: int = MAX_CLOSED
    seed: int = 7

    def __post_init__(self):
        if self.n_orbits < 1:
            raise ConfigError("n_orbits must be at least 1")
        if self.seed_rule not in ("liouville", "words", "both"):
            raise ConfigError("seed_rule must be liouville, words, or both")
        check_word_seeding(self.word_length, self.max_closed)

    def validate(self, model: FlowModel) -> None:
        if len(self.windows) < 2 or any(
            b <= a for a, b in zip(self.windows, self.windows[1:])
        ):
            raise ConfigError("windows must be at least two increasing times")
        if self.windows[0] <= model.riccati_burn:
            raise ConfigError("the first window must exceed the burn-in time")
        if self.windows[-1] > model.horizon:
            raise ConfigError("the last window exceeds the model horizon")


@dataclass(frozen=True)
class BandEdges:
    k: int
    gamma_minus: float
    gamma_plus: float
    horizon: float
    n_orbits: int
    extrapolation_error: float
    converged: bool = True
    # per-seeding-source extrapolated extremes (nan when a source is absent)
    gamma_plus_random: float = float("nan")
    gamma_plus_words: float = float("nan")
    gamma_minus_random: float = float("nan")
    gamma_minus_words: float = float("nan")

    def __post_init__(self):
        if self.gamma_minus > self.gamma_plus + 1e-9:
            raise AnosovLabError(
                "band %d edges are inverted: %.6g > %.6g"
                % (self.k, self.gamma_minus, self.gamma_plus)
            )


@dataclass(frozen=True)
class WindowAverages:
    """Finite-time averages of D and u per window and orbit."""

    windows: Tuple[float, ...]
    avg_damping: np.ndarray  # (n_windows, n_orbits)
    avg_u: np.ndarray        # (n_windows, n_orbits)
    n_random: int            # orbits [0, n_random) are volume seeds, rest words

    def combined(self, k: int) -> np.ndarray:
        return self.avg_damping - k * self.avg_u


def window_averages(model: FlowModel, potential: PotentialSpec,
                    plan: SamplingPlan) -> WindowAverages:
    """One ensemble pass yielding per-window averages of D and of u.

    All band indices share this pass: the k dependence is the linear
    combination avg_D - k avg_u, formed afterwards.  At constant curvature
    u = 1 and D is constant along every orbit, so each window average is the
    value of D at the seed and no orbit is run; the seeds are still drawn,
    because the orbit count and the per-source columns depend on them.
    """
    plan.validate(model)
    rng = np.random.default_rng(plan.seed)
    n_random = 0 if plan.seed_rule == "words" else plan.n_orbits
    max_closed = 0 if plan.seed_rule == "liouville" else plan.max_closed
    z, th = dual_seeds(model, n_random, rng, plan.word_length, max_closed)
    damp = damping_observable(model, potential)
    shape = (len(plan.windows), len(z))

    if model.is_exact:
        d = evaluate_observable(model, damp, z, u=np.ones(len(z)))
        avg_d, avg_u = np.tile(d, (len(plan.windows), 1)), np.ones(shape)
    else:
        ens = make_ensemble(model, z, th).burn_in()
        t_prev = 0.0
        acc = np.zeros((2, len(z)))
        avg_d, avg_u = np.empty(shape), np.empty(shape)
        for i, T in enumerate(plan.windows):
            acc += ens.advance(T - t_prev, observables=[damp, _U_OBSERVABLE])
            t_prev = T
            avg_d[i], avg_u[i] = acc / T
    return WindowAverages(
        windows=tuple(plan.windows),
        avg_damping=avg_d,
        avg_u=avg_u,
        n_random=n_random,
    )


def _fit_limit(windows, values) -> float:
    """Intercept of the least-squares fit values ~ a + b/T."""
    vals = np.asarray(values, dtype=float)
    if np.ptp(vals) == 0.0:
        # already converged; polyfit would add last-bit noise
        return float(vals[0])
    x = 1.0 / np.asarray(windows, dtype=float)
    coeffs = np.polynomial.polynomial.polyfit(x, vals, 1)
    return float(coeffs[0])


def _edges_from_averages(avgs: WindowAverages, k: int,
                         plan: SamplingPlan) -> BandEdges:
    m = avgs.combined(k)
    n = m.shape[1]
    plus_all = m.max(axis=1)
    minus_all = m.min(axis=1)

    def source_fit(sl, extreme):
        block = m[:, sl]
        if block.shape[1] == 0:
            return float("nan")
        vals = block.max(axis=1) if extreme == "max" else block.min(axis=1)
        return _fit_limit(avgs.windows, vals)

    p_rand = source_fit(slice(0, avgs.n_random), "max")
    p_word = source_fit(slice(avgs.n_random, n), "max")
    m_rand = source_fit(slice(0, avgs.n_random), "min")
    m_word = source_fit(slice(avgs.n_random, n), "min")
    gamma_plus = np.nanmax([p_rand, p_word])
    gamma_minus = np.nanmin([m_rand, m_word])
    err = max(abs(plus_all[-1] - plus_all[-2]), abs(minus_all[-1] - minus_all[-2]))
    return BandEdges(
        k=k,
        gamma_minus=float(gamma_minus),
        gamma_plus=float(gamma_plus),
        horizon=float(avgs.windows[-1]),
        n_orbits=n,
        extrapolation_error=float(err),
        converged=bool(err <= EXTRAPOLATION_TOL),
        gamma_plus_random=p_rand,
        gamma_plus_words=p_word,
        gamma_minus_random=m_rand,
        gamma_minus_words=m_word,
    )


def band_edges_upto(model: FlowModel, potential: PotentialSpec, k_max: int = 0,
                    plan: Optional[SamplingPlan] = None) -> list:
    """Edges for k = 0..k_max from a single ensemble pass.

    Asserts the strict band ordering gamma^{+/-}(k+1) < gamma^{+/-}(k),
    which holds because u > 0.
    """
    if k_max < 0:
        raise ConfigError("band index must be nonnegative, got %d" % k_max)
    plan = plan or SamplingPlan()
    avgs = window_averages(model, potential, plan)
    out = [_edges_from_averages(avgs, k, plan) for k in range(k_max + 1)]
    for a, b in zip(out, out[1:]):
        if not (b.gamma_plus < a.gamma_plus + 1e-9
                and b.gamma_minus < a.gamma_minus + 1e-9):
            raise AnosovLabError(
                "band ordering violated between k=%d and k=%d" % (a.k, b.k)
            )
    return out


# Volume averages: Gauss-Legendre nodes per sector axis for the position
# terms; Liouville orbits and the time each is averaged over for the
# expansion-rate term on a perturbed model.
MEAN_QUAD_NODES = 96
MEAN_ORBITS = 256
MEAN_TIME = 20.0


def space_average(model: FlowModel, f: ObservableSpec,
                  seed: int = 17) -> Tuple[float, float]:
    """Volume average <f>_M of an observable; returns (mean, stderr).

    The shape and bump terms are integrated by one Gauss-Legendre quadrature
    of the conformal weight times their sum over the polygon.  The u term is
    the closed form u = 1 at constant curvature.  On a perturbed model it is
    the mean, with its standard error, over MEAN_ORBITS burned-in Liouville
    orbits (drawn from ``seed``) of their time averages over MEAN_TIME,
    rounded to whole steps: the volume is invariant, so each time average is
    an unbiased estimate of <u>.  A horizon shorter than that time raises
    HorizonError.  The stderr is 0 for every other term.
    """
    mean, err = f.c_const, 0.0
    if f.c_shape != 0.0 or f.c_bump != 0.0:
        spatial = ObservableSpec(c_shape=f.c_shape, c_bump=f.c_bump,
                                 bump_center=f.bump_center,
                                 bump_sigma=f.bump_sigma)
        num = octagon_area(
            lambda z: model.conformal_weight(z)
            * evaluate_observable(model, spatial, z),
            n_ang=MEAN_QUAD_NODES, n_rad=MEAN_QUAD_NODES,
        )
        mean += num / model.area
    if f.c_u_half != 0.0 and model.is_exact:
        mean += 0.5 * f.c_u_half
    elif f.c_u_half != 0.0:
        T = model.step * round(MEAN_TIME / model.step)
        z, th = sample_liouville(model, MEAN_ORBITS, np.random.default_rng(seed))
        avg = make_ensemble(model, z, th).burn_in().advance(
            T, [_U_OBSERVABLE])[0] / T
        mean += 0.5 * f.c_u_half * float(avg.mean())
        err = 0.5 * abs(f.c_u_half) * float(avg.std(ddof=1)) / np.sqrt(MEAN_ORBITS)
    return float(mean), float(err)
