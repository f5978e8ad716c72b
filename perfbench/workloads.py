"""The three benchmark workloads and the checks on their outputs.

Each workload has three parts:

* ``setup()``: what a user pays before any work, timed into ``setup_s``
  (model construction, plus the ``mean_zero`` quadrature where used).
* ``run()``: one solution of the pipeline, timed into ``wall_s``.
* ``evaluate(out)``: the result error and the output checks, outside the
  timed region.  Every check compares against a reference that does not
  come from the estimator or integrator under test.

The workload seed reaches the program only through its public seed
parameters: ``correlation_series(seed=)``, ``verify_anosov(seed=)``,
``SamplingPlan.seed`` and the CLI's ``--seed``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil

import numpy as np

import anosovlab as al

HERE = os.path.dirname(os.path.abspath(__file__))

# -- checks (pure functions, so tests can feed them wrong references) ------------


def c0_matches(c0: float, stderr0: float, reference: float,
               n_sigma: float = 5.0) -> bool:
    """C(0) within n_sigma standard errors of its quadrature value."""
    return bool(abs(c0 - reference) <= n_sigma * stderr0)


def all_finite(*arrays) -> bool:
    return bool(all(np.all(np.isfinite(a)) for a in arrays))


def conjugation_closed(z, tol: float = 1e-9) -> bool:
    """Every complex rate has its conjugate in the set."""
    z = np.asarray(z, dtype=complex)
    if len(z) == 0:
        return True
    defect = np.abs(np.conj(z)[:, None] - z[None, :]).min(axis=1).max()
    return bool(defect <= tol * max(1.0, float(np.abs(z).max())))


def expansion_slack(gamma0_plus: float, lambda_min: float) -> float:
    """Criterion-3 slack gamma_0^+ + lambda/2; the flow passes at <= 1e-3."""
    return gamma0_plus + 0.5 * lambda_min


def edge_errors(rows, k_max: int = 3) -> list:
    """|gamma^{+/-}_k + 1/2 + k| per band, from band-edge CSV rows.

    Raises KeyError when a band k <= k_max is missing.
    """
    by_k = {int(r["k"]): r for r in rows}
    return [max(abs(float(by_k[k]["gamma_minus"]) + 0.5 + k),
                abs(float(by_k[k]["gamma_plus"]) + 0.5 + k))
            for k in range(k_max + 1)]


def tree_digest(path) -> str:
    """sha256 over the names and bytes of every file under a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# -- workloads ---------------------------------------------------------------------


class CorrExact:
    """Criterion 7 scaled down: correlation stream plus harmonic inversion."""

    check_names = ("c0_vs_quadrature", "finite", "modes_conjugation_closed")
    n_samples = 16000
    n_lags = 500
    dt = 0.2

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self) -> None:
        self.model = al.build_model(model="constant_curvature")
        self.u = al.mean_zero(self.model,
                              al.ObservableSpec(c_bump=1.0, bump_sigma=0.6))

    def prepare(self) -> None:
        # C(0) = vol * E[u^2] = 2 pi * (area integral of u^2), by quadrature.
        from anosovlab.flow import evaluate_observable
        from anosovlab.surface import octagon_area

        self.c0_reference = 2.0 * np.pi * octagon_area(
            lambda z: evaluate_observable(self.model, self.u, z) ** 2,
            n_ang=96, n_rad=96)

    def run(self):
        series = al.correlation_series(self.model, self.u, self.u, dt=self.dt,
                                       n_lags=self.n_lags,
                                       n_samples=self.n_samples, seed=self.seed)
        modes = al.harmonic_inversion(series, max_modes=4, sv_threshold=1e-3)
        return series, modes

    def evaluate(self, out):
        series, modes = out
        checks = {
            "c0_vs_quadrature": c0_matches(series.values[0], series.stderr[0],
                                           self.c0_reference),
            "finite": all_finite(series.values, series.stderr, modes.z,
                                 modes.amplitude),
            "modes_conjugation_closed": conjugation_closed(modes.z),
        }
        error = float(np.median(series.stderr))
        detail = {"c0": float(series.values[0]),
                  "c0_stderr": float(series.stderr[0]),
                  "c0_reference": self.c0_reference,
                  "modes": [[float(z.real), float(z.imag)] for z in modes.z]}
        return error, checks, detail


class PerturbedEdges:
    """Criterion 3, perturbed half: certified Anosov, then edges up to k = 3."""

    check_names = ("verify_anosov_passed", "criterion3_slack")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self) -> None:
        self.model = al.build_model(model="conformal_perturbation",
                                    epsilon=0.05, step=0.005,
                                    riccati_burn=20.0, horizon=60.0)

    def prepare(self) -> None:
        self.plan = al.SamplingPlan(n_orbits=8, seed_rule="both",
                                    windows=(22.0, 25.0), word_length=4,
                                    max_closed=24, seed=self.seed)

    def run(self):
        report = al.verify_anosov(self.model, n_samples=4, t_check=3.0,
                                  seed=self.seed, word_length=4)
        edges = al.band_edges_upto(self.model, al.PotentialSpec(), 3, self.plan)
        return report, edges

    def evaluate(self, out):
        report, edges = out
        slack = expansion_slack(edges[0].gamma_plus, report.lambda_min)
        checks = {
            "verify_anosov_passed": bool(report.passed),
            "criterion3_slack": bool(slack <= 1e-3),
        }
        error = max(e.extrapolation_error for e in edges)
        detail = {"lambda_min": report.lambda_min, "slack": slack,
                  "edges": [[e.gamma_minus, e.gamma_plus] for e in edges]}
        return error, checks, detail


class Fig2Exact:
    """The reproduce-fig2 CLI chain on the constant-curvature model."""

    check_names = ("main_returned_0", "edges_on_closed_form",
                   "artifacts_repeat_bytes")
    config = os.path.join(HERE, "fig2.cfg")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = os.path.join(out_dir, "fig2-%d" % seed)
        self.first_digest = None

    def setup(self) -> None:
        import scipy.stats  # noqa: F401  (imported lazily by liouville_ks)
        from anosovlab import cli
        from anosovlab.config import MODEL_KEYS, parse_config, subset

        self.cli = cli
        al.build_model(subset(parse_config(self.config), MODEL_KEYS))

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        return self.cli.main(["reproduce-fig2", "--config", self.config,
                              "--seed", str(self.seed), "--out", self.out,
                              "--quiet"])

    def evaluate(self, rc):
        if rc != 0:
            return None, dict.fromkeys(self.check_names, False), {}
        checks = {"main_returned_0": True}
        with open(os.path.join(self.out, "band_edges.csv"), newline="") as fh:
            edge_err = max(edge_errors(list(csv.DictReader(fh))))
        checks["edges_on_closed_form"] = edge_err <= 1e-3
        digest = tree_digest(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            checks["artifacts_repeat_bytes"] = digest == self.first_digest
        lam = _read_json(os.path.join(self.out, "verify.json"))["lambda_min"]
        slope = _read_json(os.path.join(self.out, "weyl.csv.meta.json"))["slope"]
        # The edges alone read exactly 0 here; lambda = 1 and Weyl slope 1 are
        # the other closed forms this chain reproduces.
        deviations = {"edges": edge_err, "lambda_min": abs(lam - 1.0),
                      "weyl_slope": abs(slope - 1.0)}
        return max(deviations.values()), checks, deviations


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {
    "corr-exact": CorrExact,
    "perturbed-edges": PerturbedEdges,
    "fig2-exact": Fig2Exact,
}
