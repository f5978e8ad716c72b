"""Command-line entry point wiring configs, pipelines, and artifacts.

One binary with a subcommand per pipeline.  Every run writes its outputs
plus a metadata sidecar (config hash, seed, versions); runtime failures
exit 1 with a machine-readable error JSON on stderr, while usage errors
exit 2 through argparse.  Fixed (config, seed) pairs give byte-identical
artifacts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ExperimentManifest:
    pipeline: str
    config: Optional[str]
    seed: int
    out: str
    threads: int
    quiet: bool
    options: dict


def _limit_threads(n: int):
    os.environ.setdefault("OMP_NUM_THREADS", str(n))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(n))
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=n)
    except ImportError:
        return contextlib.nullcontext()


def _say(manifest, text):
    if not manifest.quiet:
        print(text)


def _load(manifest):
    from .config import parse_config

    cfg = parse_config(manifest.config) if manifest.config else {}
    return cfg


def _option(manifest, name, cfg, key, default=None):
    """A command-line option, else the config key, else the default.

    Only an absent option (None) falls through, so an explicit zero is kept.
    """
    value = manifest.options.get(name)
    return cfg.get(key, default) if value is None else value


def _model(cfg):
    from .config import MODEL_KEYS, subset
    from .model import build_model

    return build_model(subset(cfg, MODEL_KEYS))


def _potential(cfg):
    from .model import PotentialSpec

    return PotentialSpec(
        c0=cfg.get("potential_const", 0.0),
        c1=cfg.get("potential_shape", 0.0),
        c2=cfg.get("potential_u_half", 0.0),
    )


def _plan(cfg, seed):
    from .birkhoff import SamplingPlan
    from .config import PLAN_KEYS, subset

    return SamplingPlan(seed=seed, **subset(cfg, PLAN_KEYS))


def _run_band_edges(manifest, cfg):
    from .birkhoff import band_edges_upto
    from .tableio import write_band_edges, write_metadata

    model = _model(cfg)
    k_top = _option(manifest, "k", cfg, "k_band", 0)
    edges = band_edges_upto(model, _potential(cfg), k_top,
                            _plan(cfg, manifest.seed))
    write_band_edges(manifest.out, edges)
    write_metadata(
        manifest.out, manifest.seed, manifest.config,
        extra={"diagnostics": [
            {"k": e.k, "converged": e.converged,
             "gamma_plus_random": e.gamma_plus_random,
             "gamma_plus_words": e.gamma_plus_words,
             "gamma_minus_random": e.gamma_minus_random,
             "gamma_minus_words": e.gamma_minus_words}
            for e in edges
        ]},
    )
    for e in edges:
        _say(manifest, "k=%d  [%.6f, %.6f]  err %.2e" % (
            e.k, e.gamma_minus, e.gamma_plus, e.extrapolation_error))
    return edges


def _run_resonances(manifest, cfg):
    from .catalog import resonances_from_laplacian, synthetic_weyl_spectrum
    from .tableio import read_spectrum, write_metadata, write_resonances

    spectrum_path = manifest.options.get("spectrum")
    if spectrum_path:
        spectrum = read_spectrum(spectrum_path)
    else:
        spectrum = synthetic_weyl_spectrum(
            area=cfg.get("area", 4.0 * 3.141592653589793),
            mu_max=cfg.get("mu_max", 400.0),
            jitter=cfg.get("jitter", 0.0),
            seed=manifest.seed,
        )
    k_max = _option(manifest, "kmax", cfg, "k_max", 3)
    n_max = _option(manifest, "nmax", cfg, "n_max", 0)
    rl = resonances_from_laplacian(spectrum, k_max, n_max)
    write_resonances(manifest.out, rl)
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"area": spectrum.area, "source": spectrum.source,
                          "n_entries": len(rl)})
    _say(manifest, "%d resonances for k <= %d" % (len(rl), k_max))
    return rl


def _default_u():
    from .model import ObservableSpec
    return ObservableSpec(c_bump=1.0)


def _default_v():
    from .model import ObservableSpec
    return ObservableSpec(c_cos=1.0)


def _run_correlate(manifest, cfg):
    from .config import parse_observable
    from .correlation import correlation_series, mean_zero
    from .tableio import write_metadata, write_series

    model = _model(cfg)
    u_text = manifest.options.get("u")
    v_text = manifest.options.get("v")
    u = parse_observable(u_text) if u_text else _default_u()
    v = parse_observable(v_text) if v_text else _default_v()
    if not manifest.options.get("raw_mean"):
        u = mean_zero(model, u)
        v = mean_zero(model, v)
    series = correlation_series(
        model, u, v,
        dt=cfg.get("dt", 0.05),
        n_lags=cfg.get("n_lags", 4000),
        n_samples=cfg.get("n_samples", 100000),
        seed=manifest.seed,
    )
    write_series(manifest.out, series)
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"n_samples": series.n_samples,
                          "volume": series.volume})
    _say(manifest, "series of %d lags, C(0) = %.6g" % (
        len(series), series.values[0]))


def _run_invert(manifest, cfg):
    from .inversion import harmonic_inversion
    from .tableio import read_series, write_metadata, write_modes

    series = read_series(manifest.options["series"])
    modes = harmonic_inversion(
        series,
        max_modes=_option(manifest, "max_modes", cfg, "max_modes", 12),
        sv_threshold=_option(manifest, "sv_threshold", cfg, "sv_threshold",
                             1e-3),
    )
    write_modes(manifest.out, modes)
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"n_modes": len(modes), "residual": modes.residual})
    _say(manifest, "%d modes, residual %.3g" % (len(modes), modes.residual))


def _resonance_list(manifest, rl):
    """The catalogue handed over in memory, else the --resonances file."""
    from .tableio import read_resonances

    return read_resonances(manifest.options["resonances"]) if rl is None else rl


def _run_weyl(manifest, cfg, rl=None):
    from .stats import weyl_count
    from .tableio import write_csv, write_metadata

    rl = _resonance_list(manifest, rl)
    report = weyl_count(
        rl,
        k=manifest.options.get("k", 0),
        b=_option(manifest, "b", cfg, "weyl_b", 10.0),
        eps_exponent=cfg.get("eps_exponent", 0.0),
        b_max=_option(manifest, "bmax", cfg, "weyl_b_max"),
    )
    write_csv(manifest.out, ("b", "count"),
              zip(report.ladder, report.window_counts))
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"k": report.k, "slope": report.slope,
                          "prefactor": report.prefactor,
                          "fit_omitted": report.fit_omitted})
    _say(manifest, "slope %s over %d rungs" % (report.slope, len(report.ladder)))


def _run_bands(manifest, cfg, rl=None, edges=None):
    from .stats import DEFAULT_IM_CUTOFF, band_membership
    from .tableio import read_band_edges, write_csv, write_metadata

    rl = _resonance_list(manifest, rl)
    if edges is None:
        edges = read_band_edges(manifest.options["edges"])
    # default enlargement matches the accuracy contract of fitted edges
    report = band_membership(
        rl, edges,
        eps=_option(manifest, "eps", cfg, "band_eps", 1.0e-3),
        im_cutoff=_option(manifest, "im_cutoff", cfg, "im_cutoff",
                          DEFAULT_IM_CUTOFF),
    )
    labels = sorted(report.counts, key=str)
    write_csv(manifest.out, ("label", "count"),
              [(l, report.counts[l]) for l in labels])
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"n_violations": report.n_violations,
                          "im_cutoff": report.im_cutoff, "eps": report.eps})
    _say(manifest, "violations: %d of %d" % (
        report.n_violations, len(report.assignments)))


def _run_concentrate(manifest, cfg, rl=None):
    from .stats import concentration
    from .tableio import write_csv, write_metadata

    rl = _resonance_list(manifest, rl)
    d_mean = _option(manifest, "dmean", cfg, "d_mean")
    if d_mean is None:
        raise _usage("concentrate needs --dmean or a d_mean config key")
    report = concentration(
        rl, float(d_mean),
        b_max=_option(manifest, "bmax", cfg, "concentration_b_max", 40.0),
    )
    write_csv(manifest.out, ("b", "statistic"),
              zip(report.ladder, report.statistic))
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"d_mean": report.d_mean, "final": report.final,
                          "nonincreasing": report.nonincreasing})
    _say(manifest, "final statistic %s (nonincreasing: %s)" % (
        report.final, report.nonincreasing))


def _run_verify(manifest, cfg):
    from .flow import liouville_ks, verify_anosov
    from .tableio import write_json, write_metadata

    model = _model(cfg)
    report = verify_anosov(
        model,
        n_samples=cfg.get("verify_samples", 200),
        t_check=cfg.get("verify_time", 60.0),
        seed=manifest.seed,
    )
    payload = {
        "passed": report.passed,
        "lambda_forward": report.lambda_forward,
        "lambda_backward": report.lambda_backward,
        "lambda_min": report.lambda_min,
        "riccati_low": report.riccati_low,
        "riccati_high": report.riccati_high,
        "riccati_bounds": list(report.riccati_bounds),
        "contact_alpha_error": report.contact_alpha_error,
        "contact_nondegeneracy": report.contact_nondegeneracy,
        "n_samples": report.n_samples,
        "t_check": report.t_check,
    }
    if model.is_exact:
        ks = liouville_ks(model, n=cfg.get("ks_samples", 15000),
                          seed=manifest.seed)
        payload["volume_ks"] = {k: float(v) for k, v in ks.items()}
    write_json(manifest.out, payload)
    write_metadata(manifest.out, manifest.seed, manifest.config)
    _say(manifest, "hyperbolicity check passed: %s (lambda %.4f)" % (
        report.passed, report.lambda_min))


def _run_orbit_dump(manifest, cfg):
    import numpy as np

    from .flow import _step_count, evaluate_observable, make_ensemble, sample_liouville
    from .model import damping_observable
    from .tableio import write_metadata, write_orbit_dump

    model = _model(cfg)
    damp = damping_observable(model, _potential(cfg))
    span = _option(manifest, "t", cfg, "horizon", 50.0)
    dt = cfg.get("dt", 0.1)
    n = _step_count(model, span, dt)
    rng = np.random.default_rng(manifest.seed)
    z, th = sample_liouville(model, 1, rng)
    ens = make_ensemble(model, z, th).burn_in()
    rows_t, rows_z, rows_th, rows_u, rows_d = [], [], [], [], []
    for i in range(n + 1):
        if i:
            ens.advance(dt)
        zz, tt, uu = ens.states()
        rows_t.append(i * dt)
        rows_z.append(zz[0])
        rows_th.append(tt[0])
        rows_u.append(uu[0])
        rows_d.append(float(evaluate_observable(model, damp, zz, tt, uu)[0]))
    write_orbit_dump(manifest.out, rows_t, rows_z, rows_th, rows_u, rows_d)
    write_metadata(manifest.out, manifest.seed, manifest.config,
                   extra={"span": span, "dt": dt})


def _run_figure2(manifest, cfg):
    """verify -> edges (k<=3) -> synthetic catalog -> bands/weyl/concentrate.

    The catalogue and the edges pass to the last three stages in memory; the
    files hold the same values, since floats are written to round-trip.
    """
    from .birkhoff import space_average
    from .model import damping_observable

    out_dir = manifest.out
    os.makedirs(out_dir, exist_ok=True)

    def sub(name, **options):
        return ExperimentManifest(
            pipeline=name, config=manifest.config, seed=manifest.seed,
            out=os.path.join(out_dir, _FIG2_NAMES[name]),
            threads=manifest.threads, quiet=manifest.quiet, options=options,
        )

    _run_verify(sub("verify-anosov"), cfg)
    edges = _run_band_edges(sub("band-edges", k=3), cfg)
    rl = _run_resonances(sub("resonances"), cfg)
    _run_bands(sub("bands"), cfg, rl, edges)
    _run_weyl(sub("weyl", k=0), cfg, rl)
    model = _model(cfg)
    d_mean, _ = space_average(
        model, damping_observable(model, _potential(cfg)),
        cfg.get("n_samples", 20000), seed=manifest.seed,
    )
    _run_concentrate(sub("concentrate", dmean=d_mean), cfg, rl)


_FIG2_NAMES = {
    "verify-anosov": "verify.json",
    "band-edges": "band_edges.csv",
    "resonances": "resonances.json",
    "bands": "bands.csv",
    "weyl": "weyl.csv",
    "concentrate": "concentration.csv",
}

_HANDLERS = {
    "band-edges": _run_band_edges,
    "resonances": _run_resonances,
    "correlate": _run_correlate,
    "invert": _run_invert,
    "weyl": _run_weyl,
    "bands": _run_bands,
    "concentrate": _run_concentrate,
    "verify-anosov": _run_verify,
    "reproduce-fig2": _run_figure2,
    "orbit-dump": _run_orbit_dump,
}


class _usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anosovlab",
        description="resonance band structure of surface geodesic flows",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed recorded in all artifacts")
    common.add_argument("--out", required=True,
                        help="output file (directory for reproduce-fig2)")
    common.add_argument("--threads", type=int, default=1,
                        help="linear-algebra worker threads")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")

    sub = parser.add_subparsers(dest="pipeline", required=True)

    p = sub.add_parser("band-edges", parents=[common],
                       help="extremal-average band edges up to --k")
    p.add_argument("--k", type=int, help="largest band index (default 0)")

    p = sub.add_parser("resonances", parents=[common],
                       help="analytic catalog from a Laplace spectrum")
    p.add_argument("--spectrum", help="CSV index,mu (else synthetic)")
    p.add_argument("--kmax", type=int, help="largest band index")
    p.add_argument("--nmax", type=int, help="largest integer resonance")

    p = sub.add_parser("correlate", parents=[common],
                       help="Monte Carlo correlation series")
    p.add_argument("--u", help="observable, e.g. 'bump=1,bump_sigma=0.5'")
    p.add_argument("--v", help="observable (defaults: bump / cos)")
    p.add_argument("--raw-mean", dest="raw_mean", action="store_true",
                   help="skip the mean-zero shift of u and v")

    p = sub.add_parser("invert", parents=[common],
                       help="harmonic inversion of a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--max-modes", dest="max_modes", type=int)
    p.add_argument("--sv-threshold", dest="sv_threshold", type=float)

    p = sub.add_parser("weyl", parents=[common],
                       help="window counts along a height ladder")
    p.add_argument("--resonances", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--b", type=float)
    p.add_argument("--bmax", type=float)

    p = sub.add_parser("bands", parents=[common],
                       help="membership of resonances in enlarged bands")
    p.add_argument("--resonances", required=True)
    p.add_argument("--edges", required=True, help="band-edge CSV")
    p.add_argument("--eps", type=float)
    p.add_argument("--im-cutoff", dest="im_cutoff", type=float)

    p = sub.add_parser("concentrate", parents=[common],
                       help="mean distance to the line Re z = <D>")
    p.add_argument("--resonances", required=True)
    p.add_argument("--dmean", type=float)
    p.add_argument("--bmax", type=float)

    sub.add_parser("verify-anosov", parents=[common],
                   help="hyperbolicity, contact, and volume checks")

    p = sub.add_parser("orbit-dump", parents=[common],
                       help="one sampled orbit as CSV (t,x,y,theta,u,D)")
    p.add_argument("--t", type=float, help="time span")

    sub.add_parser("reproduce-fig2", parents=[common],
                   help="chain the pipelines behind both figure panels")
    return parser


def run(manifest: ExperimentManifest) -> None:
    """Execute one pipeline, writing its artifacts and their sidecars."""
    cfg = _load(manifest)
    with _limit_threads(manifest.threads):
        _HANDLERS[manifest.pipeline](manifest, cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    known = {"pipeline", "config", "seed", "out", "threads", "quiet"}
    options = {k: v for k, v in vars(args).items() if k not in known}
    manifest = ExperimentManifest(
        pipeline=args.pipeline,
        config=args.config,
        seed=args.seed,
        out=args.out,
        threads=args.threads,
        quiet=args.quiet,
        options=options,
    )
    try:
        run(manifest)
    except _usage as exc:
        parser.error(str(exc))  # exits 2
    except Exception as exc:
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "pipeline": manifest.pipeline,
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
